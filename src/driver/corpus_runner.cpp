#include "driver/corpus_runner.hpp"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>

#include "appgen/generator.hpp"
#include "driver/outcome_codec.hpp"
#include "driver/result_cache.hpp"
#include "driver/sandbox.hpp"
#include "driver/shard_merge.hpp"
#include "support/hash.hpp"
#include "support/io.hpp"
#include "support/journal.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"
#include "support/worker_pool.hpp"

namespace dydroid::driver {

namespace {

/// Salt for the driver-level fault session (journal.append / driver.kill
/// sites): distinct from every per-app session seed, deterministic in the
/// runner's seed base.
constexpr std::uint64_t kDriverFaultSalt = 0xD21BE9u;

/// Salt for the per-app *sandbox* fault session (sandbox.crash and the
/// sandbox.pool.* sites): supervisor-side decisions draw from a stream
/// derived from the app seed + attempt but distinct from the pipeline's
/// in-child per-app session, so arming sandbox sites never perturbs the
/// analysis itself.
constexpr std::uint64_t kSandboxFaultSalt = 0x5ABD0Cull;

/// When RunnerConfig::sandbox_deadline_ms is unset, the kill budget is a
/// generous multiple of the pipeline's per-attempt wall budget: plenty of
/// slack for RPC overhead on a healthy app, still a hard bound on a hung
/// one.
constexpr double kSandboxDeadlineSlack = 10.0;
constexpr double kSandboxDeadlinePadMs = 1000.0;

/// A child SIGKILLed by neither our deadline supervisor is either the
/// kernel OOM killer or an unrelated external kill (a chaos harness, an
/// operator). The two are indistinguishable from the parent, so the
/// supervisor transparently re-dispatches the attempt to a fresh worker a
/// bounded number of times: a genuine memory hog dies again immediately
/// (and is then classified killed_oom), while a randomly kill -9'd child
/// just re-runs — which is what keeps tools/run_isolation_matrix.sh's
/// summaries golden.
constexpr int kExternalKillRespawns = 2;

/// Narrow a global corpus index into the u32 trace-context field. The
/// corpus identity must never silently truncate (with sharding, the global
/// index IS the app's identity across processes); validate_runner_config
/// bounds every run below kMaxCorpusApps, so a trip here means an internal
/// slot-mapping bug — fail loudly rather than tag spans with a wrapped id.
std::uint32_t trace_app_id(std::size_t index) {
  if (index >= support::kTraceNoApp) {
    throw std::runtime_error(support::format(
        "runner: corpus index %zu overflows the u32 trace context", index));
  }
  return static_cast<std::uint32_t>(index);
}

}  // namespace

void AggregateStats::absorb(const AppOutcome& outcome) {
  const auto& report = outcome.report;
  ++apps;
  switch (report.status) {
    case core::DynamicStatus::kNotRun: ++not_run; break;
    case core::DynamicStatus::kRewritingFailure: ++rewriting_failure; break;
    case core::DynamicStatus::kNoActivity: ++no_activity; break;
    case core::DynamicStatus::kCrash: ++crashed; break;
    case core::DynamicStatus::kExercised: ++exercised; break;
  }
  if (outcome.timed_out) ++timed_out;
  if (outcome.attempts > 1) ++retried;
  if (outcome.quarantined) ++quarantined;
  switch (outcome.sandbox_fate) {
    case SandboxFate::kNone: break;
    case SandboxFate::kCrashed: ++sandbox_crashed; break;
    case SandboxFate::kOomKilled: ++killed_oom; break;
    case SandboxFate::kTimedOut: ++killed_timeout; break;
  }
  if (outcome.cache_checked) {
    if (outcome.cache_hit) {
      ++cache_hits;
    } else {
      ++cache_misses;
    }
  }
  if (report.decompile_failed) ++decompile_failed;
  if (report.static_dcl.any()) ++static_dcl;
  if (!report.binaries.empty()) ++intercepted;
  if (!report.remote_loaded().empty()) ++remote_loaders;
  if (!report.malware_loaded().empty()) ++malware_carriers;
  if (!report.vulns.empty()) ++vulnerable;
  for (const auto& binary : report.binaries) {
    if (!binary.privacy.leaks.empty()) {
      ++privacy_leaking;
      break;
    }
  }
  binaries += report.binaries.size();
  events += report.events.size();
  total_app_ms += outcome.wall_ms;
  if (outcome.wall_ms > max_app_ms) max_app_ms = outcome.wall_ms;
}

void AggregateStats::merge(const AggregateStats& other) {
  apps += other.apps;
  not_run += other.not_run;
  rewriting_failure += other.rewriting_failure;
  no_activity += other.no_activity;
  crashed += other.crashed;
  exercised += other.exercised;
  decompile_failed += other.decompile_failed;
  static_dcl += other.static_dcl;
  intercepted += other.intercepted;
  remote_loaders += other.remote_loaders;
  malware_carriers += other.malware_carriers;
  vulnerable += other.vulnerable;
  privacy_leaking += other.privacy_leaking;
  binaries += other.binaries;
  events += other.events;
  timed_out += other.timed_out;
  retried += other.retried;
  quarantined += other.quarantined;
  sandbox_crashed += other.sandbox_crashed;
  killed_oom += other.killed_oom;
  killed_timeout += other.killed_timeout;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  total_app_ms += other.total_app_ms;
  if (other.max_app_ms > max_app_ms) max_app_ms = other.max_app_ms;
}

std::size_t resolve_jobs(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t fallback = hw > 0 ? hw : 1;
  const char* env = std::getenv("DYDROID_JOBS");
  if (env == nullptr || env[0] == '\0') return fallback;
  // Strict parse: "4x", "nope" or "-1" must warn-and-default, never throw
  // or silently wrap (the old strtoul accepted "4x" as 4 and "nope" as a
  // silent fallthrough). The warning goes straight to stderr — env
  // misconfiguration must be visible even when the log level is Error
  // (the CLI survey path quiets the logger).
  const auto parsed = support::parse_u64(env);
  if (!parsed.ok() || parsed.value() == 0) {
    std::fprintf(stderr,
                 "driver: ignoring invalid DYDROID_JOBS %s (%s); using %zu\n",
                 env, parsed.ok() ? "must be >= 1" : parsed.error().c_str(),
                 fallback);
    return fallback;
  }
  return static_cast<std::size_t>(parsed.value());
}

void validate_runner_config(const RunnerConfig& config,
                            std::uint64_t corpus_size) {
  if (corpus_size > kMaxCorpusApps) {
    throw std::runtime_error(support::format(
        "runner: corpus of %llu apps exceeds the %llu-app ceiling (global "
        "indices must fit the u32 trace context)",
        static_cast<unsigned long long>(corpus_size),
        static_cast<unsigned long long>(kMaxCorpusApps)));
  }
  if (seed_range_overflows(config.seed_base, corpus_size)) {
    throw std::runtime_error(support::format(
        "runner: seed base %llu overflows across %llu apps (seed_for_app "
        "would wrap and two apps would collide on one seed); lower the seed "
        "base",
        static_cast<unsigned long long>(config.seed_base),
        static_cast<unsigned long long>(corpus_size)));
  }
  if (config.shard_count == 0 && config.shard_index != 0) {
    throw std::runtime_error(support::format(
        "runner: shard index %u set without a shard count",
        config.shard_index));
  }
  if (config.shard_count > 0 && config.shard_index >= config.shard_count) {
    throw std::runtime_error(support::format(
        "runner: shard index %u out of range for %u shard(s)",
        config.shard_index, config.shard_count));
  }
  if (config.resume && config.journal_path.empty()) {
    throw std::runtime_error("runner: resume requested without a journal path");
  }
}

CorpusRunner::CorpusRunner(const core::DyDroid& pipeline, RunnerConfig config)
    : pipeline_(&pipeline), config_(std::move(config)) {}

CorpusResult CorpusRunner::run(std::span<const AppJob> jobs) const {
  validate_runner_config(config_, jobs.size());

  // --- corpus sharding (docs/SHARDING.md) ----------------------------------
  // This run owns the global indices ≡ shard_index (mod shard_count); the
  // worker loop walks shard-local slots and maps them back to global
  // indices, so seeds, journal records, trace context and cache keys all
  // stay global-index-derived — the invariant `dydroid merge` relies on.
  const bool sharded = config_.shard_count > 0;
  const std::size_t shard_apps = static_cast<std::size_t>(shard_app_count(
      jobs.size(), config_.shard_index, config_.shard_count));
  const auto global_index_of = [&](std::size_t slot) {
    return sharded ? config_.shard_index +
                         slot * static_cast<std::size_t>(config_.shard_count)
                   : slot;
  };

  CorpusResult result;
  result.shard_apps = shard_apps;
  result.threads = std::min(resolve_jobs(config_.jobs),
                            std::max<std::size_t>(shard_apps, 1));
  result.outcomes.resize(jobs.size());

  const support::Stopwatch corpus_clock;
  const core::PipelineOptions& options = pipeline_->options();

  /// The seed the app at `index` runs (and must have run) with.
  const auto seed_of = [&](std::size_t index) {
    return jobs[index].seed.value_or(seed_for_app(config_.seed_base, index));
  };

  // The pipeline fingerprint keys the result cache and — for sharded
  // journaled runs — pins the shard-metadata record, so compute it once up
  // front when either consumer needs it.
  support::Sha256Digest config_fp;
  if (!config_.cache_dir.empty() || (sharded && !config_.journal_path.empty())) {
    config_fp = config_fingerprint(*pipeline_);
  }
  support::ShardMeta shard_meta;
  shard_meta.shard_index = config_.shard_index;
  shard_meta.shard_count = config_.shard_count;
  shard_meta.seed_base = config_.seed_base;
  shard_meta.corpus_size = jobs.size();
  shard_meta.outcome_codec_version = kOutcomeCodecVersion;
  shard_meta.config_fingerprint = config_fp.bytes;

  // --- resume replay + write-ahead journal setup (docs/CHECKPOINT.md) ------
  // `done[i]` marks outcomes restored from the journal; workers skip them.
  std::vector<char> done(jobs.size(), 0);
  std::optional<support::JournalWriter> journal;
  std::optional<support::FaultSession> driver_faults;
  std::mutex journal_mutex;  // serializes appends + the driver fault session

  bool journal_has_meta = false;
  if (!config_.journal_path.empty()) {
    if (config_.resume) {
      auto read = support::read_journal(config_.journal_path);
      if (!read.ok()) {
        throw std::runtime_error("runner: resume failed: " + read.error());
      }
      if (read.value().torn()) {
        support::log_warn(
            "driver",
            support::format("journal %s: recovered %zu records, dropped %zu "
                            "torn/corrupt tail byte(s)",
                            config_.journal_path.c_str(),
                            read.value().records.size(),
                            read.value().bytes_discarded));
        // Chop the damaged tail off before reopening for append, so the
        // records this run writes land after the last *intact* frame (an
        // O_APPEND writer would otherwise bury them behind the garbage,
        // unreachable to the next reader).
        const support::Status truncated = support::truncate_journal(
            config_.journal_path, read.value().bytes_recovered);
        if (!truncated.ok()) {
          throw std::runtime_error("runner: resume failed: " +
                                   truncated.error());
        }
      }
      std::size_t record_ordinal = 0;
      for (const auto& record : read.value().records) {
        if (support::is_shard_meta(record)) {
          // The shard-metadata record pins everything a per-shard resume
          // must agree on; any disagreement means the journal belongs to a
          // different shard, corpus or pipeline — fail loudly, never
          // silently re-run (docs/SHARDING.md).
          if (record_ordinal != 0) {
            throw std::runtime_error(
                "runner: resume failed: shard-metadata record is not the "
                "journal's first record");
          }
          if (!sharded) {
            throw std::runtime_error(
                "runner: resume failed: journal belongs to a sharded run "
                "(resume it with the matching --shard I/N, or merge the "
                "shard journals first)");
          }
          support::ShardMeta meta;
          try {
            meta = support::decode_shard_meta(record);
          } catch (const std::exception& e) {
            throw std::runtime_error(
                std::string(
                    "runner: resume failed: corrupt shard metadata: ") +
                e.what());
          }
          if (const std::string mismatch =
                  describe_shard_meta_mismatch(meta, shard_meta);
              !mismatch.empty()) {
            throw std::runtime_error(
                "runner: resume failed: journal does not match this run: " +
                mismatch);
          }
          journal_has_meta = true;
          ++record_ordinal;
          continue;
        }
        if (sharded && record_ordinal == 0) {
          // A sharded journal leads with its metadata record; the first
          // record being an outcome means this journal came from an
          // unsharded run — diagnose that directly instead of tripping
          // over whichever record first leaves the shard's residue class.
          throw std::runtime_error(
              "runner: resume failed: journal has outcome records but no "
              "shard-metadata record (unsharded journal resumed with "
              "--shard?)");
        }
        ++record_ordinal;
        DecodedOutcome decoded;
        try {
          decoded = decode_outcome(record);
        } catch (const std::exception& e) {
          // A framed record that passed its CRC but fails to decode means
          // the journal does not belong to this build/corpus: fail loudly
          // rather than silently re-running (and double-counting) apps.
          throw std::runtime_error(
              std::string("runner: resume failed: corrupt journal record: ") +
              e.what());
        }
        if (decoded.index >= jobs.size()) {
          throw std::runtime_error(support::format(
              "runner: resume failed: journal record for app %zu but the "
              "corpus has %zu apps (journal/corpus mismatch?)",
              decoded.index, jobs.size()));
        }
        if (decoded.outcome.seed != seed_of(decoded.index)) {
          throw std::runtime_error(support::format(
              "runner: resume failed: app %zu was journaled with seed %llu "
              "but this run derives seed %llu (different seed base or "
              "corpus?)",
              decoded.index,
              static_cast<unsigned long long>(decoded.outcome.seed),
              static_cast<unsigned long long>(seed_of(decoded.index))));
        }
        if (sharded && decoded.index % config_.shard_count !=
                           config_.shard_index) {
          throw std::runtime_error(support::format(
              "runner: resume failed: journal record for app %zu does not "
              "belong to shard %u/%u (wrong shard's journal?)",
              decoded.index, config_.shard_index, config_.shard_count));
        }
        // Duplicate records resolve last-writer-wins: a record re-appended
        // after an earlier resume supersedes the older one.
        result.outcomes[decoded.index] = std::move(decoded.outcome);
        done[decoded.index] = 1;
      }
    }
    support::JournalWriterOptions journal_options;
    journal_options.fsync_each_record = config_.fsync;
    journal_options.truncate = !config_.resume;
    auto writer =
        support::JournalWriter::open(config_.journal_path, journal_options);
    if (!writer.ok()) throw std::runtime_error("runner: " + writer.error());
    journal.emplace(std::move(writer).take());
    // A sharded run stamps a fresh (or still-empty) journal with its
    // shard-metadata record before any outcome, so every shard journal is
    // self-describing to `dydroid merge` and to later resumes. No ambient
    // fault scope is installed here: metadata stamping is run setup, not a
    // journaled outcome, and must not consume injected-fault budget.
    if (sharded && !journal_has_meta) {
      const support::Status stamped =
          journal->append(support::encode_shard_meta(shard_meta));
      if (!stamped.ok()) {
        throw std::runtime_error("runner: cannot stamp shard metadata: " +
                                 stamped.error());
      }
    }
  }

  // --- content-addressed result cache (docs/CACHE.md) ----------------------
  std::optional<ResultCache> cache;
  if (!config_.cache_dir.empty()) {
    CacheConfig cache_config;
    cache_config.max_entries = config_.cache_max_entries;
    cache_config.max_bytes = config_.cache_max_bytes;
    cache_config.fsync_each_insert = config_.fsync;
    auto opened = ResultCache::open(config_.cache_dir, config_fp, cache_config);
    if (!opened.ok()) throw std::runtime_error("runner: " + opened.error());
    cache.emplace(std::move(opened).take());
  }

  // Arm the driver-level fault session (journal.append / driver.kill /
  // cache.read / cache.write) from the pipeline's plan; per-app sites keep
  // their per-app sessions.
  if ((journal.has_value() || cache.has_value()) &&
      options.faults != nullptr && !options.faults->empty()) {
    driver_faults.emplace(
        *options.faults,
        support::fault_session_seed(config_.seed_base ^ kDriverFaultSalt, 0));
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> aborted{false};
  std::string abort_message;  // written once, under journal_mutex

  /// Graceful shutdown and abort checks, polled between apps only — an
  /// in-flight app always finishes and is journaled.
  const auto should_quit = [&] {
    return aborted.load(std::memory_order_relaxed) ||
           (config_.stop != nullptr &&
            config_.stop->load(std::memory_order_relaxed));
  };

  // One attempt: analyze with the app's seed, recording wall time and the
  // attempt count on every path. The pipeline already converts stage
  // failures into crash outcomes; the catch blocks are the last-resort
  // belt for anything else (bad_alloc, internal logic errors), so a worker
  // thread can never be torn down — and a crashing app still gets its
  // elapsed time recorded instead of wall_ms = 0.
  const auto run_attempt = [&](const AppJob& job, AppOutcome& outcome,
                               std::uint32_t attempt, std::size_t index,
                               std::size_t worker) {
    // Record the attempt as it *starts*, not when the retry policy decides
    // to schedule it: a journaled outcome must never claim an attempt that
    // did not run (live stats and journal replay count `retried` from this
    // field, so the two can never disagree).
    outcome.attempts = attempt + 1;

    core::AnalysisRequest request;
    request.apk = job.apk;
    request.seed = outcome.seed;
    request.attempt = attempt;
    request.scenario_setup = job.scenario ? &job.scenario : nullptr;

    // Nested ambient context: every span opened under this attempt — the
    // stage spans inside analyze(), the sub-phase spans below them — is
    // tagged (app index, attempt, worker) without any plumbing.
    const support::TraceContextScope trace_context(
        trace_app_id(index), attempt, static_cast<std::uint32_t>(worker));

    // Wall-time accounting guard: every exit path — normal return, a crash
    // converted below, or an exception escaping this very machinery (e.g.
    // bad_alloc while forming the crash report) — *accumulates* the
    // attempt's elapsed time into outcome.wall_ms exactly once. Before
    // this guard the escaping-exception path assigned (=) while the
    // normal path accumulated (+=), so paths could disagree about whether
    // earlier attempts' time was included.
    struct WallGuard {
      support::Stopwatch clock;
      double* into;
      ~WallGuard() {
        if (into != nullptr) *into += clock.elapsed_ms();
      }
      /// Normal-path exit: settle the accumulation and report the
      /// attempt's own elapsed ms (for the per-attempt budget check).
      double settle() {
        const double ms = clock.elapsed_ms();
        *into += ms;
        into = nullptr;
        return ms;
      }
    } wall_guard{support::Stopwatch{}, &outcome.wall_ms};

    {
      const support::Span attempt_span("runner", "attempt");
      try {
        outcome.report = pipeline_->analyze(request);
      } catch (const std::exception& e) {
        outcome.report = core::AppReport{};
        outcome.report.status = core::DynamicStatus::kCrash;
        outcome.report.crash_message = std::string("runner: ") + e.what();
      } catch (...) {
        outcome.report = core::AppReport{};
        outcome.report.status = core::DynamicStatus::kCrash;
        outcome.report.crash_message = "runner: unknown exception";
      }
    }
    const double attempt_ms = wall_guard.settle();
    const bool over_budget =
        options.max_app_wall_ms > 0.0 && attempt_ms > options.max_app_wall_ms;
    if (over_budget) outcome.timed_out = true;
    return over_budget ||
           outcome.report.status == core::DynamicStatus::kCrash;
  };

  // --- process-isolation sandbox (docs/ISOLATION.md) -----------------------
  const double sandbox_deadline_ms =
      config_.sandbox_deadline_ms > 0.0
          ? config_.sandbox_deadline_ms
          : (options.max_app_wall_ms > 0.0
                 ? options.max_app_wall_ms * kSandboxDeadlineSlack +
                       kSandboxDeadlinePadMs
                 : 0.0);

  // One forked worker per driver thread, dispatched over a framed RPC pipe
  // and recycled after pool_recycle_apps apps (1 = a fresh child per app).
  // Ownership is strictly 1:1 — each thread only ever touches its own
  // slot, so the vector needs no locks.
  std::vector<std::optional<support::PoolWorker>> pool_workers(
      config_.isolated() ? result.threads : 0);

  /// Child-side serve loop (runs in the forked worker): one framed request
  /// per iteration, each running the *identical* run_attempt machinery
  /// thread mode uses — which is what keeps clean sandboxed outcomes
  /// byte-identical to it. EOF on the request pipe is the
  /// graceful-shutdown signal; any protocol damage exits loudly (a
  /// desynchronized stream cannot be resynchronized).
  const auto pool_serve = [&](int request_fd, int response_fd) -> int {
    support::Bytes message;
    for (;;) {
      std::uint8_t header[support::kPoolMessageHeader];
      const ssize_t got =
          support::read_exact(request_fd, header, sizeof header);
      if (got == 0) return 0;  // clean EOF between requests: shut down
      if (got != static_cast<ssize_t>(sizeof header)) return 3;
      const std::uint32_t payload_len =
          static_cast<std::uint32_t>(header[8]) |
          (static_cast<std::uint32_t>(header[9]) << 8) |
          (static_cast<std::uint32_t>(header[10]) << 16) |
          (static_cast<std::uint32_t>(header[11]) << 24);
      if (payload_len > support::kPoolMaxMessageBytes) return 3;
      message.assign(header, header + sizeof header);
      message.resize(sizeof header + payload_len);
      if (payload_len > 0 &&
          support::read_exact(request_fd, message.data() + sizeof header,
                              payload_len) !=
              static_cast<ssize_t>(payload_len)) {
        return 3;
      }
      const auto request = decode_pool_request(message);
      if (!request.ok()) return 3;
      const PoolRequest& req = request.value();
      if (req.app_index >= jobs.size()) return 3;
      // The injected sandbox.crash decision is drawn in the supervisor
      // (deterministically) and *executed* here as a real abort, so it
      // exercises genuine signal-death classification end to end.
      if (req.crash_child) std::abort();
      AppOutcome child_outcome;
      child_outcome.seed = req.seed;
      (void)run_attempt(jobs[req.app_index], child_outcome, req.attempt,
                        req.app_index, req.worker);
      const support::Bytes response =
          encode_pool_response(req.app_index, child_outcome);
      if (!support::write_fully(response_fd, response.data(),
                                response.size())) {
        return 3;
      }
    }
  };

  /// One sandboxed attempt: ship the dispatch tuple to this thread's worker
  /// (forking one if the slot is empty), classify whatever comes back, and
  /// return the same "failed" predicate run_attempt feeds the retry
  /// policy. Worker recycling (injected, or after K apps) happens strictly
  /// *between* attempts, so it can never change an outcome.
  const auto pool_attempt = [&](AppOutcome& outcome, std::uint32_t attempt,
                                std::size_t index,
                                std::size_t worker_id) -> bool {
    outcome.attempts = attempt + 1;
    // The fate reflects the *final* attempt: a kill on attempt 0 that
    // clears on the retry leaves the app clean, like any transient crash.
    outcome.sandbox_fate = SandboxFate::kNone;
    outcome.fatal_signal = 0;

    const support::TraceContextScope trace_context(
        trace_app_id(index), attempt, static_cast<std::uint32_t>(worker_id));

    // Supervisor-side sandbox fault session: deterministic in (app seed,
    // attempt), separate from the pipeline's per-app session inside the
    // child.
    std::optional<support::FaultSession> sandbox_faults;
    std::optional<support::FaultScope> sandbox_scope;
    if (options.faults != nullptr && !options.faults->empty()) {
      sandbox_faults.emplace(
          *options.faults,
          support::fault_session_seed(outcome.seed ^ kSandboxFaultSalt,
                                      attempt));
      sandbox_scope.emplace(&*sandbox_faults);
    }
    // Drawn here so the decision is deterministic in the supervisor's
    // stream; *executed* in the child as a real abort.
    const bool crash_child =
        support::fault_fire(support::FaultSite::kSandboxCrash);

    support::WorkerLimits limits;
    limits.max_memory_bytes = config_.sandbox_mem_limit_bytes;
    limits.wall_deadline_ms = sandbox_deadline_ms;

    // Accumulate the attempt's wall time (spawn + RPC + recycle) on every
    // exit path, mirroring run_attempt's WallGuard.
    const support::Stopwatch attempt_clock;
    struct AttemptWall {
      const support::Stopwatch* clock;
      double* into;
      ~AttemptWall() { *into += clock->elapsed_ms(); }
    } wall_guard{&attempt_clock, &outcome.wall_ms};

    /// Resolve a sandbox-killed/crashed attempt: synthesized crash report,
    /// classified fate, fatal signal recorded. Always "failed".
    const auto synthesize = [&](SandboxFate fate, int signal,
                                std::string message) {
      outcome.report = core::AppReport{};
      outcome.report.status = core::DynamicStatus::kCrash;
      outcome.report.crash_message = std::move(message);
      outcome.sandbox_fate = fate;
      outcome.fatal_signal = static_cast<std::uint8_t>(signal);
      if (fate == SandboxFate::kTimedOut) outcome.timed_out = true;
      support::count(fate == SandboxFate::kCrashed ? "sandbox.crashed"
                                                   : "sandbox.killed");
      return true;
    };

    std::optional<support::PoolWorker>& slot = pool_workers[worker_id];
    for (int respawn = 0;; ++respawn) {
      // The spawn fault is drawn *unconditionally* — "would the spawn this
      // attempt might need fail?" — never gated on whether this thread's
      // worker happens to be alive. Gating it on pool state would make the
      // hit stream (and therefore which apps fail under p: mode) depend on
      // the worker count, breaking byte-identical reports at any -j.
      const bool spawn_fault =
          support::fault_fire(support::FaultSite::kPoolSpawn);
      if (spawn_fault) {
        if (slot.has_value()) {
          slot->kill();
          slot.reset();
        }
        return synthesize(
            SandboxFate::kCrashed, 0,
            "sandbox: spawn failed: " +
                support::fault_message(support::FaultSite::kPoolSpawn));
      }
      if (!slot.has_value()) {
        const support::Span spawn_span("sandbox", "pool.spawn");
        auto spawned = support::PoolWorker::spawn(pool_serve, limits);
        if (!spawned.ok()) {
          return synthesize(SandboxFate::kCrashed, 0,
                            "sandbox: spawn failed: " + spawned.error());
        }
        slot.emplace(std::move(spawned).take());
        support::count("sandbox.pool.spawned");
      }

      PoolRequest request;
      request.app_index = index;
      request.attempt = attempt;
      request.seed = outcome.seed;
      request.worker = static_cast<std::uint32_t>(worker_id);
      request.crash_child = crash_child;
      support::PoolRpcResult rpc;
      {
        const support::Span rpc_span("sandbox", "pool.rpc");
        support::count("sandbox.pool.rpcs");
        rpc = slot->call(encode_pool_request(request), kPoolRpcMagic,
                         sandbox_deadline_ms);
      }

      using RpcStatus = support::PoolRpcResult::Status;
      if (rpc.status == RpcStatus::kTimeout) {
        slot.reset();
        return synthesize(
            SandboxFate::kTimedOut, SIGKILL,
            support::format(
                "sandbox: killed after exceeding the %.0f ms wall deadline",
                sandbox_deadline_ms));
      }
      if (rpc.status == RpcStatus::kWorkerExit ||
          rpc.status == RpcStatus::kError) {
        slot.reset();
        if (rpc.exited && rpc.exit_code == support::kOomExitCode) {
          return synthesize(
              SandboxFate::kOomKilled, 0,
              "sandbox: allocation failed under the memory limit");
        }
        if (!rpc.exited && rpc.term_signal == SIGKILL) {
          // A SIGKILL that is not ours: kernel OOM killer or an external
          // kill (see kExternalKillRespawns). The in-flight app is
          // transparently re-dispatched to a fresh worker.
          if (respawn < kExternalKillRespawns) {
            support::count("sandbox.respawned");
            continue;
          }
          return synthesize(SandboxFate::kOomKilled, SIGKILL,
                            "sandbox: child SIGKILLed repeatedly "
                            "(kernel out-of-memory kill)");
        }
        if (!rpc.exited && rpc.term_signal != 0) {
          return synthesize(
              SandboxFate::kCrashed, rpc.term_signal,
              support::format("sandbox: child died on signal %d",
                              rpc.term_signal));
        }
        if (rpc.exited && rpc.exit_code != 0) {
          return synthesize(
              SandboxFate::kCrashed, 0,
              support::format("sandbox: child exited with code %d",
                              rpc.exit_code));
        }
        return synthesize(SandboxFate::kCrashed, 0,
                          rpc.error.empty()
                              ? "sandbox: worker exited before shipping a "
                                "response"
                              : rpc.error);
      }

      // Clean response: decode it, honoring the torn-RPC injection site.
      auto decoded =
          support::fault_fire(support::FaultSite::kPoolRpc)
              ? support::Result<DecodedOutcome>::failure(
                    support::fault_message(support::FaultSite::kPoolRpc))
              : decode_pool_response(rpc.message);
      if (!decoded.ok()) {
        // A response that framed but does not decode means the stream can
        // no longer be trusted: retire the worker along with the outcome.
        slot->kill();
        slot.reset();
        return synthesize(SandboxFate::kCrashed, 0, decoded.error());
      }
      AppOutcome shipped = std::move(decoded.value().outcome);
      if (decoded.value().index != index || shipped.seed != outcome.seed) {
        slot->kill();
        slot.reset();
        return synthesize(SandboxFate::kCrashed, 0,
                          "sandbox: result frame for the wrong app");
      }
      outcome.report = std::move(shipped.report);
      if (shipped.timed_out) outcome.timed_out = true;

      // Between-attempt recycling: the outcome above is already settled, so
      // retiring the worker here can never change a report — only reset its
      // heap growth.
      const bool recycle =
          support::fault_fire(support::FaultSite::kPoolRecycle) ||
          (config_.pool_recycle_apps > 0 &&
           slot->served() >= config_.pool_recycle_apps);
      if (recycle) {
        slot->shutdown();
        slot.reset();
        support::count("sandbox.pool.recycled");
      }
      return shipped.timed_out ||
             outcome.report.status == core::DynamicStatus::kCrash;
    }
  };

  /// Attempt dispatcher: the retry policy below is mode-blind.
  const auto one_attempt = [&](const AppJob& job, AppOutcome& outcome,
                               std::uint32_t attempt, std::size_t index,
                               std::size_t worker_id) {
    return config_.isolated()
               ? pool_attempt(outcome, attempt, index, worker_id)
               : run_attempt(job, outcome, attempt, index, worker_id);
  };

  /// Full per-app policy: timeout + single-retry-then-quarantine
  /// (docs/FAULTS.md), wrapped in the escaping-exception belt so that an
  /// exception leaking out of the attempt machinery itself still resolves
  /// into a consistent outcome — attempts ≥ 1, wall time accumulated by
  /// the attempt's WallGuard, timed_out derived by the same budget rule —
  /// instead of terminating the driver.
  const auto analyze_app = [&](const AppJob& job, AppOutcome& outcome,
                               std::size_t index, std::size_t worker) {
    outcome.seed = seed_of(index);
    try {
      bool failed = one_attempt(job, outcome, 0, index, worker);
      if (failed && options.retry_on_crash) {
        // The retry's fault session is salted by the attempt, so transient
        // injected faults clear deterministically; if the retry fails too,
        // the app is quarantined — its final report keeps its Table II
        // bucket.
        support::count("runner.retry");
        failed = one_attempt(job, outcome, 1, index, worker);
        outcome.quarantined = failed;
      }
    } catch (const std::exception& e) {
      outcome.report = core::AppReport{};
      outcome.report.status = core::DynamicStatus::kCrash;
      outcome.report.crash_message =
          std::string("runner: escaped attempt machinery: ") + e.what();
      if (outcome.attempts == 0) outcome.attempts = 1;
      // wall_ms was already accumulated by the attempt's WallGuard; do NOT
      // overwrite it here (the old assignment was the =/+= mixup this
      // guard removes). The budget check runs over the accumulated total —
      // conservative, since the per-attempt split is unknowable here.
      if (options.max_app_wall_ms > 0.0 &&
          outcome.wall_ms > options.max_app_wall_ms) {
        outcome.timed_out = true;
      }
    } catch (...) {
      outcome.report = core::AppReport{};
      outcome.report.status = core::DynamicStatus::kCrash;
      outcome.report.crash_message = "runner: escaped attempt machinery";
      if (outcome.attempts == 0) outcome.attempts = 1;
      if (options.max_app_wall_ms > 0.0 &&
          outcome.wall_ms > options.max_app_wall_ms) {
        outcome.timed_out = true;
      }
    }
    // A sandbox fate surviving to the final attempt always quarantines:
    // an app the OS had to kill is excluded from trust even when
    // retry_on_crash is off (docs/ISOLATION.md).
    if (outcome.sandbox_fate != SandboxFate::kNone) outcome.quarantined = true;
    outcome.completed = true;
    support::count("runner.apps");
    if (outcome.timed_out) support::count("runner.timed_out");
    if (outcome.quarantined) support::count("runner.quarantined");
    support::observe_us("runner.app_wall",
                        static_cast<std::uint64_t>(outcome.wall_ms * 1000.0));
  };

  /// Install the driver fault session (shared with the journal sites) for
  /// the duration of a cache call, serializing its hit counters under the
  /// journal mutex. A no-op (and no lock) when injection is off.
  struct DriverFaultGuard {
    std::optional<std::unique_lock<std::mutex>> lock;
    std::optional<support::FaultScope> scope;
    DriverFaultGuard(std::optional<support::FaultSession>& session,
                     std::mutex& mutex) {
      if (session.has_value()) {
        lock.emplace(mutex);
        scope.emplace(&*session);
      }
    }
  };

  /// Cache-aware analysis of one app (docs/CACHE.md): content-addressed
  /// lookup first, full analysis on a miss, insert after. Cache faults
  /// degrade — a read fault is a miss, a write fault drops the entry — so
  /// cached and uncached runs produce byte-identical reports.
  const auto process_app = [&](const AppJob& job, AppOutcome& outcome,
                               std::size_t index, std::size_t worker_id) {
    if (!cache.has_value()) {
      analyze_app(job, outcome, index, worker_id);
      return;
    }
    CacheKey key;
    key.config = config_fp;
    key.seed = seed_of(index);
    std::optional<AppOutcome> hit;
    {
      // The span covers the digest too: content addressing is the real
      // cost of a lookup on large packages.
      const support::Span lookup_span("cache", "lookup");
      key.apk = support::sha256(job.apk.span());
      const DriverFaultGuard faults(driver_faults, journal_mutex);
      hit = cache->lookup(key);
    }
    if (hit.has_value()) {
      outcome = std::move(*hit);
      outcome.cache_hit = true;
      outcome.cache_checked = true;
      support::count("cache.hit");
      return;
    }
    support::count("cache.miss");
    analyze_app(job, outcome, index, worker_id);
    outcome.cache_checked = true;
    // A sandbox-killed outcome is a fact about the sandbox environment
    // (limits, deadline, external kills), not about the app content the
    // key addresses — never cache it; the app recomputes next run.
    if (outcome.sandbox_fate != SandboxFate::kNone) return;
    const DriverFaultGuard faults(driver_faults, journal_mutex);
    cache->insert(key, outcome);
  };

  /// Write-ahead append of one finished outcome. Returns false when the
  /// run must abort (failed append or injected driver kill).
  const auto journal_outcome = [&](std::size_t index,
                                   const AppOutcome& outcome) {
    // The span covers encode + lock wait + append, so the trace shows
    // journal contention as well as raw write latency (the write-only
    // latency lives in the journal.append_write histogram).
    const support::Span journal_span("journal", "append");
    // One long-lived encode buffer per worker thread: capacity sticks
    // around after the first few appends, so encoding stops allocating.
    thread_local support::ByteWriter encoder;
    encoder.clear();
    encode_outcome_into(index, outcome, encoder);
    const support::Bytes& payload = encoder.data();
    support::count("journal.append_bytes", payload.size());
    const std::lock_guard<std::mutex> lock(journal_mutex);
    if (aborted.load(std::memory_order_relaxed)) return false;
    // Install the driver fault session (if armed) so the journal.append
    // site inside JournalWriter::append and the driver.kill checked
    // boundary below draw from the same deterministic hit stream.
    std::optional<support::FaultScope> scope;
    if (driver_faults.has_value()) scope.emplace(&*driver_faults);
    const support::Status appended = journal->append(payload);
    if (!appended.ok()) {
      abort_message = appended.error();
      aborted.store(true, std::memory_order_relaxed);
      return false;
    }
    if (support::fault_fire(support::FaultSite::kDriverKill)) {
      abort_message = support::fault_message(support::FaultSite::kDriverKill) +
                      support::format(" after %zu journal append(s)",
                                      journal->appended());
      aborted.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  };

  // Each worker claims the next unprocessed shard slot, maps it to its
  // global corpus index (slot == index when unsharded), analyzes it with
  // its global-index-derived seed and writes into that index's pre-sized
  // outcome slot — disjoint writes, no locks on the hot path (the journal
  // mutex is only ever taken when journaling is enabled).
  const auto worker = [&](std::size_t worker_id) {
    for (;;) {
      if (should_quit()) break;
      const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
      if (slot >= shard_apps) break;
      const std::size_t index = global_index_of(slot);
      if (done[index]) continue;  // replayed from the resume journal
      AppOutcome& outcome = result.outcomes[index];
      // Ambient tagging for the journal-append span (the per-attempt spans
      // install their own nested context with the attempt ordinal).
      const support::TraceContextScope trace_context(
          trace_app_id(index), 0, static_cast<std::uint32_t>(worker_id));
      process_app(jobs[index], outcome, index, worker_id);
      if (journal.has_value() && !journal_outcome(index, outcome)) break;
    }
    // Retire this thread's worker gracefully (EOF-driven exit) on every
    // way out of the loop — corpus drained, graceful stop, abort.
    if (worker_id < pool_workers.size() && pool_workers[worker_id]) {
      pool_workers[worker_id]->shutdown();
      pool_workers[worker_id].reset();
    }
  };

  if (result.threads <= 1) {
    worker(0);  // serial fast path: no thread spawn, same code path
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(result.threads);
    for (std::size_t t = 0; t < result.threads; ++t) {
      pool.emplace_back(worker, t);
    }
    pool.clear();  // join
  }

  // Reduce the stats once, in corpus order: deterministic counts *and*
  // deterministic floating-point sums, independent of worker count and of
  // which outcomes were replayed vs. analyzed. The same ordered pass feeds
  // the corpus-wide unique-binary dedup table (docs/CACHE.md), so its
  // stats — and which run first persists a shared blob — are deterministic
  // too.
  BinaryDedupStore dedup(
      config_.cache_dir.empty() ? std::string{} : config_.cache_dir + "/blobs");
  for (const auto& outcome : result.outcomes) {
    if (!outcome.completed) continue;
    result.stats.absorb(outcome);
    dedup.absorb(outcome.report);
    if (outcome.replayed) {
      ++result.replayed;
    } else {
      ++result.analyzed;
    }
  }
  result.dedup = dedup.stats();

  // Seal the journal and the cache before reporting the run's fate:
  // whatever happens next (return or throw), the files on disk are
  // complete, compacted and resumable.
  std::size_t appended_by_this_run = 0;
  if (journal.has_value()) {
    appended_by_this_run = journal->appended();
    const support::Status sealed = journal->seal();
    if (!sealed.ok()) support::log_warn("driver", sealed.error());
    journal.reset();
  }
  if (cache.has_value()) {
    const CacheStats cache_stats = cache->stats();
    result.cache_evictions = cache_stats.evictions;
    result.cache_invalidated = cache_stats.invalidated;
    result.cache_write_failures = cache_stats.write_failures;
    const support::Status sealed = cache->seal();
    if (!sealed.ok()) support::log_warn("driver", sealed.error());
    cache.reset();
  }

  if (aborted.load(std::memory_order_relaxed)) {
    throw RunAborted("runner: run aborted mid-corpus: " + abort_message,
                     appended_by_this_run);
  }

  result.interrupted = result.completed() < shard_apps;
  result.wall_ms = corpus_clock.elapsed_ms();
  return result;
}

CorpusResult CorpusRunner::run(const appgen::Corpus& corpus) const {
  const auto jobs = jobs_from_corpus(corpus);
  return run(jobs);
}

std::vector<AppJob> jobs_from_corpus(const appgen::Corpus& corpus) {
  std::vector<AppJob> jobs;
  jobs.reserve(corpus.apps.size());
  for (const auto& app : corpus.apps) {
    AppJob job;
    job.apk = app.apk;
    job.scenario = [&app](os::Device& device) {
      appgen::apply_scenario(app.scenario, device);
    };
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace dydroid::driver
