// dydroid — command-line front end.
//
//   dydroid gen <out.sapk> [--pkg P] [--ad] [--baidu] [--analytics]
//               [--own-dex] [--native] [--malware FAMILY] [--vuln KIND]
//               [--pack] [--lexical] [--seed N]
//       Generate a SimApk from behaviour flags (writes side-car files
//       <out>.hosted.<i> for any remote payloads the app needs).
//
//   dydroid analyze <app.sapk> [--seed N] [--host URL FILE]...
//               [--journal PATH | --resume PATH] [--cache DIR]
//       Run the full pipeline on one app; print the JSON report. With a
//       journal the finished outcome is appended to the write-ahead log;
//       with --resume a journaled outcome is replayed instead of re-run.
//       With --cache the outcome is served from / inserted into the
//       content-addressed result cache (docs/CACHE.md).
//
//   dydroid disasm <app.sapk>
//       Decompile and print the smali-like listing (fails on
//       anti-decompilation, like the real tooling).
//
//   dydroid pack <in.sapk> <out.sapk> [--trap]
//       Apply the DEX-encryption packer.
//
//   dydroid survey [--scale S] [--seed N] [--faults PLAN] [--budget MS]
//               [--retry] [--journal PATH | --resume PATH] [--fsync]
//               [--cache DIR] [--cache-entries N] [--cache-bytes N]
//               [--trace OUT.json] [--metrics] [--top K]
//       Generate a corpus and print the Section-V style summary. With a
//       journal, every finished app is appended to a crash-safe
//       write-ahead log (docs/CHECKPOINT.md); SIGINT/SIGTERM triggers a
//       graceful stop (in-flight apps finish, the journal is sealed) and
//       a killed or interrupted run resumes with --resume PATH,
//       re-running only the missing apps. --cache DIR arms the
//       content-addressed result cache + binary dedup store
//       (docs/CACHE.md): identical (bytes, config, seed) work is
//       replayed instead of re-analyzed. --trace writes a Chrome
//       trace_event JSON (chrome://tracing / Perfetto) with one span per
//       (app, stage, attempt); --metrics appends the per-stage latency
//       table and the top-K slowest apps (docs/OBSERVABILITY.md).
//       --isolate runs every app in a fresh sandboxed child
//       (docs/ISOLATION.md): crashes, OOMs and hangs are classified,
//       quarantined data points instead of driver outages;
//       --isolate=pool keeps one forked worker per thread alive across
//       apps instead (same classification, fork cost amortized) with
//       --recycle-apps K retiring workers after K apps; --mem-limit
//       caps child address space and implies --isolate.
//
//   dydroid merge <out.journal> <shard.journal>...
//       Fold the journals of N `survey --shard I/N` runs into one sealed
//       journal whose --resume replay is byte-identical to an unsharded
//       run (docs/SHARDING.md). Loud failures on overlapping/missing
//       shards, mismatched config fingerprints or mixed codec versions.
//
//   dydroid faultcheck [--scale S] [--jobs 1,2,8] [--fraction F]
//               [--no-corruption]
//       Run the golden-corpus differential fault matrix (docs/FAULTS.md):
//       every injection site armed in turn must move each app only into
//       its predicted Table II bucket, byte-identical across worker
//       counts. Exit status 1 if any prediction fails.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "analysis/decompiler.hpp"
#include "appgen/corpus.hpp"
#include "core/pipeline.hpp"
#include "core/report_json.hpp"
#include "core/unpacker.hpp"
#include "driver/corpus_runner.hpp"
#include "driver/fault_matrix.hpp"
#include "driver/shard_merge.hpp"
#include "malware/families.hpp"
#include "obfuscation/packer.hpp"
#include "support/blob.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

using namespace dydroid;

namespace {

support::Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return support::Bytes(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, std::span<const std::uint8_t> data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;  // --k v (or "" for flags)
  std::vector<std::pair<std::string, std::string>> hosts;  // --host URL FILE

  bool flag(const std::string& name) const {
    return options.find(name) != options.end();
  }
  std::string value(const std::string& name, std::string fallback) const {
    const auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }
};

Args parse(int argc, char** argv, int first,
           const std::set<std::string>& value_opts) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--host" && i + 2 < argc) {
      args.hosts.emplace_back(argv[i + 1], argv[i + 2]);
      i += 2;
    } else if (a.rfind("--", 0) == 0) {
      const auto key = a.substr(2);
      // --key=value binds inline (the only spelling for optional-value
      // flags like --isolate[=pool]); --key value consumes the next token
      // for the flags registered in value_opts.
      if (const auto eq = key.find('='); eq != std::string::npos) {
        args.options[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (value_opts.count(key) != 0 && i + 1 < argc) {
        args.options[key] = argv[++i];
      } else {
        args.options[key] = "";
      }
    } else {
      args.positional.push_back(std::move(a));
    }
  }
  return args;
}

// --- checked numeric flags --------------------------------------------------
// Every numeric CLI flag goes through these. A malformed value ("--seed
// abc", "--jobs -1", "--scale 1e999", "--jobs 4x") prints a usage error
// and exits 2 — never an uncaught std::invalid_argument/out_of_range from
// a bare std::stoull/std::stod.

std::uint64_t parse_u64_flag(const char* cmd, const char* flag,
                             const std::string& text) {
  const auto parsed = support::parse_u64(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: bad --%s value %s\n", cmd, flag,
                 parsed.error().c_str());
    std::exit(2);
  }
  return parsed.value();
}

double parse_double_flag(const char* cmd, const char* flag,
                         const std::string& text) {
  const auto parsed = support::parse_double(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: bad --%s value %s\n", cmd, flag,
                 parsed.error().c_str());
    std::exit(2);
  }
  return parsed.value();
}

// --- observability plumbing (docs/OBSERVABILITY.md) -------------------------

/// Arm tracing/metrics from --trace/--metrics. Returns the trace path (""
/// = tracing off). Call before the run; finish with report_observability.
std::string configure_observability(const Args& args) {
  const std::string trace_path =
      args.flag("trace") ? args.value("trace", "") : std::string();
  if (!trace_path.empty()) support::set_trace_enabled(true);
  if (args.flag("metrics")) {
    support::set_metrics_enabled(true);
    support::metrics_reset();
  }
  return trace_path;
}

/// Write the Chrome trace (if armed) and print the per-stage latency table
/// + top-K slowest apps (if --metrics) to `out`.
int report_observability(const char* cmd, const Args& args,
                         const std::string& trace_path,
                         const driver::CorpusResult& result, std::FILE* out) {
  if (!trace_path.empty()) {
    support::set_trace_enabled(false);  // freeze the buffers before export
    const auto status = support::trace_write_chrome_json(trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", cmd, status.error().c_str());
      return 1;
    }
    const auto dropped = support::trace_dropped();
    std::fprintf(out, "  trace: %s (%zu spans%s)\n", trace_path.c_str(),
                 support::trace_collect().size(),
                 dropped > 0
                     ? support::format(", %llu dropped",
                                       static_cast<unsigned long long>(dropped))
                           .c_str()
                     : "");
  }
  if (args.flag("metrics")) {
    const auto snapshot = support::metrics_snapshot();
    static constexpr std::string_view kPrefixes[] = {"stage.", "phase.",
                                                     "runner.", "journal."};
    std::fprintf(out, "%s",
                 support::format_latency_table(snapshot, kPrefixes).c_str());
    for (const auto& counter : snapshot.counters) {
      std::fprintf(out, "  counter %-22s %llu\n", counter.name.c_str(),
                   static_cast<unsigned long long>(counter.value));
    }
    // Top-K slowest apps: where the corpus wall time actually went.
    const std::uint64_t top_k =
        parse_u64_flag(cmd, "top", args.value("top", "10"));
    std::vector<const driver::AppOutcome*> slowest;
    std::vector<std::size_t> indices(result.outcomes.size());
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) indices[i] = i;
    std::sort(indices.begin(), indices.end(), [&](std::size_t a, std::size_t b) {
      const double wa = result.outcomes[a].wall_ms;
      const double wb = result.outcomes[b].wall_ms;
      return wa != wb ? wa > wb : a < b;  // deterministic tie-break
    });
    std::fprintf(out, "  top %zu slowest apps:\n",
                 std::min<std::size_t>(top_k, indices.size()));
    for (std::size_t rank = 0;
         rank < indices.size() && rank < static_cast<std::size_t>(top_k);
         ++rank) {
      const auto& outcome = result.outcomes[indices[rank]];
      if (!outcome.completed) continue;
      std::fprintf(
          out, "    #%-6zu %-32s %9.2f ms  attempts=%u%s%s\n", indices[rank],
          outcome.report.package.empty() ? "?" : outcome.report.package.c_str(),
          outcome.wall_ms, outcome.attempts,
          outcome.timed_out ? " timed-out" : "",
          outcome.quarantined ? " quarantined" : "");
    }
  }
  return 0;
}

// --- crash-safe journaling plumbing (docs/CHECKPOINT.md) --------------------

/// Set by the SIGINT/SIGTERM handler; polled by the corpus runner between
/// apps, so an in-flight app always finishes and is journaled.
std::atomic<bool> g_stop{false};

void handle_stop_signal(int) { g_stop.store(true); }

/// Put SIGINT/SIGTERM back to their default dispositions once the runner
/// has returned. The graceful-stop handler is only meaningful while the
/// run polls g_stop; leaving it installed through the (potentially long)
/// report/table printing phase made Ctrl-C a no-op — it flipped a flag
/// nobody reads anymore and the process could not be interrupted.
void restore_stop_signals() {
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
}

/// Scope guard: arms on configure_journal's signal install, restores the
/// defaults when the run block exits — on the normal path and when the
/// runner throws (RunAborted's hint printing must be interruptible too).
struct StopSignalRestorer {
  bool armed = false;
  ~StopSignalRestorer() {
    if (armed) restore_stop_signals();
  }
};

/// Test hook (CLI regression harness): DYDROID_TEST_RAISE_STOP raises
/// SIGINT at the start of the report-printing phase, simulating an
/// operator's Ctrl-C after the run. With the default disposition restored
/// the signal must kill the process; under the old leaked handler it only
/// flipped g_stop and the report printed as if nothing happened.
void maybe_test_raise_stop() {
  if (const char* hook = std::getenv("DYDROID_TEST_RAISE_STOP");
      hook != nullptr && hook[0] != '\0') {
    std::raise(SIGINT);
  }
}

/// Fill the journal fields of a RunnerConfig from --journal / --resume /
/// --fsync (which also covers the cache store). Returns the journal path
/// ("" = journaling off). With a journal active, SIGINT/SIGTERM switch from
/// "kill the process" to "finish in-flight apps, seal the journal, report
/// how to resume".
std::string configure_journal(const Args& args,
                              driver::RunnerConfig& config) {
  const std::string path = args.flag("resume") ? args.value("resume", "")
                                               : args.value("journal", "");
  config.journal_path = path;
  config.resume = args.flag("resume");
  config.fsync = args.flag("fsync");
  if (!path.empty()) {
    config.stop = &g_stop;
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
  }
  return path;
}

// --- corpus sharding plumbing (docs/SHARDING.md) ----------------------------

/// Fill the shard fields of a RunnerConfig from --shard I/N. Returns the
/// shard spec ("" = unsharded); a malformed spec is a usage error (exit 2).
std::string configure_shard(const char* cmd, const Args& args,
                            driver::RunnerConfig& config) {
  if (!args.flag("shard")) return {};
  const std::string spec = args.value("shard", "");
  const auto slash = spec.find('/');
  std::uint64_t index = 0;
  std::uint64_t count = 0;
  bool bad = slash == std::string::npos;
  if (!bad) {
    const auto i = support::parse_u64(spec.substr(0, slash));
    const auto n = support::parse_u64(spec.substr(slash + 1));
    bad = !i.ok() || !n.ok();
    if (!bad) {
      index = i.value();
      count = n.value();
    }
  }
  if (bad || count == 0 || index >= count || count > 0xFFFFFFFFull) {
    std::fprintf(stderr,
                 "%s: bad --shard value '%s' (want I/N with 0 <= I < N)\n",
                 cmd, spec.c_str());
    std::exit(2);
  }
  config.shard_index = static_cast<std::uint32_t>(index);
  config.shard_count = static_cast<std::uint32_t>(count);
  return spec;
}

// --- result cache plumbing (docs/CACHE.md) ----------------------------------

/// Fill the cache fields of a RunnerConfig from --cache DIR and the
/// optional --cache-entries/--cache-bytes LRU bounds. Returns the cache
/// directory ("" = caching off).
std::string configure_cache(const char* cmd, const Args& args,
                            driver::RunnerConfig& config) {
  config.cache_dir = args.value("cache", "");
  if (config.cache_dir.empty()) return {};
  config.cache_max_entries = static_cast<std::size_t>(parse_u64_flag(
      cmd, "cache-entries", args.value("cache-entries", "0")));
  config.cache_max_bytes =
      parse_u64_flag(cmd, "cache-bytes", args.value("cache-bytes", "0"));
  return config.cache_dir;
}

// --- process-isolation plumbing (docs/ISOLATION.md) -------------------------

/// Fill the sandbox fields of a RunnerConfig from --isolate[=fork|pool],
/// --mem-limit and --recycle-apps. Returns the sandbox label for the
/// summary line, or nullptr when isolation is off. Both modes run the
/// worker pool: a bare --isolate, --isolate=fork and a lone --mem-limit (a
/// memory cap is only enforceable on a forked child) recycle the worker
/// after every app, which is fork-per-app containment; --isolate=pool keeps
/// workers until --recycle-apps K apps have been served (0 = never).
const char* configure_isolation(const char* cmd, const Args& args,
                                driver::RunnerConfig& config) {
  const std::string mode = args.value("isolate", "");
  const bool pool = mode == "pool";
  if (!pool && !mode.empty() && mode != "fork") {
    std::fprintf(stderr,
                 "%s: invalid --isolate mode '%s' (expected fork or pool)\n",
                 cmd, mode.c_str());
    std::exit(2);
  }
  if (!args.flag("isolate") && !args.flag("mem-limit")) return nullptr;
  config.isolation_mode = driver::IsolationMode::kPool;
  if (args.flag("mem-limit")) {
    config.sandbox_mem_limit_bytes =
        parse_u64_flag(cmd, "mem-limit", args.value("mem-limit", "0"));
  }
  if (!pool) {
    if (args.flag("recycle-apps")) {
      std::fprintf(stderr,
                   "%s: --recycle-apps needs --isolate=pool (fork mode "
                   "already uses a fresh child per app)\n",
                   cmd);
      std::exit(2);
    }
    config.pool_recycle_apps = 1;
    return "fork-per-app";
  }
  if (args.flag("recycle-apps")) {
    config.pool_recycle_apps = static_cast<std::uint32_t>(parse_u64_flag(
        cmd, "recycle-apps", args.value("recycle-apps", "0")));
  }
  return "worker-pool";
}

int cmd_gen(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "gen: missing output path\n");
    return 2;
  }
  appgen::AppSpec spec;
  spec.package = args.value("pkg", "com.example.generated");
  spec.category = args.value("category", "Tools");
  spec.ad_sdk = args.flag("ad");
  spec.baidu_remote_sdk = args.flag("baidu");
  spec.analytics_sdk = args.flag("analytics");
  spec.own_dex_dcl = args.flag("own-dex");
  spec.sdk_native_dcl = args.flag("native");
  spec.lexical = args.flag("lexical");
  spec.dex_encryption = args.flag("pack");
  spec.reflection = args.flag("reflection");
  if (args.flag("malware")) {
    const auto name = args.value("malware", "swiss");
    malware::Family family = malware::Family::SwissCodeMonkeys;
    if (name == "adware") family = malware::Family::AdwareAirpushMinimob;
    if (name == "chathook") family = malware::Family::ChathookPtrace;
    spec.malware.push_back(appgen::MalwarePayloadSpec{family, {}});
  }
  if (args.flag("vuln")) {
    const auto kind = args.value("vuln", "dex-external");
    spec.vuln = kind == "native-other"
                    ? appgen::VulnKind::NativeOtherAppInternal
                    : appgen::VulnKind::DexExternalStorage;
    spec.min_sdk = 16;
  }
  support::Rng rng(parse_u64_flag("gen", "seed", args.value("seed", "1")));
  const auto app = appgen::build_app(spec, rng);
  write_file(args.positional[0], app.apk);
  std::printf("wrote %s (%zu bytes, package %s)\n",
              args.positional[0].c_str(), app.apk.size(),
              spec.package.c_str());
  // Side-car files so `analyze --host` can serve them.
  int i = 0;
  for (const auto& [url, payload] : app.scenario.hosted_urls) {
    const auto side = args.positional[0] + ".hosted." + std::to_string(i++);
    write_file(side, payload);
    std::printf("  remote dependency: --host %s %s\n", url.c_str(),
                side.c_str());
  }
  i = 0;
  for (const auto& companion : app.scenario.companion_apks) {
    const auto side = args.positional[0] + ".companion." + std::to_string(i++);
    write_file(side, companion);
    std::printf("  companion app: --companion %s\n", side.c_str());
  }
  return 0;
}

int cmd_analyze(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "analyze: missing input path\n");
    return 2;
  }
  const auto bytes = support::Blob::take(read_file(args.positional[0]));
  core::PipelineOptions options;
  support::FaultPlan faults;  // must outlive the pipeline
  if (args.flag("faults")) {
    auto parsed = support::FaultPlan::parse(args.value("faults", ""));
    if (!parsed.ok()) {
      std::fprintf(stderr, "analyze: bad --faults plan: %s\n",
                   parsed.error().c_str());
      return 2;
    }
    faults = std::move(parsed.value());
    options.faults = &faults;
  }
  std::vector<std::pair<std::string, support::Bytes>> hosted;
  for (const auto& [url, file] : args.hosts) {
    hosted.emplace_back(url, read_file(file));
  }
  std::vector<support::Bytes> companions;
  if (args.flag("companion")) {
    companions.push_back(read_file(args.value("companion", "")));
  }
  options.scenario_setup = [hosted, companions](os::Device& device) {
    for (const auto& [url, payload] : hosted) {
      device.network().host(url, payload);
    }
    for (const auto& companion : companions) {
      (void)device.install(apk::ApkFile::deserialize(companion));
    }
  };
  const auto detector = malware::train_detector(4, 0xD401DA);
  options.detector = &detector;
  const std::uint64_t seed =
      parse_u64_flag("analyze", "seed", args.value("seed", "1"));
  driver::RunnerConfig runner_config;
  const std::string journal_path = configure_journal(args, runner_config);
  const std::string shard_spec = configure_shard("analyze", args, runner_config);
  const std::string cache_dir = configure_cache("analyze", args, runner_config);
  const bool isolate =
      configure_isolation("analyze", args, runner_config) != nullptr;
  const std::string shard_hint =
      shard_spec.empty() ? std::string() : " --shard " + shard_spec;
  core::DyDroid pipeline(std::move(options));
  if (journal_path.empty() && cache_dir.empty() && !isolate &&
      shard_spec.empty()) {
    const auto report = pipeline.analyze(bytes, seed);
    std::printf("%s", core::report_to_json(report).c_str());
    return 0;
  }
  // Journaled and/or cached single-app run: route through the corpus
  // runner so the outcome is written ahead (and replayed byte-identically
  // on --resume) and/or served by the content-addressed cache.
  runner_config.jobs = 1;
  driver::AppJob job;
  job.apk = bytes;
  job.seed = seed;  // the journal validates the seed on resume
  const driver::CorpusRunner runner(pipeline, runner_config);
  driver::CorpusResult result;
  try {
    StopSignalRestorer restore;
    restore.armed = !journal_path.empty();
    result = runner.run(std::span<const driver::AppJob>(&job, 1));
  } catch (const driver::RunAborted& e) {
    std::fprintf(stderr, "analyze: %s\n", e.what());
    if (!journal_path.empty()) {
      std::fprintf(stderr,
                   "  resume with: dydroid analyze %s --resume %s%s\n",
                   args.positional[0].c_str(), journal_path.c_str(),
                   shard_hint.c_str());
    }
    return 3;
  }
  maybe_test_raise_stop();
  if (result.shard_apps == 0) {
    // A 1-app corpus sharded I/N with I > 0: this shard owns no apps —
    // a valid empty shard, not an error (its journal still carries the
    // shard metadata `dydroid merge` needs).
    std::printf("shard %s owns no apps of a 1-app corpus; nothing to do\n",
                shard_spec.c_str());
    return 0;
  }
  if (result.interrupted || result.outcomes.empty() ||
      !result.outcomes[0].completed) {
    std::fprintf(stderr, "analyze: interrupted before the app completed\n");
    if (!journal_path.empty()) {
      std::fprintf(stderr,
                   "  resume with: dydroid analyze %s --resume %s%s\n",
                   args.positional[0].c_str(), journal_path.c_str(),
                   shard_hint.c_str());
    }
    return 3;
  }
  if (isolate && result.outcomes[0].sandbox_fate != driver::SandboxFate::kNone) {
    std::fprintf(stderr, "analyze: sandbox: %s (signal %d)\n",
                 result.outcomes[0].report.crash_message.c_str(),
                 result.outcomes[0].fatal_signal);
  }
  std::printf("%s", core::report_to_json(result.outcomes[0].report).c_str());
  return 0;
}

int cmd_disasm(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "disasm: missing input path\n");
    return 2;
  }
  const auto ir = analysis::decompile(read_file(args.positional[0]));
  if (!ir.ok()) {
    std::fprintf(stderr, "decompilation failed (anti-decompilation?): %s\n",
                 ir.error().c_str());
    return 1;
  }
  std::printf("%s\n-- manifest --\n%s", ir.value().smali.c_str(),
              ir.value().manifest.to_text().c_str());
  return 0;
}

int cmd_pack(const Args& args) {
  if (args.positional.size() < 2) {
    std::fprintf(stderr, "pack: need <in> <out>\n");
    return 2;
  }
  const auto apk = apk::ApkFile::deserialize(read_file(args.positional[0]));
  obfuscation::PackerOptions options;
  options.anti_repackaging = args.flag("trap");
  const auto packed = obfuscation::pack(apk, options);
  write_file(args.positional[1], packed.serialize());
  std::printf("packed -> %s\n", args.positional[1].c_str());
  return 0;
}

int cmd_unpack(const Args& args) {
  if (args.positional.size() < 2) {
    std::fprintf(stderr, "unpack: need <in> <out>\n");
    return 2;
  }
  const auto result = core::unpack_packed_app(
      read_file(args.positional[0]),
      parse_u64_flag("unpack", "seed", args.value("seed", "1")));
  if (!result.ok()) {
    std::fprintf(stderr, "unpack failed: %s\n", result.error().c_str());
    return 1;
  }
  write_file(args.positional[1], result.value().apk.serialize());
  std::printf("recovered payload from %s -> %s\n",
              result.value().payload_path.c_str(),
              args.positional[1].c_str());
  return 0;
}

int cmd_survey(const Args& args) {
  support::set_log_level(support::LogLevel::Error);
  appgen::CorpusConfig config;
  config.scale = parse_double_flag("survey", "scale", args.value("scale", "0.02"));
  config.seed = parse_u64_flag("survey", "seed", args.value("seed", "20161101"));
  const auto corpus = appgen::generate_corpus(config);
  const auto detector = malware::train_detector(4, 0xD401DA);
  // One shared pipeline mapped over the corpus by the parallel driver
  // (worker count from --jobs, DYDROID_JOBS or hardware concurrency).
  core::PipelineOptions options;
  options.detector = &detector;
  support::FaultPlan faults;  // must outlive the pipeline
  if (args.flag("faults")) {
    auto parsed = support::FaultPlan::parse(args.value("faults", ""));
    if (!parsed.ok()) {
      std::fprintf(stderr, "survey: bad --faults plan: %s\n",
                   parsed.error().c_str());
      return 2;
    }
    faults = std::move(parsed.value());
    options.faults = &faults;
  }
  if (args.flag("budget")) {
    options.max_app_wall_ms =
        parse_double_flag("survey", "budget", args.value("budget", "0"));
  }
  options.retry_on_crash = args.flag("retry");
  const core::DyDroid pipeline(std::move(options));
  driver::RunnerConfig runner_config;
  runner_config.seed_base = 1;  // app N runs with seed 1 + N
  runner_config.jobs = static_cast<std::size_t>(
      parse_u64_flag("survey", "jobs", args.value("jobs", "0")));
  const std::string journal_path = configure_journal(args, runner_config);
  const std::string shard_spec = configure_shard("survey", args, runner_config);
  const std::string cache_dir = configure_cache("survey", args, runner_config);
  const char* sandbox_label =
      configure_isolation("survey", args, runner_config);
  const std::string trace_path = configure_observability(args);
  const std::string shard_hint =
      shard_spec.empty() ? std::string() : " --shard " + shard_spec;
  const driver::CorpusRunner runner(pipeline, runner_config);
  driver::CorpusResult result;
  try {
    StopSignalRestorer restore;
    restore.armed = !journal_path.empty();
    result = runner.run(corpus);
  } catch (const driver::RunAborted& e) {
    std::fprintf(stderr, "survey: %s\n", e.what());
    std::fprintf(stderr,
                 "  the journal is sealed; resume with: dydroid survey "
                 "--scale %s --seed %s --resume %s%s\n",
                 args.value("scale", "0.02").c_str(),
                 args.value("seed", "20161101").c_str(), journal_path.c_str(),
                 shard_hint.c_str());
    return 3;
  }
  maybe_test_raise_stop();
  const auto& stats = result.stats;
  std::printf(
      "surveyed %zu apps: %zu intercepted DCL, %zu remote loaders, "
      "%zu malware carriers, %zu vulnerable\n",
      stats.apps, stats.intercepted, stats.remote_loaders,
      stats.malware_carriers, stats.vulnerable);
  std::printf(
      "  outcomes: %zu not-run, %zu rewriting-failure, %zu no-activity, "
      "%zu crashed, %zu exercised\n",
      stats.not_run, stats.rewriting_failure, stats.no_activity,
      stats.crashed, stats.exercised);
  if (stats.timed_out + stats.retried + stats.quarantined > 0 ||
      args.flag("faults") || args.flag("budget") || args.flag("retry")) {
    std::printf("  fault policy: %zu timed out, %zu retried, %zu quarantined\n",
                stats.timed_out, stats.retried, stats.quarantined);
  }
  if (sandbox_label != nullptr) {
    std::printf(
        "  sandbox: %s, %zu crashed, %zu oom-killed, "
        "%zu deadline-killed\n",
        sandbox_label, stats.sandbox_crashed, stats.killed_oom,
        stats.killed_timeout);
  }
  if (!shard_spec.empty()) {
    std::printf(
        "  shard %s: %zu of %zu apps (global indices %u mod %u; merge the "
        "shard journals with: dydroid merge)\n",
        shard_spec.c_str(), result.shard_apps, corpus.apps.size(),
        runner_config.shard_index, runner_config.shard_count);
  }
  if (!journal_path.empty()) {
    std::printf("  journal: %zu analyzed, %zu replayed -> %s\n",
                result.analyzed, result.replayed, journal_path.c_str());
  }
  if (!cache_dir.empty()) {
    std::printf(
        "  cache: %zu hits, %zu misses (%zu evicted, %zu invalidated, "
        "%zu write failures) -> %s\n",
        stats.cache_hits, stats.cache_misses, result.cache_evictions,
        result.cache_invalidated, result.cache_write_failures,
        cache_dir.c_str());
  }
  // Apps-vs-unique-binaries (the paper's dedup measurement): how much of
  // the corpus' loaded code is shared content.
  std::printf(
      "  binaries: %zu intercepted, %zu unique (%zu dex, %zu native), "
      "max reuse %zu, %llu duplicate bytes\n",
      result.dedup.total, result.dedup.unique, result.dedup.unique_dex,
      result.dedup.unique_native, result.dedup.max_reuse,
      static_cast<unsigned long long>(result.dedup.duplicate_bytes()));
  std::printf("  %.1f ms on %zu worker(s), %.0f apps/s\n", result.wall_ms,
              result.threads,
              result.wall_ms > 0
                  ? 1000.0 * static_cast<double>(stats.apps) / result.wall_ms
                  : 0.0);
  if (const int rc = report_observability("survey", args, trace_path, result,
                                          stdout);
      rc != 0) {
    return rc;
  }
  if (result.interrupted) {
    std::fprintf(stderr,
                 "survey: interrupted: %zu/%zu apps completed and journaled\n"
                 "  resume with: dydroid survey --scale %s --seed %s "
                 "--resume %s%s\n",
                 result.completed(), result.shard_apps,
                 args.value("scale", "0.02").c_str(),
                 args.value("seed", "20161101").c_str(), journal_path.c_str(),
                 shard_hint.c_str());
    return 3;
  }
  return 0;
}

int cmd_merge(const Args& args) {
  if (args.positional.size() < 2) {
    std::fprintf(stderr, "merge: need <out.journal> <shard.journal>...\n");
    return 2;
  }
  const std::vector<std::string> shards(args.positional.begin() + 1,
                                        args.positional.end());
  const auto merged = driver::merge_shard_journals(args.positional[0], shards);
  if (!merged.ok()) {
    std::fprintf(stderr, "%s\n", merged.error().c_str());
    return 1;
  }
  const driver::ShardMergeSummary& summary = merged.value();
  std::printf("merged %u shard journal(s): %zu app outcome(s) -> %s\n",
              summary.shard_count, summary.records_merged,
              args.positional[0].c_str());
  if (summary.duplicates_dropped > 0) {
    std::printf("  %zu superseded duplicate record(s) dropped "
                "(last-writer-wins)\n",
                summary.duplicates_dropped);
  }
  if (summary.torn_bytes > 0) {
    std::printf("  %zu torn/corrupt tail byte(s) recovered across inputs\n",
                summary.torn_bytes);
  }
  std::printf(
      "  replay with the matching survey: dydroid survey ... --resume %s\n",
      args.positional[0].c_str());
  return 0;
}

int cmd_faultcheck(const Args& args) {
  driver::FaultCheckOptions options;
  options.scale =
      parse_double_flag("faultcheck", "scale", args.value("scale", "0.0035"));
  options.corpus_seed =
      parse_u64_flag("faultcheck", "seed", args.value("seed", "20161101"));
  options.corruption_fraction = parse_double_flag(
      "faultcheck", "fraction", args.value("fraction", "0.35"));
  options.check_corruption = !args.flag("no-corruption");
  if (args.flag("jobs")) {
    // Comma list with a tolerated trailing comma ("1,2,8,"), but a
    // malformed element ("4x") or an empty list is a usage error.
    const auto list = support::parse_u64_list(args.value("jobs", ""));
    if (!list.ok()) {
      std::fprintf(stderr,
                   "faultcheck: bad --jobs list %s (want e.g. 1,2,8)\n",
                   list.error().c_str());
      return 2;
    }
    options.worker_counts.assign(list.value().begin(), list.value().end());
  }
  const auto report = driver::run_fault_matrix(options);
  std::printf("%s", driver::format_fault_check(report).c_str());
  return report.passed() ? 0 : 1;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: dydroid "
      "<gen|analyze|disasm|pack|unpack|survey|merge|faultcheck> ...\n"
      "  gen <out.sapk> [--pkg P] [--ad] [--baidu] [--analytics]\n"
      "      [--own-dex] [--native] [--malware swiss|adware|chathook]\n"
      "      [--vuln dex-external|native-other] [--pack] [--lexical]\n"
      "      [--reflection] [--seed N]\n"
      "  analyze <app.sapk> [--seed N] [--host URL FILE]...\n"
      "      [--companion FILE] [--faults PLAN]\n"
      "      [--journal PATH | --resume PATH] [--cache DIR]\n"
      "      [--isolate[=fork|pool]] [--mem-limit BYTES]\n"
      "  disasm <app.sapk>\n"
      "  pack <in.sapk> <out.sapk> [--trap]\n"
      "  unpack <packed.sapk> <out.sapk> [--seed N]\n"
      "  survey [--scale S] [--seed N] [--jobs J] [--faults PLAN]\n"
      "      [--budget MS] [--retry] [--isolate[=fork|pool]]\n"
      "      [--mem-limit BYTES] [--recycle-apps K]\n"
      "      [--journal PATH | --resume PATH] [--fsync] [--shard I/N]\n"
      "      [--cache DIR] [--cache-entries N] [--cache-bytes N]\n"
      "      [--trace OUT.json] [--metrics] [--top K]\n"
      "  merge <out.journal> <shard.journal>...\n"
      "  faultcheck [--scale S] [--seed N] [--jobs 1,2,8] [--fraction F]\n"
      "      [--no-corruption]\n"
      "PLAN grammar (docs/FAULTS.md): site=always|never|nth:<N>|p:<P>,...\n"
      "Observability (docs/OBSERVABILITY.md): --trace writes a Chrome\n"
      "trace_event JSON; --metrics prints the per-stage latency table and\n"
      "the top-K slowest apps.\n"
      "Crash safety (docs/CHECKPOINT.md): --journal writes a CRC-framed\n"
      "write-ahead outcome log; a killed or interrupted run resumes with\n"
      "--resume PATH, re-running only the missing apps.\n"
      "Sharding (docs/SHARDING.md): --shard I/N runs only global corpus\n"
      "indices congruent to I mod N (seeds, journal records and cache keys\n"
      "stay global); `merge` folds the N shard journals into one journal\n"
      "whose --resume replay is byte-identical to an unsharded run.\n"
      "Result cache (docs/CACHE.md): --cache DIR replays identical\n"
      "(bytes, config, seed) work from a content-addressed store and\n"
      "dedups intercepted binaries corpus-wide; --cache-entries and\n"
      "--cache-bytes bound the store (LRU).\n"
      "Isolation (docs/ISOLATION.md): --isolate runs every app in a fresh\n"
      "sandboxed child (crashes, hangs and OOMs are classified and\n"
      "quarantined, never fatal); --isolate=pool keeps one forked worker\n"
      "per thread alive across apps instead (same classification, the\n"
      "fork cost amortized away); --recycle-apps K (pool only) retires a\n"
      "worker after K apps; --mem-limit caps child RLIMIT_AS and implies\n"
      "--isolate.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const std::set<std::string> value_opts = {
      "pkg", "category", "seed", "malware", "vuln", "scale", "companion",
      "jobs", "faults", "budget", "fraction", "journal", "resume", "shard",
      "trace", "top", "cache", "cache-entries", "cache-bytes", "mem-limit",
      "recycle-apps"};
  const auto args = parse(argc, argv, 2, value_opts);
  try {
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "disasm") return cmd_disasm(args);
    if (cmd == "pack") return cmd_pack(args);
    if (cmd == "unpack") return cmd_unpack(args);
    if (cmd == "survey") return cmd_survey(args);
    if (cmd == "merge") return cmd_merge(args);
    if (cmd == "faultcheck") return cmd_faultcheck(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dydroid: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
