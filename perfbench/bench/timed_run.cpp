#include <algorithm>
#include <chrono>

#include "bench/bench.hpp"
#include "support/strings.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void note_error(std::vector<std::string>& errors, std::string message) {
  if (errors.size() < 5) errors.push_back(std::move(message));
}

}  // namespace

TimedResult run_timed(const Inputs& inputs, const Workload& workload,
                      const TimedConfig& config) {
  TimedResult result;
  const auto& apps = inputs.corpus.apps;
  const std::size_t n = apps.size();
  if (n == 0) return result;

  // Chunk c holds the apps whose index is c modulo the chunk count, so every
  // chunk samples the whole corpus alike whatever order it was built in.
  const std::size_t chunks = std::clamp<std::size_t>(workload.chunks, 1, n);
  std::vector<driver::AppJob> all_jobs = driver::jobs_from_corpus(inputs.corpus);
  std::vector<std::vector<driver::AppJob>> chunk_jobs(chunks);
  for (std::size_t i = 0; i < n; ++i) {
    all_jobs[i].seed = driver::seed_for_app(inputs.seed_base, i);
    chunk_jobs[i % chunks].push_back(std::move(all_jobs[i]));
  }

  // First pass: per-app report digests. Later passes must reproduce them.
  std::vector<support::Sha256Digest> first_pass(n);

  const auto start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    if (round >= std::max(chunks, kWarmupRounds + 1) &&
        ms_since(start) >= config.seconds * 1e3) {
      break;
    }
    const std::size_t chunk = round % chunks;

    driver::RunnerConfig rc;
    rc.jobs = config.jobs;
    rc.seed_base = inputs.seed_base;
    const driver::CorpusRunner runner(*inputs.pipeline, rc);

    const double cpu_before = cpu_ms();
    const auto t0 = Clock::now();
    const driver::CorpusResult run = runner.run(chunk_jobs[chunk]);
    const double wall_ms = ms_since(t0);
    const double cpu = cpu_ms() - cpu_before;
    result.retried += run.stats.retried;
    result.quarantined += run.stats.quarantined;
    result.sandbox_killed += run.stats.sandbox_crashed +
                             run.stats.killed_oom + run.stats.killed_timeout;
    result.binaries += run.dedup.total;
    result.unique_binaries += run.dedup.unique;

    double app_wall_sum = 0.0;
    std::vector<double> app_ms;
    app_ms.reserve(run.outcomes.size());
    for (std::size_t k = 0; k < run.outcomes.size(); ++k) {
      const std::size_t index = chunk + k * chunks;
      const driver::AppOutcome& outcome = run.outcomes[k];
      ++result.attempted;
      std::string reason;
      if (runner_failed(outcome)) {
        reason = apps[index].spec.package + ": runner failure: " +
                 outcome.report.crash_message;
      } else {
        reason = check_report(apps[index].spec, outcome.report,
                              /*expect_binary=*/!workload.play);
      }
      const auto digest = support::sha256(report_bytes(outcome.report));
      if (round < chunks) {
        first_pass[index] = digest;
      } else if (reason.empty() && first_pass[index] != digest) {
        reason = apps[index].spec.package + ": report differs between passes";
      }
      if (!reason.empty()) {
        ++result.failed;
        note_error(result.errors, std::move(reason));
      }
      // Only apps analysed by this run carry a latency of their own.
      if (outcome.completed && !outcome.cache_hit && !outcome.replayed) {
        app_ms.push_back(outcome.wall_ms);
        app_wall_sum += outcome.wall_ms;
      }
    }
    const std::size_t threads = std::max<std::size_t>(run.threads, 1);
    if (round >= kWarmupRounds) {
      const auto count = static_cast<double>(run.outcomes.size());
      result.apps_per_s.push_back(count / (wall_ms / 1e3));
      result.cpu_ms_per_app.push_back(cpu / count);
      result.worker_busy_frac.push_back(
          app_wall_sum / (wall_ms * static_cast<double>(threads)));
      result.latency_samples += app_ms.size();
      result.app_ms_p50.push_back(quantile(app_ms, 0.5));
      result.app_ms_p99.push_back(quantile(std::move(app_ms), 0.99));
    }
    if (!plausible(wall_ms, app_wall_sum, threads)) {
      result.implausible = true;
      note_error(result.errors,
                 support::format("round %zu: wall %.3f ms < sum of app wall "
                                 "%.3f ms / %zu jobs",
                                 round, wall_ms, app_wall_sum, threads));
    }
    result.rounds = round + 1;
    if (round + 1 == chunks) {
      support::Sha256 stream;
      for (const auto& digest : first_pass) stream.update(digest.bytes);
      result.report_digest = stream.digest();
      result.peak_rss_mb_after_pass = peak_rss_mb();
    }
  }
  return result;
}

}  // namespace perfbench
