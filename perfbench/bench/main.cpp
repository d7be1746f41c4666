// perfbench: the DyDroid survey benchmark (perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Prints human-readable lines, then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out = ".bench_build/out";
};

/// Set-ups per timed run; set-up time is their median.
constexpr std::size_t kSetupReps = 5;

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               why.c_str());
  return 2;
}

bool parse(int argc, char** argv, Options& o, std::string& error) {
  if (argc % 2 == 0) {
    error = "every flag takes one value";
    return false;
  }
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--out") {
      o.out = value;
    } else if (key == "--seed" || key == "--trace") {
      const auto v = support::parse_u64(value);
      if (!v.ok() || (key == "--trace" && v.value() > 1)) {
        error = key + ": bad value " + value;
        return false;
      }
      if (key == "--seed") {
        o.seed = v.value();
        have_seed = true;
      } else {
        o.trace = static_cast<int>(v.value());
      }
    } else if (key == "--seconds") {
      const auto v = support::parse_double(value);
      if (!v.ok() || v.value() < 0) {
        error = "--seconds: bad value " + value;
        return false;
      }
      o.seconds = v.value();
      have_seconds = true;
    } else {
      error = "unknown flag " + key;
      return false;
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || o.trace < 0) {
    error = "--workload, --seed, --seconds and --trace are required";
    return false;
  }
  return true;
}

/// Unit of a per-layer metric, from its name's suffix.
std::string layer_unit(const std::string& name) {
  if (name.ends_with(".us_p50") || name.ends_with(".us_p99")) return "us";
  if (name.ends_with(".busy_ms_per_kapp")) return "ms";
  if (name.ends_with("bytes_per_app") || name.ends_with("bytes_p50")) {
    return "bytes";
  }
  if (name.ends_with("_per_kapp") || name.ends_with("_per_app")) {
    return "count";
  }
  return "ratio";
}

std::string json_number(double v) { return support::format("%.17g", v); }

std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = support::format(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += support::format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                           i == 0 ? "" : ", ", metrics[i].name.c_str(),
                           json_number(metrics[i].value).c_str(),
                           metrics[i].unit.c_str());
  }
  return out + "}}";
}

int run(const Options& o) {
  namespace fs = std::filesystem;
  const auto workload = find_workload(o.workload);
  if (!workload) return usage("unknown workload " + o.workload);

  const std::size_t jobs = bench_jobs();
  const Fingerprint fp = fingerprint(jobs);
  const std::string work_dir =
      o.out + support::format("/work-%d", static_cast<int>(::getpid()));
  fs::create_directories(o.out + "/results");

  // ---- set-up: inputs from the seed, repeated for a median ----------------
  InputConfig input_config;
  input_config.seed = o.seed;
  Inputs inputs;
  std::vector<double> setup_s;
  const std::size_t reps = o.trace == 1 ? 1 : kSetupReps;
  for (std::size_t r = 0; r < reps; ++r) {
    inputs = Inputs{};  // free the previous corpus before building the next
    const auto t0 = std::chrono::steady_clock::now();
    inputs = make_inputs(*workload, input_config);
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  const std::size_t apps = inputs.corpus.apps.size();

  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;

  // The corpus goes through CorpusRunner in both modes: with --trace 0 its
  // timings are the end-to-end metrics; with --trace 1 it still checks every
  // report and supplies the runner's own tallies.
  TimedConfig tc;
  tc.seconds = o.seconds;
  tc.jobs = jobs;
  const TimedResult tr = run_timed(inputs, *workload, tc);
  attempted = tr.attempted;
  failed = tr.failed;
  errors = tr.errors;
  if (tr.implausible) correct = false;
  if (!tr.report_digest) {
    correct = false;
    errors.push_back("no full pass over the corpus completed");
  } else {
    std::printf("report digest: %s (%zu apps)\n",
                tr.report_digest->hex().c_str(), apps);
  }
  std::printf("workload %s: %zu apps, %zu rounds (%zu warm-up), %zu app "
              "outcomes, %zu latency samples\n",
              std::string(workload->name).c_str(), apps, tr.rounds,
              kWarmupRounds, tr.attempted, tr.latency_samples);

  if (o.trace == 0) {
    failed = std::min(failed, attempted);
    metrics = {
        {"apps_per_s", quantile(tr.apps_per_s, 0.5), "1/s"},
        {"app_ms_p50", quantile(tr.app_ms_p50, 0.5), "ms"},
        {"app_ms_p99", quantile(tr.app_ms_p99, 0.5), "ms"},
        {"cpu_ms_per_app", quantile(tr.cpu_ms_per_app, 0.5), "ms"},
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"peak_rss_mb", tr.peak_rss_mb_after_pass, "MB"},
    };
    std::printf("  apps/s by round:");
    for (const double v : tr.apps_per_s) std::printf(" %.0f", v);
    std::printf("\n  %-36s %14.6g\n", "failed_frac",
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 1.0);
  } else {
    TracedConfig cfg;
    cfg.sample = workload->traced_sample;
    cfg.seed = o.seed;
    cfg.work_dir = work_dir + "/traced";
    cfg.spans_path = o.out + "/spans-" + std::string(workload->name) + ".json";
    const TracedResult traced = run_traced(inputs, cfg);
    attempted += traced.attempted;
    failed = std::min(failed + traced.failed, attempted);
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    for (const auto& [name, value] : traced.metrics) {
      metrics.push_back({name, value, layer_unit(name)});
    }
    const double binaries = static_cast<double>(tr.binaries);
    metrics.push_back({"driver.worker_busy_frac",
                       quantile(tr.worker_busy_frac, 0.5), "ratio"});
    metrics.push_back(
        {"driver.retried", static_cast<double>(tr.retried), "count"});
    metrics.push_back(
        {"driver.quarantined", static_cast<double>(tr.quarantined), "count"});
    metrics.push_back({"driver.sandbox_killed",
                       static_cast<double>(tr.sandbox_killed), "count"});
    metrics.push_back(
        {"driver.dedup_unique_ratio",
         binaries > 0 ? static_cast<double>(tr.unique_binaries) / binaries : 0,
         "ratio"});
    std::printf("traced sample: %zu apps, spans -> %s\n", traced.attempted,
                cfg.spans_path.c_str());
  }
  fs::remove_all(work_dir);
  if (failed > 0) correct = false;
  for (const auto& e : errors) std::fprintf(stderr, "perfbench: %s\n", e.c_str());

  for (const auto& m : metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::string fp_json = to_json(fp);
  std::printf("fingerprint: %s\n", fp_json.c_str());
  const std::string result = result_json(correct, attempted, failed, metrics);
  {
    std::ofstream record(
        o.out + support::format("/results/%s-seed%llu-trace%d.json",
                                std::string(workload->name).c_str(),
                                static_cast<unsigned long long>(o.seed),
                                o.trace));
    record << "{\"workload\": \"" << workload->name << "\", \"seed\": " << o.seed
           << ", \"trace\": " << o.trace << ", \"fingerprint\": " << fp_json
           << ", \"result\": " << result << "}\n";
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  support::set_log_level(support::LogLevel::Error);
  Options o;
  std::string error;
  if (!parse(argc, argv, o, error)) return usage(error);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
