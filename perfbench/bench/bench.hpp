// Survey benchmark for the DyDroid pipeline (perfbench/README.md).
//
// One run = one named workload at one seed:
//   1. set-up: generate the workload's corpus from the seed and train the
//      malware detector (repeated, so set-up time is a median);
//   2. timed run: the corpus goes through driver::CorpusRunner in rounds,
//      with tracing off, until the time budget is spent; every report is
//      checked against the spec oracle. Its timings are the end-to-end
//      metrics of --trace 0;
//   3. traced run (--trace 1 only): a seeded sample of the corpus is pushed,
//      on one thread, through the per-app path composed from each module's
//      public entry points, recording one span per call.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "appgen/corpus.hpp"
#include "core/pipeline.hpp"
#include "driver/corpus_runner.hpp"
#include "malware/droidnative.hpp"
#include "support/bytes.hpp"
#include "support/hash.hpp"

namespace perfbench {

namespace core = dydroid::core;
namespace driver = dydroid::driver;
namespace appgen = dydroid::appgen;
namespace support = dydroid::support;
namespace malware = dydroid::malware;

// ---- workloads -------------------------------------------------------------

struct Workload {
  std::string_view name;
  /// Play-store population (appgen::generate_corpus) vs the seeded
  /// loader-heavy corpus (appgen::build_app).
  bool play = true;
  /// Timed rounds per pass over the corpus (one CorpusRunner::run each).
  std::size_t chunks = 4;
  /// Apps in the traced run's sample.
  std::size_t traced_sample = 2000;
};

/// Every workload the benchmark knows, in README order.
const std::vector<Workload>& workloads();
std::optional<Workload> find_workload(std::string_view name);

struct InputConfig {
  std::uint64_t seed = 20161101;
  /// Fraction of the paper's 58,739-app population (play workloads).
  double scale = 1.0;
  /// Corpus size of the loader-heavy workload.
  std::size_t loader_apps = 3000;
};

/// Everything a run needs, built from the seed alone.
struct Inputs {
  appgen::Corpus corpus;
  std::unique_ptr<malware::DroidNative> detector;
  std::unique_ptr<core::DyDroid> pipeline;
  /// Per-app fuzzing seeds are driver::seed_for_app(seed_base, index).
  std::uint64_t seed_base = 0;
};

Inputs make_inputs(const Workload& workload, const InputConfig& config);

/// The loader-heavy corpus: every app carries an analytics SDK with a
/// non-empty leak mask, a random half of {ad SDK, own DEX, SDK native}
/// loading, and one Table VII family payload.
appgen::Corpus generate_loader_heavy(std::size_t apps, std::uint64_t seed);

/// Detector trained on `per_family` samples of each of the 19 families.
std::unique_ptr<malware::DroidNative> train_detector(int per_family,
                                                     std::uint64_t rng_seed);

// ---- correctness -------------------------------------------------------------

/// Table II bucket and decompile flag predicted from the spec alone.
struct Prediction {
  core::DynamicStatus status = core::DynamicStatus::kNotRun;
  bool decompile_failed = false;
};
Prediction predict(const appgen::AppSpec& spec);

/// Empty when `report` matches the oracle, else the reason. With
/// `expect_binary`, an exercised app must also intercept ≥ 1 binary.
std::string check_report(const appgen::AppSpec& spec,
                         const core::AppReport& report, bool expect_binary);

/// Failed by the runner's own account: not completed, quarantined, timed
/// out or killed by the sandbox.
bool runner_failed(const driver::AppOutcome& outcome);

/// A run is implausible when its wall time is shorter than the per-app
/// work could fit into on `jobs` workers: wall < Σ per-app wall ÷ jobs.
/// Timing a run by one thread's CPU time is the classic way to get here.
bool plausible(double wall_ms, double sum_app_wall_ms, std::size_t jobs);

support::Bytes report_bytes(const core::AppReport& report);

// ---- machine fingerprint -----------------------------------------------------

struct Fingerprint {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::size_t jobs = 0;
};
Fingerprint fingerprint(std::size_t jobs);
std::string to_json(const Fingerprint& fp);

/// Worker count every workload uses: min(4, nproc).
std::size_t bench_jobs();

// ---- process resources ---------------------------------------------------------

/// User + system CPU of this process and its reaped children, in ms.
double cpu_ms();
/// Largest resident set of this process or any reaped child, in MiB.
double peak_rss_mb();

// ---- timed run -----------------------------------------------------------------

/// Leading rounds that are checked but left out of the timings, so
/// first-touch costs do not land in the medians.
inline constexpr std::size_t kWarmupRounds = 1;

/// The corpus is split into Workload::chunks interleaved chunks (index
/// modulo chunks); each round is one CorpusRunner::run call on one chunk.
/// Rounds run until `seconds` have passed and every app has run once.
struct TimedConfig {
  double seconds = 10.0;
  std::size_t jobs = 4;
};

struct TimedResult {
  std::size_t rounds = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  // first few failure reasons
  bool implausible = false;
  // Per timed round.
  std::vector<double> apps_per_s;
  std::vector<double> cpu_ms_per_app;
  std::vector<double> worker_busy_frac;
  /// Quantiles of the per-app wall of the apps each round analysed.
  std::vector<double> app_ms_p50;
  std::vector<double> app_ms_p99;
  std::size_t latency_samples = 0;
  // Runner tallies, summed over rounds.
  std::size_t retried = 0;
  std::size_t quarantined = 0;
  std::size_t sandbox_killed = 0;
  std::size_t binaries = 0;
  std::size_t unique_binaries = 0;  // summed per round
  /// Set once every app has completed in a pass: the SHA-256 over the
  /// corpus-ordered SHA-256 digests of each app's core::serialize_report
  /// bytes, so two runs agree on it exactly when every report agrees.
  std::optional<support::Sha256Digest> report_digest;
  /// peak_rss_mb() when that first pass completed: what one survey of the
  /// corpus costs, independent of how many rounds the host's speed allows.
  double peak_rss_mb_after_pass = 0.0;
};

TimedResult run_timed(const Inputs& inputs, const Workload& workload,
                      const TimedConfig& config);

// ---- traced run ----------------------------------------------------------------

/// One recorded call: spans of one app share `request` (its corpus index).
struct Span {
  std::string_view name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span vector, -1 = root
  std::uint32_t request = 0;
};

/// In-memory span recorder for one thread. Spans stay in memory until
/// written out with write_json.
class Tracer {
 public:
  std::size_t begin(std::string_view name, std::uint32_t request);
  void end(std::size_t span);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span: its duration minus the time its direct
  /// children cover.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span around one call.
class Scoped {
 public:
  Scoped(Tracer& tracer, std::string_view name, std::uint32_t request)
      : tracer_(tracer), span_(tracer.begin(name, request)) {}
  ~Scoped() { tracer_.end(span_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  std::size_t span_;
};

struct TracedConfig {
  std::size_t sample = 2000;
  std::uint64_t seed = 1;
  std::string work_dir;
  /// Where the spans are written.
  std::string spans_path;
};

struct TracedResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;
};

TracedResult run_traced(const Inputs& inputs, const TracedConfig& config);

// ---- statistics ------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);

}  // namespace perfbench
