// Shared bench harness: generates the paper-calibrated corpus, runs the
// full DyDroid pipeline over it through the parallel CorpusRunner (thread
// mode), and exposes the measured reports (in corpus order) to the
// per-table printers. Scale via DYDROID_SCALE (default 0.05 = ~2,937 apps);
// worker count via DYDROID_JOBS (default: hardware concurrency). Faults,
// journaling, caching, sandboxing, sharding and tracing are `dydroid
// survey` flags (--faults, --journal/--resume, --cache, --isolate,
// --shard, --trace).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "appgen/corpus.hpp"
#include "core/pipeline.hpp"
#include "driver/corpus_runner.hpp"
#include "malware/droidnative.hpp"

namespace dydroid::bench {

/// Seed base for the measurement corpus; app N runs with
/// driver::seed_for_app(kCorpusSeedBase, N) regardless of thread count or
/// iteration order.
inline constexpr std::uint64_t kCorpusSeedBase = driver::kDefaultSeedBase;

struct MeasuredApp {
  const appgen::GeneratedApp* app = nullptr;
  std::size_t index = 0;  // position in corpus.apps (drives the seed)
  core::AppReport report;
};

struct Measurement {
  appgen::Corpus corpus;
  std::vector<MeasuredApp> apps;  // same order as corpus.apps
  double scale = 0.05;
  driver::AggregateStats stats;   // reduced across workers
  double wall_ms = 0.0;           // corpus wall time
  std::size_t threads = 1;        // workers used
};

/// Generate the corpus and run the pipeline over every app (in parallel;
/// results are deterministic and in corpus order).
Measurement measure_corpus(const malware::DroidNative* detector,
                           core::RuntimeConfig runtime = {},
                           double scale_fallback = 0.05);

/// Re-run a single generated app under a runtime configuration. Pass the
/// app's index-derived seed (driver::seed_for_app) so the rerun matches
/// the corpus run app-for-app.
core::AppReport rerun_app(const appgen::GeneratedApp& app,
                          const malware::DroidNative* detector,
                          const core::RuntimeConfig& runtime,
                          std::uint64_t seed);

// ---- printing helpers -------------------------------------------------------

void print_title(const std::string& table, const std::string& caption);
void print_row(const std::string& label, double measured, double measured_pct,
               double paper, double paper_pct);
void print_footer();

/// "123 (45.6%)" cell format.
std::string cell(double count, double pct);

}  // namespace dydroid::bench
