#include "common.hpp"

#include <cstdio>

#include "support/log.hpp"
#include "support/strings.hpp"

namespace dydroid::bench {

core::AppReport rerun_app(const appgen::GeneratedApp& app,
                          const malware::DroidNative* detector,
                          const core::RuntimeConfig& runtime,
                          std::uint64_t seed) {
  core::PipelineOptions options;
  options.detector = detector;
  options.runtime = runtime;
  options.scenario_setup = [&app](os::Device& device) {
    appgen::apply_scenario(app.scenario, device);
  };
  core::DyDroid pipeline(std::move(options));
  return pipeline.analyze(app.apk, seed);
}

Measurement measure_corpus(const malware::DroidNative* detector,
                           core::RuntimeConfig runtime,
                           double scale_fallback) {
  support::set_log_level(support::LogLevel::Error);
  Measurement m;
  m.scale = appgen::scale_from_env(scale_fallback);
  appgen::CorpusConfig config;
  config.scale = m.scale;
  m.corpus = appgen::generate_corpus(config);

  // One shared immutable pipeline; per-app scenarios ride on the jobs.
  core::PipelineOptions options;
  options.detector = detector;
  options.runtime = runtime;
  const core::DyDroid pipeline(std::move(options));
  driver::RunnerConfig runner_config;
  runner_config.seed_base = kCorpusSeedBase;
  auto result = driver::CorpusRunner(pipeline, runner_config).run(m.corpus);

  m.apps.reserve(m.corpus.apps.size());
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    MeasuredApp measured;
    measured.app = &m.corpus.apps[i];
    measured.index = i;
    measured.report = std::move(result.outcomes[i].report);
    m.apps.push_back(std::move(measured));
  }
  m.stats = result.stats;
  m.wall_ms = result.wall_ms;
  m.threads = result.threads;
  return m;
}

void print_title(const std::string& table, const std::string& caption) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", table.c_str(), caption.c_str());
  std::printf("(measured on the synthetic corpus vs. the paper's population;\n");
  std::printf(" absolute counts scale with DYDROID_SCALE, shapes should match)\n");
  std::printf("================================================================\n");
}

std::string cell(double count, double pct) {
  return support::format("%8.0f (%5.2f%%)", count, pct);
}

void print_row(const std::string& label, double measured, double measured_pct,
               double paper, double paper_pct) {
  std::printf("  %-28s measured %s   paper %s\n", label.c_str(),
              cell(measured, measured_pct).c_str(),
              cell(paper, paper_pct).c_str());
}

void print_footer() { std::printf("\n"); }

}  // namespace dydroid::bench
