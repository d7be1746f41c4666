// Observability cost contract (docs/OBSERVABILITY.md), tier 2:
//
//   (a) Instrumentation never feeds back into analysis: per-app JSON
//       reports are byte-identical with tracing+metrics on vs. off, at
//       1, 2 and 8 workers.
//   (b) A disabled span is cheap — a single relaxed atomic load. We bound
//       the *relative* cost against an uninstrumented baseline loop rather
//       than asserting an absolute nanosecond figure (CI machines vary).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "appgen/corpus.hpp"
#include "core/pipeline.hpp"
#include "core/report_json.hpp"
#include "driver/corpus_runner.hpp"
#include "support/trace.hpp"

namespace dydroid::driver {
namespace {

std::vector<std::string> survey_jsons(const appgen::Corpus& corpus,
                                      std::size_t jobs) {
  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig config;
  config.jobs = jobs;
  const auto result = CorpusRunner(pipeline, config).run(corpus);
  std::vector<std::string> out;
  out.reserve(result.outcomes.size());
  for (const auto& outcome : result.outcomes) {
    out.push_back(core::report_to_json(outcome.report));
  }
  return out;
}

TEST(TraceOverhead, ReportsAreByteIdenticalTracingOnOrOff) {
  appgen::CorpusConfig config;
  config.scale = 0.002;
  const auto corpus = appgen::generate_corpus(config);
  ASSERT_GT(corpus.apps.size(), 10u);

  support::set_trace_enabled(false);
  support::set_metrics_enabled(false);
  const auto baseline = survey_jsons(corpus, 1);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{8}}) {
    support::set_trace_enabled(true);
    support::set_metrics_enabled(true);
    support::metrics_reset();
    const auto traced = survey_jsons(corpus, jobs);
    support::set_trace_enabled(false);
    support::set_metrics_enabled(false);

    ASSERT_EQ(traced.size(), baseline.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      ASSERT_EQ(traced[i], baseline[i])
          << "report diverged with tracing on: jobs=" << jobs << " app=" << i;
    }
  }

  // The instrumented runs actually recorded something (the A/B proved
  // nothing if the instrumentation never fired).
  const auto events = support::trace_collect();
  EXPECT_FALSE(events.empty());
  bool saw_stage = false;
  for (const auto& event : events) saw_stage |= event.cat == "stage";
  EXPECT_TRUE(saw_stage);
  support::trace_reset();
  support::metrics_reset();
}

TEST(TraceOverhead, StageSpanPerAppStageAttempt) {
  // One "stage"-category span per (app, stage-entered, attempt): for a
  // single-attempt run, every app emits between 1 (static stop) and 5
  // (full pipeline) stage spans, and no (app, name) pair repeats within
  // an attempt.
  appgen::CorpusConfig config;
  config.scale = 0.002;
  const auto corpus = appgen::generate_corpus(config);

  support::set_trace_enabled(true);
  (void)survey_jsons(corpus, 2);
  support::set_trace_enabled(false);
  const auto events = support::trace_collect();

  std::vector<std::vector<std::string>> per_app(corpus.apps.size());
  for (const auto& event : events) {
    if (event.cat != "stage") continue;
    ASSERT_LT(event.app, corpus.apps.size());
    EXPECT_EQ(event.attempt, 0u);  // no retry policy in this run
    const std::string name(event.name);
    for (const auto& seen : per_app[event.app]) {
      EXPECT_NE(seen, name) << "duplicate stage span for app " << event.app;
    }
    per_app[event.app].push_back(name);
  }
  for (std::size_t i = 0; i < per_app.size(); ++i) {
    EXPECT_GE(per_app[i].size(), 1u) << "app " << i << " emitted no stage span";
    EXPECT_LE(per_app[i].size(), 5u);
  }
  support::trace_reset();
}

TEST(TraceOverhead, DisabledSpanCostIsBounded) {
  support::set_trace_enabled(false);
  support::set_metrics_enabled(false);

  using Clock = std::chrono::steady_clock;
  constexpr int kIters = 2'000'000;

  // Baseline: the loop body minus the span — a volatile sink keeps the
  // compiler from deleting either loop.
  volatile std::uint64_t sink = 0;
  const auto base_start = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    sink = sink + 1;
  }
  const auto base_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - base_start)
                           .count();

  const auto span_start = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    TRACE_SPAN("test", "disabled");
    sink = sink + 1;
  }
  const auto span_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - span_start)
                           .count();

  const double per_span_ns =
      static_cast<double>(span_ns - base_ns) / static_cast<double>(kIters);
  // One relaxed load + a branch: single-digit ns on anything modern. The
  // bound is generous (50 ns) to survive noisy CI; the point is that a
  // disabled span can never cost microseconds (no clock read, no buffer).
  EXPECT_LT(per_span_ns, 50.0)
      << "disabled span cost " << per_span_ns << " ns (base loop "
      << base_ns / kIters << " ns/iter)";
}

TEST(TraceOverhead, EnabledSpanCostIsBounded) {
  // With metrics on, a closing span resolves its histogram through the
  // thread-local span-slot cache: one pointer-identity probe, no string
  // join, no registry scan. Two clock reads + a few relaxed atomics is
  // ~100 ns; the 2 µs bound only exists to catch the cache regressing
  // back to a per-close linear scan over a full registry.
  support::set_trace_enabled(false);
  support::set_metrics_enabled(true);
  support::metrics_reset();

  using Clock = std::chrono::steady_clock;
  constexpr int kIters = 200'000;
  volatile std::uint64_t sink = 0;
  const auto base_start = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    sink = sink + 1;
  }
  const auto base_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - base_start)
                           .count();
  const auto span_start = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    TRACE_SPAN("test", "enabled");
    sink = sink + 1;
  }
  const auto span_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - span_start)
                           .count();
  support::set_metrics_enabled(false);

  const auto metrics = support::metrics_snapshot();
  const auto* hist = metrics.histogram("test.enabled");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->observations, static_cast<std::uint64_t>(kIters));

  const double per_span_ns =
      static_cast<double>(span_ns - base_ns) / static_cast<double>(kIters);
  EXPECT_LT(per_span_ns, 2000.0)
      << "enabled span cost " << per_span_ns << " ns";
  support::metrics_reset();
}

TEST(TraceOverhead, MetricsCorpusOverheadWithinBudget) {
  // The whole-corpus cost contract (docs/OBSERVABILITY.md): running with
  // metrics enabled must stay within low single digits of the
  // uninstrumented wall time. Five interleaved A/B pairs, compared at
  // their minima — a lone pair on a shared 1-vCPU runner once measured a
  // 39% "regression" that was pure scheduler noise, and with the corpus
  // run down to ≈50 ms, three pairs still read up to 33% on a 4-vCPU box
  // while the true overhead was ≈0. The bound is 15%, a few times the
  // expected overhead but far below a real hot-path regression (the
  // pre-cache slot scan showed up as >30%).
  appgen::CorpusConfig config;
  config.scale = 0.01;
  const auto corpus = appgen::generate_corpus(config);
  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig runner_config;
  runner_config.jobs = 1;
  const CorpusRunner runner(pipeline, runner_config);

  support::set_trace_enabled(false);
  support::set_metrics_enabled(false);
  double plain_ms = 0.0;
  double metered_ms = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto plain = runner.run(corpus);
    support::set_metrics_enabled(true);
    support::metrics_reset();
    const auto metered = runner.run(corpus);
    support::set_metrics_enabled(false);
    plain_ms = rep == 0 ? plain.wall_ms : std::min(plain_ms, plain.wall_ms);
    metered_ms =
        rep == 0 ? metered.wall_ms : std::min(metered_ms, metered.wall_ms);
  }
  support::metrics_reset();

  ASSERT_GT(plain_ms, 0.0);
  const double overhead_pct = 100.0 * (metered_ms - plain_ms) / plain_ms;
  EXPECT_LT(overhead_pct, 15.0)
      << "metrics overhead " << overhead_pct << "% (plain " << plain_ms
      << " ms, metered " << metered_ms << " ms)";
}

}  // namespace
}  // namespace dydroid::driver
