// Parallel corpus driver tests: (a) worker-count independence — the
// CorpusRunner produces byte-identical per-app JSON reports with 1 and N
// threads; (b) the AggregateStats reduction matches a serial re-count;
// (c) one failing app never aborts the batch; plus seed-scheme and stage
// unit coverage.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "appgen/corpus.hpp"
#include "appgen/generator.hpp"
#include "core/report_json.hpp"
#include "core/stages.hpp"
#include "driver/corpus_runner.hpp"
#include "support/fault.hpp"

namespace dydroid::driver {
namespace {

appgen::Corpus small_corpus(double scale = 0.002) {
  appgen::CorpusConfig config;
  config.scale = scale;  // every table row floored at 1 → a few dozen apps
  return appgen::generate_corpus(config);
}

std::vector<std::string> report_jsons(const CorpusResult& result) {
  std::vector<std::string> out;
  out.reserve(result.outcomes.size());
  for (const auto& outcome : result.outcomes) {
    out.push_back(core::report_to_json(outcome.report));
  }
  return out;
}

// ---------------------------------------------------------------------------
// (a) Determinism: 1 worker == N workers, and both == direct serial calls.
// ---------------------------------------------------------------------------

TEST(CorpusRunner, ParallelReportsIdenticalToSerial) {
  const auto corpus = small_corpus();
  ASSERT_GT(corpus.apps.size(), 10u);
  const core::DyDroid pipeline{core::PipelineOptions{}};

  RunnerConfig serial_config;
  serial_config.jobs = 1;
  const auto serial = CorpusRunner(pipeline, serial_config).run(corpus);

  RunnerConfig parallel_config;
  parallel_config.jobs = 4;
  const auto parallel = CorpusRunner(pipeline, parallel_config).run(corpus);

  ASSERT_EQ(serial.outcomes.size(), corpus.apps.size());
  ASSERT_EQ(parallel.outcomes.size(), corpus.apps.size());
  EXPECT_EQ(serial.threads, 1u);

  const auto serial_json = report_jsons(serial);
  const auto parallel_json = report_jsons(parallel);
  for (std::size_t i = 0; i < serial_json.size(); ++i) {
    EXPECT_EQ(serial_json[i], parallel_json[i]) << "app index " << i;
  }

  // Both agree with calling the pipeline directly with the index seed.
  for (std::size_t i = 0; i < corpus.apps.size(); i += 7) {
    const auto& app = corpus.apps[i];
    const std::function<void(os::Device&)> scenario =
        [&app](os::Device& device) {
          appgen::apply_scenario(app.scenario, device);
        };
    core::AnalysisRequest request;
    request.apk = app.apk;
    request.seed = seed_for_app(kDefaultSeedBase, i);
    request.scenario_setup = &scenario;
    EXPECT_EQ(core::report_to_json(pipeline.analyze(request)),
              serial_json[i])
        << "app index " << i;
  }
}

TEST(CorpusRunner, SingleJobRunsInlineOnCallerThread) {
  // jobs=1 must not pay a thread spawn: the worker loop runs on the
  // caller's own thread (the serial fast path), and its reports are
  // byte-identical to a defaulted config that resolves to one worker.
  // Guards the parallel.speedup floor — a jobs=1 run that secretly
  // spawned a thread once benchmarked *slower* than serial.
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  auto jobs = jobs_from_corpus(corpus);
  std::mutex mutex;
  std::vector<std::thread::id> analysis_threads;
  for (auto& job : jobs) {
    job.scenario = [inner = std::move(job.scenario), &mutex,
                    &analysis_threads](os::Device& device) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        analysis_threads.push_back(std::this_thread::get_id());
      }
      inner(device);
    };
  }

  RunnerConfig config;
  config.jobs = 1;
  const auto inline_run = CorpusRunner(pipeline, config).run(jobs);
  EXPECT_EQ(inline_run.threads, 1u);
  // Static-stop apps never reach the scenario, so expect "most", not all.
  ASSERT_GT(analysis_threads.size(), corpus.apps.size() / 2);
  for (const auto& id : analysis_threads) {
    EXPECT_EQ(id, std::this_thread::get_id())
        << "jobs=1 ran an app off the caller thread";
  }

  const auto baseline = CorpusRunner(pipeline, config).run(corpus);
  const auto inline_json = report_jsons(inline_run);
  const auto baseline_json = report_jsons(baseline);
  ASSERT_EQ(inline_json.size(), baseline_json.size());
  for (std::size_t i = 0; i < inline_json.size(); ++i) {
    EXPECT_EQ(inline_json[i], baseline_json[i]) << "app index " << i;
  }
}

TEST(CorpusRunner, SeedDerivesFromIndexNotIterationOrder) {
  // Dropping apps in front of app N must not change app N's seed.
  EXPECT_EQ(seed_for_app(100, 5), 105u);
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig config;
  config.jobs = 2;
  const auto full = CorpusRunner(pipeline, config).run(corpus);
  for (std::size_t i = 0; i < full.outcomes.size(); ++i) {
    EXPECT_EQ(full.outcomes[i].seed, kDefaultSeedBase + i);
  }
}

// ---------------------------------------------------------------------------
// (b) Stats reduce correctly across workers.
// ---------------------------------------------------------------------------

TEST(CorpusRunner, StatsMatchSerialRecount) {
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig config;
  config.jobs = 4;
  const auto result = CorpusRunner(pipeline, config).run(corpus);

  AggregateStats expected;
  for (const auto& outcome : result.outcomes) expected.absorb(outcome);

  const auto& got = result.stats;
  EXPECT_EQ(got.apps, corpus.apps.size());
  EXPECT_EQ(got.apps, expected.apps);
  EXPECT_EQ(got.not_run, expected.not_run);
  EXPECT_EQ(got.rewriting_failure, expected.rewriting_failure);
  EXPECT_EQ(got.no_activity, expected.no_activity);
  EXPECT_EQ(got.crashed, expected.crashed);
  EXPECT_EQ(got.exercised, expected.exercised);
  EXPECT_EQ(got.decompile_failed, expected.decompile_failed);
  EXPECT_EQ(got.static_dcl, expected.static_dcl);
  EXPECT_EQ(got.intercepted, expected.intercepted);
  EXPECT_EQ(got.remote_loaders, expected.remote_loaders);
  EXPECT_EQ(got.malware_carriers, expected.malware_carriers);
  EXPECT_EQ(got.vulnerable, expected.vulnerable);
  EXPECT_EQ(got.privacy_leaking, expected.privacy_leaking);
  EXPECT_EQ(got.binaries, expected.binaries);
  EXPECT_EQ(got.events, expected.events);
  // Outcome histogram partitions the corpus.
  EXPECT_EQ(got.not_run + got.rewriting_failure + got.no_activity +
                got.crashed + got.exercised,
            got.apps);
  EXPECT_DOUBLE_EQ(got.total_app_ms, expected.total_app_ms);
  EXPECT_DOUBLE_EQ(got.max_app_ms, expected.max_app_ms);
}

TEST(AggregateStats, MergeIsComponentwiseSum) {
  AggregateStats a;
  a.apps = 3;
  a.exercised = 2;
  a.crashed = 1;
  a.max_app_ms = 5.0;
  a.total_app_ms = 9.0;
  AggregateStats b;
  b.apps = 2;
  b.exercised = 1;
  b.vulnerable = 1;
  b.max_app_ms = 7.5;
  b.total_app_ms = 8.0;
  a.merge(b);
  EXPECT_EQ(a.apps, 5u);
  EXPECT_EQ(a.exercised, 3u);
  EXPECT_EQ(a.crashed, 1u);
  EXPECT_EQ(a.vulnerable, 1u);
  EXPECT_DOUBLE_EQ(a.max_app_ms, 7.5);
  EXPECT_DOUBLE_EQ(a.total_app_ms, 17.0);
}

// ---------------------------------------------------------------------------
// (c) One bad app never aborts the batch.
// ---------------------------------------------------------------------------

TEST(CorpusRunner, MalformedAppDoesNotAbortBatch) {
  appgen::AppSpec spec;
  spec.package = "com.driver.good";
  spec.category = "Tools";
  spec.ad_sdk = true;
  support::Rng rng(11);
  const auto good = appgen::build_app(spec, rng);

  const std::vector<std::uint8_t> garbage = {'n', 'o', 't', ' ', 'a', 'p',
                                             'k', 0xFF, 0x00, 0x7F};
  std::vector<AppJob> jobs(3);
  jobs[0].apk = good.apk;
  jobs[0].scenario = [&good](os::Device& device) {
    appgen::apply_scenario(good.scenario, device);
  };
  jobs[1].apk = support::Blob::copy_of(garbage);  // decompiler rejects this outright
  jobs[2] = jobs[0];

  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig config;
  config.jobs = 3;
  const auto result = CorpusRunner(pipeline, config).run(jobs);

  ASSERT_EQ(result.outcomes.size(), 3u);
  // The bad app resolves to a per-app failure outcome...
  EXPECT_TRUE(result.outcomes[1].report.decompile_failed);
  // ...while its neighbours complete normally.
  EXPECT_EQ(result.outcomes[0].report.status, core::DynamicStatus::kExercised)
      << result.outcomes[0].report.crash_message;
  EXPECT_FALSE(result.outcomes[0].report.binaries.empty());
  EXPECT_EQ(result.outcomes[2].report.status, core::DynamicStatus::kExercised)
      << result.outcomes[2].report.crash_message;
  EXPECT_EQ(result.stats.apps, 3u);
  EXPECT_EQ(result.stats.decompile_failed, 1u);
}

// ---------------------------------------------------------------------------
// (d) Property: any subset in any order reproduces the full run's reports
//     byte-for-byte, provided each job carries its original corpus seed.
// ---------------------------------------------------------------------------

TEST(CorpusRunner, SubsetAndPermutationReproduceFullRunReports) {
  const auto corpus = small_corpus();
  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig config;
  config.jobs = 2;
  const CorpusRunner runner(pipeline, config);
  const auto full_json = report_jsons(runner.run(corpus));

  support::Rng rng(0x5B5E7);
  for (int trial = 0; trial < 4; ++trial) {
    // Pick a random subset of corpus indices, then shuffle it.
    std::vector<std::size_t> picked;
    for (std::size_t i = 0; i < corpus.apps.size(); ++i) {
      if (rng.chance(0.4)) picked.push_back(i);
    }
    if (picked.empty()) picked.push_back(trial % corpus.apps.size());
    for (std::size_t i = picked.size(); i > 1; --i) {
      std::swap(picked[i - 1], picked[rng.below(i)]);
    }

    std::vector<AppJob> jobs;
    jobs.reserve(picked.size());
    for (const auto index : picked) {
      const auto& app = corpus.apps[index];
      AppJob job;
      job.apk = app.apk;
      job.scenario = [&app](os::Device& device) {
        appgen::apply_scenario(app.scenario, device);
      };
      // The override pins the app to its full-run seed, so filtering and
      // reordering cannot perturb its report.
      job.seed = seed_for_app(kDefaultSeedBase, index);
      jobs.push_back(std::move(job));
    }
    const auto subset = runner.run(jobs);
    ASSERT_EQ(subset.outcomes.size(), picked.size());
    for (std::size_t j = 0; j < picked.size(); ++j) {
      EXPECT_EQ(subset.outcomes[j].seed,
                seed_for_app(kDefaultSeedBase, picked[j]));
      EXPECT_EQ(core::report_to_json(subset.outcomes[j].report),
                full_json[picked[j]])
          << "trial " << trial << " subset position " << j << " corpus index "
          << picked[j];
    }
  }
}

// ---------------------------------------------------------------------------
// (e) Fault-handling policy: wall clocks, timeout classification, retry and
//     quarantine (docs/FAULTS.md).
// ---------------------------------------------------------------------------

TEST(CorpusRunner, WallTimeIsRecordedOnEveryPathIncludingCrashes) {
  appgen::AppSpec spec;
  spec.package = "com.driver.timed";
  spec.category = "Tools";
  spec.ad_sdk = true;
  support::Rng rng(17);
  const auto good = appgen::build_app(spec, rng);
  const std::vector<std::uint8_t> garbage = {'j', 'u', 'n', 'k', 0x00, 0xFF};

  std::vector<AppJob> jobs(3);
  jobs[0].apk = good.apk;
  jobs[0].scenario = [&good](os::Device& device) {
    appgen::apply_scenario(good.scenario, device);
  };
  jobs[1].apk = support::Blob::copy_of(garbage);  // crash path
  jobs[2] = jobs[0];

  const core::DyDroid pipeline{core::PipelineOptions{}};
  RunnerConfig config;
  config.jobs = 2;
  const auto result = CorpusRunner(pipeline, config).run(jobs);

  double total = 0.0;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    EXPECT_GT(result.outcomes[i].wall_ms, 0.0) << "app " << i;
    EXPECT_LE(result.outcomes[i].wall_ms, result.stats.max_app_ms);
    total += result.outcomes[i].wall_ms;
  }
  EXPECT_DOUBLE_EQ(result.stats.total_app_ms, total);
  EXPECT_GT(result.wall_ms, 0.0);
}

TEST(CorpusRunner, OverBudgetAppIsTimedOutRetriedAndQuarantined) {
  appgen::AppSpec spec;
  spec.package = "com.driver.slow";
  spec.category = "Tools";
  spec.ad_sdk = true;
  support::Rng rng(19);
  const auto app = appgen::build_app(spec, rng);

  core::PipelineOptions options;
  options.max_app_wall_ms = 1.0;  // every attempt blows this budget
  options.retry_on_crash = true;
  const core::DyDroid pipeline(std::move(options));

  std::vector<AppJob> jobs(1);
  jobs[0].apk = app.apk;
  jobs[0].scenario = [&app](os::Device& device) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    appgen::apply_scenario(app.scenario, device);
  };

  RunnerConfig config;
  config.jobs = 1;
  const auto result = CorpusRunner(pipeline, config).run(jobs);
  const auto& outcome = result.outcomes[0];
  EXPECT_TRUE(outcome.timed_out);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_TRUE(outcome.quarantined);
  EXPECT_GE(outcome.wall_ms, 20.0);  // both attempts' wall time summed
  // The app keeps its Table II bucket even while quarantined.
  EXPECT_EQ(outcome.report.status, core::DynamicStatus::kExercised);
  EXPECT_EQ(result.stats.timed_out, 1u);
  EXPECT_EQ(result.stats.retried, 1u);
  EXPECT_EQ(result.stats.quarantined, 1u);
}

TEST(CorpusRunner, CrashingRetriesAccumulateWallTimeAcrossAttempts) {
  // Regression for the wall_ms accounting mixup: the normal attempt path
  // accumulated (+=) while the exception paths assigned (=), so a retried
  // app could report only its *last* attempt's wall time. Every path now
  // goes through one accumulate-exactly-once guard: a crash-looping app
  // that retries must report the *sum* of both attempts.
  appgen::AppSpec spec;
  spec.package = "com.driver.crashloop";
  spec.category = "Tools";
  spec.ad_sdk = true;
  support::Rng rng(29);
  const auto app = appgen::build_app(spec, rng);

  const auto plan_result = support::FaultPlan::parse("device.install=always");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  core::PipelineOptions options;
  options.faults = &plan;
  options.retry_on_crash = true;
  const core::DyDroid pipeline(std::move(options));

  std::vector<AppJob> jobs(1);
  jobs[0].apk = app.apk;
  jobs[0].scenario = [&app](os::Device& device) {
    // Give each attempt a measurable floor: the scenario runs inside the
    // dynamic stage on *every* attempt, before the injected install fault.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    appgen::apply_scenario(app.scenario, device);
  };

  RunnerConfig config;
  config.jobs = 1;
  const auto result = CorpusRunner(pipeline, config).run(jobs);
  const auto& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_TRUE(outcome.quarantined);
  EXPECT_EQ(outcome.report.status, core::DynamicStatus::kCrash);
  // Both attempts' elapsed time summed — not just the final attempt's.
  EXPECT_GE(outcome.wall_ms, 20.0);
  EXPECT_EQ(result.stats.retried, 1u);
  EXPECT_EQ(result.stats.quarantined, 1u);
  EXPECT_DOUBLE_EQ(result.stats.total_app_ms, outcome.wall_ms);
}

TEST(CorpusRunner, TransientInjectedCrashRetriesCleanlyAndRecovers) {
  appgen::AppSpec spec;
  spec.package = "com.driver.flaky";
  spec.category = "Tools";
  spec.ad_sdk = true;
  support::Rng rng(23);
  const auto app = appgen::build_app(spec, rng);
  const std::function<void(os::Device&)> scenario =
      [&app](os::Device& device) {
        appgen::apply_scenario(app.scenario, device);
      };

  const auto plan_result = support::FaultPlan::parse("device.install=p:0.5");
  ASSERT_TRUE(plan_result.ok()) << plan_result.error();
  const auto& plan = plan_result.value();

  core::PipelineOptions options;
  options.faults = &plan;
  options.retry_on_crash = true;
  const core::DyDroid pipeline(std::move(options));

  // Hunt a seed whose attempt-0 fault session crashes the app while the
  // attempt-salted retry session clears — a deterministic transient.
  std::optional<std::uint64_t> flaky_seed;
  for (std::uint64_t seed = 0; seed < 64 && !flaky_seed; ++seed) {
    core::AnalysisRequest first;
    first.apk = app.apk;
    first.seed = seed;
    first.scenario_setup = &scenario;
    first.attempt = 0;
    core::AnalysisRequest second = first;
    second.attempt = 1;
    if (pipeline.analyze(first).status == core::DynamicStatus::kCrash &&
        pipeline.analyze(second).status == core::DynamicStatus::kExercised) {
      flaky_seed = seed;
    }
  }
  ASSERT_TRUE(flaky_seed.has_value())
      << "no seed in [0,64) yields a transient install fault";

  std::vector<AppJob> jobs(1);
  jobs[0].apk = app.apk;
  jobs[0].scenario = scenario;
  jobs[0].seed = *flaky_seed;

  RunnerConfig config;
  config.jobs = 1;
  const auto result = CorpusRunner(pipeline, config).run(jobs);
  const auto& outcome = result.outcomes[0];
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_FALSE(outcome.quarantined);
  EXPECT_EQ(outcome.report.status, core::DynamicStatus::kExercised);
  EXPECT_EQ(result.stats.retried, 1u);
  EXPECT_EQ(result.stats.quarantined, 0u);
  EXPECT_EQ(result.stats.crashed, 0u);
  EXPECT_EQ(result.stats.exercised, 1u);
}

// ---------------------------------------------------------------------------
// Stage-level unit coverage: the decomposed pipeline is testable per stage.
// ---------------------------------------------------------------------------

TEST(Stages, StaticStageStopsOnDclFreeApp) {
  appgen::AppSpec spec;
  spec.package = "com.driver.plain";
  spec.category = "Tools";  // no DCL behaviours at all
  support::Rng rng(3);
  const auto app = appgen::build_app(spec, rng);

  core::PipelineOptions options;
  core::AnalysisContext ctx;
  ctx.apk = app.apk;
  ctx.options = &options;

  const core::StaticStage stage;
  const auto result = stage.run(ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), core::StageAction::kStop);
  EXPECT_FALSE(ctx.report.static_dcl.any());
  EXPECT_EQ(ctx.report.package, "com.driver.plain");
  EXPECT_EQ(ctx.report.status, core::DynamicStatus::kNotRun);
}

TEST(Stages, DynamicStageWithoutStaticParseFails) {
  appgen::AppSpec spec;
  spec.package = "com.driver.dcl";
  spec.category = "Tools";
  spec.ad_sdk = true;
  support::Rng rng(5);
  const auto app = appgen::build_app(spec, rng);

  core::PipelineOptions options;
  core::AnalysisContext ctx;
  ctx.apk = app.apk;
  ctx.options = &options;
  ctx.seed = 1;

  const core::StaticStage static_stage;
  ASSERT_TRUE(static_stage.run(ctx).ok());

  // The dynamic stage runs only on StaticStage's shared parse; without it
  // the stage fails through its status (a per-app crash outcome in the
  // pipeline), never by re-parsing the input or throwing.
  ctx.image = apk::ApkImage();
  const core::DynamicStage dynamic_stage;
  const auto result = dynamic_stage.run(ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), "DynamicStage: needs StaticStage");
  EXPECT_FALSE(ctx.run.has_value());
}

}  // namespace
}  // namespace dydroid::driver
