// Tests of the survey benchmark itself: input generation, the spec oracle,
// the plausibility check, span self time and a tiny-scale smoke run of every
// workload. Writes only under ./perfbench_test_tmp.
#include <gtest/gtest.h>

#include <filesystem>

#include "bench/bench.hpp"
#include "support/log.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr double kTinyScale = 0.003;  // ~176 play apps
constexpr std::size_t kTinyLoaderApps = 40;

std::string scratch_dir(const std::string& name) {
  const auto dir = fs::current_path() / "perfbench_test_tmp" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

support::Sha256Digest corpus_digest(const appgen::Corpus& corpus) {
  support::Sha256 hash;
  for (const auto& app : corpus.apps) {
    hash.update(app.spec.package);
    hash.update(app.apk.span());
  }
  return hash.digest();
}

Inputs tiny_inputs(const Workload& workload, std::uint64_t seed) {
  InputConfig config;
  config.seed = seed;
  config.scale = kTinyScale;
  config.loader_apps = kTinyLoaderApps;
  return make_inputs(workload, config);
}

class PerfbenchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    support::set_log_level(support::LogLevel::Error);
  }
};

TEST_F(PerfbenchTest, SameSeedSameCorpusDifferentSeedDifferentCorpus) {
  for (const auto& workload : workloads()) {
    SCOPED_TRACE(std::string(workload.name));
    const auto a = corpus_digest(tiny_inputs(workload, 7).corpus);
    const auto b = corpus_digest(tiny_inputs(workload, 7).corpus);
    const auto c = corpus_digest(tiny_inputs(workload, 8).corpus);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
  }
}

TEST_F(PerfbenchTest, OracleAcceptsPipelineReportAndRejectsMutations) {
  const Inputs inputs = tiny_inputs(*find_workload("play-survey"), 11);
  std::size_t exercised = 0;
  std::size_t not_run = 0;
  for (std::size_t i = 0; i < inputs.corpus.apps.size(); ++i) {
    const auto& app = inputs.corpus.apps[i];
    const std::function<void(dydroid::os::Device&)> scenario =
        [&app](dydroid::os::Device& device) {
          appgen::apply_scenario(app.scenario, device);
        };
    core::AnalysisRequest request;
    request.apk = app.apk;
    request.seed = driver::seed_for_app(inputs.seed_base, i);
    request.scenario_setup = &scenario;
    core::AppReport report = inputs.pipeline->analyze(request);
    ASSERT_EQ(check_report(app.spec, report, false), "") << app.spec.package;
    if (report.status == core::DynamicStatus::kExercised) ++exercised;
    if (report.status == core::DynamicStatus::kNotRun) ++not_run;

    core::AppReport wrong_status = report;
    wrong_status.status = report.status == core::DynamicStatus::kCrash
                              ? core::DynamicStatus::kExercised
                              : core::DynamicStatus::kCrash;
    EXPECT_NE(check_report(app.spec, wrong_status, false), "");
    core::AppReport wrong_flag = report;
    wrong_flag.decompile_failed = !report.decompile_failed;
    EXPECT_NE(check_report(app.spec, wrong_flag, false), "");
    if (report.status == core::DynamicStatus::kExercised) {
      core::AppReport no_binaries = report;
      no_binaries.binaries.clear();
      EXPECT_NE(check_report(app.spec, no_binaries, true), "");
    }
  }
  EXPECT_GT(exercised, 0u);
  EXPECT_GT(not_run, 0u);
}

TEST_F(PerfbenchTest, OraclePredictsFromSpecFlags) {
  appgen::AppSpec spec;
  EXPECT_EQ(predict(spec).status, core::DynamicStatus::kNotRun);  // no DCL
  spec.own_dex_dcl = true;
  EXPECT_EQ(predict(spec).status, core::DynamicStatus::kExercised);
  spec.crash_on_start = true;
  EXPECT_EQ(predict(spec).status, core::DynamicStatus::kCrash);
  spec.no_activity = true;
  EXPECT_EQ(predict(spec).status, core::DynamicStatus::kNoActivity);
  spec.anti_repackaging = true;
  EXPECT_EQ(predict(spec).status, core::DynamicStatus::kNoActivity);
  spec.write_external_permission = false;
  EXPECT_EQ(predict(spec).status, core::DynamicStatus::kRewritingFailure);
  spec.anti_decompilation = true;
  EXPECT_EQ(predict(spec).status, core::DynamicStatus::kNotRun);
  EXPECT_TRUE(predict(spec).decompile_failed);
}

TEST_F(PerfbenchTest, EveryLoaderHeavyAppInterceptsABinary) {
  const Inputs inputs = tiny_inputs(*find_workload("loader-heavy"), 5);
  ASSERT_EQ(inputs.corpus.apps.size(), kTinyLoaderApps);
  for (std::size_t i = 0; i < inputs.corpus.apps.size(); ++i) {
    const auto& app = inputs.corpus.apps[i];
    EXPECT_TRUE(app.spec.analytics_sdk);
    EXPECT_NE(app.spec.sdk_leaks, 0u);
    EXPECT_EQ(app.spec.malware.size(), 1u);
    const std::function<void(dydroid::os::Device&)> scenario =
        [&app](dydroid::os::Device& device) {
          appgen::apply_scenario(app.scenario, device);
        };
    core::AnalysisRequest request;
    request.apk = app.apk;
    request.seed = driver::seed_for_app(inputs.seed_base, i);
    request.scenario_setup = &scenario;
    const core::AppReport report = inputs.pipeline->analyze(request);
    EXPECT_EQ(report.status, core::DynamicStatus::kExercised)
        << app.spec.package;
    EXPECT_FALSE(report.binaries.empty()) << app.spec.package;
  }
}

TEST_F(PerfbenchTest, PlausibilityCheckFiresOnCpuTimeThroughput) {
  // 2,937 apps at ~0.47 ms of wall each on 4 workers cannot finish in the
  // 7.75 ms one thread's CPU time suggests (378.9k apps/s); ~350 ms can.
  const double sum_app_wall_ms = 2937 * 0.47;
  EXPECT_FALSE(plausible(7.75, sum_app_wall_ms, 4));
  EXPECT_TRUE(plausible(350.0, sum_app_wall_ms, 4));
  EXPECT_FALSE(plausible(350.0, sum_app_wall_ms, 0));
}

TEST_F(PerfbenchTest, TinySmokeRunOfEveryWorkload) {
  for (const auto& workload : workloads()) {
    SCOPED_TRACE(std::string(workload.name));
    const Inputs inputs = tiny_inputs(workload, 20161101);
    TimedConfig tc;
    tc.seconds = 0;  // one pass after the warm-up round
    tc.jobs = 2;
    const TimedResult tr = run_timed(inputs, workload, tc);
    EXPECT_EQ(tr.failed, 0u) << (tr.errors.empty() ? "" : tr.errors.front());
    EXPECT_FALSE(tr.implausible);
    ASSERT_TRUE(tr.report_digest.has_value());
    EXPECT_FALSE(tr.apps_per_s.empty());
    EXPECT_EQ(run_timed(inputs, workload, tc).report_digest, tr.report_digest);

    // The traced run also checks the composed path against DyDroid::analyze
    // and the pool/journal/cache runner against thread mode.
    TracedConfig cfg;
    cfg.sample = 25;
    cfg.seed = 3;
    cfg.work_dir = scratch_dir(std::string(workload.name));
    cfg.spans_path = cfg.work_dir + "-spans.json";
    const TracedResult traced = run_traced(inputs, cfg);
    EXPECT_EQ(traced.attempted, 25u);
    EXPECT_EQ(traced.failed, 0u)
        << (traced.errors.empty() ? "" : traced.errors.front());
    EXPECT_TRUE(traced.metrics.count("core.run_app.us_p50"));
    EXPECT_TRUE(traced.metrics.count("trace.overhead_frac"));
    EXPECT_EQ(traced.metrics.at("driver.cache_hit_ratio"), 1.0);
    EXPECT_TRUE(fs::exists(cfg.spans_path));
  }
  fs::remove_all(fs::current_path() / "perfbench_test_tmp");
}

TEST_F(PerfbenchTest, TracerSelfTimeSubtractsDirectChildren) {
  Tracer tracer;
  const std::size_t root = tracer.begin("root", 1);
  const std::size_t child = tracer.begin("child", 1);
  tracer.end(child);
  tracer.end(root);
  const auto self = tracer.self_ns();
  const auto& spans = tracer.spans();
  EXPECT_EQ(spans[child].parent, static_cast<std::int32_t>(root));
  EXPECT_EQ(spans[root].parent, -1);
  EXPECT_EQ(self[root] + (spans[child].end_ns - spans[child].start_ns),
            spans[root].end_ns - spans[root].start_ns);
  EXPECT_GE(self[root], 0);
}

}  // namespace
}  // namespace perfbench
