// Table-driven status-propagation tests: force each pipeline stage to fail
// (via injected faults at its site, via spec'd pathologies, or via custom
// stage lists) and assert the app lands in exactly the Table II bucket the
// failure taxonomy predicts — never in an aborted batch or a torn-down
// worker.
#include <gtest/gtest.h>

#include <stdexcept>

#include "appgen/generator.hpp"
#include "core/pipeline.hpp"
#include "core/stages.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"

namespace dydroid {
namespace {

using core::DynamicStatus;

appgen::GeneratedApp make_app(bool write_permission, bool native,
                              bool no_activity = false,
                              bool crash_on_start = false) {
  appgen::AppSpec spec;
  spec.package = "com.example.stagestatus";
  spec.category = "TOOLS";
  spec.write_external_permission = write_permission;
  spec.own_dex_dcl = true;
  spec.own_native_dcl = native;
  spec.no_activity = no_activity;
  spec.crash_on_start = crash_on_start;
  support::Rng rng(0x57A9E);
  return appgen::build_app(spec, rng);
}

core::AppReport analyze(const appgen::GeneratedApp& app,
                        const support::FaultPlan* plan,
                        std::uint64_t seed = 0x1234) {
  core::PipelineOptions options;
  options.faults = plan;
  options.scenario_setup = [&app](os::Device& device) {
    appgen::apply_scenario(app.scenario, device);
  };
  const core::DyDroid pipeline(std::move(options));
  return pipeline.analyze(app.apk, seed);
}

class StageStatusTest : public ::testing::Test {
 protected:
  void SetUp() override { support::set_log_level(support::LogLevel::Error); }
};

// ---- fault-driven buckets, one row per injection site ----------------------

TEST_F(StageStatusTest, EachFaultSiteLandsInItsTableTwoBucket) {
  struct Row {
    const char* plan;
    DynamicStatus expected;
    bool decompile_failed;
    const char* message_fragment;  // nullptr = don't check
  };
  // One DCL app that needs the permission rewrite: it traverses every
  // stage, so each armed site is reachable.
  const auto app = make_app(/*write_permission=*/false, /*native=*/false);
  const Row rows[] = {
      {"apk.deserialize=always", DynamicStatus::kNotRun, true, nullptr},
      {"manifest.parse=always", DynamicStatus::kNotRun, true, nullptr},
      {"dex.parse=always", DynamicStatus::kNotRun, true, nullptr},
      {"rewrite.repack=always", DynamicStatus::kRewritingFailure, false,
       "fault(rewrite.repack)"},
      {"device.boot=always", DynamicStatus::kCrash, false,
       "fault(device.boot)"},
      {"device.install=always", DynamicStatus::kCrash, false,
       "fault(device.install)"},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.plan);
    const auto plan = support::FaultPlan::parse(row.plan);
    ASSERT_TRUE(plan.ok()) << plan.error();
    const auto report = analyze(app, &plan.value());
    EXPECT_EQ(report.status, row.expected)
        << "got " << core::dynamic_status_name(report.status);
    EXPECT_EQ(report.decompile_failed, row.decompile_failed);
    EXPECT_TRUE(report.binaries.empty());
    if (row.message_fragment != nullptr) {
      EXPECT_NE(report.crash_message.find(row.message_fragment),
                std::string::npos)
          << report.crash_message;
    }
  }
}

TEST_F(StageStatusTest, BaselineAppIsExercised) {
  const auto app = make_app(/*write_permission=*/false, /*native=*/false);
  const auto report = analyze(app, nullptr);
  EXPECT_EQ(report.status, DynamicStatus::kExercised);
  EXPECT_FALSE(report.binaries.empty());
}

TEST_F(StageStatusTest, InterceptorFaultKeepsBucketButDropsBinaries) {
  const auto app = make_app(/*write_permission=*/false, /*native=*/false);
  const auto baseline = analyze(app, nullptr);
  const auto plan = support::FaultPlan::parse("interceptor.io=always");
  ASSERT_TRUE(plan.ok());
  const auto report = analyze(app, &plan.value());
  EXPECT_EQ(report.status, baseline.status);
  EXPECT_EQ(report.events.size(), baseline.events.size());
  EXPECT_TRUE(report.binaries.empty());
  EXPECT_FALSE(baseline.binaries.empty());
}

TEST_F(StageStatusTest, NativeLoadFaultCrashesNativeLoaders) {
  const auto app = make_app(/*write_permission=*/true, /*native=*/true);
  const auto plan = support::FaultPlan::parse("native.load=always");
  ASSERT_TRUE(plan.ok());
  const auto report = analyze(app, &plan.value());
  EXPECT_EQ(report.status, DynamicStatus::kCrash);
}

// ---- spec'd pathologies (Table II failure rows) -----------------------------

TEST_F(StageStatusTest, NoActivityAppLandsInNoActivity) {
  const auto app = make_app(/*write_permission=*/true, /*native=*/false,
                            /*no_activity=*/true);
  const auto report = analyze(app, nullptr);
  EXPECT_EQ(report.status, DynamicStatus::kNoActivity);
}

TEST_F(StageStatusTest, CrashOnStartAppLandsInCrash) {
  const auto app = make_app(/*write_permission=*/true, /*native=*/false,
                            /*no_activity=*/false, /*crash_on_start=*/true);
  const auto report = analyze(app, nullptr);
  EXPECT_EQ(report.status, DynamicStatus::kCrash);
}

TEST_F(StageStatusTest, DclFreeAppIsNotRun) {
  appgen::AppSpec spec;
  spec.package = "com.example.nodcl";
  spec.category = "TOOLS";
  support::Rng rng(0x57A9F);
  const auto app = appgen::build_app(spec, rng);
  const auto report = analyze(app, nullptr);
  EXPECT_EQ(report.status, DynamicStatus::kNotRun);
  EXPECT_FALSE(report.decompile_failed);
  EXPECT_TRUE(report.binaries.empty());
}

// ---- custom stage lists: the no-exceptions boundary ------------------------

class FailingStage final : public core::Stage {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "FailingStage";
  }
  [[nodiscard]] core::StageResult run(core::AnalysisContext&) const override {
    return core::StageResult::failure("forced failure");
  }
};

class ThrowingStage final : public core::Stage {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "ThrowingStage";
  }
  [[nodiscard]] core::StageResult run(core::AnalysisContext&) const override {
    throw std::runtime_error("boom");
  }
};

class StoppingStage final : public core::Stage {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "StoppingStage";
  }
  [[nodiscard]] core::StageResult run(core::AnalysisContext& ctx) const override {
    ctx.report.status = DynamicStatus::kNoActivity;
    return core::StageAction::kStop;
  }
};

TEST_F(StageStatusTest, ExplicitStageFailureBecomesCrashOutcome) {
  std::vector<std::unique_ptr<const core::Stage>> stages;
  stages.push_back(std::make_unique<FailingStage>());
  const core::DyDroid pipeline({}, std::move(stages));
  const auto report = pipeline.analyze(support::Blob{}, 1);
  EXPECT_EQ(report.status, DynamicStatus::kCrash);
  EXPECT_EQ(report.crash_message, "forced failure");
}

TEST_F(StageStatusTest, EscapingExceptionIsNamedAfterItsStage) {
  std::vector<std::unique_ptr<const core::Stage>> stages;
  stages.push_back(std::make_unique<ThrowingStage>());
  const core::DyDroid pipeline({}, std::move(stages));
  const auto report = pipeline.analyze(support::Blob{}, 1);
  EXPECT_EQ(report.status, DynamicStatus::kCrash);
  EXPECT_EQ(report.crash_message, "ThrowingStage: boom");
}

TEST_F(StageStatusTest, StopIsASuccessfulShortCircuit) {
  std::vector<std::unique_ptr<const core::Stage>> stages;
  stages.push_back(std::make_unique<StoppingStage>());
  stages.push_back(std::make_unique<ThrowingStage>());  // must not run
  const core::DyDroid pipeline({}, std::move(stages));
  const auto report = pipeline.analyze(support::Blob{}, 1);
  EXPECT_EQ(report.status, DynamicStatus::kNoActivity);
  EXPECT_TRUE(report.crash_message.empty());
}

TEST_F(StageStatusTest, RealStageFailureStillKeepsEarlierStageOutput) {
  const auto app = make_app(/*write_permission=*/true, /*native=*/false);
  std::vector<std::unique_ptr<const core::Stage>> stages;
  stages.push_back(std::make_unique<core::StaticStage>());
  stages.push_back(std::make_unique<FailingStage>());
  const core::DyDroid pipeline({}, std::move(stages));
  const auto report = pipeline.analyze(app.apk, 1);
  EXPECT_EQ(report.status, DynamicStatus::kCrash);
  EXPECT_EQ(report.crash_message, "forced failure");
  EXPECT_EQ(report.package, "com.example.stagestatus");  // StaticStage ran
}

TEST_F(StageStatusTest, RewriteStageWithoutStaticStageIsACrashOutcome) {
  // Needs the permission injection, so RewriteStage would repack.
  const auto app = make_app(/*write_permission=*/false, /*native=*/false);
  std::vector<std::unique_ptr<const core::Stage>> stages;
  stages.push_back(std::make_unique<core::RewriteStage>());
  stages.push_back(std::make_unique<ThrowingStage>());  // must not run
  const core::DyDroid pipeline({}, std::move(stages));
  const auto report = pipeline.analyze(app.apk, 1);
  EXPECT_EQ(report.status, DynamicStatus::kCrash);
  EXPECT_EQ(report.crash_message, "RewriteStage: needs StaticStage");
}

}  // namespace
}  // namespace dydroid
