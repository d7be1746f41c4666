// Parse-once pipeline guard (docs/PIPELINE.md): the subject APK container is
// deserialized exactly once per analysis attempt. Every later consumer — the
// rewriter, the device install, the VM loader — works from the shared
// ApkImage (or a cheap Blob view of it), never from a re-parse. The
// `pipeline.parses` counter is incremented only by ApkImage::parse, so this
// test pins the whole-pipeline parse count and fails if a re-parse sneaks
// back into any stage.
#include <gtest/gtest.h>

#include <cstdint>

#include "appgen/generator.hpp"
#include "core/pipeline.hpp"
#include "core/report_json.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

namespace dydroid {
namespace {

appgen::GeneratedApp make_app(bool write_permission) {
  appgen::AppSpec spec;
  spec.package = "com.example.parseonce";
  spec.category = "TOOLS";
  spec.write_external_permission = write_permission;
  spec.own_dex_dcl = true;
  support::Rng rng(0x9A25E01);
  return appgen::build_app(spec, rng);
}

std::uint64_t counter_value(const support::MetricsSnapshot& snapshot,
                            std::string_view name) {
  const auto* counter = snapshot.counter(name);
  return counter == nullptr ? 0u : counter->value;
}

support::MetricsSnapshot analyze_with_metrics(
    const appgen::GeneratedApp& app) {
  support::set_log_level(support::LogLevel::Error);
  support::set_metrics_enabled(true);
  support::metrics_reset();
  core::PipelineOptions options;
  options.scenario_setup = [&app](os::Device& device) {
    appgen::apply_scenario(app.scenario, device);
  };
  const core::DyDroid pipeline(std::move(options));
  const auto report = pipeline.analyze(app.apk, 0x1234);
  EXPECT_NE(report.status, core::DynamicStatus::kNotRun)
      << "guard app must traverse the dynamic stage";
  auto snapshot = support::metrics_snapshot();
  support::set_metrics_enabled(false);
  return snapshot;
}

TEST(ParseOnce, NonRewrittenAppParsesItsContainerExactlyOnce) {
  // The app already holds WRITE_EXTERNAL_STORAGE, so no rewrite happens and
  // the StaticStage parse is the only container deserialization.
  const auto snapshot = analyze_with_metrics(make_app(true));
  EXPECT_EQ(counter_value(snapshot, "pipeline.parses"), 1u);
}

TEST(ParseOnce, RewrittenAppStillParsesExactlyOnce) {
  // The permission rewrite repacks the container (ApkImage::from_file — a
  // serialize, counted as copied bytes), but must not re-parse it: the
  // install and the VM consume the rewritten image directly.
  const auto snapshot = analyze_with_metrics(make_app(false));
  EXPECT_EQ(counter_value(snapshot, "pipeline.parses"), 1u);
  EXPECT_GT(counter_value(snapshot, "pipeline.bytes_copied"), 0u);
}

TEST(ParseOnce, VmReusesTheStaticStageDecodeOfClassesDex) {
  // StaticStage's decompile is the first classes.dex decode; the VM takes
  // that decode instead of making a second one. So with the second decode
  // armed to fail, an exercised app that loads no code at runtime (its DCL
  // call is dead code) reports exactly as it does without faults.
  support::set_log_level(support::LogLevel::Error);
  const auto plan = support::FaultPlan::parse("dex.parse=nth:2");
  ASSERT_TRUE(plan.ok()) << plan.error();
  for (const bool write_permission : {true, false}) {
    SCOPED_TRACE(write_permission ? "no rewrite" : "rewritten");
    appgen::AppSpec spec;
    spec.package = "com.example.decodeonce";
    spec.category = "TOOLS";
    spec.write_external_permission = write_permission;
    spec.dead_dex_dcl = true;
    support::Rng rng(0xDEC0DE);
    const auto app = appgen::build_app(spec, rng);
    const auto analyze = [&app](const support::FaultPlan* faults) {
      core::PipelineOptions options;
      options.faults = faults;
      return core::DyDroid(std::move(options)).analyze(app.apk, 0x1234);
    };
    const auto clean = analyze(nullptr);
    ASSERT_EQ(clean.status, core::DynamicStatus::kExercised);
    ASSERT_TRUE(clean.binaries.empty());
    EXPECT_EQ(core::report_to_json(analyze(&plan.value())),
              core::report_to_json(clean));
  }
}

}  // namespace
}  // namespace dydroid
