#include "bench/bench.hpp"
#include "core/report_codec.hpp"
#include "support/strings.hpp"

namespace perfbench {

Prediction predict(const appgen::AppSpec& spec) {
  using core::DynamicStatus;
  if (spec.anti_decompilation) return {DynamicStatus::kNotRun, true};
  if (!spec.any_dex_dcl_code() && !spec.any_native_code()) {
    return {DynamicStatus::kNotRun, false};
  }
  if (spec.anti_repackaging && !spec.write_external_permission) {
    return {DynamicStatus::kRewritingFailure, false};
  }
  if (spec.no_activity) return {DynamicStatus::kNoActivity, false};
  if (spec.crash_on_start) return {DynamicStatus::kCrash, false};
  return {DynamicStatus::kExercised, false};
}

std::string check_report(const appgen::AppSpec& spec,
                         const core::AppReport& report, bool expect_binary) {
  const Prediction want = predict(spec);
  if (report.status != want.status) {
    return support::format("%s: status %s, oracle says %s",
                           spec.package.c_str(),
                           std::string(core::dynamic_status_name(report.status))
                               .c_str(),
                           std::string(core::dynamic_status_name(want.status))
                               .c_str());
  }
  if (report.decompile_failed != want.decompile_failed) {
    return support::format("%s: decompile_failed %d, oracle says %d",
                           spec.package.c_str(), report.decompile_failed,
                           want.decompile_failed);
  }
  if (expect_binary && report.status == core::DynamicStatus::kExercised &&
      report.binaries.empty()) {
    return spec.package + ": exercised but intercepted no binary";
  }
  return {};
}

bool runner_failed(const driver::AppOutcome& outcome) {
  return !outcome.completed || outcome.quarantined || outcome.timed_out ||
         outcome.sandbox_fate != driver::SandboxFate::kNone;
}

bool plausible(double wall_ms, double sum_app_wall_ms, std::size_t jobs) {
  if (jobs == 0) return false;
  return wall_ms >= sum_app_wall_ms / static_cast<double>(jobs);
}

support::Bytes report_bytes(const core::AppReport& report) {
  support::ByteWriter writer;
  core::serialize_report(writer, report);
  return writer.take();
}

}  // namespace perfbench
