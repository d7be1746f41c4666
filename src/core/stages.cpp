#include "core/stages.hpp"

#include "analysis/rewriter.hpp"
#include "support/log.hpp"
#include "support/trace.hpp"

namespace dydroid::core {

// ---- StaticStage -----------------------------------------------------------

StageResult StaticStage::run(AnalysisContext& ctx) const {
  auto ir = [&] {
    // Nested "phase" span: decompilation dominates the static stage; the
    // trace shows it as a child of the enclosing "stage"/"static" span.
    // This is the pipeline's single container parse: the resulting image
    // is shared by every later stage (rewrite, install, VM).
    TRACE_SPAN("phase", "static.decompile");
    try {
      ctx.image = apk::ApkImage::parse(ctx.apk, apk::ParseMode::kLenient);
    } catch (const support::ParseError& e) {
      return support::Result<analysis::Ir>::failure(
          std::string("decompile: ") + e.what());
    }
    return analysis::decompile(ctx.image);
  }();
  if (!ir.ok()) {
    ctx.report.decompile_failed = true;
    ctx.report.obfuscation.anti_decompilation = true;
    return StageAction::kStop;
  }
  ctx.ir = std::move(ir).take();
  const auto& decompiled = *ctx.ir;
  ctx.report.package = decompiled.manifest.package;
  ctx.report.min_sdk = decompiled.manifest.min_sdk;
  {
    TRACE_SPAN("phase", "static.scan");
    ctx.report.obfuscation = obfuscation::analyze_obfuscation(decompiled);
    if (decompiled.classes_dex.has_value()) {
      ctx.report.static_dcl = scan_dcl_apis(*decompiled.classes_dex);
    }
  }

  if (!ctx.options->dynamic_analysis || !ctx.report.static_dcl.any()) {
    return StageAction::kStop;  // DCL-free apps are not exercised (paper §V-A)
  }
  return StageAction::kContinue;
}

// ---- RewriteStage ----------------------------------------------------------

StageResult RewriteStage::run(AnalysisContext& ctx) const {
  if (!ctx.ir.has_value() || !ctx.image.valid()) {
    return StageResult::failure("RewriteStage: needs StaticStage");
  }
  // The measurement log lives on external storage; inject the permission if
  // missing. Anti-repackaging apps crash the (strict) repacker here.
  if (ctx.ir->manifest.has_permission(manifest::kWriteExternalStorage)) {
    return StageAction::kContinue;
  }
  auto result = analysis::rewrite_with_permission(
      ctx.image, manifest::kWriteExternalStorage);
  if (!result.ok()) {
    ctx.report.status = DynamicStatus::kRewritingFailure;
    ctx.report.crash_message = result.error();
    return StageAction::kStop;
  }
  ctx.run_image = std::move(result).take();
  return StageAction::kContinue;
}

// ---- DynamicStage ----------------------------------------------------------

namespace {

/// Move the IR's decoded classes.dex out (null when the APK has none).
std::shared_ptr<const dex::DexFile> take_classes_dex(analysis::Ir& ir) {
  if (!ir.classes_dex.has_value()) return nullptr;
  auto classes =
      std::make_shared<const dex::DexFile>(*std::move(ir.classes_dex));
  ir.classes_dex.reset();
  return classes;
}

}  // namespace

StageResult DynamicStage::run(AnalysisContext& ctx) const {
  if (!ctx.ir.has_value() || !ctx.image.valid()) {
    return StageResult::failure("DynamicStage: needs StaticStage");
  }
  std::optional<os::Device> device;
  {
    TRACE_SPAN("phase", "dynamic.boot");
    device.emplace(ctx.options->device);
    if (const auto& scenario = ctx.scenario(); scenario) scenario(*device);
    ctx.options->runtime.apply(device->services());
  }

  // The image to exercise: the rewritten one if RewriteStage produced it,
  // otherwise StaticStage's shared parse.
  const apk::ApkImage& img = ctx.run_image.valid() ? ctx.run_image : ctx.image;
  manifest::Manifest man;
  {
    TRACE_SPAN("phase", "dynamic.install");
    try {
      man = img.file().read_manifest();
    } catch (const support::ParseError& e) {
      ctx.report.status = DynamicStatus::kCrash;
      ctx.report.crash_message = e.what();
      return StageAction::kStop;
    }
    if (const auto installed = device->install(img); !installed) {
      ctx.report.status = DynamicStatus::kCrash;
      ctx.report.crash_message = installed.error();
      return StageAction::kStop;
    }
  }

  support::Rng rng(ctx.seed);
  {
    TRACE_SPAN("phase", "dynamic.fuzz");
    // StaticStage decoded classes.dex into the IR and no later stage reads
    // the IR, so the VM takes that decode instead of repeating it (the
    // rewrite changes only the manifest).
    ctx.run = run_app(*device, take_classes_dex(*ctx.ir), man, rng,
                      ctx.options->engine);
  }
  auto& run = *ctx.run;
  ctx.report.storage_recovered = run.storage_recovered;
  ctx.report.crash_message = run.monkey.crash_message;
  switch (run.monkey.outcome) {
    case monkey::Outcome::kNoActivity:
      ctx.report.status = DynamicStatus::kNoActivity;
      break;
    case monkey::Outcome::kCrash:
      ctx.report.status = DynamicStatus::kCrash;
      break;
    case monkey::Outcome::kExercised:
      ctx.report.status = DynamicStatus::kExercised;
      break;
  }
  ctx.report.events = std::move(run.events);
  ctx.report.vm_events = std::move(run.vm_events);
  return StageAction::kContinue;
}

// ---- PerBinaryStage --------------------------------------------------------

StageResult PerBinaryStage::run(AnalysisContext& ctx) const {
  if (!ctx.run.has_value()) return StageAction::kContinue;
  auto& run = *ctx.run;
  for (auto& binary : run.binaries) {
    BinaryReport br;
    br.origin_url = run.tracker.origin_url(binary.path);
    if (ctx.options->detector != nullptr) {
      br.malware = ctx.options->detector->scan(binary.bytes);
    }
    if (binary.kind == CodeKind::Dex) {
      try {
        if (dex::looks_like_dex(binary.bytes)) {
          br.privacy =
              privacy::analyze_privacy(dex::DexFile::deserialize(binary.bytes));
        } else if (apk::looks_like_apk(binary.bytes)) {
          const auto pkg = apk::ApkFile::deserialize(binary.bytes);
          if (auto inner = pkg.read_classes_dex()) {
            br.privacy = privacy::analyze_privacy(*inner);
          }
        }
      } catch (const support::ParseError& e) {
        support::log_warn("pipeline",
                          std::string("privacy: unparsable binary: ") +
                              e.what());
      }
    }
    br.binary = std::move(binary);
    ctx.report.binaries.push_back(std::move(br));
  }
  return StageAction::kContinue;
}

// ---- VulnStage -------------------------------------------------------------

StageResult VulnStage::run(AnalysisContext& ctx) const {
  ctx.report.vulns = analyze_vulnerabilities(ctx.report.events,
                                             ctx.report.package,
                                             ctx.report.min_sdk);
  return StageAction::kContinue;
}

std::vector<std::unique_ptr<const Stage>> default_stages() {
  std::vector<std::unique_ptr<const Stage>> stages;
  stages.push_back(std::make_unique<StaticStage>());
  stages.push_back(std::make_unique<RewriteStage>());
  stages.push_back(std::make_unique<DynamicStage>());
  stages.push_back(std::make_unique<PerBinaryStage>());
  stages.push_back(std::make_unique<VulnStage>());
  return stages;
}

}  // namespace dydroid::core
