#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>

#include "analysis/decompiler.hpp"
#include "analysis/rewriter.hpp"
#include "apk/apk.hpp"
#include "appgen/generator.hpp"
#include "bench/bench.hpp"
#include "core/engine.hpp"
#include "core/static_filter.hpp"
#include "core/vulnerability.hpp"
#include "dex/dexfile.hpp"
#include "driver/outcome_codec.hpp"
#include "driver/result_cache.hpp"
#include "driver/sandbox.hpp"
#include "obfuscation/detector.hpp"
#include "os/device.hpp"
#include "privacy/flowdroid.hpp"
#include "support/io.hpp"
#include "support/journal.hpp"
#include "support/rng.hpp"
#include "support/worker_pool.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void note_error(std::vector<std::string>& errors, std::string message) {
  if (errors.size() < 5) errors.push_back(std::move(message));
}

/// Pool child for the RPC round trip: echoes each framed message back.
int echo_serve(int request_fd, int response_fd) {
  support::Bytes message;
  for (;;) {
    std::uint8_t header[support::kPoolMessageHeader];
    const ssize_t got = support::read_exact(request_fd, header, sizeof header);
    if (got == 0) return 0;
    if (got != static_cast<ssize_t>(sizeof header)) return 3;
    const std::uint32_t len = static_cast<std::uint32_t>(header[8]) |
                              (static_cast<std::uint32_t>(header[9]) << 8) |
                              (static_cast<std::uint32_t>(header[10]) << 16) |
                              (static_cast<std::uint32_t>(header[11]) << 24);
    if (len > support::kPoolMaxMessageBytes) return 3;
    message.assign(header, header + sizeof header);
    message.resize(sizeof header + len);
    if (len > 0 && support::read_exact(request_fd, message.data() + sizeof header,
                                       len) != static_cast<ssize_t>(len)) {
      return 3;
    }
    if (!support::write_fully(response_fd, message.data(), message.size())) {
      return 3;
    }
  }
}

}  // namespace

// ---- Tracer ------------------------------------------------------------------

std::size_t Tracer::begin(std::string_view name, std::uint32_t request) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  spans_.back().start_ns = now_ns();
  return spans_.size() - 1;
}

void Tracer::end(std::size_t span) {
  spans_[span].end_ns = now_ns();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const auto& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -=
          span.end_ns - span.start_ns;
    }
  }
  return self;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

// ---- composed per-app path ---------------------------------------------------

namespace {

/// The per-app path of core::DyDroid::analyze, composed from the public
/// entry points in stages.cpp order, with a span around each call.
core::AppReport compose_report(const core::DyDroid& pipeline,
                               const appgen::GeneratedApp& app,
                               std::uint64_t seed, std::uint32_t request,
                               Tracer& tracer) {
  namespace apk = dydroid::apk;
  namespace analysis = dydroid::analysis;
  const core::PipelineOptions& options = pipeline.options();
  core::AppReport report;

  // 1-3: static stage.
  apk::ApkImage image;
  std::optional<analysis::Ir> ir;
  {
    bool parsed = true;
    try {
      const Scoped span(tracer, "apk.parse", request);
      image = apk::ApkImage::parse(app.apk, apk::ParseMode::kLenient);
    } catch (const support::ParseError&) {
      parsed = false;
    }
    if (parsed) {
      const Scoped span(tracer, "analysis.decompile", request);
      auto decompiled = analysis::decompile(image);
      if (decompiled.ok()) ir = std::move(decompiled).take();
    }
  }
  if (!ir.has_value()) {
    report.decompile_failed = true;
    report.obfuscation.anti_decompilation = true;
    return report;
  }
  report.package = ir->manifest.package;
  report.min_sdk = ir->manifest.min_sdk;
  {
    const Scoped span(tracer, "obfuscation.analyze", request);
    report.obfuscation = dydroid::obfuscation::analyze_obfuscation(*ir);
  }
  if (ir->classes_dex.has_value()) {
    const Scoped span(tracer, "core.scan_dcl", request);
    report.static_dcl = core::scan_dcl_apis(*ir->classes_dex);
  }
  if (!options.dynamic_analysis || !report.static_dcl.any()) return report;

  // 4: permission rewrite.
  apk::ApkImage run_image;
  if (!ir->manifest.has_permission(dydroid::manifest::kWriteExternalStorage)) {
    const Scoped span(tracer, "analysis.rewrite", request);
    auto rewritten = analysis::rewrite_with_permission(
        image, dydroid::manifest::kWriteExternalStorage);
    if (!rewritten.ok()) {
      report.status = core::DynamicStatus::kRewritingFailure;
      report.crash_message = rewritten.error();
      return report;
    }
    run_image = std::move(rewritten).take();
  }

  // 5: boot, scenario, install.
  std::optional<dydroid::os::Device> device;
  const apk::ApkImage& img = run_image.valid() ? run_image : image;
  dydroid::manifest::Manifest man;
  {
    const Scoped span(tracer, "os.boot_install", request);
    device.emplace(options.device);
    appgen::apply_scenario(app.scenario, *device);
    options.runtime.apply(device->services());
    try {
      man = img.file().read_manifest();
    } catch (const support::ParseError& e) {
      report.status = core::DynamicStatus::kCrash;
      report.crash_message = e.what();
      return report;
    }
    if (const auto installed = device->install(img); !installed) {
      report.status = core::DynamicStatus::kCrash;
      report.crash_message = installed.error();
      return report;
    }
  }

  // 6: fuzz with interception.
  std::optional<core::RunResult> run;
  {
    const Scoped span(tracer, "core.run_app", request);
    support::Rng rng(seed);
    run = core::run_app(*device, img.file(), man, rng, options.engine);
  }
  report.storage_recovered = run->storage_recovered;
  report.crash_message = run->monkey.crash_message;
  switch (run->monkey.outcome) {
    case dydroid::monkey::Outcome::kNoActivity:
      report.status = core::DynamicStatus::kNoActivity;
      break;
    case dydroid::monkey::Outcome::kCrash:
      report.status = core::DynamicStatus::kCrash;
      break;
    case dydroid::monkey::Outcome::kExercised:
      report.status = core::DynamicStatus::kExercised;
      break;
  }
  report.events = std::move(run->events);
  report.vm_events = std::move(run->vm_events);

  // 7: per intercepted binary.
  for (auto& binary : run->binaries) {
    core::BinaryReport br;
    br.origin_url = run->tracker.origin_url(binary.path);
    if (options.detector != nullptr) {
      const Scoped span(tracer, "malware.scan", request);
      br.malware = options.detector->scan(binary.bytes);
    }
    if (binary.kind == core::CodeKind::Dex) {
      try {
        std::optional<dydroid::dex::DexFile> dex;
        if (dydroid::dex::looks_like_dex(binary.bytes)) {
          dex = dydroid::dex::DexFile::deserialize(binary.bytes);
        } else if (apk::looks_like_apk(binary.bytes)) {
          dex = apk::ApkFile::deserialize(binary.bytes).read_classes_dex();
        }
        if (dex.has_value()) {
          const Scoped span(tracer, "privacy.analyze", request);
          br.privacy = dydroid::privacy::analyze_privacy(*dex);
        }
      } catch (const support::ParseError&) {
        // DyDroid::analyze logs and keeps an empty privacy report.
      }
    }
    br.binary = std::move(binary);
    report.binaries.push_back(std::move(br));
  }

  // 8: vulnerabilities.
  {
    const Scoped span(tracer, "core.vuln", request);
    report.vulns = core::analyze_vulnerabilities(report.events, report.package,
                                                 report.min_sdk);
  }
  return report;
}

struct LayerStats {
  std::vector<double> us;  // per-call durations
  double self_ms = 0.0;
};

}  // namespace

TracedResult run_traced(const Inputs& inputs, const TracedConfig& config) {
  namespace fs = std::filesystem;
  TracedResult result;
  const auto& apps = inputs.corpus.apps;
  const core::DyDroid& pipeline = *inputs.pipeline;

  // Seeded sample of corpus indices, visited in corpus order.
  std::vector<std::size_t> sample(apps.size());
  for (std::size_t i = 0; i < sample.size(); ++i) sample[i] = i;
  support::Rng pick(config.seed ^ 0x7AC3D5A3ull);
  pick.shuffle(sample);
  sample.resize(std::min(config.sample, sample.size()));
  std::sort(sample.begin(), sample.end());
  const double sample_apps = static_cast<double>(sample.size());
  if (sample.empty()) return result;

  Tracer tracer;
  std::vector<core::AppReport> reports(sample.size());
  std::vector<double> traced_ms(sample.size(), 0.0);
  double traced_sum = 0.0;
  double untraced_sum = 0.0;
  for (std::size_t k = 0; k < sample.size(); ++k) {
    const std::size_t index = sample[k];
    const auto& app = apps[index];
    const std::uint64_t seed = driver::seed_for_app(inputs.seed_base, index);
    const auto request = static_cast<std::uint32_t>(index);
    ++result.attempted;

    const std::function<void(dydroid::os::Device&)> scenario =
        [&app](dydroid::os::Device& device) {
          appgen::apply_scenario(app.scenario, device);
        };
    core::AnalysisRequest analysis_request;
    analysis_request.apk = app.apk;
    analysis_request.seed = seed;
    analysis_request.scenario_setup = &scenario;

    core::AppReport reference;
    std::string error;
    // Alternate which path runs first so neither always gets warm caches.
    for (int pass = 0; pass < 2; ++pass) {
      if ((pass == 0) == (k % 2 == 0)) {
        const auto t0 = Clock::now();
        reference = pipeline.analyze(analysis_request);
        untraced_sum +=
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
      } else {
        const std::size_t root = tracer.begin("app", request);
        try {
          reports[k] = compose_report(pipeline, app, seed, request, tracer);
        } catch (const std::exception& e) {
          error = app.spec.package + ": composed path threw: " + e.what();
        }
        tracer.end(root);
        const auto& span = tracer.spans()[root];
        traced_ms[k] = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
        traced_sum += traced_ms[k];
      }
    }
    for (const auto& binary : reports[k].binaries) {
      const Scoped span(tracer, "malware.lift", request);
      (void)malware::DroidNative::lift(binary.binary.bytes);
    }
    if (error.empty() && report_bytes(reports[k]) != report_bytes(reference)) {
      error = app.spec.package +
              ": composed report differs from DyDroid::analyze";
    }
    if (error.empty()) {
      error = check_report(app.spec, reports[k], /*expect_binary=*/false);
    }
    if (!error.empty()) {
      ++result.failed;
      note_error(result.errors, std::move(error));
    }
  }

  fs::remove_all(config.work_dir);
  fs::create_directories(config.work_dir);

  // The crash-safe runner — worker pool, journal and cache — must hand back
  // the same reports as the thread-mode pipeline.
  {
    std::vector<driver::AppJob> jobs(sample.size());
    for (std::size_t k = 0; k < sample.size(); ++k) {
      const auto& app = apps[sample[k]];
      jobs[k].apk = app.apk;
      jobs[k].scenario = [&app](dydroid::os::Device& device) {
        appgen::apply_scenario(app.scenario, device);
      };
      jobs[k].seed = driver::seed_for_app(inputs.seed_base, sample[k]);
    }
    driver::RunnerConfig rc;
    rc.jobs = 1;
    rc.isolation_mode = driver::IsolationMode::kPool;
    rc.journal_path = config.work_dir + "/pool.journal";
    rc.cache_dir = config.work_dir + "/pool-cache";
    const auto pooled = driver::CorpusRunner(pipeline, rc).run(jobs);
    for (std::size_t k = 0; k < sample.size(); ++k) {
      const auto& outcome = pooled.outcomes[k];
      if (runner_failed(outcome) ||
          report_bytes(outcome.report) != report_bytes(reports[k])) {
        ++result.failed;
        note_error(result.errors, apps[sample[k]].spec.package +
                                      ": pool/journal/cache report differs");
      }
    }
  }

  // Driver and support layers, on the outcomes of the sample.
  std::vector<driver::AppOutcome> outcomes(sample.size());
  std::vector<support::Bytes> payloads(sample.size());
  std::vector<double> report_sizes;
  for (std::size_t k = 0; k < sample.size(); ++k) {
    const std::size_t index = sample[k];
    const auto request = static_cast<std::uint32_t>(index);
    support::Bytes encoded;
    {
      const Scoped span(tracer, "core.report_encode", request);
      encoded = report_bytes(reports[k]);
    }
    report_sizes.push_back(static_cast<double>(encoded.size()));
    driver::AppOutcome& outcome = outcomes[k];
    outcome.report = std::move(reports[k]);
    outcome.seed = driver::seed_for_app(inputs.seed_base, index);
    outcome.wall_ms = traced_ms[k];
    outcome.completed = true;
    {
      const Scoped span(tracer, "driver.outcome_encode", request);
      payloads[k] = driver::encode_outcome(index, outcome);
    }
    driver::DecodedOutcome decoded;
    {
      const Scoped span(tracer, "driver.outcome_decode", request);
      decoded = driver::decode_outcome(payloads[k]);
    }
    if (decoded.index != index || report_bytes(decoded.outcome.report) != encoded) {
      ++result.failed;
      note_error(result.errors, apps[index].spec.package +
                                    ": outcome codec round trip differs");
    }
  }

  const std::string journal_path = config.work_dir + "/traced.journal";
  {
    auto journal = support::JournalWriter::open(journal_path);
    if (!journal.ok()) throw std::runtime_error(journal.error());
    for (std::size_t k = 0; k < sample.size(); ++k) {
      const Scoped span(tracer, "support.journal_append",
                        static_cast<std::uint32_t>(sample[k]));
      const auto appended = journal.value().append(payloads[k]);
      if (!appended.ok()) throw std::runtime_error(appended.error());
    }
    const auto sealed = journal.value().seal();
    if (!sealed.ok()) throw std::runtime_error(sealed.error());
  }
  const double journal_bytes =
      static_cast<double>(fs::file_size(journal_path));

  std::size_t cache_hits = 0;
  {
    const auto fingerprint = driver::config_fingerprint(pipeline);
    auto cache = driver::ResultCache::open(config.work_dir + "/cache",
                                           fingerprint);
    if (!cache.ok()) throw std::runtime_error(cache.error());
    std::vector<driver::CacheKey> keys(sample.size());
    for (std::size_t k = 0; k < sample.size(); ++k) {
      keys[k].apk = support::sha256(apps[sample[k]].apk.span());
      keys[k].config = fingerprint;
      keys[k].seed = outcomes[k].seed;
      const Scoped span(tracer, "driver.cache_insert",
                        static_cast<std::uint32_t>(sample[k]));
      cache.value().insert(keys[k], outcomes[k]);
    }
    for (std::size_t k = 0; k < sample.size(); ++k) {
      std::optional<driver::AppOutcome> hit;
      {
        // Like the runner's lookup, this covers the content digest.
        const Scoped span(tracer, "driver.cache_lookup",
                          static_cast<std::uint32_t>(sample[k]));
        driver::CacheKey key = keys[k];
        key.apk = support::sha256(apps[sample[k]].apk.span());
        hit = cache.value().lookup(key);
      }
      if (hit.has_value() &&
          report_bytes(hit->report) == report_bytes(outcomes[k].report)) {
        ++cache_hits;
      } else {
        ++result.failed;
        note_error(result.errors, apps[sample[k]].spec.package +
                                      ": cache lookup missed or differs");
      }
    }
    const auto sealed = cache.value().seal();
    if (!sealed.ok()) throw std::runtime_error(sealed.error());
  }

  // Pool RPC echo with the sample's median outcome size.
  {
    std::vector<std::size_t> by_size(sample.size());
    for (std::size_t k = 0; k < by_size.size(); ++k) by_size[k] = k;
    std::sort(by_size.begin(), by_size.end(), [&](std::size_t a, std::size_t b) {
      return payloads[a].size() < payloads[b].size();
    });
    const std::size_t median = by_size[by_size.size() / 2];
    const support::Bytes message =
        driver::encode_pool_response(sample[median], outcomes[median]);
    auto worker = support::PoolWorker::spawn(echo_serve, {});
    if (!worker.ok()) throw std::runtime_error(worker.error());
    for (std::size_t k = 0; k < sample.size(); ++k) {
      support::PoolRpcResult rpc;
      {
        const Scoped span(tracer, "support.pool_rpc",
                          static_cast<std::uint32_t>(sample[k]));
        rpc = worker.value().call(message, driver::kPoolRpcMagic);
      }
      if (rpc.status != support::PoolRpcResult::Status::kOk ||
          rpc.message != message) {
        ++result.failed;
        note_error(result.errors, "pool echo round trip failed: " + rpc.error);
        break;
      }
    }
    worker.value().shutdown();
  }
  fs::remove_all(config.work_dir);

  // Per-layer metrics from the spans.
  std::map<std::string_view, LayerStats> layers;
  const auto self = tracer.self_ns();
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& span = tracer.spans()[i];
    LayerStats& layer = layers[span.name];
    layer.us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    layer.self_ms += static_cast<double>(self[i]) / 1e6;
  }
  const auto calls = [&](std::string_view name) {
    return static_cast<double>(layers[name].us.size());
  };
  auto& m = result.metrics;
  const auto us_p50 = [&](std::string_view name) {
    m[std::string(name) + ".us_p50"] = quantile(layers[name].us, 0.5);
  };
  const auto busy = [&](std::string_view name) {
    m[std::string(name) + ".busy_ms_per_kapp"] =
        layers[name].self_ms / sample_apps * 1000.0;
  };
  for (const std::string_view name :
       {"core.run_app", "apk.parse", "analysis.decompile", "core.scan_dcl",
        "obfuscation.analyze", "analysis.rewrite", "os.boot_install",
        "malware.lift", "malware.scan", "privacy.analyze", "support.pool_rpc",
        "driver.outcome_encode", "support.journal_append",
        "driver.cache_insert", "driver.cache_lookup", "driver.outcome_decode",
        "core.vuln", "core.report_encode"}) {
    us_p50(name);
  }
  for (const std::string_view name :
       {"core.run_app", "apk.parse", "analysis.decompile", "malware.scan",
        "privacy.analyze"}) {
    busy(name);
  }
  m["core.run_app.us_p99"] = quantile(layers["core.run_app"].us, 0.99);
  double binaries = 0.0;
  double passed = 0.0;
  for (const auto& outcome : outcomes) {
    binaries += static_cast<double>(outcome.report.binaries.size());
    if (outcome.report.static_dcl.any()) passed += 1.0;
  }
  m["core.run_app.binaries_per_app"] =
      binaries / std::max(1.0, calls("core.run_app"));
  m["core.scan_dcl.pass_ratio"] = passed / std::max(1.0, calls("core.scan_dcl"));
  m["analysis.rewrite.calls_per_kapp"] =
      calls("analysis.rewrite") / sample_apps * 1000.0;
  m["malware.scan.calls_per_kapp"] =
      calls("malware.scan") / sample_apps * 1000.0;
  m["support.journal_bytes_per_app"] = journal_bytes / sample_apps;
  m["driver.cache_hit_ratio"] =
      static_cast<double>(cache_hits) / sample_apps;
  m["core.report_bytes_p50"] = quantile(report_sizes, 0.5);
  m["trace.overhead_frac"] = untraced_sum > 0 ? traced_sum / untraced_sum : 0;

  if (!tracer.write_json(config.spans_path)) {
    note_error(result.errors, "could not write spans to " + config.spans_path);
  }
  return result;
}

}  // namespace perfbench
