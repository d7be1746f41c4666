// Micro-benchmarks (google-benchmark) for the per-app costs that dominate
// the 46K-app measurement: interpretation, container (de)serialization,
// decompilation, ACFG lifting + matching, taint analysis, corpus build and
// the end-to-end pipeline — plus a corpus-throughput comparison (serial vs
// parallel CorpusRunner) that emits BENCH_corpus.json after the benchmark
// run. Scale the corpus cases with DYDROID_SCALE (JSON emitter default
// 0.05) and the worker pool with DYDROID_JOBS.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/decompiler.hpp"
#include "appgen/corpus.hpp"
#include "appgen/generator.hpp"
#include "core/pipeline.hpp"
#include "core/report_json.hpp"
#include "dex/builder.hpp"
#include "dex/disassembler.hpp"
#include "driver/corpus_runner.hpp"
#include "driver/shard_merge.hpp"
#include "malware/droidnative.hpp"
#include "malware/families.hpp"
#include "obfuscation/packer.hpp"
#include "privacy/flowdroid.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

using namespace dydroid;

namespace {

appgen::GeneratedApp make_ad_app() {
  appgen::AppSpec spec;
  spec.package = "com.bench.app";
  spec.category = "Tools";
  spec.ad_sdk = true;
  support::Rng rng(1);
  return appgen::build_app(spec, rng);
}

void BM_InterpreterArithLoop(benchmark::State& state) {
  dex::DexBuilder b;
  auto m = b.cls("bench.Calc", "android.app.Activity").static_method("sum", 1);
  m.const_int(1, 0);
  m.const_int(2, 1);
  m.label("top");
  m.if_eqz(0, "end");
  m.add(1, 1, 0);
  m.sub(0, 0, 2);
  m.jump("top");
  m.label("end");
  m.ret(1);
  m.done();
  manifest::Manifest man;
  man.package = "bench";
  apk::ApkFile apk;
  apk.write_manifest(man);
  apk.write_classes_dex(b.build());
  os::Device device;
  vm::AppContext app;
  app.manifest = man;
  vm::Vm vm(device, std::move(app));
  (void)vm.load_app(apk);
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vm.call_static("bench.Calc", "sum", {vm::Value(n)}));
  }
  state.SetItemsProcessed(state.iterations() * n * 4);  // ~4 ops per round
}
BENCHMARK(BM_InterpreterArithLoop)->Arg(1000)->Arg(10000);

// The fixed cost of the one Vm every exercised app gets: construction and
// destruction, before any bytecode runs.
void BM_VmConstruct(benchmark::State& state) {
  os::Device device;
  vm::AppContext app;
  app.manifest.package = "com.bench.app";
  for (auto _ : state) {
    vm::Vm vm(device, app);
    benchmark::DoNotOptimize(&vm);
  }
}
BENCHMARK(BM_VmConstruct);

// Decoding a play app's classes.dex (with the ad SDK's loader code): the
// work StaticStage does once per app and the VM now reuses.
void BM_DexDecode(benchmark::State& state) {
  const auto classes =
      *apk::ApkFile::deserialize(make_ad_app().apk).get(apk::kClassesDexEntry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dex::DexFile::deserialize(classes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(classes.size()));
}
BENCHMARK(BM_DexDecode);

void BM_ApkSerializeRoundTrip(benchmark::State& state) {
  const auto app = make_ad_app();
  for (auto _ : state) {
    const auto apk = apk::ApkFile::deserialize(app.apk);
    benchmark::DoNotOptimize(apk.serialize());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(app.apk.size()));
}
BENCHMARK(BM_ApkSerializeRoundTrip);

// Parse-once container handling (docs/FORMATS.md, "Buffer ownership &
// zero-copy views"). Arg 0 replays the legacy per-stage churn — a lenient
// parse for decompilation, a strict re-parse for rewrite validation plus a
// repack serialize, and a third parse for the install. Arg 1 is the current
// pipeline shape: one ApkImage::parse whose entries are zero-copy slices,
// a CRC-index walk standing in for strict validation, and a Blob view for
// the install. The delta is the redundant container work removed per app.
void BM_ParseOnce(benchmark::State& state) {
  const auto app = make_ad_app();
  const bool legacy = state.range(0) == 0;
  for (auto _ : state) {
    if (legacy) {
      const auto decompiled = apk::ApkFile::deserialize(app.apk);
      const auto validated =
          apk::ApkFile::deserialize(app.apk, apk::ParseMode::kStrict);
      benchmark::DoNotOptimize(validated.serialize());  // repack copy
      benchmark::DoNotOptimize(apk::ApkFile::deserialize(app.apk));
      benchmark::DoNotOptimize(decompiled.entry_names());
    } else {
      const auto image = apk::ApkImage::parse(app.apk);
      benchmark::DoNotOptimize(image.file().first_crc_mismatch());
      benchmark::DoNotOptimize(image.bytes().span());
      benchmark::DoNotOptimize(image.file().entry_names());
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(app.apk.size()));
  state.SetLabel(legacy ? "reparse-per-stage" : "parse-once");
}
BENCHMARK(BM_ParseOnce)->Arg(0)->Arg(1);

void BM_Decompile(benchmark::State& state) {
  const auto app = make_ad_app();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::decompile(app.apk));
  }
}
BENCHMARK(BM_Decompile);

void BM_PackApp(benchmark::State& state) {
  const auto app = make_ad_app();
  const auto apk = apk::ApkFile::deserialize(app.apk);
  for (auto _ : state) {
    benchmark::DoNotOptimize(obfuscation::pack(apk, {}));
  }
}
BENCHMARK(BM_PackApp);

void BM_AcfgLift(benchmark::State& state) {
  support::Rng rng(2);
  const auto payload = malware::generate_payload(
      malware::Family::SwissCodeMonkeys, {}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(malware::DroidNative::lift(payload));
  }
}
BENCHMARK(BM_AcfgLift);

void BM_AcfgSimilarity(benchmark::State& state) {
  support::Rng rng(3);
  const auto a = *malware::DroidNative::lift(malware::generate_payload(
      malware::Family::SwissCodeMonkeys, {}, rng));
  const auto b = *malware::DroidNative::lift(malware::generate_payload(
      malware::Family::SwissCodeMonkeys, {}, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(malware::acfg_similarity(a, b));
  }
}
BENCHMARK(BM_AcfgSimilarity);

void BM_DetectorScan(benchmark::State& state) {
  support::Rng rng(4);
  const auto detector =
      malware::train_detector(static_cast<int>(state.range(0)), rng);
  const auto payload =
      malware::generate_payload(malware::Family::ChathookPtrace, {}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.scan(payload));
  }
}
BENCHMARK(BM_DetectorScan)->Arg(2)->Arg(8)->Arg(65);

void BM_PrivacyAnalysis(benchmark::State& state) {
  // The heaviest realistic payload: every data type leaked.
  privacy::TaintMask mask = 0;
  for (int i = 0; i < privacy::kNumDataTypes; ++i) {
    mask |= privacy::mask_of(static_cast<privacy::DataType>(i));
  }
  appgen::AppSpec spec;
  spec.package = "com.bench.leaky";
  spec.category = "Tools";
  spec.analytics_sdk = true;
  spec.sdk_leaks = mask;
  support::Rng rng(5);
  const auto app = appgen::build_app(spec, rng);
  const auto apk = apk::ApkFile::deserialize(app.apk);
  const auto payload = *apk.get("assets/tracker.bin");
  const auto dexfile = dex::DexFile::deserialize(payload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(privacy::analyze_privacy(dexfile));
  }
}
BENCHMARK(BM_PrivacyAnalysis);

void BM_BuildApp(benchmark::State& state) {
  appgen::AppSpec spec;
  spec.package = "com.bench.gen";
  spec.category = "Tools";
  spec.ad_sdk = true;
  spec.analytics_sdk = true;
  spec.own_native_dcl = true;
  support::Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(appgen::build_app(spec, rng));
  }
}
BENCHMARK(BM_BuildApp);

void BM_FullPipelinePerApp(benchmark::State& state) {
  const auto app = make_ad_app();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    core::PipelineOptions options;
    options.scenario_setup = [&app](os::Device& device) {
      appgen::apply_scenario(app.scenario, device);
    };
    core::DyDroid pipeline(std::move(options));
    benchmark::DoNotOptimize(pipeline.analyze(app.apk, seed++));
  }
}
BENCHMARK(BM_FullPipelinePerApp);

void BM_MonkeySession(benchmark::State& state) {
  const auto app = make_ad_app();
  const auto apk = apk::ApkFile::deserialize(app.apk);
  const auto man = apk.read_manifest();
  os::Device device;
  (void)device.install(apk);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    support::Rng rng(seed++);
    benchmark::DoNotOptimize(core::run_app(device, apk, man, rng));
  }
}
BENCHMARK(BM_MonkeySession);

// ---- Corpus throughput (apps/sec): serial vs. parallel driver -------------

void BM_CorpusThroughput(benchmark::State& state) {
  support::set_log_level(support::LogLevel::Error);
  appgen::CorpusConfig config;
  config.scale = 0.02;
  const auto corpus = appgen::generate_corpus(config);
  const core::DyDroid pipeline{core::PipelineOptions{}};
  driver::RunnerConfig runner_config;
  runner_config.jobs = static_cast<std::size_t>(state.range(0));
  const driver::CorpusRunner runner(pipeline, runner_config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(corpus));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(corpus.apps.size()));
  state.SetLabel("apps/s; jobs=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_CorpusThroughput)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Write-ahead journal overhead (docs/CHECKPOINT.md): the same corpus run
// with journaling off (Arg 0) and on (Arg 1). The acceptance bar is <5%
// added wall time with the fsync knob off — one buffered write(2) per app.
void BM_JournalOverhead(benchmark::State& state) {
  support::set_log_level(support::LogLevel::Error);
  appgen::CorpusConfig config;
  config.scale = 0.02;
  const auto corpus = appgen::generate_corpus(config);
  const core::DyDroid pipeline{core::PipelineOptions{}};
  const bool journaled = state.range(0) != 0;
  const std::string journal_path =
      "bench_journal_overhead_" + std::to_string(::getpid()) + ".jrnl";
  driver::RunnerConfig runner_config;
  runner_config.jobs = 1;
  if (journaled) runner_config.journal_path = journal_path;
  const driver::CorpusRunner runner(pipeline, runner_config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(corpus));
  }
  if (journaled) std::remove(journal_path.c_str());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(corpus.apps.size()));
  state.SetLabel(journaled ? "journal=on" : "journal=off");
}
BENCHMARK(BM_JournalOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Content-addressed result cache (docs/CACHE.md): the same corpus run cold
// (empty store — every app analyzed, digested and inserted) and warm (the
// store already holds every (apk, config, seed) key — every app is served
// from disk). The acceptance bar is a >=2x warm speedup: a lookup costs one
// SHA-256 of the package plus a decode, against a full pipeline run.
void BM_CacheWarm(benchmark::State& state) {
  support::set_log_level(support::LogLevel::Error);
  appgen::CorpusConfig config;
  config.scale = 0.02;
  const auto corpus = appgen::generate_corpus(config);
  const core::DyDroid pipeline{core::PipelineOptions{}};
  const bool warm = state.range(0) != 0;
  const std::string cache_dir = "bench_cache_warm_" + std::to_string(::getpid());
  driver::RunnerConfig runner_config;
  runner_config.jobs = 1;
  runner_config.cache_dir = cache_dir;
  const driver::CorpusRunner runner(pipeline, runner_config);
  if (warm) benchmark::DoNotOptimize(runner.run(corpus));  // populate once
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      std::filesystem::remove_all(cache_dir);
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(runner.run(corpus));
  }
  std::filesystem::remove_all(cache_dir);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(corpus.apps.size()));
  state.SetLabel(warm ? "cache=warm" : "cache=cold");
}
BENCHMARK(BM_CacheWarm)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Process isolation (docs/ISOLATION.md): the same corpus run in-thread
// (Arg 0), with every app in a fresh sandboxed child — the worker pool
// recycled after every app (Arg 1) — and on persistent pool workers
// (Arg 2). The fork-per-app delta is pure containment cost — fork, framed
// RPC, EOF shutdown and reap per app — while persistent workers amortize
// the fork across their lifetime and pay only the per-app RPC. Clean
// children produce byte-identical reports in every mode.
void BM_IsolationOverhead(benchmark::State& state) {
  support::set_log_level(support::LogLevel::Error);
  appgen::CorpusConfig config;
  config.scale = 0.02;
  const auto corpus = appgen::generate_corpus(config);
  const core::DyDroid pipeline{core::PipelineOptions{}};
  driver::RunnerConfig runner_config;
  runner_config.jobs = 1;
  if (state.range(0) > 0) {
    runner_config.isolation_mode = driver::IsolationMode::kPool;
    runner_config.pool_recycle_apps = state.range(0) == 1 ? 1 : 0;
  }
  const driver::CorpusRunner runner(pipeline, runner_config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(corpus));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(corpus.apps.size()));
  static constexpr const char* kLabels[] = {"isolate=off", "isolate=fork",
                                            "isolate=pool"};
  state.SetLabel(kLabels[state.range(0)]);
}
BENCHMARK(BM_IsolationOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Sharded corpus merge (docs/SHARDING.md): Arg shard journals are produced
// once outside the timed region (N shard runs, each journaling its residue
// class); the timed region is merge_shard_journals folding them into one
// sealed journal. The merge is pure journal read/validate/write — its cost
// must stay negligible next to the analysis the shards already did.
void BM_ShardMerge(benchmark::State& state) {
  support::set_log_level(support::LogLevel::Error);
  appgen::CorpusConfig config;
  config.scale = 0.02;
  const auto corpus = appgen::generate_corpus(config);
  const core::DyDroid pipeline{core::PipelineOptions{}};
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  std::vector<std::string> shard_paths;
  for (std::uint32_t i = 0; i < shards; ++i) {
    const std::string path = "bench_shard_" + std::to_string(::getpid()) +
                             "_" + std::to_string(i) + ".jrnl";
    driver::RunnerConfig shard_config;
    shard_config.jobs = 1;
    shard_config.journal_path = path;
    shard_config.shard_index = i;
    shard_config.shard_count = shards;
    benchmark::DoNotOptimize(
        driver::CorpusRunner(pipeline, shard_config).run(corpus));
    shard_paths.push_back(path);
  }
  const std::string merged_path =
      "bench_shard_merged_" + std::to_string(::getpid()) + ".jrnl";
  for (auto _ : state) {
    auto merged = driver::merge_shard_journals(merged_path, shard_paths);
    if (!merged.ok()) state.SkipWithError(merged.error().c_str());
    benchmark::DoNotOptimize(merged);
  }
  for (const auto& path : shard_paths) std::remove(path.c_str());
  std::remove(merged_path.c_str());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(corpus.apps.size()));
  state.SetLabel("shards=" + std::to_string(shards));
}
BENCHMARK(BM_ShardMerge)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

/// Serial-vs-parallel corpus comparison, written to BENCH_corpus.json:
/// wall time and apps/sec with 1 worker and with DYDROID_JOBS/hardware
/// workers, plus a byte-identity check over every per-app JSON report.
void emit_corpus_bench_json() {
  support::set_log_level(support::LogLevel::Error);
  const double scale = appgen::scale_from_env(0.05);
  appgen::CorpusConfig config;
  config.scale = scale;
  const auto corpus = appgen::generate_corpus(config);
  const core::DyDroid pipeline{core::PipelineOptions{}};

  driver::RunnerConfig serial_config;
  serial_config.jobs = 1;
  auto serial = driver::CorpusRunner(pipeline, serial_config).run(corpus);

  // Like every A/B pair below, the parallel run is best-of-3: a single
  // sample on a shared runner can lose to scheduler noise and report a
  // "slowdown" that no real campaign sees, and the outcomes are
  // deterministic either way.
  driver::RunnerConfig parallel_config;  // jobs = DYDROID_JOBS / hardware
  auto parallel = driver::CorpusRunner(pipeline, parallel_config).run(corpus);
  for (int rep = 1; rep < 3; ++rep) {
    auto parallel_rep =
        driver::CorpusRunner(pipeline, parallel_config).run(corpus);
    if (parallel_rep.wall_ms < parallel.wall_ms) {
      parallel = std::move(parallel_rep);
    }
  }

  // Same serial run with the write-ahead journal on (docs/CHECKPOINT.md):
  // the overhead budget is <5% wall time. A single A/B pair is hostage to
  // scheduler noise on shared 1-vCPU runners, so interleave three runs per
  // mode and compare the minima — the min is the run least disturbed by
  // the neighbours, and the outcomes are deterministic either way.
  const std::string journal_path =
      "BENCH_corpus_" + std::to_string(::getpid()) + ".jrnl";
  driver::RunnerConfig journal_config;
  journal_config.jobs = 1;
  journal_config.journal_path = journal_path;
  auto journaled = driver::CorpusRunner(pipeline, journal_config).run(corpus);
  std::remove(journal_path.c_str());
  for (int rep = 1; rep < 3; ++rep) {
    auto serial_rep = driver::CorpusRunner(pipeline, serial_config).run(corpus);
    if (serial_rep.wall_ms < serial.wall_ms) serial = std::move(serial_rep);
    auto journal_rep =
        driver::CorpusRunner(pipeline, journal_config).run(corpus);
    std::remove(journal_path.c_str());
    if (journal_rep.wall_ms < journaled.wall_ms) {
      journaled = std::move(journal_rep);
    }
  }
  const double journal_overhead_pct =
      serial.wall_ms > 0
          ? 100.0 * (journaled.wall_ms - serial.wall_ms) / serial.wall_ms
          : 0.0;

  // Process isolation (docs/ISOLATION.md): same corpus, every app in a
  // sandboxed child. Fork-per-app (the pool recycled after every app) pays
  // fork + RPC + shutdown + reap per app; persistent workers fork once per
  // runner thread and pay only a framed RPC per app. Both best-of-3
  // against the best serial run, same as the journal A/B.
  driver::RunnerConfig isolate_config;
  isolate_config.jobs = 1;
  isolate_config.isolation_mode = driver::IsolationMode::kPool;
  isolate_config.pool_recycle_apps = 1;
  auto isolated = driver::CorpusRunner(pipeline, isolate_config).run(corpus);
  for (int rep = 1; rep < 3; ++rep) {
    auto isolate_rep =
        driver::CorpusRunner(pipeline, isolate_config).run(corpus);
    if (isolate_rep.wall_ms < isolated.wall_ms) {
      isolated = std::move(isolate_rep);
    }
  }
  const double isolation_overhead_pct =
      serial.wall_ms > 0
          ? 100.0 * (isolated.wall_ms - serial.wall_ms) / serial.wall_ms
          : 0.0;
  bool isolation_identical =
      serial.outcomes.size() == isolated.outcomes.size();
  for (std::size_t i = 0; isolation_identical && i < serial.outcomes.size();
       ++i) {
    isolation_identical =
        core::report_to_json(serial.outcomes[i].report) ==
        core::report_to_json(isolated.outcomes[i].report);
  }

  driver::RunnerConfig pool_config;
  pool_config.jobs = 1;
  pool_config.isolation_mode = driver::IsolationMode::kPool;
  auto pooled = driver::CorpusRunner(pipeline, pool_config).run(corpus);
  for (int rep = 1; rep < 3; ++rep) {
    auto pool_rep = driver::CorpusRunner(pipeline, pool_config).run(corpus);
    if (pool_rep.wall_ms < pooled.wall_ms) pooled = std::move(pool_rep);
  }
  const double pool_overhead_pct =
      serial.wall_ms > 0
          ? 100.0 * (pooled.wall_ms - serial.wall_ms) / serial.wall_ms
          : 0.0;
  const double pool_speedup_vs_fork =
      pooled.wall_ms > 0 ? isolated.wall_ms / pooled.wall_ms : 0.0;
  bool pool_identical = serial.outcomes.size() == pooled.outcomes.size();
  for (std::size_t i = 0; pool_identical && i < serial.outcomes.size(); ++i) {
    pool_identical = core::report_to_json(serial.outcomes[i].report) ==
                     core::report_to_json(pooled.outcomes[i].report);
  }

  // Content-addressed result cache (docs/CACHE.md): a cold run populates
  // the store, a second identical run serves every app from it. The warm
  // speedup is the re-run payoff the cache exists for (acceptance: >=2x).
  const std::string cache_dir = "BENCH_cache_" + std::to_string(::getpid());
  std::filesystem::remove_all(cache_dir);
  driver::RunnerConfig cache_config;
  cache_config.jobs = 1;
  cache_config.cache_dir = cache_dir;
  const auto cold = driver::CorpusRunner(pipeline, cache_config).run(corpus);
  const auto warm = driver::CorpusRunner(pipeline, cache_config).run(corpus);
  std::filesystem::remove_all(cache_dir);
  const std::size_t warm_checked =
      warm.stats.cache_hits + warm.stats.cache_misses;
  const double cache_hit_rate =
      warm_checked > 0
          ? static_cast<double>(warm.stats.cache_hits) / warm_checked
          : 0.0;
  const double warm_speedup =
      warm.wall_ms > 0 ? cold.wall_ms / warm.wall_ms : 0.0;

  bool identical = serial.outcomes.size() == parallel.outcomes.size();
  for (std::size_t i = 0; identical && i < serial.outcomes.size(); ++i) {
    identical = core::report_to_json(serial.outcomes[i].report) ==
                core::report_to_json(parallel.outcomes[i].report);
  }

  // Sharded execution + deterministic merge (docs/SHARDING.md): three
  // shard runs cover the corpus, `merge` folds their journals into one,
  // and a --resume replay of the merged journal must reproduce the serial
  // reports byte-for-byte. Merge overhead is scored against the best
  // serial wall time — the merge is the only extra serial step a sharded
  // campaign pays.
  constexpr std::uint32_t kShards = 3;
  std::vector<std::string> shard_paths;
  double max_shard_wall_ms = 0.0;  // the sharded campaign's critical path
  for (std::uint32_t i = 0; i < kShards; ++i) {
    const std::string path =
        support::format("BENCH_shard_%d_%u.jrnl", ::getpid(), i);
    driver::RunnerConfig shard_config;
    shard_config.jobs = 1;
    shard_config.journal_path = path;
    shard_config.shard_index = i;
    shard_config.shard_count = kShards;
    const auto shard_run =
        driver::CorpusRunner(pipeline, shard_config).run(corpus);
    max_shard_wall_ms = std::max(max_shard_wall_ms, shard_run.wall_ms);
    shard_paths.push_back(path);
  }
  const std::string merged_path =
      support::format("BENCH_shard_merged_%d.jrnl", ::getpid());
  const support::Stopwatch merge_clock;
  const auto merged = driver::merge_shard_journals(merged_path, shard_paths);
  const double merge_ms = merge_clock.elapsed_ms();
  bool shard_identical = merged.ok();
  const std::size_t merged_records =
      merged.ok() ? merged.value().records_merged : 0;
  if (merged.ok()) {
    driver::RunnerConfig replay_config;
    replay_config.jobs = 1;
    replay_config.journal_path = merged_path;
    replay_config.resume = true;
    const auto replayed =
        driver::CorpusRunner(pipeline, replay_config).run(corpus);
    shard_identical = replayed.replayed == corpus.apps.size();
    for (std::size_t i = 0; shard_identical && i < serial.outcomes.size();
         ++i) {
      shard_identical = core::report_to_json(serial.outcomes[i].report) ==
                        core::report_to_json(replayed.outcomes[i].report);
    }
  } else {
    std::fprintf(stderr, "micro_perf: %s\n", merged.error().c_str());
  }
  for (const auto& path : shard_paths) std::remove(path.c_str());
  std::remove(merged_path.c_str());
  const double merge_overhead_pct =
      serial.wall_ms > 0 ? 100.0 * merge_ms / serial.wall_ms : 0.0;

  // Metrics-instrumented serial pass (docs/OBSERVABILITY.md): per-stage
  // latency quantiles for the `metrics` section, plus the instrumentation
  // overhead (budget: low single digits). Three *interleaved* plain /
  // metered pairs, minima compared — a lone instrumented sample on a
  // noisy runner once read as a 39% "regression", and comparing against
  // the program-start serial baseline still inflated the figure past 15%
  // (by this point the fork/cache/shard passes have reshaped the heap and
  // page cache), so the baseline is re-measured here, adjacent to the
  // metered reps. The quantiles come from the last metered pass (reset
  // each rep, so counts stay single-run).
  double plain_wall_ms = 0.0;
  double instrumented_wall_ms = 0.0;
  driver::CorpusResult instrumented;
  for (int rep = 0; rep < 3; ++rep) {
    const auto plain_rep =
        driver::CorpusRunner(pipeline, serial_config).run(corpus);
    plain_wall_ms = rep == 0 ? plain_rep.wall_ms
                             : std::min(plain_wall_ms, plain_rep.wall_ms);
    support::set_metrics_enabled(true);
    support::metrics_reset();
    auto instrumented_rep =
        driver::CorpusRunner(pipeline, serial_config).run(corpus);
    support::set_metrics_enabled(false);
    instrumented_wall_ms =
        rep == 0 ? instrumented_rep.wall_ms
                 : std::min(instrumented_wall_ms, instrumented_rep.wall_ms);
    instrumented = std::move(instrumented_rep);
  }
  const auto metrics = support::metrics_snapshot();
  const double metrics_overhead_pct =
      plain_wall_ms > 0
          ? 100.0 * (instrumented_wall_ms - plain_wall_ms) / plain_wall_ms
          : 0.0;
  std::string metrics_json;
  {
    constexpr std::string_view kPrefixes[] = {"stage.", "phase.", "runner.",
                                              "journal."};
    bool first = true;
    for (const auto& h : metrics.histograms) {
      bool match = false;
      for (const auto& prefix : kPrefixes) {
        if (h.name.starts_with(prefix)) {
          match = true;
          break;
        }
      }
      if (!match || h.observations == 0) continue;
      if (!first) metrics_json += ",";
      first = false;
      metrics_json += support::format(
          "\n    {\"name\": \"%s\", \"count\": %llu, \"p50_ms\": %.3f,"
          " \"p95_ms\": %.3f, \"max_ms\": %.3f, \"total_ms\": %.1f}",
          h.name.c_str(), static_cast<unsigned long long>(h.observations),
          h.quantile_us(0.50) / 1000.0, h.quantile_us(0.95) / 1000.0,
          static_cast<double>(h.max_us) / 1000.0,
          static_cast<double>(h.sum_us) / 1000.0);
    }
  }

  const auto apps = static_cast<double>(corpus.apps.size());
  // Parse-once accounting from the instrumented pass: container parses and
  // buffer-duplicating copies per analyzed app. The pre-refactor pipeline
  // re-deserialized each container ≥3× per attempt; the guard tests pin
  // parses_per_app at 1 on the happy path.
  const auto* parse_counter = metrics.counter("pipeline.parses");
  const auto* copy_counter = metrics.counter("pipeline.bytes_copied");
  const double parses_per_app =
      apps > 0 && parse_counter != nullptr
          ? static_cast<double>(parse_counter->value) / apps
          : 0.0;
  const double copied_per_app =
      apps > 0 && copy_counter != nullptr
          ? static_cast<double>(copy_counter->value) / apps
          : 0.0;
  const double serial_aps =
      serial.wall_ms > 0 ? 1000.0 * apps / serial.wall_ms : 0.0;
  const double parallel_aps =
      parallel.wall_ms > 0 ? 1000.0 * apps / parallel.wall_ms : 0.0;

  std::FILE* f = std::fopen("BENCH_corpus.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_perf: cannot write BENCH_corpus.json\n");
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"corpus_throughput\",\n"
               "  \"scale\": %.4f,\n"
               "  \"apps\": %zu,\n"
               "  \"hardware_concurrency\": %zu,\n"
               "  \"serial\": {\"jobs\": 1, \"wall_ms\": %.2f,"
               " \"apps_per_sec\": %.1f},\n"
               "  \"parallel\": {\"jobs\": %zu, \"wall_ms\": %.2f,"
               " \"apps_per_sec\": %.1f},\n"
               "  \"journaled\": {\"jobs\": 1, \"wall_ms\": %.2f,"
               " \"overhead_pct\": %.2f},\n"
               "  \"isolation\": {\"jobs\": 1,\n"
               "    \"fork_per_app\": {\"wall_ms\": %.2f,"
               " \"overhead_pct\": %.2f, \"reports_identical\": %s},\n"
               "    \"pool\": {\"wall_ms\": %.2f, \"overhead_pct\": %.2f,"
               " \"reports_identical\": %s, \"speedup_vs_fork\": %.2f}},\n"
               "  \"cache\": {\"cold_wall_ms\": %.2f, \"warm_wall_ms\": %.2f,"
               " \"hit_rate\": %.4f, \"warm_speedup\": %.2f,"
               " \"unique_binaries\": %zu, \"total_binaries\": %zu},\n"
               "  \"metrics\": {\"overhead_pct\": %.2f, \"stages\": [%s\n"
               "  ]},\n"
               "  \"parse_once\": {\"parses_per_app\": %.3f,"
               " \"bytes_copied_per_app\": %.0f},\n"
               "  \"sharding\": {\"shards\": %u, \"merge_ms\": %.2f,"
               " \"merge_overhead_pct\": %.2f, \"records\": %zu,"
               " \"max_shard_wall_ms\": %.2f, \"replayed_identical\": %s},\n"
               "  \"speedup\": %.3f,\n"
               "  \"reports_identical\": %s\n"
               "}\n",
               scale, corpus.apps.size(),
               static_cast<std::size_t>(std::thread::hardware_concurrency()),
               serial.wall_ms, serial_aps, parallel.threads, parallel.wall_ms,
               parallel_aps, journaled.wall_ms, journal_overhead_pct,
               isolated.wall_ms, isolation_overhead_pct,
               isolation_identical ? "true" : "false", pooled.wall_ms,
               pool_overhead_pct, pool_identical ? "true" : "false",
               pool_speedup_vs_fork,
               cold.wall_ms, warm.wall_ms, cache_hit_rate, warm_speedup,
               warm.dedup.unique, warm.dedup.total,
               metrics_overhead_pct, metrics_json.c_str(), parses_per_app,
               copied_per_app, kShards, merge_ms, merge_overhead_pct,
               merged_records, max_shard_wall_ms,
               shard_identical ? "true" : "false",
               parallel.wall_ms > 0 ? serial.wall_ms / parallel.wall_ms : 0.0,
               identical ? "true" : "false");
  std::fclose(f);
  std::printf(
      "\nBENCH_corpus.json: %zu apps, serial %.1f ms (%.0f apps/s), "
      "parallel[%zu] %.1f ms (%.0f apps/s), speedup %.2fx, identical=%s, "
      "journal overhead %+.1f%%, isolation fork %+.1f%% / pool %+.1f%% "
      "(%.1fx faster than fork), cache warm %.2fx (hit rate %.0f%%), "
      "shard merge[%u] %.1f ms (identical=%s)\n",
      corpus.apps.size(), serial.wall_ms, serial_aps, parallel.threads,
      parallel.wall_ms, parallel_aps,
      parallel.wall_ms > 0 ? serial.wall_ms / parallel.wall_ms : 0.0,
      identical ? "true" : "false", journal_overhead_pct,
      isolation_overhead_pct, pool_overhead_pct, pool_speedup_vs_fork,
      warm_speedup, 100.0 * cache_hit_rate, kShards,
      merge_ms, shard_identical ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_corpus_bench_json();
  return 0;
}
