#include "appgen/generator.hpp"
#include "bench/bench.hpp"
#include "malware/families.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace perfbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"play-survey", /*play=*/true, /*chunks=*/8, /*traced_sample=*/2000},
      // 1,500-app rounds keep ten samples beyond each round's p99; 1,000
      // traced apps keep ten run_app calls beyond the traced p99.
      {"loader-heavy", /*play=*/false, /*chunks=*/2, /*traced_sample=*/1000},
  };
  return kWorkloads;
}

std::optional<Workload> find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

std::unique_ptr<malware::DroidNative> train_detector(int per_family,
                                                     std::uint64_t rng_seed) {
  auto detector = std::make_unique<malware::DroidNative>(0.9);
  support::Rng rng(rng_seed);
  for (int f = 0; f < malware::kNumFamilies; ++f) {
    const auto family = malware::family_at(f);
    for (const auto& sample :
         malware::generate_training_samples(family, per_family, rng)) {
      detector->train(malware::family_name(family), sample);
    }
  }
  return detector;
}

appgen::Corpus generate_loader_heavy(std::size_t apps, std::uint64_t seed) {
  using appgen::MalwareTrigger;
  constexpr MalwareTrigger kTriggers[] = {
      MalwareTrigger::SystemTime, MalwareTrigger::AirplaneMode,
      MalwareTrigger::Connectivity, MalwareTrigger::Location};
  constexpr std::uint32_t kAllLeaks =
      (std::uint32_t{1} << dydroid::privacy::kNumDataTypes) - 1;

  support::Rng rng(seed);
  appgen::Corpus corpus;
  corpus.config.seed = seed;
  corpus.config.scale = 0.0;
  corpus.apps.reserve(apps);
  const auto& categories = appgen::play_categories();
  for (std::size_t i = 0; i < apps; ++i) {
    appgen::AppSpec spec;
    spec.package = support::format("com.loaderheavy.app%zu", i);
    spec.category = rng.pick(categories);
    spec.popularity.downloads = rng.range(1'000, 50'000'000);
    spec.popularity.rating_count = rng.range(10, 500'000);
    spec.popularity.avg_rating = 3.0 + 2.0 * rng.uniform();
    // Half the apps need the permission rewrite before they can run.
    spec.write_external_permission = rng.chance(0.5);
    spec.analytics_sdk = true;
    spec.sdk_leaks = 1 + static_cast<std::uint32_t>(rng.below(kAllLeaks));
    spec.ad_sdk = rng.chance(0.5);
    spec.own_dex_dcl = rng.chance(0.5);
    spec.sdk_native_dcl = rng.chance(0.5);
    appgen::MalwarePayloadSpec payload;
    payload.family = malware::family_at(static_cast<int>(rng.below(3)));
    for (const auto trigger : kTriggers) {
      if (rng.chance(0.25)) payload.triggers.push_back(trigger);
    }
    spec.malware.push_back(std::move(payload));
    auto app_rng = rng.fork();
    corpus.apps.push_back(appgen::build_app(spec, app_rng));
  }
  return corpus;
}

Inputs make_inputs(const Workload& workload, const InputConfig& config) {
  Inputs inputs;
  // Keep index-derived seeds far from wrapping for any corpus size.
  inputs.seed_base = config.seed & 0xFFFF'FFFF'FFFFull;
  if (workload.play) {
    appgen::CorpusConfig corpus_config;
    corpus_config.scale = config.scale;
    corpus_config.seed = config.seed;
    inputs.corpus = appgen::generate_corpus(corpus_config);
    // The 76-sample detector `dydroid survey` trains (4 per family).
    inputs.detector = train_detector(4, 0xD401DA);
  } else {
    inputs.corpus = generate_loader_heavy(config.loader_apps, config.seed);
    // 65 x 19 samples: the size of the paper's 1,240-app training set.
    inputs.detector = train_detector(65, config.seed ^ 0xD401DAull);
  }
  core::PipelineOptions options;
  options.detector = inputs.detector.get();
  inputs.pipeline = std::make_unique<core::DyDroid>(std::move(options));
  return inputs;
}

}  // namespace perfbench
