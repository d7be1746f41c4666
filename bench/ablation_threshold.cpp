// Ablation 4 (DESIGN.md §5): the ≥90 % ACFG-match threshold.
//
// Sweeps DroidNative's similarity threshold against (a) true family
// variants under increasing mutation strength (junk blocks) and (b) benign
// payloads, reporting detection and false-positive rates — showing why the
// paper's 0.9 sits at the knee.
#include <cstdio>

#include "malware/droidnative.hpp"
#include "malware/families.hpp"

using namespace dydroid;
using namespace dydroid::malware;

int main() {
  std::printf("Ablation: ACFG similarity threshold sweep\n\n");

  const DroidNative detector = train_detector(4, 123);

  // Score pools.
  constexpr int kVariantsPerFamily = 8;
  constexpr int kBenign = 60;
  std::vector<double> true_scores_light;   // string/padding mutation only
  std::vector<double> true_scores_heavy;   // + junk blocks
  std::vector<double> benign_scores;

  for (int f = 0; f < 3; ++f) {  // the three DCL families of Table VII
    for (int v = 0; v < kVariantsPerFamily; ++v) {
      PayloadOptions light;
      support::Rng r1(1000 + static_cast<std::uint64_t>(f * 100 + v));
      const auto scores_l =
          detector.scores(generate_payload(family_at(f), light, r1));
      if (!scores_l.empty()) true_scores_light.push_back(scores_l[0].score);

      PayloadOptions heavy;
      heavy.junk_blocks = 30;
      support::Rng r2(2000 + static_cast<std::uint64_t>(f * 100 + v));
      const auto scores_h =
          detector.scores(generate_payload(family_at(f), heavy, r2));
      if (!scores_h.empty()) true_scores_heavy.push_back(scores_h[0].score);
    }
  }
  for (int i = 0; i < kBenign; ++i) {
    support::Rng r(3000 + static_cast<std::uint64_t>(i));
    const auto scores = detector.scores(generate_benign_payload(r));
    benign_scores.push_back(scores.empty() ? 0.0 : scores[0].score);
  }

  auto rate_at = [](const std::vector<double>& scores, double threshold) {
    if (scores.empty()) return 0.0;
    int hits = 0;
    for (const auto s : scores) {
      if (s >= threshold) ++hits;
    }
    return 100.0 * hits / static_cast<double>(scores.size());
  };

  std::printf("  %-10s %18s %18s %14s\n", "threshold", "detect (variants)",
              "detect (mutated)", "benign FP");
  for (const double threshold :
       {0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99}) {
    std::printf("  %8.2f %16.1f%% %17.1f%% %12.1f%%\n", threshold,
                rate_at(true_scores_light, threshold),
                rate_at(true_scores_heavy, threshold),
                rate_at(benign_scores, threshold));
  }
  std::printf(
      "\n  Takeaway: address-level variants sit at ~1.0 similarity (the\n"
      "  paper: samples \"only differ in the memory addresses\"), benign\n"
      "  code far below; 0.9 keeps detection ~100%% at zero FP while\n"
      "  tolerating moderate structural mutation.\n");
  return 0;
}
