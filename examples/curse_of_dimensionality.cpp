// Measures the paper's opening argument (§I): a k-means-style partitioner
// has no concept of noise, and full-space distances are diluted by
// irrelevant axes, while MrCC keeps working. The partitioner is LAC, the
// paper's k-means-style competitor, which at least weights each cluster's
// axes. Two sweeps, LAC always handed the true k and MrCC handed nothing:
//
//   1. Noise sweep (d = 14): LAC must put every uniform background point
//      into some cluster, which caps its precision; MrCC labels them
//      noise.
//   2. Irrelevant-axes sweep (d grows, cluster dimensionality fixed at 8):
//      every added uniform axis enters LAC's weighted distances.
//
//   ./examples/curse_of_dimensionality [num_points]

#include <cstdio>
#include <cstdlib>

#include "baselines/lac.h"
#include "core/mrcc.h"
#include "data/generator.h"
#include "eval/quality.h"

namespace {

void RunCase(const mrcc::SyntheticConfig& cfg, const char* row_label) {
  mrcc::Result<mrcc::LabeledDataset> ds = mrcc::GenerateSynthetic(cfg);
  if (!ds.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 ds.status().ToString().c_str());
    std::exit(1);
  }
  mrcc::LacParams lp;
  lp.num_clusters = cfg.num_clusters;
  mrcc::Lac lac(lp);
  mrcc::MrCC method;
  mrcc::Result<mrcc::Clustering> lc = lac.Cluster(ds->data);
  mrcc::Result<mrcc::Clustering> mc = method.Cluster(ds->data);
  if (!lc.ok() || !mc.ok()) std::exit(1);
  std::printf("%10s %14.4f %14.4f\n", row_label,
              mrcc::EvaluateClustering(*lc, ds->truth).quality,
              mrcc::EvaluateClustering(*mc, ds->truth).quality);
}

}  // namespace

int main(int argc, char** argv) {
  const size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 15000;

  std::printf("-- noise sweep: %zu points, 14 axes, 6 clusters --\n", n);
  std::printf("%10s %14s %14s\n", "noise", "LAC Q", "MrCC Q");
  for (int pct : {5, 15, 25, 35, 45}) {
    mrcc::SyntheticConfig cfg;
    cfg.num_points = n;
    cfg.num_dims = 14;
    cfg.num_clusters = 6;
    cfg.noise_fraction = pct / 100.0;
    cfg.min_cluster_dims = 11;
    cfg.max_cluster_dims = 13;
    cfg.seed = 500 + static_cast<uint64_t>(pct);
    char label[16];
    std::snprintf(label, sizeof(label), "%d%%", pct);
    RunCase(cfg, label);
  }

  std::printf(
      "\n-- irrelevant-axes sweep: clusters always 8-dimensional, "
      "15%% noise --\n");
  std::printf("%10s %14s %14s\n", "d", "LAC Q", "MrCC Q");
  for (size_t d : {9, 10, 11, 12, 13}) {
    mrcc::SyntheticConfig cfg;
    cfg.num_points = n;
    cfg.num_dims = d;
    cfg.num_clusters = 6;
    cfg.noise_fraction = 0.15;
    cfg.min_cluster_dims = 8;
    cfg.max_cluster_dims = 8;
    cfg.seed = 900 + d;
    char label[16];
    std::snprintf(label, sizeof(label), "%zu", d);
    RunCase(cfg, label);
  }

  std::printf(
      "\nAt the default 15000 points, LAC is handed the true k yet loses "
      "Quality as the background grows and stays below MrCC at every d; "
      "MrCC is handed nothing. Far fewer points leave MrCC too few per "
      "cell at the highest d.\n");
  return 0;
}
