// Demonstrates MrCC on clusters in *arbitrarily oriented* subspaces
// (paper Fig. 1c-d and the rotated-group experiment, Fig. 5p-r).
//
// The same dataset is clustered twice: once with axis-parallel subspace
// clusters and once after rotating the whole space four times in random
// planes. Because MrCC tracks density rather than axis alignment, its
// Quality should move only marginally — that is the paper's rotation-
// robustness claim, contrasted here with CFPC, whose clusters are axis-
// parallel hyper-boxes (its rotated-group drop is in EXPERIMENTS.md).
//
//   ./examples/rotated_subspaces [num_points]

#include <cstdio>
#include <cstdlib>

#include "baselines/doc.h"
#include "core/mrcc.h"
#include "data/generator.h"
#include "eval/quality.h"

namespace {

double RunQuality(mrcc::SubspaceClusterer& method,
                  const mrcc::LabeledDataset& dataset) {
  mrcc::Result<mrcc::Clustering> r = method.Cluster(dataset.data);
  if (!r.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", method.name().c_str(),
                 r.status().ToString().c_str());
    return 0.0;
  }
  return mrcc::EvaluateClustering(*r, dataset.truth).quality;
}

}  // namespace

int main(int argc, char** argv) {
  mrcc::SyntheticConfig config;
  config.name = "rotated-demo";
  config.num_points = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 20000;
  config.num_dims = 10;
  config.num_clusters = 6;
  config.noise_fraction = 0.15;
  config.min_cluster_dims = 7;
  config.max_cluster_dims = 9;
  config.seed = 51;

  mrcc::Result<mrcc::LabeledDataset> plain = mrcc::GenerateSynthetic(config);
  config.num_rotations = 4;  // "Rotated 4 times in random planes/degrees".
  mrcc::Result<mrcc::LabeledDataset> rotated =
      mrcc::GenerateSynthetic(config);
  if (!plain.ok() || !rotated.ok()) {
    std::fprintf(stderr, "generation failed\n");
    return 1;
  }

  mrcc::MrCC mrcc_method;
  mrcc::DocParams cfpc_params;
  cfpc_params.num_clusters = config.num_clusters;
  mrcc::Doc cfpc(cfpc_params);

  std::printf("%zu points, %zu dims, %zu clusters, 15%% noise\n\n",
              config.num_points, config.num_dims, config.num_clusters);
  std::printf("%-10s %18s %18s %10s\n", "method", "axis-parallel Q",
              "rotated Q", "drop");
  for (mrcc::SubspaceClusterer* method :
       {static_cast<mrcc::SubspaceClusterer*>(&mrcc_method),
        static_cast<mrcc::SubspaceClusterer*>(&cfpc)}) {
    const double q_plain = RunQuality(*method, *plain);
    const double q_rot = RunQuality(*method, *rotated);
    std::printf("%-10s %18.4f %18.4f %9.1f%%\n", method->name().c_str(),
                q_plain, q_rot,
                q_plain > 0 ? 100.0 * (q_plain - q_rot) / q_plain : 0.0);
  }
  std::printf(
      "\nMrCC follows the density structure and barely moves; CFPC's "
      "axis-parallel boxes lose Quality once the subspaces are rotated.\n");
  return 0;
}
