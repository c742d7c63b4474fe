// Side-by-side comparison of MrCC and the paper's five competitors on one
// synthetic dataset — a miniature of the paper's Fig. 5 matrix for
// interactive use.
//
//   ./examples/method_comparison [num_points] [num_dims] [num_clusters]

#include <cstdio>
#include <cstdlib>

#include "baselines/clusterer.h"
#include "data/generator.h"
#include "eval/measurement.h"

int main(int argc, char** argv) {
  mrcc::SyntheticConfig config;
  config.name = "comparison";
  config.num_points = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 15000;
  config.num_dims = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 12;
  config.num_clusters = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 8;
  config.noise_fraction = 0.15;
  config.min_cluster_dims =
      config.num_dims > 3 ? config.num_dims - 3 : 1;
  config.max_cluster_dims = config.num_dims - 1;
  config.seed = 7;

  mrcc::Result<mrcc::LabeledDataset> dataset =
      mrcc::GenerateSynthetic(config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("dataset: %zu points, %zu dims, %zu clusters, 15%% noise\n\n",
              config.num_points, config.num_dims, config.num_clusters);

  mrcc::MethodTuning tuning;
  tuning.num_clusters = config.num_clusters;
  tuning.noise_fraction = config.noise_fraction;
  for (const std::string& name : mrcc::PaperMethodNames()) {
    mrcc::Result<std::unique_ptr<mrcc::SubspaceClusterer>> method =
        mrcc::MakeClusterer(name, tuning);
    if (!method.ok()) continue;
    const mrcc::RunMeasurement m =
        mrcc::MeasureRun(**method, *dataset, /*time_budget_seconds=*/300.0);
    std::printf("%s\n", mrcc::FormatMeasurementRow(m).c_str());
    std::fflush(stdout);
  }
  std::printf(
      "\nMrCC needs neither the number of clusters nor per-dataset "
      "threshold tuning — LAC, EPCH, CFPC and HARP above were handed the "
      "true k.\n");
  return 0;
}
