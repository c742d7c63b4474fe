// Negative-lint fixture: this file compiles, but it merges β-clusters
// and labels points itself — a second copy of the post-tree pipeline
// outside src/core/mrcc.cc. tools/mrcc_lint.py lints this directory as
// src/ code, so its one-pipeline rule must reject the file; the harness
// runs the linter on exactly this file and asserts a nonzero exit.

#include <vector>

#include "core/cluster_builder.h"

int main() {
  const std::vector<mrcc::BetaCluster> betas;
  std::vector<int> beta_to_cluster;
  const mrcc::Clustering clusters =
      mrcc::MergeBetaClusters(betas, 2, &beta_to_cluster);
  return static_cast<int>(clusters.clusters.size());
}
