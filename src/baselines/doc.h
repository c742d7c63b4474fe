// CFPC / FPC (Yiu & Mamoulis, TKDE 2005), built on DOC's cluster model
// (Procopiuc et al., SIGMOD 2002).
//
// DOC defines a projected cluster as a hyper-box of width 2w around a
// pivot point p on a set of relevant dims D, scoring candidates with
// mu(|C|, |D|) = |C| * (1/beta)^|D|. FPC finds the best dim set for a
// pivot by a systematic search: every point contributes the itemset
// { j : |x_j - p_j| <= w } and the set maximizing mu is found by
// branch-and-bound frequent-itemset mining. CFPC extracts multiple
// clusters in one run by removing found points.

#pragma once

#include <cstdint>

#include "core/subspace_clusterer.h"

namespace mrcc {

struct DocParams {
  /// Maximum number of clusters to extract (the paper feeds true k).
  size_t num_clusters = 5;

  /// Half-width of the cluster box on relevant dims (data in [0,1)).
  double w = 0.1;

  /// Minimum cluster size as a fraction of the remaining points.
  double alpha = 0.08;

  /// Quality trade-off: one extra relevant dim is worth multiplying the
  /// cluster size by 1/beta. Must be in (0, 0.5].
  double beta = 0.25;

  /// CFPC: number of random medoids tried per cluster (maxout).
  size_t max_out = 10;

  uint64_t seed = 7;
};

class Doc : public SubspaceClusterer {
 public:
  explicit Doc(DocParams params = DocParams());

  std::string name() const override;
  [[nodiscard]] Result<Clustering> Cluster(const Dataset& data) override;

 private:
  DocParams params_;
};

}  // namespace mrcc

