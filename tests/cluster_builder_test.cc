#include "core/cluster_builder.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.h"
#include "test_util.h"

namespace mrcc {
namespace {

BetaCluster MakeBeta(std::vector<double> lower, std::vector<double> upper,
                     std::vector<bool> relevant) {
  BetaCluster b;
  b.lower = std::move(lower);
  b.upper = std::move(upper);
  b.relevant = std::move(relevant);
  return b;
}

TEST(ClusterBuilderTest, EmptyBetasMeansAllNoise) {
  Dataset d = testing::UniformDataset(10, 2, 1);
  Clustering c = BuildCorrelationClusters({}, d);
  EXPECT_EQ(c.NumClusters(), 0u);
  EXPECT_EQ(c.NumNoisePoints(), 10u);
}

TEST(ClusterBuilderTest, DisjointBetasStayDistinct) {
  Dataset d = testing::MakeDataset({{0.1, 0.1}, {0.9, 0.9}, {0.5, 0.5}});
  std::vector<BetaCluster> betas;
  betas.push_back(MakeBeta({0.0, 0.0}, {0.25, 0.25}, {true, true}));
  betas.push_back(MakeBeta({0.75, 0.75}, {1.0, 1.0}, {true, true}));
  std::vector<int> b2c;
  Clustering c = BuildCorrelationClusters(betas, d, &b2c);
  EXPECT_EQ(c.NumClusters(), 2u);
  EXPECT_EQ(c.labels[0], 0);
  EXPECT_EQ(c.labels[1], 1);
  EXPECT_EQ(c.labels[2], kNoiseLabel);
  EXPECT_EQ(b2c, (std::vector<int>{0, 1}));
}

TEST(ClusterBuilderTest, OverlappingBetasMerge) {
  Dataset d = testing::MakeDataset({{0.2, 0.2}, {0.4, 0.4}});
  std::vector<BetaCluster> betas;
  betas.push_back(MakeBeta({0.0, 0.0}, {0.3, 0.3}, {true, false}));
  betas.push_back(MakeBeta({0.25, 0.25}, {0.5, 0.5}, {false, true}));
  std::vector<int> b2c;
  Clustering c = BuildCorrelationClusters(betas, d, &b2c);
  EXPECT_EQ(c.NumClusters(), 1u);
  EXPECT_EQ(c.labels[0], 0);
  EXPECT_EQ(c.labels[1], 0);
  // Relevant axes are the union over the merged beta-clusters.
  EXPECT_TRUE(c.clusters[0].relevant_axes[0]);
  EXPECT_TRUE(c.clusters[0].relevant_axes[1]);
}

TEST(ClusterBuilderTest, TransitiveMergeAcrossChain) {
  Dataset d = testing::MakeDataset({{0.05, 0.5}});
  std::vector<BetaCluster> betas;
  // a overlaps b, b overlaps c, a does not overlap c -> all in one cluster.
  betas.push_back(MakeBeta({0.0, 0.0}, {0.3, 1.0}, {true, false}));
  betas.push_back(MakeBeta({0.2, 0.0}, {0.6, 1.0}, {true, false}));
  betas.push_back(MakeBeta({0.5, 0.0}, {0.9, 1.0}, {true, false}));
  EXPECT_FALSE(betas[0].SharesSpaceWith(betas[2]));
  std::vector<int> b2c;
  Clustering c = BuildCorrelationClusters(betas, d, &b2c);
  EXPECT_EQ(c.NumClusters(), 1u);
  EXPECT_EQ(b2c, (std::vector<int>{0, 0, 0}));
}

TEST(ClusterBuilderTest, PointInNoBoxIsNoise) {
  Dataset d = testing::MakeDataset({{0.99, 0.01}});
  std::vector<BetaCluster> betas;
  betas.push_back(MakeBeta({0.0, 0.0}, {0.5, 0.5}, {true, true}));
  Clustering c = BuildCorrelationClusters(betas, d);
  EXPECT_EQ(c.labels[0], kNoiseLabel);
}

TEST(ClusterBuilderTest, IrrelevantAxesDoNotRestrictMembership) {
  Dataset d = testing::MakeDataset({{0.2, 0.95}});
  std::vector<BetaCluster> betas;
  // Axis 1 irrelevant: bounds [0, 1].
  betas.push_back(MakeBeta({0.1, 0.0}, {0.3, 1.0}, {true, false}));
  Clustering c = BuildCorrelationClusters(betas, d);
  EXPECT_EQ(c.labels[0], 0);
}

TEST(ClusterBuilderTest, ResultValidates) {
  LabeledDataset ds = testing::SmallClustered(2000, 6, 3, 77);
  std::vector<BetaCluster> betas;
  betas.push_back(MakeBeta({0.0, 0.0, 0.0, 0.0, 0.0, 0.0},
                           {0.5, 1.0, 1.0, 1.0, 1.0, 1.0},
                           {true, false, false, false, false, false}));
  Clustering c = BuildCorrelationClusters(betas, ds.data);
  EXPECT_TRUE(c.Validate(ds.data.NumPoints(), ds.data.NumDims()).ok());
}

TEST(ClusterBuilderTest, LabelingReadsEachPointExactlyOnce) {
  // Complexity contract (§III-C): labeling is one pass over the data.
  // Every slice scans its points in ceil(slice / chunk) chunks, so the
  // chunk count is the sum of those over the slices — ceil(n / chunk) at
  // one thread — at every read-ahead depth.
  const size_t n = 10007;
  const size_t chunk_points = 1000;
  const Dataset d = testing::UniformDataset(n, 3, 5);
  const MemoryDataSource source(d);
  std::vector<BetaCluster> betas;
  betas.push_back(MakeBeta({0.0, 0.0, 0.0}, {0.5, 0.5, 1.0},
                           {true, true, false}));
  const std::vector<int> beta_to_cluster = {0};
  const std::vector<int> expected_labels =
      BuildCorrelationClusters(betas, d).labels;
  for (const int threads : {1, 3}) {
    for (const size_t depth : {size_t{0}, size_t{2}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " depth=" + std::to_string(depth));
      PrefetchStats prefetch;
      Result<std::vector<int>> labels =
          LabelPoints(betas, beta_to_cluster, source, threads,
                      BadPointPolicy::kReject, chunk_points, depth,
                      &prefetch);
      ASSERT_TRUE(labels.ok()) << labels.status().ToString();
      EXPECT_EQ(*labels, expected_labels);
      uint64_t expected_chunks = 0;
      for (int t = 0; t < threads; ++t) {
        const size_t slice =
            SliceEnd(n, threads, t) - SliceBegin(n, threads, t);
        expected_chunks += (slice + chunk_points - 1) / chunk_points;
      }
      EXPECT_EQ(prefetch.chunks, expected_chunks);
      if (threads == 1) {
        EXPECT_EQ(prefetch.chunks, (n + chunk_points - 1) / chunk_points);
      }
    }
  }
}

}  // namespace
}  // namespace mrcc
