#include "baselines/doc.h"

#include <gtest/gtest.h>

#include "eval/quality.h"
#include "test_util.h"

namespace mrcc {
namespace {

TEST(DocTest, NamesFollowVariant) {
  DocParams p;
  EXPECT_EQ(Doc(p).name(), "CFPC");
}

TEST(DocTest, CfpcRecoversEasyClusters) {
  LabeledDataset ds = testing::SmallClustered(5000, 8, 3, 201);
  DocParams p;
  p.num_clusters = 3;
  Doc cfpc(p);
  Result<Clustering> r = cfpc.Cluster(ds.data);
  ASSERT_TRUE(r.ok());
  const QualityReport q = EvaluateClustering(*r, ds.truth);
  EXPECT_GT(q.quality, 0.7);
}

TEST(DocTest, RelevantDimsAreTight) {
  // One planted cluster: the reported dims must be a subset-ish of the
  // truth (the box of half-width w only closes on concentrated axes).
  LabeledDataset ds = testing::SmallClustered(4000, 8, 1, 203, 0.1);
  DocParams p;
  p.num_clusters = 1;
  Doc cfpc(p);
  Result<Clustering> r = cfpc.Cluster(ds.data);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumClusters(), 1u);
  const auto& found = r->clusters[0].relevant_axes;
  const auto& truth = ds.truth.clusters[0].relevant_axes;
  size_t spurious = 0;
  for (size_t j = 0; j < 8; ++j) {
    if (found[j] && !truth[j]) ++spurious;
  }
  EXPECT_LE(spurious, 1u);
}

TEST(DocTest, ClustersAreDisjointAndLeaveNoise) {
  LabeledDataset ds = testing::SmallClustered(4000, 8, 3, 204, 0.25);
  DocParams p;
  p.num_clusters = 3;
  Doc cfpc(p);
  Result<Clustering> r = cfpc.Cluster(ds.data);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->NumNoisePoints(), 0u);
  EXPECT_TRUE(r->Validate(ds.data.NumPoints(), ds.data.NumDims()).ok());
}

TEST(DocTest, DeterministicForSeed) {
  LabeledDataset ds = testing::SmallClustered(3000, 6, 2, 205);
  DocParams p;
  p.num_clusters = 2;
  p.seed = 99;
  Result<Clustering> a = Doc(p).Cluster(ds.data);
  Result<Clustering> b = Doc(p).Cluster(ds.data);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->labels, b->labels);
}

TEST(DocTest, ParameterValidation) {
  Dataset d = testing::UniformDataset(100, 3, 1);
  DocParams p;
  p.beta = 0.7;  // beta must be <= 0.5.
  EXPECT_FALSE(Doc(p).Cluster(d).ok());
  p.beta = 0.25;
  p.alpha = 1.5;
  EXPECT_FALSE(Doc(p).Cluster(d).ok());
}

TEST(DocTest, HonorsTimeBudget) {
  LabeledDataset ds = testing::SmallClustered(20000, 12, 8, 206);
  DocParams p;
  p.num_clusters = 8;
  Doc cfpc(p);
  cfpc.set_time_budget_seconds(1e-9);
  Result<Clustering> r = cfpc.Cluster(ds.data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace mrcc
