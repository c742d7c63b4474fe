// Edge cases across modules that the per-module suites don't cover.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/mrcc.h"
#include "data/dataset_io.h"
#include "data/generator.h"
#include "eval/quality.h"
#include "test_util.h"

namespace mrcc {
namespace {

TEST(EdgeCaseTest, CsvParsesNegativeAndScientificValues) {
  const std::string path = testing::UniqueTempDir() + "mrcc_sci.csv";
  {
    std::ofstream out(path);
    out << "-1.5,2.5e-3\n1e2,-0.25\n";
  }
  Result<Dataset> d = LoadCsv(path);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ((*d)(0, 0), -1.5);
  EXPECT_DOUBLE_EQ((*d)(0, 1), 0.0025);
  EXPECT_DOUBLE_EQ((*d)(1, 0), 100.0);
  // And it normalizes into MrCC's domain.
  d->NormalizeToUnitCube();
  EXPECT_TRUE(d->InUnitCube());
  std::remove(path.c_str());
}

TEST(EdgeCaseTest, CsvSkipsBlankLines) {
  const std::string path = testing::UniqueTempDir() + "mrcc_blank.csv";
  {
    std::ofstream out(path);
    out << "0.1,0.2\n\n0.3,0.4\n\n";
  }
  Result<Dataset> d = LoadCsv(path);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->NumPoints(), 2u);
  std::remove(path.c_str());
}

TEST(EdgeCaseTest, MrCCOnSinglePoint) {
  Dataset d = testing::MakeDataset({{0.5, 0.5}});
  MrCC method;
  Result<MrCCResult> r = method.Run(d);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->clustering.NumClusters(), 0u);
  EXPECT_EQ(r->clustering.labels[0], kNoiseLabel);
}

TEST(EdgeCaseTest, MrCCOnIdenticalPoints) {
  // Every point in one spot: one maximally significant cluster.
  std::vector<std::vector<double>> points(500, {0.3, 0.7, 0.5});
  Dataset d = testing::MakeDataset(points);
  MrCC method;
  Result<MrCCResult> r = method.Run(d);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->clustering.NumClusters(), 1u);
  EXPECT_EQ(r->clustering.NumNoisePoints(), 0u);
}

TEST(EdgeCaseTest, MrCCOnOneDimensionalData) {
  // d = 1 is below the paper's range but must not misbehave.
  LabeledDataset ds = testing::SmallClustered(3000, 1, 2, 808, 0.2);
  MrCC method;
  Result<MrCCResult> r = method.Run(ds.data);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->clustering.Validate(3000, 1).ok());
}

TEST(EdgeCaseTest, GeneratorAllNoise) {
  SyntheticConfig cfg;
  cfg.num_points = 1000;
  cfg.num_dims = 4;
  cfg.num_clusters = 1;
  cfg.noise_fraction = 0.999;
  cfg.min_cluster_dims = 2;
  cfg.max_cluster_dims = 3;
  cfg.seed = 1;
  Result<LabeledDataset> ds = GenerateSynthetic(cfg);
  ASSERT_TRUE(ds.ok());
  EXPECT_GT(ds->truth.NumNoisePoints(), 990u);
}

TEST(EdgeCaseTest, Kdd08Deterministic) {
  Kdd08LikeConfig cfg;
  cfg.num_points = 4000;
  Result<Kdd08LikeDataset> a = GenerateKdd08Like(cfg);
  Result<Kdd08LikeDataset> b = GenerateKdd08Like(cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->class_labels, b->class_labels);
  EXPECT_EQ(a->labeled.truth.labels, b->labeled.truth.labels);
}

TEST(EdgeCaseTest, EvaluateAgainstAllNoiseClasses) {
  Clustering found;
  found.labels = {0, 0, 1};
  found.clusters.resize(2);
  for (auto& c : found.clusters) c.relevant_axes.assign(2, true);
  const std::vector<int> classes{kNoiseLabel, kNoiseLabel, kNoiseLabel};
  const QualityReport q = EvaluateAgainstClasses(found, classes);
  EXPECT_DOUBLE_EQ(q.quality, 0.0);
}

TEST(EdgeCaseTest, QualityWithSelfIsPerfectForAnyClustering) {
  LabeledDataset ds = testing::SmallClustered(2000, 6, 3, 55);
  const QualityReport q = EvaluateClustering(ds.truth, ds.truth);
  EXPECT_DOUBLE_EQ(q.quality, 1.0);
  EXPECT_DOUBLE_EQ(q.subspace_quality, 1.0);
}

TEST(EdgeCaseTest, MrCCAlphaExtremesDoNotCrash) {
  LabeledDataset ds = testing::SmallClustered(2000, 6, 2, 66);
  for (double alpha : {0.5, 1e-300}) {
    MrCCParams p;
    p.alpha = alpha;
    Result<MrCCResult> r = MrCC(p).Run(ds.data);
    ASSERT_TRUE(r.ok()) << "alpha=" << alpha;
    EXPECT_TRUE(r->clustering.Validate(2000, 6).ok());
  }
}

}  // namespace
}  // namespace mrcc
