#include "baselines/clusterer.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace mrcc {
namespace {

TEST(FactoryTest, AllMethodsConstruct) {
  MethodTuning tuning;
  for (const std::string& name : PaperMethodNames()) {
    auto method = MakeClusterer(name, tuning);
    ASSERT_TRUE(method.ok()) << name;
    EXPECT_EQ((*method)->name(), name);
  }
}

TEST(FactoryTest, UnknownNameRejected) {
  MethodTuning tuning;
  auto method = MakeClusterer("NoSuchMethod", tuning);
  ASSERT_FALSE(method.ok());
  EXPECT_EQ(method.status().code(), StatusCode::kInvalidArgument);
}

TEST(FactoryTest, EveryPaperMethodRunsOnTinyData) {
  LabeledDataset ds = testing::SmallClustered(1200, 6, 2, 777);
  MethodTuning tuning;
  tuning.num_clusters = 2;
  tuning.noise_fraction = 0.15;
  for (const std::string& name : PaperMethodNames()) {
    auto method = MakeClusterer(name, tuning);
    ASSERT_TRUE(method.ok()) << name;
    Result<Clustering> r = (*method)->Cluster(ds.data);
    ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
    EXPECT_TRUE(
        r->Validate(ds.data.NumPoints(), ds.data.NumDims()).ok())
        << name;
  }
}

TEST(FactoryTest, TuningIsForwarded) {
  MethodTuning tuning;
  tuning.num_clusters = 4;
  auto lac = MakeClusterer("LAC", tuning);
  ASSERT_TRUE(lac.ok());
  LabeledDataset ds = testing::SmallClustered(2000, 6, 4, 778);
  Result<Clustering> r = (*lac)->Cluster(ds.data);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumClusters(), 4u);
}

}  // namespace
}  // namespace mrcc
