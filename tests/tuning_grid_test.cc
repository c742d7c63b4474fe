#include "baselines/tuning_grid.h"

#include <gtest/gtest.h>

#include <set>

#include "eval/quality.h"
#include "test_util.h"

namespace mrcc {
namespace {

TEST(TuningGridTest, MrCCHasOneFixedConfiguration) {
  // The paper fixes alpha = 1e-10 and H = 4 for every experiment.
  MethodTuning tuning;
  const auto grid = TuningGrid("MrCC", tuning);
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid[0].method->name(), "MrCC");
}

TEST(TuningGridTest, GridSizesMatchPaperSection4E) {
  MethodTuning tuning;
  EXPECT_EQ(TuningGrid("LAC", tuning).size(), 11u);   // 1/h = 1..11.
  EXPECT_EQ(TuningGrid("P3C", tuning).size(), 8u);    // 8 Poisson values.
  EXPECT_EQ(TuningGrid("EPCH", tuning).size(), 6u);   // d0 x outlier.
  EXPECT_EQ(TuningGrid("CFPC", tuning).size(), 9u);   // w x beta.
  EXPECT_EQ(TuningGrid("HARP", tuning).size(), 1u);   // Auto-thresholds.
}

TEST(TuningGridTest, LabelsAreDistinct) {
  MethodTuning tuning;
  for (const char* name : {"LAC", "P3C", "EPCH", "CFPC"}) {
    std::set<std::string> labels;
    for (const TunedCandidate& c : TuningGrid(name, tuning)) {
      EXPECT_TRUE(labels.insert(c.label).second)
          << name << " duplicate label " << c.label;
    }
  }
}

TEST(TuningGridTest, UnknownMethodYieldsEmptyGrid) {
  MethodTuning tuning;
  EXPECT_TRUE(TuningGrid("NoSuchMethod", tuning).empty());
}

TEST(TuningGridTest, EveryLacCandidateRuns) {
  LabeledDataset ds = testing::SmallClustered(1500, 6, 2, 808);
  MethodTuning tuning;
  tuning.num_clusters = 2;
  for (TunedCandidate& c : TuningGrid("LAC", tuning)) {
    Result<Clustering> r = c.method->Cluster(ds.data);
    ASSERT_TRUE(r.ok()) << c.label;
    EXPECT_EQ(r->NumClusters(), 2u) << c.label;
  }
}

TEST(TuningGridTest, BestOfGridAtLeastMatchesDefault) {
  // Sweeping the grid can only improve the best reported Quality relative
  // to any single configuration in it.
  LabeledDataset ds = testing::SmallClustered(3000, 8, 3, 809);
  MethodTuning tuning;
  tuning.num_clusters = 3;
  double best = 0.0;
  double any = -1.0;
  for (TunedCandidate& c : TuningGrid("P3C", tuning)) {
    Result<Clustering> r = c.method->Cluster(ds.data);
    if (!r.ok()) continue;
    const double q = EvaluateClustering(*r, ds.truth).quality;
    if (any < 0.0) any = q;
    best = std::max(best, q);
  }
  EXPECT_GE(best, any);
}

}  // namespace
}  // namespace mrcc
