// Cross-module integration tests: the full paper pipeline at reduced scale.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "baselines/clusterer.h"
#include "common/rng.h"
#include "core/mrcc.h"
#include "data/catalog.h"
#include "data/dataset_io.h"
#include "data/generator.h"
#include "eval/measurement.h"
#include "eval/quality.h"
#include "test_util.h"

namespace mrcc {
namespace {

// A miniature version of the paper's first-group experiment: MrCC must be
// accurate on every dataset of the group.
TEST(IntegrationTest, MrCCAccurateAcrossMiniGroup1) {
  for (const SyntheticConfig& cfg : Group1Configs(/*scale=*/0.1)) {
    Result<LabeledDataset> ds = GenerateSynthetic(cfg);
    ASSERT_TRUE(ds.ok()) << cfg.name;
    MrCC method;
    RunMeasurement m = MeasureRun(method, *ds);
    ASSERT_TRUE(m.completed) << cfg.name << ": " << m.error;
    EXPECT_GT(m.quality.quality, 0.85) << cfg.name;
  }
}

// MrCC must remain accurate when clusters live in rotated subspaces
// (the paper's rotated-group experiment, Fig. 5p).
TEST(IntegrationTest, MrCCRobustOnMiniRotatedGroup) {
  const auto plain = Group1Configs(0.1);
  const auto rotated = RotatedGroupConfigs(0.1);
  for (size_t i = 0; i < rotated.size(); ++i) {
    Result<LabeledDataset> base = GenerateSynthetic(plain[i]);
    Result<LabeledDataset> rot = GenerateSynthetic(rotated[i]);
    ASSERT_TRUE(base.ok() && rot.ok());
    MrCC method;
    const RunMeasurement mb = MeasureRun(method, *base);
    const RunMeasurement mr = MeasureRun(method, *rot);
    ASSERT_TRUE(mb.completed && mr.completed);
    EXPECT_GT(mr.quality.quality, mb.quality.quality - 0.25)
        << rotated[i].name;
  }
}

// Scalability shape on points, from deterministic work counters instead of
// wall time: the tree build reads each point exactly once (the paper's
// single scan), no level holds more cells than points, and 4x the points
// makes at most 4x the cells.
TEST(IntegrationTest, MrCCTreeWorkIsLinearInPoints) {
  SyntheticConfig small = Base14dConfig(0.05);
  SyntheticConfig large = small;
  large.num_points = 4 * small.num_points;
  MrCCParams params;
  params.num_threads = 1;
  params.chunk_points = 1000;  // Several chunks per scan.
  size_t total_cells[2] = {0, 0};
  int run = 0;
  for (const SyntheticConfig& cfg : {small, large}) {
    Result<LabeledDataset> ds = GenerateSynthetic(cfg);
    ASSERT_TRUE(ds.ok());
    Result<MrCCResult> r = MrCC(params).Run(ds->data);
    ASSERT_TRUE(r.ok());
    const MrCCStats& stats = r->stats;
    const size_t eta = ds->data.NumPoints();
    ASSERT_GT(stats.chunk_points, 0u);
    EXPECT_EQ(stats.chunks_scanned,
              (eta + stats.chunk_points - 1) / stats.chunk_points);
    for (size_t cells : stats.cells_per_level) total_cells[run] += cells;
    EXPECT_LE(total_cells[run],
              static_cast<size_t>(params.num_resolutions - 1) * eta);
    ++run;
  }
  EXPECT_LE(total_cells[1], 4 * total_cells[0]);
}

// Memory: the Counting-tree footprint must grow linearly in H.
TEST(IntegrationTest, TreeMemoryLinearInResolutions) {
  LabeledDataset ds = testing::SmallClustered(10000, 10, 4, 888);
  std::map<int, size_t> bytes;
  for (int h : {4, 6, 8}) {
    MrCCParams p;
    p.num_resolutions = h;
    Result<MrCCResult> r = MrCC(p).Run(ds.data);
    ASSERT_TRUE(r.ok());
    bytes[h] = r->stats.tree_memory_bytes;
  }
  EXPECT_GT(bytes[6], bytes[4]);
  EXPECT_GT(bytes[8], bytes[6]);
  // Roughly linear: each pair of extra levels adds a near-constant amount
  // (deep levels hold ~eta cells each), so successive increments must be
  // comparable rather than growing geometrically.
  const double inc1 = static_cast<double>(bytes[6] - bytes[4]);
  const double inc2 = static_cast<double>(bytes[8] - bytes[6]);
  EXPECT_LT(inc2, 2.0 * inc1);
}

// The real-data experiment path: KDD08-like data scored against classes.
TEST(IntegrationTest, Kdd08LikePipelineRuns) {
  Kdd08LikeConfig cfg = Kdd08LikeConfigs(/*scale=*/0.2)[1];  // left_mlo.
  Result<Kdd08LikeDataset> ds = GenerateKdd08Like(cfg);
  ASSERT_TRUE(ds.ok());
  MrCC method;
  const RunMeasurement m = MeasureRunAgainstClasses(
      method, ds->labeled.data, ds->class_labels, cfg.name);
  ASSERT_TRUE(m.completed) << m.error;
  EXPECT_GT(m.quality.quality, 0.3);
  EXPECT_GT(m.clusters_found, 0u);
}

// Dataset round trip through the binary format preserves MrCC's output.
TEST(IntegrationTest, PersistedDatasetGivesIdenticalClustering) {
  LabeledDataset ds = testing::SmallClustered(3000, 8, 3, 999);
  const std::string path = testing::UniqueTempDir() + "mrcc_integration.bin";
  ASSERT_TRUE(SaveBinary(ds.data, path, &ds.truth.labels).ok());
  std::vector<int> labels;
  Result<Dataset> loaded = LoadBinary(path, &labels);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(labels, ds.truth.labels);
  MrCC method;
  Result<MrCCResult> a = method.Run(ds.data);
  Result<MrCCResult> b = method.Run(*loaded);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->clustering.labels, b->clustering.labels);
  std::remove(path.c_str());
}

// Randomized pipeline fuzzing: arbitrary generator configurations must
// never crash, always produce internally consistent output, and stay
// deterministic.
class PipelineFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineFuzz, InvariantsHoldForRandomConfigs) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  SyntheticConfig cfg;
  cfg.num_dims = 2 + rng.UniformInt(16);           // 2..17 axes.
  cfg.num_points = 500 + rng.UniformInt(8000);     // 500..8500 points.
  cfg.num_clusters = 1 + rng.UniformInt(8);        // 1..8 clusters.
  cfg.noise_fraction = rng.Uniform(0.0, 0.4);
  cfg.min_cluster_dims = 1 + rng.UniformInt(cfg.num_dims);
  cfg.max_cluster_dims =
      cfg.min_cluster_dims +
      rng.UniformInt(cfg.num_dims - cfg.min_cluster_dims + 1);
  cfg.num_rotations = rng.UniformInt(3) == 0 ? 4 : 0;
  cfg.seed = seed;
  Result<LabeledDataset> ds = GenerateSynthetic(cfg);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_TRUE(ds->data.InUnitCube());

  MrCCParams params;
  params.alpha = std::pow(10.0, -2.0 - static_cast<double>(rng.UniformInt(30)));
  params.num_resolutions = 3 + static_cast<int>(rng.UniformInt(5));
  MrCC method(params);
  Result<MrCCResult> a = method.Run(ds->data);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(a->clustering.Validate(ds->data.NumPoints(), ds->data.NumDims())
                  .ok());
  // Beta-to-cluster map is consistent.
  ASSERT_EQ(a->beta_to_cluster.size(), a->beta_clusters.size());
  for (int c : a->beta_to_cluster) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, static_cast<int>(a->clustering.NumClusters()));
  }
  // Every non-noise point lies inside at least one box of its cluster.
  for (size_t i = 0; i < ds->data.NumPoints(); ++i) {
    const int label = a->clustering.labels[i];
    if (label == kNoiseLabel) continue;
    bool contained = false;
    for (size_t b = 0; b < a->beta_clusters.size() && !contained; ++b) {
      contained = a->beta_to_cluster[b] == label &&
                  a->beta_clusters[b].Contains(ds->data.Point(i));
    }
    ASSERT_TRUE(contained) << "point " << i << " seed " << seed;
  }
  // Determinism.
  Result<MrCCResult> b = method.Run(ds->data);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->clustering.labels, b->clustering.labels);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Range<uint64_t>(1, 21));

// All paper methods produce disjoint clusterings the evaluator accepts,
// and MrCC is the fastest on a mid-size dataset (the paper's headline).
TEST(IntegrationTest, MrCCFastestAmongAccurateMethods) {
  SyntheticConfig cfg = Base14dConfig(0.08);
  Result<LabeledDataset> ds = GenerateSynthetic(cfg);
  ASSERT_TRUE(ds.ok());
  MethodTuning tuning;
  tuning.num_clusters = cfg.num_clusters;
  tuning.noise_fraction = cfg.noise_fraction;

  double mrcc_seconds = 0.0;
  double best_competitor_seconds = 1e9;
  for (const std::string& name : PaperMethodNames()) {
    auto method = MakeClusterer(name, tuning);
    ASSERT_TRUE(method.ok());
    const RunMeasurement m = MeasureRun(**method, *ds, /*budget=*/120.0);
    if (!m.completed) continue;  // Timeouts allowed for slow baselines.
    if (name == "MrCC") {
      mrcc_seconds = m.seconds;
      EXPECT_GT(m.quality.quality, 0.8);
    } else {
      best_competitor_seconds = std::min(best_competitor_seconds, m.seconds);
    }
  }
  ASSERT_GT(mrcc_seconds, 0.0);
  // MrCC within the paper's "fastest" claim, with slack for the scaled-
  // down data (our LAC converges quickly on easy small datasets, while
  // the paper measured it ~10x slower than MrCC at 90k+ points).
  EXPECT_LT(mrcc_seconds, 3.0 * best_competitor_seconds);
}

}  // namespace
}  // namespace mrcc
