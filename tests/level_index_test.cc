#include "core/level_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

#include "common/rng.h"
#include "core/beta_cluster_finder.h"
#include "core/mrcc.h"
#include "data/catalog.h"
#include "data/generator.h"
#include "test_util.h"

namespace mrcc {
namespace {

// Random points plus, for each, copies shifted by exactly one cell width
// of every level along a random axis (both ways), so every level has
// face neighbors that hit as well as ones that miss. One axis of each
// base point is pinned to each cube border.
Dataset NeighborRichData(size_t d, int num_resolutions, uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  std::vector<double> p(d);
  for (int b = 0; b < 24; ++b) {
    for (double& x : p) x = rng.UniformDouble();
    p[rng.UniformInt(d)] = 0.0;
    p[rng.UniformInt(d)] = std::nextafter(1.0, 0.0);
    data.AppendPoint(p);
    for (int h = 1; h < num_resolutions; ++h) {
      const size_t axis = rng.UniformInt(d);
      for (const double dir : {-1.0, 1.0}) {
        std::vector<double> q = p;
        q[axis] += dir * std::ldexp(1.0, -h);
        if (q[axis] >= 0.0 && q[axis] < 1.0) data.AppendPoint(q);
      }
    }
  }
  return data;
}

struct Shape {
  size_t dims;
  int num_resolutions;
};

// ctest discovery names each case by its printed value; the default print
// is raw bytes, padding included, so it is not stable across builds.
void PrintTo(const Shape& s, std::ostream* os) {
  *os << "d" << s.dims << "_H" << s.num_resolutions;
}

class LevelIndexSweep : public ::testing::TestWithParam<Shape> {};

// d = 21 fills 63 bits of one word at level 3 and d = 22 is the first
// two-word key there; 62 is kMaxDims.
INSTANTIATE_TEST_SUITE_P(
    Shapes, LevelIndexSweep,
    ::testing::ValuesIn([] {
      std::vector<Shape> shapes;
      for (size_t d : {1, 7, 21, 22, 30, 62}) {
        for (int h : {3, 4, 6}) shapes.push_back({d, h});
      }
      return shapes;
    }()));

TEST_P(LevelIndexSweep, AgreesWithTreeOnEveryCellAxisAndDirection) {
  const Shape shape = GetParam();
  const size_t d = shape.dims;
  const Dataset data = NeighborRichData(d, shape.num_resolutions, 17 + d);
  Result<CountingTree> tree = CountingTree::Build(data, shape.num_resolutions);
  ASSERT_TRUE(tree.ok());
  size_t hits = 0, misses = 0, off_cube = 0;
  for (int h = 1; h < shape.num_resolutions; ++h) {
    const CountingTree::LevelView level = tree->Level(h);
    const LevelIndex index(level);
    ASSERT_EQ(index.level(), h);
    const size_t fields = 64 / static_cast<size_t>(h);
    EXPECT_EQ(index.key_words(), (d + fields - 1) / fields);
    const uint64_t max_coord = (uint64_t{1} << h) - 1;
    std::vector<uint64_t> decoded(d);
    for (uint32_t i = 0; i < level.num_cells(); ++i) {
      const std::vector<uint64_t> coords = level.Coords(i);
      index.CoordsInto(i, decoded.data());
      ASSERT_EQ(decoded, coords) << "h=" << h << " cell=" << i;
      ASSERT_EQ(index.Find(coords.data()), static_cast<int64_t>(i));
      for (size_t j = 0; j < d; ++j) {
        for (const int dir : {-1, 1}) {
          const int64_t got = index.FaceNeighborOf(i, j, dir);
          if ((dir < 0 && coords[j] == 0) ||
              (dir > 0 && coords[j] == max_coord)) {
            EXPECT_EQ(got, LevelIndex::kOffCube);
            ++off_cube;
            continue;
          }
          std::vector<uint64_t> shifted = coords;
          shifted[j] += static_cast<uint64_t>(static_cast<int64_t>(dir));
          CountingTree::CellRef ref;
          const int64_t want =
              tree->FindCell(h, shifted, &ref) ? int64_t{ref.index} : -1;
          ASSERT_EQ(got, want) << "h=" << h << " cell=" << i << " axis=" << j
                               << " dir=" << dir;
          ASSERT_EQ(index.Find(shifted.data()), want);
          ++(want >= 0 ? hits : misses);
        }
      }
    }
  }
  // The data puts cells on both borders and adjacent to each other.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_GT(off_cube, 0u);
}

TEST(LevelIndexTest, FindRejectsCoordinatesOffTheCube) {
  const Dataset data = NeighborRichData(5, 4, 3);
  Result<CountingTree> tree = CountingTree::Build(data, 4);
  ASSERT_TRUE(tree.ok());
  const LevelIndex index(tree->Level(2));
  std::vector<uint64_t> coords = tree->Level(2).Coords(0);
  coords[1] = 4;  // Level 2 coordinates lie in [0, 4).
  EXPECT_EQ(index.Find(coords.data()), -1);
}

// The index is a view over the tree's own key table: it holds no memory
// of its own, whatever d and the key word count. At level 3 a word holds
// 21 axes, so 14d and 21d both take one word and 22d takes two.
TEST(LevelIndexTest, MemoryIsIndependentOfDimsAtFixedKeyWords) {
  auto index_bytes = [](size_t d, size_t* words) {
    // Eight points on the diagonal: eight cells at level 3 for any d.
    Dataset data;
    for (int i = 0; i < 8; ++i) {
      data.AppendPoint(std::vector<double>(d, (i + 0.5) / 8.0));
    }
    Result<CountingTree> tree = CountingTree::Build(data, 4);
    MRCC_CHECK(tree.ok());
    const LevelIndex index(tree->Level(3));
    MRCC_CHECK(tree->Level(3).num_cells() == 8);
    *words = index.key_words();
    return index.MemoryBytes();
  };
  size_t words14 = 0, words21 = 0, words22 = 0;
  const size_t bytes14 = index_bytes(14, &words14);
  const size_t bytes21 = index_bytes(21, &words21);
  const size_t bytes22 = index_bytes(22, &words22);
  EXPECT_EQ(words14, 1u);
  EXPECT_EQ(words21, 1u);
  EXPECT_EQ(words22, 2u);
  EXPECT_EQ(bytes14, sizeof(LevelIndex));
  EXPECT_EQ(bytes21, sizeof(LevelIndex));
  EXPECT_EQ(bytes22, sizeof(LevelIndex));
}

// The O(d)-per-cell contract as a work count: the face-only convolution
// issues one table lookup per in-cube face neighbor — exactly 2d per cell
// minus its border axes — whatever the thread count.
TEST(LevelIndexTest, SearchProbesAtMostTwoDPerConvolvedCellAt30d) {
  constexpr size_t kDims = 30;
  const LabeledDataset data = testing::SmallClustered(4000, kDims, 3, 11);
  Result<CountingTree> tree = CountingTree::Build(data.data, 4);
  ASSERT_TRUE(tree.ok());
  uint64_t expected_probes = 0;
  for (int h = 2; h < tree->num_resolutions(); ++h) {
    const CountingTree::LevelView level = tree->Level(h);
    const uint64_t max_coord = (uint64_t{1} << h) - 1;
    for (uint32_t i = 0; i < level.num_cells(); ++i) {
      for (uint64_t c : level.Coords(i)) {
        expected_probes += (c != 0) + (c != max_coord);
      }
    }
  }
  for (int threads : {1, 3}) {
    tree->ResetUsedFlags();
    BetaFinderOptions options;
    options.num_threads = threads;
    Result<BetaSearchResult> result = RunBetaSearch(*tree, options, nullptr);
    ASSERT_TRUE(result.ok());
    const BetaSearchStats& stats = result->stats;
    ASSERT_GT(stats.cells_convolved, 0u);
    EXPECT_LE(stats.index_probes, 2 * kDims * stats.cells_convolved);
    EXPECT_EQ(stats.index_probes, expected_probes) << "threads=" << threads;
  }
}

// Quasi-linear cost in d as work counts, across the paper's dims group:
// at every d the convolution probes at most 2d table entries per cell,
// and the tree holds at most eta cells per materialized level.
TEST(LevelIndexTest, ProbesAndCellsStayLinearAcrossTheDimsGroup) {
  for (const SyntheticConfig& config : DimsGroupConfigs(0.1)) {
    Result<LabeledDataset> data = GenerateSynthetic(config);
    ASSERT_TRUE(data.ok()) << config.name;
    MrCCParams params;
    params.num_threads = 1;
    Result<MrCCResult> run = MrCC(params).Run(data->data);
    ASSERT_TRUE(run.ok()) << config.name;
    const size_t d = data->data.NumDims();
    const uint64_t eta = data->data.NumPoints();
    const MrCCStats& stats = run->stats;
    ASSERT_GT(stats.beta_search.cells_convolved, 0u) << config.name;
    EXPECT_LE(stats.beta_search.index_probes,
              2 * d * stats.beta_search.cells_convolved)
        << config.name;
    uint64_t cells = 0;
    for (size_t c : stats.cells_per_level) cells += c;
    EXPECT_LE(cells, static_cast<uint64_t>(params.num_resolutions - 1) * eta)
        << config.name;
  }
}

}  // namespace
}  // namespace mrcc
