#include "core/tree_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/beta_cluster_finder.h"
#include "test_util.h"

namespace mrcc {
namespace {

TEST(TreeIoTest, SaveLoadRoundTrip) {
  LabeledDataset ds = testing::SmallClustered(3000, 6, 3, 71);
  Result<CountingTree> tree = CountingTree::Build(ds.data, 5);
  ASSERT_TRUE(tree.ok());
  const std::string path = testing::UniqueTempDir() + "mrcc_tree.bin";
  ASSERT_TRUE(SaveTree(*tree, path).ok());
  Result<CountingTree> loaded = LoadTree(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(TreesEquivalent(*tree, *loaded));
  EXPECT_EQ(loaded->total_points(), tree->total_points());
  std::remove(path.c_str());
}

TEST(TreeIoTest, LoadedTreeProducesIdenticalBetaClusters) {
  LabeledDataset ds = testing::SmallClustered(4000, 8, 3, 72);
  Result<CountingTree> tree = CountingTree::Build(ds.data, 4);
  ASSERT_TRUE(tree.ok());
  const std::string path = testing::UniqueTempDir() + "mrcc_tree_beta.bin";
  ASSERT_TRUE(SaveTree(*tree, path).ok());
  Result<CountingTree> loaded = LoadTree(path);
  ASSERT_TRUE(loaded.ok());

  BetaFinderOptions options;
  const auto from_original = FindBetaClusters(*tree, options);
  const auto from_loaded = FindBetaClusters(*loaded, options);
  ASSERT_EQ(from_original.size(), from_loaded.size());
  for (size_t b = 0; b < from_original.size(); ++b) {
    EXPECT_EQ(from_original[b].lower, from_loaded[b].lower);
    EXPECT_EQ(from_original[b].upper, from_loaded[b].upper);
    EXPECT_EQ(from_original[b].relevant, from_loaded[b].relevant);
  }
  std::remove(path.c_str());
}

TEST(TreeIoTest, LoadRejectsGarbage) {
  const std::string path = testing::UniqueTempDir() + "mrcc_tree_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a tree at all";
  }
  EXPECT_FALSE(LoadTree(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadTree("/nonexistent/tree.bin").ok());
}

TEST(TreeIoTest, LoadRejectsTruncation) {
  Dataset d = testing::UniformDataset(500, 4, 3);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  const std::string path = testing::UniqueTempDir() + "mrcc_tree_trunc.bin";
  ASSERT_TRUE(SaveTree(*tree, path).ok());
  {
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 3));
  }
  EXPECT_FALSE(LoadTree(path).ok());
  std::remove(path.c_str());
}

TEST(TreeIoTest, TruncationErrorNamesSectionAndOffset) {
  // Exact-message contract: operators locate damage in a multi-megabyte
  // artifact from the section name and byte offset alone, so the format
  // is load-bearing, not cosmetic.
  Dataset d = testing::UniformDataset(300, 4, 4);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  const std::string bytes = SerializeTree(*tree);

  // Cut inside the header: total_points is the u64 at offset 16.
  Result<CountingTree> r = ParseTree(bytes.substr(0, 20), "t.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "truncated tree file t.bin: header total_points ends at byte 20 "
            "(needed 8 bytes at offset 16)");

  // Cut one byte short: the stream ends with the last cell's half
  // counts (u32 each), so the final u32 comes up one byte short.
  r = ParseTree(bytes.substr(0, bytes.size() - 1), "t.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "truncated tree file t.bin: cell half count ends at byte " +
                std::to_string(bytes.size() - 1) + " (needed 4 bytes at offset " +
                std::to_string(bytes.size() - 4) + ")");
}

TEST(TreeIoTest, BadValueErrorNamesSectionAndOffset) {
  Dataset d = testing::UniformDataset(300, 4, 4);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  std::string bytes = SerializeTree(*tree);

  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  Result<CountingTree> r = ParseTree(wrong_magic, "t.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "bad magic in t.bin at byte 0: expected \"MRTR\"");

  std::string wrong_version = bytes;
  wrong_version[4] = '\x09';
  r = ParseTree(wrong_version, "t.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "bad version in t.bin at byte 4: unsupported version 9 "
            "(reader supports 1)");
}

TEST(TreeIoTest, ParseTreeRejectsEveryProperPrefix) {
  // No prefix of a valid stream may parse: this is the guarantee the
  // shard-artifact checksum backstops, proven here byte by byte.
  Dataset d = testing::UniformDataset(120, 3, 9);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  const std::string bytes = SerializeTree(*tree);
  ASSERT_TRUE(ParseTree(bytes, "t.bin").ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<CountingTree> r = ParseTree(bytes.substr(0, len), "t.bin");
    ASSERT_FALSE(r.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  }
}

TEST(TreeIoTest, ParseTreeRejectsTrailingGarbage) {
  Dataset d = testing::UniformDataset(120, 3, 9);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  std::string bytes = SerializeTree(*tree);
  const size_t clean_size = bytes.size();
  bytes += "xx";
  Result<CountingTree> r = ParseTree(bytes, "t.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "trailing garbage in tree file t.bin: 2 bytes past the last node "
            "(tree ends at byte " +
                std::to_string(clean_size) + ")");
}

TEST(TreeIoTest, SaveLeavesNoTempFileBehind) {
  Dataset d = testing::UniformDataset(200, 3, 11);
  Result<CountingTree> tree = CountingTree::Build(d, 4);
  ASSERT_TRUE(tree.ok());
  const std::string path = testing::UniqueTempDir() + "mrcc_tree_atomic.bin";
  ASSERT_TRUE(SaveTree(*tree, path).ok());
  // The atomic-write temp file must have been renamed away.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::ifstream probe(tmp);
  EXPECT_FALSE(probe.good()) << "stale temp file " << tmp;
  std::remove(path.c_str());
}

// Reads the whole file, lets `patch` flip bytes, writes it back.
void PatchFile(const std::string& path,
               const std::function<void(std::string*)>& patch) {
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  patch(&contents);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

// Serialized layout offsets (tree_io.h): the header is magic(4) +
// version(4) + d(4) + H(4) + total_points(8) + node_count(8) = 32 bytes;
// the first node record is level(4) + d*8 base_coords + cell_count(8);
// each cell is loc(8) + n(4) + child(4) + d*4 half counts.
constexpr size_t kHeaderBytes = 32;

TEST(TreeIoTest, LoadRejectsCorruptHalfCount) {
  const size_t d = 4;
  Dataset data = testing::UniformDataset(500, d, 5);
  Result<CountingTree> tree = CountingTree::Build(data, 4);
  ASSERT_TRUE(tree.ok());
  const std::string path = testing::UniqueTempDir() + "mrcc_tree_half.bin";
  ASSERT_TRUE(SaveTree(*tree, path).ok());
  // First half count of the first cell of the first node: a value above
  // the cell's point count is structurally impossible.
  const size_t offset = kHeaderBytes + 4 + d * 8 + 8 + 8 + 4 + 4;
  PatchFile(path, [&](std::string* c) {
    ASSERT_LT(offset + 4, c->size());
    (*c)[offset] = '\xff';
    (*c)[offset + 1] = '\xff';
    (*c)[offset + 2] = '\xff';
    (*c)[offset + 3] = '\x7f';
  });
  Result<CountingTree> loaded = LoadTree(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("half-space"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(TreeIoTest, LoadRejectsImplausibleCellCount) {
  const size_t d = 4;
  Dataset data = testing::UniformDataset(500, d, 6);
  Result<CountingTree> tree = CountingTree::Build(data, 4);
  ASSERT_TRUE(tree.ok());
  const std::string path = testing::UniqueTempDir() + "mrcc_tree_cells.bin";
  ASSERT_TRUE(SaveTree(*tree, path).ok());
  // Cell count of the first node: a value far beyond what the file could
  // hold must fail cleanly instead of driving a multi-gigabyte resize.
  const size_t offset = kHeaderBytes + 4 + d * 8;
  PatchFile(path, [&](std::string* c) {
    ASSERT_LT(offset + 8, c->size());
    for (size_t b = 0; b < 7; ++b) (*c)[offset + b] = '\xff';
    (*c)[offset + 7] = '\x7f';
  });
  Result<CountingTree> loaded = LoadTree(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(TreeIoTest, LoadRejectsImplausibleNodeCount) {
  Dataset data = testing::UniformDataset(200, 3, 7);
  Result<CountingTree> tree = CountingTree::Build(data, 4);
  ASSERT_TRUE(tree.ok());
  const std::string path = testing::UniqueTempDir() + "mrcc_tree_nodes.bin";
  ASSERT_TRUE(SaveTree(*tree, path).ok());
  const size_t offset = 24;  // node_count field of the header.
  PatchFile(path, [&](std::string* c) {
    for (size_t b = 0; b < 7; ++b) (*c)[offset + b] = '\xff';
    (*c)[offset + 7] = '\x7f';
  });
  Result<CountingTree> loaded = LoadTree(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

// A node pool that lists a child before its parent is not a creation
// order any build produces: MergeTree would fold it into a corrupt
// destination. The bytes below are a valid H = 4 tree whose first level-3
// node record was moved to pool position 1, child pointers remapped.
TEST(TreeIoTest, ParseTreeRejectsChildBeforeParentInNodePool) {
  const size_t d = 3;
  Dataset data = testing::UniformDataset(300, d, 9);
  Result<CountingTree> tree = CountingTree::Build(data, 4);
  ASSERT_TRUE(tree.ok());
  const std::string bytes = SerializeTree(*tree);
  const size_t cell_bytes = 8 + 4 + 4 + d * 4;
  struct NodeRecord {
    int32_t level = 0;
    size_t begin = 0, end = 0;
  };
  std::vector<NodeRecord> records;
  size_t pos = kHeaderBytes;
  for (size_t m = 0; m < tree->num_nodes(); ++m) {
    NodeRecord r;
    r.begin = pos;
    std::memcpy(&r.level, bytes.data() + pos, sizeof(r.level));
    uint64_t cells = 0;
    std::memcpy(&cells, bytes.data() + pos + 4 + d * 8, sizeof(cells));
    pos += 4 + d * 8 + 8 + cells * cell_bytes;
    r.end = pos;
    records.push_back(r);
  }
  ASSERT_EQ(pos, bytes.size());
  size_t moved = 0;
  while (moved < records.size() && records[moved].level != 3) ++moved;
  ASSERT_GT(moved, 1u);
  ASSERT_LT(moved, records.size());
  // New pool order: root, the moved node, then everything else in order.
  std::vector<size_t> order = {0, moved};
  for (size_t m = 1; m < records.size(); ++m) {
    if (m != moved) order.push_back(m);
  }
  std::vector<int32_t> new_index(records.size());
  for (size_t k = 0; k < order.size(); ++k) {
    new_index[order[k]] = static_cast<int32_t>(k);
  }
  std::string permuted = bytes.substr(0, kHeaderBytes);
  for (size_t m : order) {
    std::string record =
        bytes.substr(records[m].begin, records[m].end - records[m].begin);
    for (size_t c = 4 + d * 8 + 8; c < record.size(); c += cell_bytes) {
      int32_t child = 0;
      std::memcpy(&child, record.data() + c + 12, sizeof(child));
      if (child >= 0) child = new_index[static_cast<size_t>(child)];
      std::memcpy(record.data() + c + 12, &child, sizeof(child));
    }
    permuted += record;
  }
  ASSERT_EQ(permuted.size(), bytes.size());
  Result<CountingTree> parsed = ParseTree(permuted, "permuted.tree");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIOError);
  EXPECT_NE(parsed.status().message().find("not created after its parent"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(TreeMergeTest, ShardedBuildEqualsMonolithicBuild) {
  // Build one tree over the full dataset and two trees over disjoint
  // halves; the merged halves must equal the monolithic tree.
  LabeledDataset ds = testing::SmallClustered(5000, 7, 3, 73);
  const size_t n = ds.data.NumPoints();
  Dataset first(0, 7), second(0, 7);
  for (size_t i = 0; i < n; ++i) {
    auto p = ds.data.Point(i);
    (i < n / 2 ? first : second).AppendPoint(p);
  }
  Result<CountingTree> whole = CountingTree::Build(ds.data, 4);
  Result<CountingTree> a = CountingTree::Build(first, 4);
  Result<CountingTree> b = CountingTree::Build(second, 4);
  ASSERT_TRUE(whole.ok() && a.ok() && b.ok());
  ASSERT_TRUE(MergeTree(&*a, *b).ok());
  EXPECT_EQ(a->total_points(), whole->total_points());
  EXPECT_TRUE(TreesEquivalent(*a, *whole));
  EXPECT_TRUE(TreesEquivalent(*whole, *a));  // Symmetric check.
}

TEST(TreeMergeTest, MergedTreeClusterSearchMatches) {
  LabeledDataset ds = testing::SmallClustered(6000, 8, 3, 74);
  const size_t n = ds.data.NumPoints();
  Dataset first(0, 8), second(0, 8);
  for (size_t i = 0; i < n; ++i) {
    (i % 2 == 0 ? first : second).AppendPoint(ds.data.Point(i));
  }
  Result<CountingTree> whole = CountingTree::Build(ds.data, 4);
  Result<CountingTree> a = CountingTree::Build(first, 4);
  Result<CountingTree> b = CountingTree::Build(second, 4);
  ASSERT_TRUE(whole.ok() && a.ok() && b.ok());
  ASSERT_TRUE(MergeTree(&*a, *b).ok());

  BetaFinderOptions options;
  const auto from_whole = FindBetaClusters(*whole, options);
  const auto from_merged = FindBetaClusters(*a, options);
  ASSERT_EQ(from_whole.size(), from_merged.size());
  for (size_t i = 0; i < from_whole.size(); ++i) {
    EXPECT_EQ(from_whole[i].lower, from_merged[i].lower);
    EXPECT_EQ(from_whole[i].upper, from_merged[i].upper);
  }
}

// Every source check runs before the first write: a corrupt source is
// rejected with the destination left exactly as it was.
TEST(TreeMergeTest, CorruptSourceLeavesDestinationUntouched) {
  Dataset data = testing::UniformDataset(400, 3, 31);
  Result<CountingTree> dest = CountingTree::Build(data, 4);
  Result<CountingTree> source = CountingTree::Build(data, 4);
  ASSERT_TRUE(dest.ok() && source.ok());
  const std::string before = SerializeTree(*dest);
  // A level-1 cell pointing back at the root: a child that is not
  // created after its parent.
  CountingTree::TestPeer::Child(*source, CountingTree::CellRef{1, 0}) = 0;
  Result<MergeTreeStats> merged = MergeTree(&*dest, *source);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInternal);
  EXPECT_EQ(SerializeTree(*dest), before);
  EXPECT_TRUE(dest->ValidateInvariants().ok());
}

TEST(TreeMergeTest, RejectsIncompatibleTrees) {
  Dataset d1 = testing::UniformDataset(100, 3, 1);
  Dataset d2 = testing::UniformDataset(100, 4, 2);
  Result<CountingTree> a = CountingTree::Build(d1, 4);
  Result<CountingTree> b = CountingTree::Build(d2, 4);
  Result<CountingTree> c = CountingTree::Build(d1, 5);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_FALSE(MergeTree(&*a, *b).ok());  // Dim mismatch.
  EXPECT_FALSE(MergeTree(&*a, *c).ok());  // Resolution mismatch.
}

TEST(TreeMergeTest, EquivalenceDetectsDifferences) {
  Dataset d1 = testing::UniformDataset(300, 3, 5);
  Dataset d2 = testing::UniformDataset(300, 3, 6);
  Result<CountingTree> a = CountingTree::Build(d1, 4);
  Result<CountingTree> b = CountingTree::Build(d2, 4);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(TreesEquivalent(*a, *a));
  EXPECT_FALSE(TreesEquivalent(*a, *b));
}

}  // namespace
}  // namespace mrcc
