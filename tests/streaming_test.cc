#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/mrcc.h"
#include "data/data_source.h"
#include "data/dataset_io.h"
#include "eval/quality.h"
#include "test_util.h"

namespace mrcc {
namespace {

std::string TempBinary(const Dataset& data, const char* name) {
  const std::string path = testing::UniqueTempDir() + "mrcc_stream_" + name;
  EXPECT_TRUE(SaveBinary(data, path).ok());
  return path;
}

// Out-of-core run: the binary file streams through MrCC::Run via the
// DataSource abstraction (the replacement for the removed
// RunMrCCOnBinaryFile wrapper).
Result<MrCCResult> RunOnFile(const std::string& path,
                             const MrCCParams& params = MrCCParams()) {
  Result<ChunkedBinaryDataSource> source =
      ChunkedBinaryDataSource::Open(path);
  if (!source.ok()) return source.status();
  return MrCC(params).Run(*source);
}

TEST(StreamingTest, MatchesInMemoryRunExactly) {
  LabeledDataset ds = testing::SmallClustered(6000, 8, 3, 2077);
  const std::string path = TempBinary(ds.data, "match.bin");

  MrCC method;
  Result<MrCCResult> in_memory = method.Run(ds.data);
  Result<MrCCResult> streamed = RunOnFile(path);
  ASSERT_TRUE(in_memory.ok() && streamed.ok());

  EXPECT_EQ(streamed->clustering.labels, in_memory->clustering.labels);
  EXPECT_EQ(streamed->beta_clusters.size(), in_memory->beta_clusters.size());
  EXPECT_EQ(streamed->clustering.NumClusters(),
            in_memory->clustering.NumClusters());
  for (size_t b = 0; b < streamed->beta_clusters.size(); ++b) {
    EXPECT_EQ(streamed->beta_clusters[b].lower,
              in_memory->beta_clusters[b].lower);
    EXPECT_EQ(streamed->beta_clusters[b].upper,
              in_memory->beta_clusters[b].upper);
  }
  std::remove(path.c_str());
}

TEST(StreamingTest, QualityMatchesGroundTruth) {
  LabeledDataset ds = testing::SmallClustered(8000, 10, 4, 2078);
  const std::string path = TempBinary(ds.data, "quality.bin");
  Result<MrCCResult> streamed = RunOnFile(path);
  ASSERT_TRUE(streamed.ok());
  const QualityReport q =
      EvaluateClustering(streamed->clustering, ds.truth);
  EXPECT_GT(q.quality, 0.85);
  std::remove(path.c_str());
}

TEST(StreamingTest, RejectsInvalidParams) {
  LabeledDataset ds = testing::SmallClustered(500, 4, 2, 2079);
  const std::string path = TempBinary(ds.data, "params.bin");
  MrCCParams params;
  params.alpha = 0.0;
  EXPECT_FALSE(RunOnFile(path, params).ok());
  std::remove(path.c_str());
}

TEST(StreamingTest, RejectsUnnormalizedFile) {
  Dataset d = testing::MakeDataset({{2.0, 1.0}, {0.1, 0.2}});
  const std::string path = TempBinary(d, "unnorm.bin");
  Result<MrCCResult> r = RunOnFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CountingTreeBuilderTest, IncrementalMatchesBatch) {
  Dataset d = testing::UniformDataset(500, 4, 99);
  Result<CountingTree> batch = CountingTree::Build(d, 4);
  CountingTree::Builder builder(4, 4);
  ASSERT_TRUE(builder.status().ok());
  for (size_t i = 0; i < d.NumPoints(); ++i) {
    ASSERT_TRUE(builder.Add(d.Point(i)).ok());
  }
  Result<CountingTree> incremental = std::move(builder).Finish();
  ASSERT_TRUE(batch.ok() && incremental.ok());
  EXPECT_EQ(incremental->total_points(), batch->total_points());
  for (int h = 1; h < 4; ++h) {
    EXPECT_EQ(incremental->NumCellsAtLevel(h), batch->NumCellsAtLevel(h));
  }
}

TEST(CountingTreeBuilderTest, RejectsBadPoints) {
  CountingTree::Builder builder(3, 4);
  ASSERT_TRUE(builder.status().ok());
  EXPECT_FALSE(builder.Add(std::vector<double>{0.5, 0.5}).ok());  // Wrong d.
  EXPECT_FALSE(builder.Add(std::vector<double>{0.5, 0.5, 1.5}).ok());
  EXPECT_TRUE(builder.Add(std::vector<double>{0.5, 0.5, 0.5}).ok());
}

}  // namespace
}  // namespace mrcc
