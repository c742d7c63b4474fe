#include "data/result_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "test_util.h"

namespace mrcc {
namespace {

Clustering SmallClustering() {
  Clustering c;
  c.labels = {0, 1, kNoiseLabel, 0};
  c.clusters.resize(2);
  c.clusters[0].relevant_axes = {true, false, true};
  c.clusters[1].relevant_axes = {false, true, false};
  c.clusters[1].axis_weights = {0.25, 0.5, 0.25};
  return c;
}

TEST(ResultIoTest, ClusteringJsonContainsStructure) {
  const std::string json = ClusteringToJson(SmallClustering());
  EXPECT_NE(json.find("\"clusters\":[{\"id\":0,\"relevant_axes\":[0,2]}"),
            std::string::npos);
  EXPECT_NE(json.find("\"axis_weights\":[0.25,0.5,0.25]"), std::string::npos);
  EXPECT_NE(json.find("\"labels\":[0,1,-1,0]"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ResultIoTest, MrCCResultJsonIncludesBoxesAndStats) {
  LabeledDataset ds = testing::SmallClustered(3000, 6, 2, 404);
  MrCC method;
  Result<MrCCResult> r = method.Run(ds.data);
  ASSERT_TRUE(r.ok());
  const std::string json = MrCCResultToJson(*r);
  EXPECT_NE(json.find("\"beta_clusters\":["), std::string::npos);
  EXPECT_NE(json.find("\"lower\":["), std::string::npos);
  EXPECT_NE(json.find("\"stats\":{"), std::string::npos);
  EXPECT_NE(json.find("\"tree_memory_bytes\":"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ResultIoTest, JsonFileRoundTrip) {
  const std::string path = testing::UniqueTempDir() + "mrcc_result.json";
  ASSERT_TRUE(WriteJsonFile("{\"x\":1}", path).ok());
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "{\"x\":1}\n");
  std::remove(path.c_str());
}

TEST(ResultIoTest, LabelRoundTrip) {
  const std::vector<int> labels{0, 5, kNoiseLabel, 2, kNoiseLabel};
  const std::string path = testing::UniqueTempDir() + "mrcc_labels.txt";
  ASSERT_TRUE(SaveLabels(labels, path).ok());
  Result<std::vector<int>> loaded = LoadLabels(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, labels);
  std::remove(path.c_str());
}

TEST(ResultIoTest, LoadLabelsRejectsGarbage) {
  const std::string path = testing::UniqueTempDir() + "mrcc_badlabels.txt";
  {
    std::ofstream out(path);
    out << "1\nxyz\n2\n";
  }
  Result<std::vector<int>> loaded = LoadLabels(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(ResultIoTest, MissingFilesAreIOErrors) {
  EXPECT_FALSE(LoadLabels("/nonexistent/labels.txt").ok());
  EXPECT_FALSE(WriteJsonFile("{}", "/nonexistent/dir/x.json").ok());
}

}  // namespace
}  // namespace mrcc
