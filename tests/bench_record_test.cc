#include "eval/bench_record.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "test_util.h"

namespace mrcc {
namespace {

BenchRecord MakeRecord() {
  BenchRecord record;
  record.bench = "scale_points";
  record.scale = 0.125;
  record.time_budget_seconds = 120.0;
  record.num_threads_available = 8;
  record.wall_seconds = 12.5;
  record.peak_rss_bytes = 123456789;

  BenchEntry ok;
  ok.method = "MrCC";
  ok.dataset = "250k";
  ok.completed = true;
  ok.seconds = 1.25;
  ok.peak_heap_bytes = 4096;
  ok.quality = 0.9785;
  ok.subspace_quality = 0.85;
  ok.clusters_found = 12;
  ok.source = "chunked";
  ok.read_ahead = 2;
  ok.counters = {62, 386015, 369633, 9876543210, 378};
  record.entries.push_back(ok);

  BenchEntry failed;
  failed.method = "P3C";
  failed.dataset = "250k";
  failed.completed = false;
  failed.error = "timed out after 120s";
  record.entries.push_back(failed);

  record.metrics["beta.binomial_tests"] = 4242;
  record.metrics["tree.merge.conflict_cells"] = 17;
  return record;
}

TEST(BenchRecordTest, JsonRoundTrip) {
  const BenchRecord record = MakeRecord();
  const Result<BenchRecord> parsed = BenchRecord::FromJson(record.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, record);
}

TEST(BenchRecordTest, RoundTripPreservesStringEscapes) {
  BenchRecord record = MakeRecord();
  record.entries[1].error =
      "quote \" backslash \\ newline \n tab \t control \x01 end";
  record.bench = "weird/bench\"name";
  const Result<BenchRecord> parsed = BenchRecord::FromJson(record.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, record);
}

TEST(BenchRecordTest, RoundTripPreservesExtremeNumbers) {
  BenchRecord record = MakeRecord();
  record.entries[0].seconds = 1e-9;
  record.entries[0].peak_heap_bytes = int64_t{1} << 52;
  record.wall_seconds = 123456.789012345;
  const Result<BenchRecord> parsed = BenchRecord::FromJson(record.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, record);
}

TEST(BenchRecordTest, EmptyRecordRoundTrips) {
  BenchRecord record;
  const Result<BenchRecord> parsed = BenchRecord::FromJson(record.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, record);
}

TEST(BenchRecordTest, RejectsWrongSchemaVersion) {
  BenchRecord record = MakeRecord();
  std::string json = record.ToJson();
  const std::string needle =
      "\"schema_version\":" + std::to_string(BenchRecord::kSchemaVersion);
  const size_t pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, needle.size(), "\"schema_version\":999");
  const Result<BenchRecord> parsed = BenchRecord::FromJson(json);
  EXPECT_FALSE(parsed.ok());
}

TEST(BenchRecordTest, RejectsMissingSchemaVersion) {
  EXPECT_FALSE(BenchRecord::FromJson("{\"bench\":\"x\"}").ok());
}

TEST(BenchRecordTest, RejectsMalformedJson) {
  EXPECT_FALSE(BenchRecord::FromJson("").ok());
  EXPECT_FALSE(BenchRecord::FromJson("{\"schema_version\":1").ok());
  EXPECT_FALSE(BenchRecord::FromJson("not json at all").ok());
}

TEST(BenchRecordTest, IgnoresUnknownKeysForForwardCompatibility) {
  // A reader of version N must accept records written by a later writer
  // that only *added* fields (the schema stability rule).
  const std::string json =
      "{\"schema_version\":1,\"bench\":\"b\",\"future_field\":{\"x\":[1,2]},"
      "\"entries\":[{\"method\":\"M\",\"dataset\":\"d\",\"completed\":true,"
      "\"seconds\":2.0,\"novel_per_entry_stat\":7}],\"metrics\":{}}";
  const Result<BenchRecord> parsed = BenchRecord::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->bench, "b");
  ASSERT_EQ(parsed->entries.size(), 1u);
  EXPECT_EQ(parsed->entries[0].method, "M");
  EXPECT_DOUBLE_EQ(parsed->entries[0].seconds, 2.0);
  // Entries predating the source/read-ahead axes default to memory runs
  // with synchronous scans.
  EXPECT_EQ(parsed->entries[0].source, "memory");
  EXPECT_EQ(parsed->entries[0].read_ahead, 0);
}

TEST(BenchRecordTest, SaveLoadRoundTrip) {
  const BenchRecord record = MakeRecord();
  const std::string path =
      testing::UniqueTempDir() + "bench_record_test_roundtrip.json";
  ASSERT_TRUE(record.Save(path).ok());
  const Result<BenchRecord> loaded = BenchRecord::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, record);
  std::remove(path.c_str());
}

TEST(BenchRecordTest, LoadMissingFileFails) {
  EXPECT_FALSE(
      BenchRecord::Load("/nonexistent/dir/bench_record.json").ok());
}

TEST(BenchRecordTest, ToBenchEntryMapsEveryField) {
  RunMeasurement m;
  m.method = "MrCC";
  m.dataset = "12d";
  m.completed = true;
  m.error = "";
  m.seconds = 3.5;
  m.peak_heap_bytes = 2048;
  m.clusters_found = 9;
  m.quality.quality = 0.75;
  m.quality.subspace_quality = 0.5;
  m.counters = {3, 40, 30, 700, 28};

  const BenchEntry entry = ToBenchEntry(m);
  EXPECT_EQ(entry.method, "MrCC");
  EXPECT_EQ(entry.dataset, "12d");
  EXPECT_TRUE(entry.completed);
  EXPECT_DOUBLE_EQ(entry.seconds, 3.5);
  EXPECT_EQ(entry.peak_heap_bytes, 2048);
  EXPECT_EQ(entry.clusters_found, 9u);
  EXPECT_DOUBLE_EQ(entry.quality, 0.75);
  EXPECT_DOUBLE_EQ(entry.subspace_quality, 0.5);
  EXPECT_EQ(entry.counters, m.counters);
}

}  // namespace
}  // namespace mrcc
