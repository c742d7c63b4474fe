#include "data/data_source.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "data/dataset_io.h"
#include "test_util.h"

namespace mrcc {
namespace {

std::vector<std::vector<double>> Drain(DataSource::Cursor& cursor) {
  std::vector<std::vector<double>> out;
  std::span<const double> point;
  while (cursor.Next(&point)) {
    out.emplace_back(point.begin(), point.end());
  }
  return out;
}

TEST(MemoryDataSourceTest, ScansAllPointsInOrder) {
  Dataset d = testing::UniformDataset(100, 4, 11);
  MemoryDataSource source(d);
  EXPECT_EQ(source.NumPoints(), 100u);
  EXPECT_EQ(source.NumDims(), 4u);
  EXPECT_EQ(source.Name(), "memory");

  auto cursor = source.ScanAll();
  ASSERT_TRUE(cursor.ok());
  const auto points = Drain(**cursor);
  ASSERT_EQ(points.size(), 100u);
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(points[i][j], d(i, j)) << i << "," << j;
    }
  }
  EXPECT_TRUE((*cursor)->status().ok());
}

TEST(MemoryDataSourceTest, ScanRangeIsHalfOpen) {
  Dataset d = testing::UniformDataset(50, 3, 12);
  MemoryDataSource source(d);
  auto cursor = source.Scan(10, 20);
  ASSERT_TRUE(cursor.ok());
  const auto points = Drain(**cursor);
  ASSERT_EQ(points.size(), 10u);
  EXPECT_DOUBLE_EQ(points[0][0], d(10, 0));
  EXPECT_DOUBLE_EQ(points[9][0], d(19, 0));
}

TEST(MemoryDataSourceTest, EmptyRangeAndBadRange) {
  Dataset d = testing::UniformDataset(10, 2, 13);
  MemoryDataSource source(d);
  auto empty = source.Scan(5, 5);
  ASSERT_TRUE(empty.ok());
  std::span<const double> point;
  EXPECT_FALSE((*empty)->Next(&point));

  EXPECT_FALSE(source.Scan(5, 11).ok());  // end > NumPoints.
  EXPECT_FALSE(source.Scan(7, 5).ok());   // begin > end.
  EXPECT_EQ(source.Scan(5, 11).status().code(), StatusCode::kOutOfRange);
}

TEST(BinaryFileDataSourceTest, MatchesMemorySource) {
  Dataset d = testing::UniformDataset(300, 6, 14);
  const std::string path = testing::UniqueTempDir() + "mrcc_source_eq.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());

  Result<BinaryFileDataSource> file = BinaryFileDataSource::Open(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->NumPoints(), 300u);
  EXPECT_EQ(file->NumDims(), 6u);
  EXPECT_EQ(file->Name(), path);

  MemoryDataSource memory(d);
  // Whole-scan equivalence plus several sub-ranges, including the ends.
  const std::pair<size_t, size_t> ranges[] = {
      {0, 300}, {0, 1}, {299, 300}, {100, 200}, {42, 43}, {150, 150}};
  for (const auto& [begin, end] : ranges) {
    auto from_file = file->Scan(begin, end);
    auto from_memory = memory.Scan(begin, end);
    ASSERT_TRUE(from_file.ok() && from_memory.ok());
    EXPECT_EQ(Drain(**from_file), Drain(**from_memory))
        << "range [" << begin << ", " << end << ")";
    EXPECT_TRUE((*from_file)->status().ok());
  }
  std::remove(path.c_str());
}

TEST(BinaryFileDataSourceTest, ConcurrentCursorsSeeTheirOwnSlices) {
  Dataset d = testing::UniformDataset(1000, 3, 15);
  const std::string path = testing::UniqueTempDir() + "mrcc_source_mt.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());
  Result<BinaryFileDataSource> file = BinaryFileDataSource::Open(path);
  ASSERT_TRUE(file.ok());

  // Four threads scan disjoint slices through independent cursors; every
  // value must land at its own global index.
  std::vector<double> first_axis(1000, -1.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const size_t begin = 250 * static_cast<size_t>(t);
      const size_t end = begin + 250;
      auto cursor = file->Scan(begin, end);
      ASSERT_TRUE(cursor.ok());
      std::span<const double> point;
      size_t i = begin;
      while ((*cursor)->Next(&point)) first_axis[i++] = point[0];
      EXPECT_EQ(i, end);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < 1000; ++i) {
    ASSERT_DOUBLE_EQ(first_axis[i], d(i, 0)) << "point " << i;
  }
  std::remove(path.c_str());
}

TEST(BinaryFileDataSourceTest, MissingFileFailsOnOpen) {
  EXPECT_FALSE(BinaryFileDataSource::Open("/nonexistent/x.bin").ok());
}

TEST(BinaryFileDataSourceTest, TruncatedFileFailsWithTheByteOffset) {
  // Regression: a partially-written dataset used to scan as zeros past
  // the cut. Now Open rejects it, naming where the data ran out.
  Dataset d = testing::UniformDataset(200, 4, 18);
  const std::string path = testing::UniqueTempDir() + "mrcc_truncated.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());
  // Cut the file mid-way through the point payload.
  const uint64_t cut = 24 + 100 * 4 * sizeof(double) + 3;
  ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(cut)), 0);

  const Result<BinaryFileDataSource> source = BinaryFileDataSource::Open(path);
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kIOError);
  // The message names the byte where data ends and what was promised.
  EXPECT_NE(source.status().message().find(std::to_string(cut)),
            std::string::npos)
      << source.status().ToString();
  EXPECT_NE(source.status().message().find("200 points"), std::string::npos)
      << source.status().ToString();
  std::remove(path.c_str());
}

TEST(BinaryFileDataSourceTest, HeaderOnlyTruncationFailsOnOpen) {
  Dataset d = testing::UniformDataset(50, 2, 19);
  const std::string path = testing::UniqueTempDir() + "mrcc_header_cut.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());
  ASSERT_EQ(truncate(path.c_str(), 10), 0);  // Inside the header.
  const Result<BinaryFileDataSource> source = BinaryFileDataSource::Open(path);
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(BinaryFileDataSourceTest, TransientReadErrorIsRetriedToSuccess) {
  // One injected EAGAIN on the first read: the retry loop in common/fs
  // absorbs it and the scan returns data identical to the clean scan.
  Dataset d = testing::UniformDataset(120, 3, 20);
  const std::string path = testing::UniqueTempDir() + "mrcc_transient.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());
  Result<BinaryFileDataSource> file = BinaryFileDataSource::Open(path);
  ASSERT_TRUE(file.ok());

  auto clean = file->ScanAll();
  ASSERT_TRUE(clean.ok());
  const auto expected = Drain(**clean);

  fp::ScopedArm arm("source.read.transient=1");
  auto retried = file->ScanAll();
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(Drain(**retried), expected);
  EXPECT_TRUE((*retried)->status().ok())
      << (*retried)->status().ToString();
  EXPECT_GT(fp::HitCount("source.read.transient"), 0u);
  std::remove(path.c_str());
}

TEST(BinaryFileDataSourceTest, ExhaustedRetriesSurfaceAsIOError) {
  Dataset d = testing::UniformDataset(60, 3, 22);
  const std::string path = testing::UniqueTempDir() + "mrcc_exhausted.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());
  Result<BinaryFileDataSource> file = BinaryFileDataSource::Open(path);
  ASSERT_TRUE(file.ok());

  fp::ScopedArm arm("source.read.transient");  // Every attempt fails.
  // Scan re-reads the header through the same retrying layer, so with a
  // persistent fault the cursor never comes up — and the error names the
  // exhausted retry budget.
  auto cursor = file->ScanAll();
  ASSERT_FALSE(cursor.ok());
  EXPECT_EQ(cursor.status().code(), StatusCode::kIOError);
  EXPECT_NE(cursor.status().message().find("retries"), std::string::npos)
      << cursor.status().ToString();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// ScanChunks: the out-of-core delivery contract (data_source.h file
// comment) — chunks in order, range covered exactly once, identical
// values on every backend at every chunk size.

/// Replays a ScanChunks call into a flat vector, checking ordering and
/// chunk-size bounds along the way.
std::vector<double> DrainChunks(const DataSource& source, size_t begin,
                                size_t end, size_t chunk_points) {
  std::vector<double> out;
  size_t expect_first = begin;
  const Status status = source.ScanChunks(
      begin, end, chunk_points,
      [&](size_t first, std::span<const double> values) {
        EXPECT_EQ(first, expect_first) << "chunks out of order or overlapping";
        EXPECT_GT(values.size(), 0u);
        EXPECT_EQ(values.size() % source.NumDims(), 0u);
        EXPECT_LE(values.size() / source.NumDims(), chunk_points);
        expect_first = first + values.size() / source.NumDims();
        out.insert(out.end(), values.begin(), values.end());
        return Status::OK();
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(expect_first, end) << "range not covered";
  return out;
}

TEST(ScanChunksTest, EveryBackendDeliversIdenticalChunkStreams) {
  Dataset d = testing::UniformDataset(257, 5, 23);
  const std::string path = testing::UniqueTempDir() + "mrcc_chunks.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());

  MemoryDataSource memory(d);
  Result<BinaryFileDataSource> file = BinaryFileDataSource::Open(path);
  ASSERT_TRUE(file.ok());
  // 96-byte buffer: holds 2 points of 5 doubles, so every chunk request
  // spans several block reads — the re-blocking seam.
  Result<ChunkedBinaryDataSource> chunked =
      ChunkedBinaryDataSource::Open(path, 96);
  ASSERT_TRUE(chunked.ok());
  EXPECT_EQ(chunked->buffer_points(), 2u);
  Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_TRUE(mapped->using_mmap());

  const std::vector<double> expected = DrainChunks(memory, 0, 257, 257);
  ASSERT_EQ(expected.size(), 257u * 5u);
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, size_t{4096}}) {
    SCOPED_TRACE("chunk_points=" + std::to_string(chunk));
    EXPECT_EQ(DrainChunks(memory, 0, 257, chunk), expected);
    EXPECT_EQ(DrainChunks(*file, 0, 257, chunk), expected);
    EXPECT_EQ(DrainChunks(*chunked, 0, 257, chunk), expected);
    EXPECT_EQ(DrainChunks(*mapped, 0, 257, chunk), expected);
  }
  // Sub-ranges, including both ends.
  for (const auto& [begin, end] :
       {std::pair<size_t, size_t>{0, 1}, {256, 257}, {100, 200}}) {
    SCOPED_TRACE("range [" + std::to_string(begin) + ", " +
                 std::to_string(end) + ")");
    const std::vector<double> want(expected.begin() + begin * 5,
                                   expected.begin() + end * 5);
    EXPECT_EQ(DrainChunks(*chunked, begin, end, 3), want);
    EXPECT_EQ(DrainChunks(*mapped, begin, end, 3), want);
  }
  std::remove(path.c_str());
}

TEST(ScanChunksTest, CallbackErrorAbortsTheScanUnchanged) {
  Dataset d = testing::UniformDataset(40, 2, 24);
  MemoryDataSource source(d);
  size_t calls = 0;
  const Status status = source.ScanChunks(
      0, 40, 10, [&](size_t, std::span<const double>) {
        ++calls;
        return calls == 2 ? Status::Internal("stop here") : Status::OK();
      });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "stop here");
  EXPECT_EQ(calls, 2u);  // Nothing delivered past the failure.
}

TEST(ScanChunksTest, ArgumentsAreValidated) {
  Dataset d = testing::UniformDataset(10, 2, 25);
  MemoryDataSource source(d);
  const auto ignore = [](size_t, std::span<const double>) {
    return Status::OK();
  };
  EXPECT_EQ(source.ScanChunks(0, 11, 4, ignore).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(source.ScanChunks(7, 5, 4, ignore).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(source.ScanChunks(0, 10, 0, ignore).code(),
            StatusCode::kInvalidArgument);
  // An empty range is a no-op, not an error.
  EXPECT_TRUE(source.ScanChunks(5, 5, 4, ignore).ok());
}

TEST(ScanChunksTest, ChunkReadFaultSurfacesFromEveryBackend) {
  Dataset d = testing::UniformDataset(30, 3, 26);
  const std::string path = testing::UniqueTempDir() + "mrcc_chunk_fault.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());
  Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(path);
  ASSERT_TRUE(mapped.ok());
  MemoryDataSource memory(d);

  fp::ScopedArm arm("source.chunk.read");
  const auto ignore = [](size_t, std::span<const double>) {
    return Status::OK();
  };
  EXPECT_EQ(memory.ScanChunks(0, 30, 8, ignore).code(),
            StatusCode::kIOError);
  EXPECT_EQ(mapped->ScanChunks(0, 30, 8, ignore).code(),
            StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(MmapFileDataSourceTest, CursorScanMatchesMemory) {
  Dataset d = testing::UniformDataset(128, 4, 27);
  const std::string path = testing::UniqueTempDir() + "mrcc_mmap_scan.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());
  Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(path);
  ASSERT_TRUE(mapped.ok());
  MemoryDataSource memory(d);

  for (const auto& [begin, end] :
       {std::pair<size_t, size_t>{0, 128}, {0, 1}, {127, 128}, {30, 90}}) {
    auto from_map = mapped->Scan(begin, end);
    auto from_memory = memory.Scan(begin, end);
    ASSERT_TRUE(from_map.ok() && from_memory.ok());
    EXPECT_EQ(Drain(**from_map), Drain(**from_memory))
        << "range [" << begin << ", " << end << ")";
  }
  std::remove(path.c_str());
}

TEST(MmapFileDataSourceTest, FallbackServesTheSameBytes) {
  Dataset d = testing::UniformDataset(90, 3, 28);
  const std::string path = testing::UniqueTempDir() + "mrcc_mmap_fb.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());

  Result<MmapFileDataSource> mapped = MmapFileDataSource::Open(path);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(mapped->using_mmap());
  const std::vector<double> expected = DrainChunks(*mapped, 0, 90, 11);

  Result<MmapFileDataSource> fallback(Status::Internal("unset"));
  {
    fp::ScopedArm arm("source.mmap");
    fallback = MmapFileDataSource::Open(path);
  }
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_FALSE(fallback->using_mmap());
  EXPECT_EQ(DrainChunks(*fallback, 0, 90, 11), expected);
  auto cursor = fallback->ScanAll();
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(Drain(**cursor).size(), 90u);
  std::remove(path.c_str());
}

TEST(DatasetReaderSeekTest, SeekToJumpsToPoint) {
  Dataset d = testing::UniformDataset(64, 5, 16);
  const std::string path = testing::UniqueTempDir() + "mrcc_seek.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());
  Result<BinaryDatasetReader> reader = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(reader.ok());

  std::vector<double> point(5);
  ASSERT_TRUE(reader->SeekTo(40).ok());
  EXPECT_EQ(reader->position(), 40u);
  ASSERT_TRUE(reader->Next(point));
  EXPECT_DOUBLE_EQ(point[2], d(40, 2));

  // Seeking to the end is allowed and yields no further points.
  ASSERT_TRUE(reader->SeekTo(64).ok());
  EXPECT_FALSE(reader->Next(point));
  EXPECT_TRUE(reader->status().ok());

  EXPECT_EQ(reader->SeekTo(65).code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mrcc
