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

/// Replays a ScanChunks call into a flat vector, checking ordering and
/// chunk-size bounds along the way (the delivery contract in the
/// data_source.h file comment: chunks in order, range covered exactly
/// once).
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

/// Saves `data` under a fresh temp path and opens the file backend on it.
ChunkedBinaryDataSource SaveAndOpen(const Dataset& data,
                                    const std::string& name) {
  const std::string path = testing::UniqueTempDir() + name;
  EXPECT_TRUE(SaveBinary(data, path).ok());
  Result<ChunkedBinaryDataSource> source = ChunkedBinaryDataSource::Open(path);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  return std::move(*source);
}

const auto kIgnoreChunk = [](size_t, std::span<const double>) {
  return Status::OK();
};

TEST(MemoryDataSourceTest, ScansAllPointsInOrder) {
  Dataset d = testing::UniformDataset(100, 4, 11);
  MemoryDataSource source(d);
  EXPECT_EQ(source.NumPoints(), 100u);
  EXPECT_EQ(source.NumDims(), 4u);
  EXPECT_EQ(source.Name(), "memory");

  const std::vector<double> values = DrainChunks(source, 0, 100, 7);
  ASSERT_EQ(values.size(), 100u * 4u);
  for (size_t i = 0; i < 100; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(values[i * 4 + j], d(i, j)) << i << "," << j;
    }
  }
}

TEST(MemoryDataSourceTest, ScanRangeIsHalfOpen) {
  Dataset d = testing::UniformDataset(50, 3, 12);
  MemoryDataSource source(d);
  const std::vector<double> values = DrainChunks(source, 10, 20, 4);
  ASSERT_EQ(values.size(), 10u * 3u);
  EXPECT_DOUBLE_EQ(values[0], d(10, 0));
  EXPECT_DOUBLE_EQ(values[9 * 3], d(19, 0));
}

TEST(MemoryDataSourceTest, EmptyRangeAndBadRange) {
  Dataset d = testing::UniformDataset(10, 2, 13);
  MemoryDataSource source(d);
  size_t calls = 0;
  EXPECT_TRUE(source
                  .ScanChunks(5, 5, 4,
                              [&](size_t, std::span<const double>) {
                                ++calls;
                                return Status::OK();
                              })
                  .ok());
  EXPECT_EQ(calls, 0u);

  // end > NumPoints, then begin > end.
  EXPECT_EQ(source.ScanChunks(5, 11, 4, kIgnoreChunk).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(source.ScanChunks(7, 5, 4, kIgnoreChunk).code(),
            StatusCode::kOutOfRange);
}

// The binary-file backend (ChunkedBinaryDataSource): the same points as
// the memory source, and the read-layer safety contract of common/fs.h.

TEST(BinaryFileDataSourceTest, MatchesMemorySource) {
  Dataset d = testing::UniformDataset(300, 6, 14);
  const std::string path = testing::UniqueTempDir() + "mrcc_source_eq.bin";
  ASSERT_TRUE(SaveBinary(d, path).ok());

  Result<ChunkedBinaryDataSource> file = ChunkedBinaryDataSource::Open(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->NumPoints(), 300u);
  EXPECT_EQ(file->NumDims(), 6u);
  EXPECT_EQ(file->Name(), path);

  MemoryDataSource memory(d);
  // Whole-scan equivalence plus several sub-ranges, including the ends.
  const std::pair<size_t, size_t> ranges[] = {
      {0, 300}, {0, 1}, {299, 300}, {100, 200}, {42, 43}, {150, 150}};
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(DrainChunks(*file, begin, end, 7),
              DrainChunks(memory, begin, end, 7))
        << "range [" << begin << ", " << end << ")";
  }
  std::remove(path.c_str());
}

TEST(BinaryFileDataSourceTest, MissingFileFailsOnOpen) {
  const Result<ChunkedBinaryDataSource> source =
      ChunkedBinaryDataSource::Open("/nonexistent/x.bin");
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kIOError);
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

  const Result<ChunkedBinaryDataSource> source =
      ChunkedBinaryDataSource::Open(path);
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
  const Result<ChunkedBinaryDataSource> source =
      ChunkedBinaryDataSource::Open(path);
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(BinaryFileDataSourceTest, TransientReadErrorIsRetriedToSuccess) {
  // One injected EAGAIN on the first read: the retry loop in common/fs
  // absorbs it and the scan returns data identical to the clean scan.
  Dataset d = testing::UniformDataset(120, 3, 20);
  const ChunkedBinaryDataSource file = SaveAndOpen(d, "mrcc_transient.bin");
  const std::vector<double> expected = DrainChunks(file, 0, 120, 16);

  fp::ScopedArm arm("source.read.transient=1");
  EXPECT_EQ(DrainChunks(file, 0, 120, 16), expected);
  EXPECT_GT(fp::HitCount("source.read.transient"), 0u);
}

TEST(BinaryFileDataSourceTest, ExhaustedRetriesSurfaceAsIOError) {
  Dataset d = testing::UniformDataset(60, 3, 22);
  const ChunkedBinaryDataSource file = SaveAndOpen(d, "mrcc_exhausted.bin");

  fp::ScopedArm arm("source.read.transient");  // Every attempt fails.
  // The first block read exhausts its retry budget; the scan fails
  // before delivering anything, and the error names the budget.
  size_t calls = 0;
  const Status status =
      file.ScanChunks(0, 60, 16, [&](size_t, std::span<const double>) {
        ++calls;
        return Status::OK();
      });
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("retries"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(calls, 0u);
}

// ---------------------------------------------------------------------
// ScanChunks on both backends: identical values at every chunk size,
// including sizes that split one scan into many block reads.

TEST(ScanChunksTest, EveryBackendDeliversIdenticalChunkStreams) {
  Dataset d = testing::UniformDataset(257, 5, 23);
  const MemoryDataSource memory(d);
  const ChunkedBinaryDataSource file = SaveAndOpen(d, "mrcc_chunks.bin");

  const std::vector<double> expected = DrainChunks(memory, 0, 257, 257);
  ASSERT_EQ(expected.size(), 257u * 5u);
  for (size_t chunk : {size_t{1}, size_t{2}, size_t{7}, size_t{64},
                       size_t{4096}}) {
    SCOPED_TRACE("chunk_points=" + std::to_string(chunk));
    EXPECT_EQ(DrainChunks(memory, 0, 257, chunk), expected);
    EXPECT_EQ(DrainChunks(file, 0, 257, chunk), expected);
  }
  // Sub-ranges, including both ends.
  for (const auto& [begin, end] :
       {std::pair<size_t, size_t>{0, 1}, {256, 257}, {100, 200}}) {
    SCOPED_TRACE("range [" + std::to_string(begin) + ", " +
                 std::to_string(end) + ")");
    const std::vector<double> want(expected.begin() + begin * 5,
                                   expected.begin() + end * 5);
    EXPECT_EQ(DrainChunks(memory, begin, end, 3), want);
    EXPECT_EQ(DrainChunks(file, begin, end, 3), want);
  }
}

TEST(ScanChunksTest, ConcurrentScansSeeTheirOwnSlices) {
  Dataset d = testing::UniformDataset(1000, 3, 15);
  const ChunkedBinaryDataSource file = SaveAndOpen(d, "mrcc_source_mt.bin");

  // Four threads scan disjoint slices of one source; every value must
  // land at its own global index.
  std::vector<double> first_axis(1000, -1.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const size_t begin = 250 * static_cast<size_t>(t);
      const Status status = file.ScanChunks(
          begin, begin + 250, 16,
          [&](size_t first, std::span<const double> values) {
            for (size_t i = 0; i < values.size() / 3; ++i) {
              first_axis[first + i] = values[i * 3];
            }
            return Status::OK();
          });
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < 1000; ++i) {
    ASSERT_DOUBLE_EQ(first_axis[i], d(i, 0)) << "point " << i;
  }
}

TEST(ScanChunksTest, CallbackErrorAbortsTheScanUnchanged) {
  Dataset d = testing::UniformDataset(40, 2, 24);
  const MemoryDataSource memory(d);
  const ChunkedBinaryDataSource file = SaveAndOpen(d, "mrcc_abort.bin");
  for (const DataSource* source : {static_cast<const DataSource*>(&memory),
                                   static_cast<const DataSource*>(&file)}) {
    SCOPED_TRACE(source->Name());
    size_t calls = 0;
    const Status status = source->ScanChunks(
        0, 40, 10, [&](size_t, std::span<const double>) {
          ++calls;
          return calls == 2 ? Status::Internal("stop here") : Status::OK();
        });
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_EQ(status.message(), "stop here");
    EXPECT_EQ(calls, 2u);  // Nothing delivered past the failure.
  }
}

TEST(ScanChunksTest, ArgumentsAreValidated) {
  Dataset d = testing::UniformDataset(10, 2, 25);
  const MemoryDataSource memory(d);
  const ChunkedBinaryDataSource file = SaveAndOpen(d, "mrcc_args.bin");
  for (const DataSource* source : {static_cast<const DataSource*>(&memory),
                                   static_cast<const DataSource*>(&file)}) {
    SCOPED_TRACE(source->Name());
    EXPECT_EQ(source->ScanChunks(0, 11, 4, kIgnoreChunk).code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ(source->ScanChunks(7, 5, 4, kIgnoreChunk).code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ(source->ScanChunks(0, 10, 0, kIgnoreChunk).code(),
              StatusCode::kInvalidArgument);
    // An empty range is a no-op, not an error.
    EXPECT_TRUE(source->ScanChunks(5, 5, 4, kIgnoreChunk).ok());
  }
}

TEST(ScanChunksTest, ChunkReadFaultSurfacesFromEveryBackend) {
  Dataset d = testing::UniformDataset(30, 3, 26);
  const MemoryDataSource memory(d);
  const ChunkedBinaryDataSource file = SaveAndOpen(d, "mrcc_chunk_fault.bin");

  fp::ScopedArm arm("source.chunk.read");
  EXPECT_EQ(memory.ScanChunks(0, 30, 8, kIgnoreChunk).code(),
            StatusCode::kIOError);
  EXPECT_EQ(file.ScanChunks(0, 30, 8, kIgnoreChunk).code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace mrcc
