// The DataSource abstraction: one point-stream interface for every
// dataset backend.
//
// MrCC reads its input exactly twice — once to count points into the
// Counting-tree and once to label them against the final β-cluster boxes —
// and both reads are plain sequential scans. A DataSource captures just
// that contract: it knows its shape (η points × d axes) and streams any
// contiguous point range to a callback in chunks (ScanChunks). At most
// one chunk is resident per scan, so a consumer bounds its raw-point
// memory at chunk_points · d · 8 bytes no matter how large the dataset
// is. Scans over disjoint ranges may run on different threads
// concurrently, which is what the parallel engine shards on.
//
// Two backends:
//   - MemoryDataSource: a zero-copy view over an in-memory Dataset.
//   - ChunkedBinaryDataSource: an out-of-core view over a file written by
//     SaveBinary(); every scan owns its file handle and reads one chunk
//     per pread into a buffer it reuses.
//
// Both honor the `source.scan` failpoint once per scan and the
// `source.chunk.read` failpoint once per delivered chunk (the "this block
// became unreadable" seam), and open a `source.scan_chunk` trace span per
// chunk.
//
// MrCC::Run(const DataSource&) is the single pipeline entry point; the
// in-memory and streaming drivers are thin wrappers over it.

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace mrcc {

/// A readable collection of η points in d dimensions (see file comment).
class DataSource {
 public:
  /// Receives one chunk of points: `first` is the dataset index of the
  /// chunk's first point, `values` holds the points row-major
  /// (values.size() / NumDims() of them). The span is valid only for the
  /// duration of the call. A non-OK return aborts the scan and propagates
  /// out of ScanChunks unchanged.
  using ChunkCallback =
      std::function<Status(size_t first, std::span<const double> values)>;

  virtual ~DataSource() = default;

  /// Human-readable origin of the data ("memory", a file path, ...).
  virtual std::string Name() const = 0;

  virtual size_t NumPoints() const = 0;
  virtual size_t NumDims() const = 0;

  /// Streams points [begin, end) to `fn` in chunks of at most
  /// `chunk_points` (>= 1) points each. Requires
  /// begin <= end <= NumPoints(). Chunks arrive in order and cover the
  /// range exactly once, so any per-point fold over them does not depend
  /// on the chunk size. Concurrent calls over disjoint ranges are safe.
  [[nodiscard]] virtual Status ScanChunks(size_t begin, size_t end,
                                          size_t chunk_points,
                                          const ChunkCallback& fn) const = 0;
};

/// Zero-copy DataSource over an in-memory Dataset. Non-owning: the
/// dataset must outlive the source and every scan.
class MemoryDataSource : public DataSource {
 public:
  explicit MemoryDataSource(const Dataset& data) : data_(&data) {}

  std::string Name() const override { return "memory"; }
  size_t NumPoints() const override { return data_->NumPoints(); }
  size_t NumDims() const override { return data_->NumDims(); }
  /// Chunks are served straight out of the dataset's row-major buffer —
  /// no copies at any chunk size.
  [[nodiscard]] Status ScanChunks(size_t begin, size_t end,
                                  size_t chunk_points,
                                  const ChunkCallback& fn) const override;

  const Dataset& data() const { return *data_; }

 private:
  const Dataset* data_;
};

/// Out-of-core DataSource over a binary dataset file (SaveBinary format).
/// Open validates the header once (ReadBinaryHeader, dataset_io.h); each
/// ScanChunks call opens its own file handle and reads one chunk per
/// pread, so a scan holds chunk_points · d doubles of raw points and
/// sharded scans stream their slices independently.
class ChunkedBinaryDataSource : public DataSource {
 public:
  /// Opens `path` and validates its header.
  [[nodiscard]] static Result<ChunkedBinaryDataSource> Open(
      const std::string& path);

  std::string Name() const override { return path_; }
  size_t NumPoints() const override { return num_points_; }
  size_t NumDims() const override { return num_dims_; }
  [[nodiscard]] Status ScanChunks(size_t begin, size_t end,
                                  size_t chunk_points,
                                  const ChunkCallback& fn) const override;

 private:
  ChunkedBinaryDataSource() = default;

  std::string path_;
  size_t num_points_ = 0;
  size_t num_dims_ = 0;
  uint64_t data_start_ = 0;
};

}  // namespace mrcc
