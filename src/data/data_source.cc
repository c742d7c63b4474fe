#include "data/data_source.h"

#include <algorithm>
#include <vector>

#include "common/failpoint.h"
#include "common/fs.h"
#include "common/trace.h"
#include "data/dataset_io.h"

namespace mrcc {
namespace {

Status CheckChunkArgs(size_t begin, size_t end, size_t num_points,
                      size_t chunk_points) {
  if (begin > end || end > num_points) {
    return Status::OutOfRange("scan range [" + std::to_string(begin) + ", " +
                              std::to_string(end) + ") outside dataset of " +
                              std::to_string(num_points) + " points");
  }
  if (chunk_points == 0) {
    return Status::InvalidArgument("chunk_points must be >= 1");
  }
  return Status::OK();
}

/// Shared tail of both ScanChunks implementations: opens the per-chunk
/// trace span, honors the chunk-delivery failpoint, and hands the chunk
/// to the consumer.
Status EmitChunk(size_t first, size_t count, std::span<const double> values,
                 const DataSource::ChunkCallback& fn) {
  MRCC_TRACE_SPAN_N("source.scan_chunk", static_cast<int64_t>(count));
  MRCC_RETURN_IF_ERROR(fp::Maybe("source.chunk.read"));
  return fn(first, values);
}

}  // namespace

Status MemoryDataSource::ScanChunks(size_t begin, size_t end,
                                    size_t chunk_points,
                                    const ChunkCallback& fn) const {
  MRCC_RETURN_IF_ERROR(CheckChunkArgs(begin, end, NumPoints(), chunk_points));
  MRCC_RETURN_IF_ERROR(fp::Maybe("source.scan"));
  const size_t num_dims = NumDims();
  size_t next = begin;
  while (next < end) {
    const size_t count = std::min(chunk_points, end - next);
    // Rows are contiguous in the dataset's flat buffer, so a multi-row
    // span is just the first row widened.
    const std::span<const double> values(data_->Point(next).data(),
                                         count * num_dims);
    MRCC_RETURN_IF_ERROR(EmitChunk(next, count, values, fn));
    next += count;
  }
  return Status::OK();
}

Result<ChunkedBinaryDataSource> ChunkedBinaryDataSource::Open(
    const std::string& path) {
  Result<UniqueFd> fd = OpenForRead(path);
  if (!fd.ok()) return fd.status();
  Result<BinaryHeader> header = ReadBinaryHeader(fd->get(), path);
  if (!header.ok()) return header.status();
  ChunkedBinaryDataSource source;
  source.path_ = path;
  source.num_points_ = header->num_points;
  source.num_dims_ = header->num_dims;
  source.data_start_ = header->data_start;
  return source;
}

Status ChunkedBinaryDataSource::ScanChunks(size_t begin, size_t end,
                                           size_t chunk_points,
                                           const ChunkCallback& fn) const {
  MRCC_RETURN_IF_ERROR(CheckChunkArgs(begin, end, num_points_, chunk_points));
  MRCC_RETURN_IF_ERROR(fp::Maybe("source.scan"));
  Result<UniqueFd> fd = OpenForRead(path_);
  if (!fd.ok()) return fd.status();
  const uint64_t point_bytes = num_dims_ * sizeof(double);
  // One chunk buffer reused across the whole scan (no per-chunk
  // allocation); a short final chunk reads a prefix of it.
  std::vector<double> buffer(std::min(chunk_points, end - begin) * num_dims_);
  size_t next = begin;
  while (next < end) {
    const size_t count = std::min(chunk_points, end - next);
    MRCC_RETURN_IF_ERROR(ReadExactAt(fd->get(), buffer.data(),
                                     count * point_bytes,
                                     data_start_ + next * point_bytes, path_));
    MRCC_RETURN_IF_ERROR(EmitChunk(
        next, count, std::span<const double>(buffer.data(), count * num_dims_),
        fn));
    next += count;
  }
  return Status::OK();
}

}  // namespace mrcc
