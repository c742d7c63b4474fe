// Dataset serialization: CSV (interchange) and a compact binary format.
//
// CSV layout: one point per row, `d` comma-separated values; when a
// clustering is saved alongside, a trailing integer column carries the
// cluster label (-1 = noise).
//
// Binary layout (little-endian host order):
//   magic "MRCC" | u32 version | u64 num_points | u64 num_dims
//   | num_points * num_dims f64 values | u8 has_labels
//   | (if has_labels) num_points i32 labels
//
// ReadBinaryHeader is the format's one parser: LoadBinary and the
// out-of-core ChunkedBinaryDataSource (data_source.h) both go through
// it, so a malformed file fails the same way, with the same message,
// whichever reader meets it.

#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace mrcc {

/// Writes `data` as CSV. When `labels` is non-null it must have one entry
/// per point and is appended as the last column.
[[nodiscard]] Status SaveCsv(const Dataset& data, const std::string& path,
               const std::vector<int>* labels = nullptr);

/// Reads a CSV file written by SaveCsv (or any numeric CSV). When
/// `has_label_column` is true the last column is parsed into `labels`.
[[nodiscard]] Result<Dataset> LoadCsv(const std::string& path,
                        bool has_label_column = false,
                        std::vector<int>* labels = nullptr);

/// Writes the binary format described above.
[[nodiscard]] Status SaveBinary(const Dataset& data, const std::string& path,
                  const std::vector<int>* labels = nullptr);

/// Shape of a binary dataset file, as validated by ReadBinaryHeader.
struct BinaryHeader {
  size_t num_points = 0;
  size_t num_dims = 0;
  /// Byte offset of the first point's data (the end of the header).
  uint64_t data_start = 0;
};

/// Parses the header of the binary dataset file open as `fd` and checks
/// that the file is long enough for the points it declares, so a
/// truncated file fails here with its exact byte deficit instead of
/// mid-scan. Rejects a bad magic, an unsupported version, points with
/// zero dimensions and counts whose byte size would overflow. Reads go
/// through ReadExactAt (common/fs.h); `path` is for messages only.
[[nodiscard]] Result<BinaryHeader> ReadBinaryHeader(int fd,
                                                    const std::string& path);

/// Reads the binary format. Labels are returned through `labels` when
/// present in the file and `labels` is non-null.
[[nodiscard]] Result<Dataset> LoadBinary(const std::string& path,
                           std::vector<int>* labels = nullptr);

}  // namespace mrcc

