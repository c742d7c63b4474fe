// Benchmark inputs: generated from a seed, written as the program's binary
// format, and cached by config fingerprint.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/generator.h"

namespace perfbench {

/// FNV-1a over raw bytes, continuing from `h`.
uint64_t Fnv1a(const void* data, size_t len,
               uint64_t h = 0xcbf29ce484222325ULL);

/// FNV-1a of a label vector.
inline uint64_t LabelsHash(const std::vector<int>& labels) {
  return Fnv1a(labels.data(), labels.size() * sizeof(int));
}

/// Paths of one cached dataset: the points file the program reads (no
/// ground truth in it) and the benchmark's ground-truth sidecar.
struct DatasetFiles {
  std::string points;
  std::string truth;
  bool generated = false;  // False when both were already cached.
};

/// Generates the dataset for `config` with GenerateSynthetic, shuffles its
/// points with an Rng seeded by `order_seed`, and writes it into `dir`,
/// unless its fingerprint is cached there already. Keeps at most a few
/// datasets in `dir`, dropping the least recently used.
mrcc::Result<DatasetFiles> EnsureDataset(const mrcc::SyntheticConfig& config,
                                         uint64_t order_seed,
                                         const std::string& dir);

/// Reads the ground truth written by EnsureDataset.
mrcc::Result<mrcc::Clustering> LoadTruth(const std::string& path);

/// Copies points [begin, end) of `data` into a new dataset.
mrcc::Dataset Slice(const mrcc::Dataset& data, size_t begin, size_t end);

}  // namespace perfbench
