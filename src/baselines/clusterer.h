// Factory over every implemented clustering method: MrCC and the five
// competitors of the paper's evaluation (§IV).
//
// The competitors (CFPC, HARP, LAC, EPCH, P3C) are clean-room
// implementations of the original publications. Tuning follows §IV-E:
// methods that require the number of clusters receive the ground-truth k,
// HARP additionally receives the known noise percentage.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/subspace_clusterer.h"

namespace mrcc {

/// Dataset-level hints handed to methods that need them (paper §IV-E).
struct MethodTuning {
  /// Ground-truth number of clusters (LAC, EPCH, CFPC, HARP). Ignored by
  /// parameter-free methods.
  size_t num_clusters = 5;

  /// Known noise fraction (HARP's maximum noise percentile).
  double noise_fraction = 0.15;

  /// Seed for randomized methods (CFPC, LAC init).
  uint64_t seed = 7;
};

/// The six methods compared in the paper's evaluation (MrCC + the five
/// competitors) — every method this library implements.
std::vector<std::string> PaperMethodNames();

/// Instantiates a method by name with default internal parameters and the
/// given dataset hints. Unknown names yield InvalidArgument.
[[nodiscard]] Result<std::unique_ptr<SubspaceClusterer>> MakeClusterer(
    const std::string& name, const MethodTuning& tuning);

}  // namespace mrcc
