// Minimum Description Length (MDL) cut of a sorted value array.
//
// MrCC uses MDL to turn the per-axis relevance array into a binary
// relevant/irrelevant decision without a user threshold: the sorted
// relevances are split at the position that minimizes the total description
// length of the two partitions (equivalently, maximizes their homogeneity,
// as the paper phrases it). HARP uses the same primitive to pick each
// cluster's relevant dims.

#pragma once

#include <cstddef>
#include <vector>

namespace mrcc {

/// Description length of encoding `values` against their own mean:
/// log2(1 + mean) for the model plus sum of log2(1 + |v - mean|) per value.
/// An empty range costs 0 bits.
double MdlPartitionCost(const std::vector<double>& values, size_t begin,
                        size_t end);

/// Returns the cut position p (0-based, 0 <= p < values.size()) that
/// minimizes MdlPartitionCost([0,p)) + MdlPartitionCost([p,size)), i.e. the
/// index of the first element of the right (high-value) partition.
///
/// `values` must be sorted in ascending order and non-empty. With the
/// paper's convention, values[p] is the cThreshold: entries >= values[p]
/// form the homogeneous high partition.
size_t MdlBestCut(const std::vector<double>& values);

/// Convenience: the threshold value at the MDL-optimal cut, values[p].
double MdlThreshold(const std::vector<double>& sorted_values);

}  // namespace mrcc

