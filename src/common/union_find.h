// Disjoint-set (union-find) with path compression and union by rank.
//
// Used by MrCC's final phase to merge β-clusters that share data space into
// correlation clusters.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mrcc {

/// Disjoint-set forest over the integers [0, size).
class UnionFind {
 public:
  /// Creates `size` singleton sets.
  explicit UnionFind(size_t size);

  /// Representative of x's set (with path compression).
  size_t Find(size_t x);

  /// Merges the sets containing x and y. Returns true if they were
  /// previously distinct.
  bool Union(size_t x, size_t y);

  /// True if x and y are in the same set.
  bool Connected(size_t x, size_t y);

  /// Number of disjoint sets currently alive.
  size_t NumSets() const { return num_sets_; }

  /// Total number of elements.
  size_t Size() const { return parent_.size(); }

  /// Maps each element to a dense set id in [0, NumSets()), numbered by
  /// first appearance. Useful for relabeling cluster ids contiguously.
  std::vector<size_t> DenseIds();

 private:
  std::vector<size_t> parent_;
  std::vector<uint8_t> rank_;
  size_t num_sets_;
};

}  // namespace mrcc

