// LevelIndex: a packed-key -> cell lookup over one level of a packed
// CountingTree.
//
// The β-cluster search does millions of coordinate queries (2d face
// neighbors per convolved cell, plus parent and growth lookups), all
// against one level at a time. The tree keeps one keyed table per level
// (counting_tree.h), the same table its point insertion probes, so a
// LevelIndex is only a view: O(1) to construct, it allocates nothing and
// answers every query from the tree's own table. A face-neighbor probe
// costs O(1) to form (the packed key ± one field, the additive hash ±
// R_j) and O(d / f) words to confirm, which keeps the face-only Laplacian
// at the paper's O(d) per convolved cell.
//
// Like the LevelView it wraps, the index is valid until the tree's next
// structural mutation. Its layout never decides a response, an argmax or
// a label.

#pragma once

#include <cstdint>

#include "core/counting_tree.h"

namespace mrcc {

class LevelIndex {
 public:
  explicit LevelIndex(const CountingTree::LevelView& view) : view_(view) {}

  int level() const { return view_.level(); }

  /// Number of 64-bit words in one packed key: ceil(d / (64 / level)).
  size_t key_words() const { return view_.key_words(); }

  /// Index of the cell at `coords` (d values in [0, 2^level)), or
  /// -1 when that region holds no points.
  int64_t Find(const uint64_t* coords) const { return view_.Find(coords); }

  /// FaceNeighborOf's answer for a neighbor outside [0, 2^level)^d.
  static constexpr int64_t kOffCube = CountingTree::LevelView::kOffCube;

  /// Index of the face neighbor of cell `cell` along `axis` in
  /// direction `dir` (-1 / +1); -1 when that region holds no points, or
  /// kOffCube when it lies outside the cube.
  int64_t FaceNeighborOf(uint32_t cell, size_t axis, int dir) const {
    return view_.FaceNeighborOf(cell, axis, dir);
  }

  /// The d coordinates of cell `cell`, decoded from its packed key.
  void CoordsInto(uint32_t cell, uint64_t* out) const {
    view_.CoordsInto(cell, out);
  }

  /// Bytes the index holds beyond the tree: only the view itself.
  size_t MemoryBytes() const { return sizeof(*this); }

 private:
  CountingTree::LevelView view_;
};

}  // namespace mrcc
