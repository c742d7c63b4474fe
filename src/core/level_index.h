// LevelIndex: a flat packed-key -> cell hash table over one level of a
// packed CountingTree.
//
// CountingTree::FindCell locates a cell by walking down from the root —
// O(level) node lookups per query. The β-cluster search does millions of
// such queries (2d face neighbors per convolved cell, plus parent and
// growth lookups), all against the *same* level, so it pays to spend one
// linear pass per level building a direct table. Every face-neighbor
// probe then costs O(1) to form and O(d / f) words to confirm, which
// keeps the face-only Laplacian at the paper's O(d) per convolved cell.
//
// Key layout. A cell at level h has d coordinates of h bits each. Axis j
// is the h-bit field at bit (j % f) * h of word j / f, with f = 64 / h
// fields per word, so no field straddles a word and a key takes
// ceil(d / f) words (one word at 14d, two at 30d for level 3). The face
// neighbor along axis j is the same key with word j / f changed by
// ±2^((j % f) * h) — no carry, because a coordinate at 0 or 2^h - 1 has
// no neighbor on that side.
//
// Hash. Each cell also stores the additive hash Σ c_j * R_j (mod 2^64),
// where R_j are fixed odd per-axis multipliers, so a neighbor's hash is
// the cell's hash ± R_j. The slot is Mix64(hash) & mask; a probe compares
// the stored hash first and then the key words.
//
// Memory: cells * (key words + 1) uint64 for the records, plus one
// uint32 slot per table entry (a power of two, at least 2 * cells) —
// independent of d while the key word count stays fixed.
//
// The index is a transient, read-side acceleration structure: it lives in
// the search stage (built lazily per level), never inside the tree, so
// tree memory accounting and the budget-pressure behavior are unchanged.
// Its layout never decides a response, an argmax or a label.

#pragma once

#include <cstdint>
#include <vector>

#include "core/counting_tree.h"

namespace mrcc {

class LevelIndex {
 public:
  /// Builds the table from every cell of `view` (one pass, serial —
  /// construction order must not depend on thread count).
  explicit LevelIndex(const CountingTree::LevelView& view);

  int level() const { return level_; }

  /// Number of 64-bit words in one packed key: ceil(d / (64 / level)).
  size_t key_words() const { return words_; }

  /// Arena index of the cell at `coords` (d values in [0, 2^level)), or
  /// -1 when that region holds no points.
  int64_t Find(const uint64_t* coords) const;

  /// FaceNeighborOf's answer for a neighbor outside [0, 2^level)^d,
  /// given without a table lookup.
  static constexpr int64_t kOffCube = -2;

  /// Arena index of the face neighbor of cell `cell` along `axis` in
  /// direction `dir` (-1 / +1); -1 when that region holds no points, or
  /// kOffCube when it lies outside the cube. O(1) to form; one probe
  /// sequence to resolve.
  int64_t FaceNeighborOf(uint32_t cell, size_t axis, int dir) const;

  /// The d coordinates of cell `cell`, decoded from its packed key into
  /// out[0..d). Equal to LevelView::CoordsInto.
  void CoordsInto(uint32_t cell, uint64_t* out) const;

  size_t MemoryBytes() const;

 private:
  static constexpr uint32_t kEmptySlot = ~uint32_t{0};

  // Record of cell i: [hash, key word 0, ..., key word words_ - 1].
  const uint64_t* Record(uint32_t cell) const {
    return records_.data() + static_cast<size_t>(cell) * (words_ + 1);
  }

  // Packs d coordinates into key[0..words_) and returns their hash.
  uint64_t PackKey(const uint64_t* coords, uint64_t* key) const;

  // Cell whose record holds `hash` and the key equal to `key` except that
  // word `word` is `word_value`; -1 when absent.
  int64_t Lookup(uint64_t hash, const uint64_t* key, size_t word,
                 uint64_t word_value) const;

  int level_;
  size_t num_dims_;
  size_t fields_;                  // Fields (axes) per key word: 64 / level.
  size_t words_;                   // Key words per cell.
  uint64_t field_mask_;            // 2^level - 1: the largest coordinate.
  std::vector<uint64_t> records_;  // words_ + 1 per cell, cell-major.
  std::vector<uint32_t> slots_;    // Power-of-two open-addressing table.
};

}  // namespace mrcc
