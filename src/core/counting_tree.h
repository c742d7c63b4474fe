// The Counting-tree (paper §III-A): a sparse, quadtree-like multi-
// resolution hyper-grid over [0,1)^d.
//
// Level h (1 <= h <= H-1) covers the unit cube with cells of side 1/2^h.
// Only non-empty cells are materialized, so each level holds at most eta
// cells regardless of the 2^(d h) nominal grid size. Each cell stores
//   - its key:  the packed absolute cell coordinate (below),
//   - n:        the number of points in its space,
//   - P[j]:     the half-space count — points in the lower half of the
//               cell along axis e_j,
//   - used:     the usedCell flag consumed by the β-cluster search,
//   - child:    the node refining this cell at level h+1 (if any).
// The paper's loc (position bits inside the parent) is the low bit of
// each coordinate, so it is decoded from the key rather than stored.
//
// Storage: one keyed cell table per level. Every level owns packed
// parallel arrays (key record, n, child, used, owning node, d half-space
// counts per cell) plus one open-addressing table of cell indices keyed
// by the packed absolute coordinate. Axis j of a level-h key is the h-bit
// field at bit (j % f) * h of word j / f, with f = 64 / h fields per word
// (no field straddles a word; ceil(d / f) words per key). Each record also
// stores the additive hash Σ c_j * R_j (mod 2^64) with fixed odd per-axis
// multipliers R_j, so a face neighbor's key is one word ± 2^((j % f) * h)
// and its hash is the cell's hash ± R_j: the table answers a point's
// insertion (one probe per level), the β-search's face-neighbor, parent
// and growth probes, and the merge's cell matching, each in O(1) to form
// and O(d / f) words to confirm.
//
// A node (the paper's linked list of sibling cells sharing one parent
// cell) is reduced to a level slice [first, first + count) of its level's
// arrays; the pool order of the nodes is their creation order, which
// child pointers and the serialized layout refer to.
//
// During construction cells append to their level in point-stream order,
// which interleaves the slices of different nodes; Builder::Finish (and
// every other structural mutation: Seal, MergeTree) then *packs* each
// level into the canonical order — nodes in creation order, cells in
// creation order within their node — with one stable counting sort by
// owning node. That order is load-bearing: the β-search argmax breaks
// ties by the lowest cell index in exactly this enumeration, so packing is
// what keeps results bit-identical across serial, sharded and reloaded
// builds. All public read access requires a packed tree; the only
// sanctioned way to read cells is the LevelView / CellRef API below.
//
// The tree is built in a single scan of the data: O(eta * H * d) time
// and O(H * eta * d) space, matching Algorithm 1.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace mrcc {

struct MergeTreeStats;  // tree_io.h

/// Sparse multi-resolution grid of point counts (see file comment).
class CountingTree {
  struct LevelTable;  // One level's cell storage (private; see below).

 public:
  /// Deepest representable level. Beyond ~52 subdivisions cell boundaries
  /// fall below the double mantissa, so deeper levels carry no information;
  /// 62 keeps integer cell coordinates inside a uint64_t.
  static constexpr int kMaxResolutions = 62;

  /// Maximum dataset dimensionality (loc packs one bit per axis).
  static constexpr size_t kMaxDims = 62;

  /// A located cell: its level and its index in that level's arrays.
  /// Indices are stable between structural mutations (pack order only
  /// changes when the tree itself does).
  struct CellRef {
    int level = 0;
    uint32_t index = 0;
  };

  /// Read-only view over one level's packed cells — the sanctioned way
  /// to enumerate cells. All spans are parallel: entry i of each span
  /// describes the same cell, and i is the canonical enumeration index
  /// (nodes in creation order, cells in creation order within a node)
  /// that the β-search tie-break and the serialized layout rely on.
  /// A view is O(1) to construct and stays valid until the next
  /// structural mutation (insert, merge, level drop).
  class LevelView {
   public:
    int level() const { return level_; }
    size_t num_cells() const;
    size_t num_dims() const { return num_dims_; }

    /// Number of 64-bit words in one packed key: ceil(d / (64 / level)).
    size_t key_words() const;

    /// Position bits of cell i inside its parent cell (bit j = lowest bit
    /// of coordinate j), decoded from the key.
    uint64_t loc(uint32_t i) const;

    /// Point count n of each cell.
    std::span<const uint32_t> counts() const;

    /// Index of the node refining each cell at level + 1, or -1.
    std::span<const int32_t> children() const;

    /// usedCell flags (0 / 1), owned by the β-search.
    std::span<const uint8_t> used() const;

    /// Half-space counts, cell-major: d consecutive entries per cell,
    /// half()[i * d + j] = points of cell i in its lower half along e_j.
    /// Cell-major (not axis-major) because every consumer — the point
    /// insertion, the binomial test, the merge, serialization — touches
    /// all d axes of one cell at a time.
    std::span<const uint32_t> half() const;

    /// The d half-space counts of cell i.
    std::span<const uint32_t> half_of(uint32_t i) const;

    /// Absolute integer coordinates (in [0, 2^level)) of cell i, decoded
    /// from its key into out[0..d). The allocation-free form for hot loops.
    void CoordsInto(uint32_t i, uint64_t* out) const;

    std::vector<uint64_t> Coords(uint32_t i) const;

    /// Index of the cell at `coords` (d values), or -1 when that region
    /// holds no points or lies outside [0, 2^level)^d.
    int64_t Find(const uint64_t* coords) const;

    /// FaceNeighborOf's answer for a neighbor outside [0, 2^level)^d,
    /// given without a table lookup.
    static constexpr int64_t kOffCube = -2;

    /// Index of the face neighbor of cell `cell` along `axis` in
    /// direction `dir` (-1 / +1); -1 when that region holds no points, or
    /// kOffCube when it lies outside the cube. O(1) to form; one probe
    /// sequence to resolve.
    int64_t FaceNeighborOf(uint32_t cell, size_t axis, int dir) const;

    CellRef ref(uint32_t i) const { return CellRef{level_, i}; }

   private:
    friend class CountingTree;
    LevelView(const CountingTree* tree, int level);

    const LevelTable* table_;
    size_t num_dims_;
    int level_;
  };

  /// Builds the tree over `data` with `num_resolutions` = H resolutions
  /// (levels 1..H-1 are materialized; the paper requires H >= 3).
  /// `data` must lie in [0,1)^d with d <= kMaxDims.
  [[nodiscard]] static Result<CountingTree> Build(const Dataset& data,
                                                  int num_resolutions);

  /// Incremental construction for streamed data (one point at a time, any
  /// source). Points must lie in [0,1)^d.
  class Builder {
   public:
    /// Validates (d, H) like Build(); check status() before adding.
    Builder(size_t num_dims, int num_resolutions);

    const Status& status() const { return status_; }

    /// Counts one point into the tree. Rejects out-of-cube values.
    [[nodiscard]] Status Add(std::span<const double> point);

    /// Finalizes (packs the levels) and returns the tree. The builder is
    /// consumed.
    [[nodiscard]] Result<CountingTree> Finish() &&;

   private:
    Status status_;
    std::unique_ptr<CountingTree> tree_;
  };

  /// Incremental maintenance: counts one more point into an already-built
  /// tree. The tree re-enters construction mode on the first Insert; call
  /// Seal() before any read access (Level, FindCell, the β-search). A
  /// sealed tree that received inserts is cell-for-cell identical to one
  /// built from the concatenation of the original stream and the inserted
  /// points — the canonical pack order depends only on cell creation
  /// order, which appending preserves. Points must lie in [0,1)^d.
  [[nodiscard]] Status Insert(std::span<const double> point);

  /// Counts `values.size() / num_dims()` points laid out row-major (the
  /// ScanChunks chunk shape). On a bad point the batch stops there:
  /// points before it stay counted, the rest are not.
  [[nodiscard]] Status InsertBatch(std::span<const double> values);

  /// Packs the tree back into canonical (readable) order after Insert
  /// calls and clears the β-search's used flags. No-op on a sealed tree.
  void Seal();

  /// False while unsealed Insert()s are pending.
  bool sealed() const { return packed_; }

  /// Number of resolutions H (the root counts as resolution 0).
  int num_resolutions() const { return num_resolutions_; }

  /// Dataset dimensionality d.
  size_t num_dims() const { return num_dims_; }

  /// Total points counted (eta).
  uint64_t total_points() const { return total_points_; }

  /// Number of nodes in the pool (the root included).
  size_t num_nodes() const { return nodes_.size(); }

  /// View over the cells of level h (1 <= h < num_resolutions).
  LevelView Level(int h) const;

  /// Number of materialized (non-empty) cells at level h.
  size_t NumCellsAtLevel(int h) const;

  // Single-cell accessors via CellRef (the view's spans are the bulk
  // path; these are for located cells).
  uint32_t Count(CellRef ref) const;
  uint64_t Loc(CellRef ref) const;
  int32_t Child(CellRef ref) const;
  bool Used(CellRef ref) const;
  void SetUsed(CellRef ref, bool used);

  /// Half-space count P[axis] of the referenced cell.
  uint32_t HalfCount(CellRef ref, size_t axis) const;

  /// Absolute integer coordinates (in [0, 2^level)) of the cell.
  std::vector<uint64_t> CellCoords(CellRef ref) const;

  /// Locates the cell at `coords` on `level`. Returns true and fills `ref`
  /// when that region holds points. One level-table probe: O(d).
  bool FindCell(int level, const std::vector<uint64_t>& coords,
                CellRef* ref) const;

  /// The face neighbor of the cell at `coords` (level `level`) along
  /// `axis`, in direction `dir` (-1 = lower, +1 = upper). Returns false
  /// when outside the cube or not materialized. Covers both the paper's
  /// internal neighbor (same parent) and external neighbor (adjacent
  /// parent) transparently.
  bool FaceNeighbor(int level, const std::vector<uint64_t>& coords,
                    size_t axis, int dir, CellRef* ref) const;

  /// Point count of the face neighbor, 0 when absent.
  uint32_t FaceNeighborCount(int level, const std::vector<uint64_t>& coords,
                             size_t axis, int dir) const;

  /// Clears every usedCell flag (lets one tree serve several runs).
  void ResetUsedFlags();

  /// Removes the deepest materialized level (H := H - 1) and frees its
  /// nodes — the graceful-degradation lever under memory pressure: the
  /// paper's H trades resolution for resources, and counts at the
  /// remaining levels are untouched, so the result equals a tree built
  /// with the smaller H from the start (cell for cell — the surviving
  /// levels and the node pool keep their order). Fails when H is already
  /// the minimum 3.
  [[nodiscard]] Status DropDeepestLevel();

  /// Full structural walk of every invariant the core relies on: packed
  /// level consistency (node slices tile each level in pool order, the
  /// key table finds every cell), half-space counts P[j] <= n, child
  /// levels and coordinates, child nodes created after their parents,
  /// child count sums equal to the parent cell count, single-parent
  /// linkage and the total-point count. O(cells * d) — debug/validation tool, not a
  /// hot-path call. Returns OK or Internal naming the first violated
  /// invariant. Builder::Finish and MergeTree run it in debug builds;
  /// LoadTree runs it unconditionally to reject corrupt files.
  [[nodiscard]] Status ValidateInvariants() const;

  /// Approximate heap footprint of the tree in bytes.
  size_t MemoryBytes() const;

  /// Test-only mutable access to the raw cell arrays, for corrupting a tree
  /// in invariant/robustness tests. Not part of the supported API.
  struct TestPeer;

 private:
  /// A node: the sibling cells sharing one parent cell, as the slice
  /// [first, first + count) of its level's cell arrays (packed trees).
  struct Node {
    int32_t level = 1;
    uint32_t first = 0;
    uint32_t count = 0;
  };

  /// One level's cells: parallel arrays in cell order plus the keyed
  /// open-addressing table over them (see the file comment).
  struct LevelTable {
    static constexpr uint32_t kEmptySlot = ~uint32_t{0};

    int level = 0;
    size_t fields = 0;        // Axes per key word: 64 / level.
    size_t words = 0;         // Key words per cell.
    uint64_t field_mask = 0;  // 2^level - 1: the largest coordinate.

    std::vector<uint64_t> keys;  // words + 1 per cell: [hash, key words].
    std::vector<uint32_t> n;
    std::vector<int32_t> child;
    std::vector<uint8_t> used;
    std::vector<uint32_t> owner;  // Node owning each cell.
    std::vector<uint32_t> half;   // d per cell, cell-major.
    std::vector<uint32_t> slots;  // Power-of-two table of cell indices.
    size_t packed_cells = 0;      // Cells already in canonical order.

    size_t size() const { return n.size(); }
    const uint64_t* Record(uint32_t cell) const {
      return keys.data() + static_cast<size_t>(cell) * (words + 1);
    }
    /// Packs d coordinates into key[0..words) and returns their hash.
    uint64_t PackKey(const uint64_t* coords, size_t d, uint64_t* key) const;
    /// Home slot of a hash: a 64-bit finalizer spreads the additive hash.
    size_t HomeSlot(uint64_t hash) const {
      hash ^= hash >> 33;
      hash *= 0xff51afd7ed558ccdull;
      hash ^= hash >> 33;
      hash *= 0xc4ceb9fe1a85ec53ull;
      hash ^= hash >> 33;
      return static_cast<size_t>(hash) & (slots.size() - 1);
    }
    /// Cell whose record holds `hash` and the key equal to `key` except
    /// that word `word` is `word_value`; -1 when absent.
    int64_t Lookup(uint64_t hash, const uint64_t* key, size_t word,
                   uint64_t word_value) const {
      const size_t mask = slots.size() - 1;
      for (size_t s = HomeSlot(hash);; s = (s + 1) & mask) {
        const uint32_t cell = slots[s];
        if (cell == kEmptySlot) return -1;
        const uint64_t* rec = Record(cell);
        if (rec[0] != hash || rec[1 + word] != word_value) continue;
        size_t k = 0;
        while (k < words && (k == word || rec[1 + k] == key[k])) ++k;
        if (k == words) return static_cast<int64_t>(cell);
      }
    }
    int64_t Find(uint64_t hash, const uint64_t* key) const {
      return Lookup(hash, key, 0, key[0]);
    }
    /// Sizes the slot table for `cells` cells (load <= 1/2) and rehashes.
    void ReserveSlots(size_t cells);
    /// Enters cell `cell` (its record already stored) into the table.
    void InsertSlot(uint32_t cell);
    size_t MemoryBytes() const;
  };

  /// R_j of the additive key hash: fixed odd per-axis multipliers.
  static const std::array<uint64_t, kMaxDims> kAxisMultiplier;

  CountingTree(size_t num_dims, int num_resolutions);

  // Persistence and merging need raw access to the levels (tree_io.h).
  friend std::string SerializeTree(const CountingTree& tree);
  friend Result<CountingTree> ParseTree(const std::string& bytes,
                                        const std::string& path);
  friend Result<MergeTreeStats> MergeTree(CountingTree* tree,
                                          const CountingTree& other);

  /// Inserts one point (unpacked trees only); see Build.
  void InsertPoint(std::span<const double> point);

  /// Appends a cell with the given key record (hash, key words) to level
  /// h, owned by node `owner`, and returns its index. Counts start at 0.
  uint32_t AppendCell(int h, const uint64_t* record, uint32_t owner,
                      int32_t child);

  /// Sorts every level with new cells into canonical enumeration order
  /// (nodes in creation order, cells in creation order within their node)
  /// by one stable counting sort on the owning node, and assigns the node
  /// slices. After this the tree is readable; see the file comment for
  /// why the order is bit-identity-critical.
  void Pack();

  size_t num_dims_;
  int num_resolutions_;
  uint64_t total_points_ = 0;
  bool packed_ = false;
  std::vector<Node> nodes_;  // Creation (pool) order; nodes_[0] is the root.
  std::vector<LevelTable> levels_;  // levels_[h], h >= 1.
  // InsertPoint buffers, reused across points: no per-point allocation.
  std::vector<uint64_t> grid_scratch_;    // d binary expansions.
  std::vector<uint64_t> record_scratch_;  // One key record per level.
  std::vector<uint8_t> bits_scratch_;     // d next-level digits.
};

inline int64_t CountingTree::LevelView::FaceNeighborOf(uint32_t cell,
                                                       size_t axis,
                                                       int dir) const {
  const LevelTable& t = *table_;
  const uint64_t* rec = t.Record(cell);
  const size_t word = axis / t.fields;
  const size_t shift = (axis % t.fields) * static_cast<size_t>(level_);
  const uint64_t coord = (rec[1 + word] >> shift) & t.field_mask;
  const uint64_t step = uint64_t{1} << shift;
  if (dir < 0) {
    if (coord == 0) return kOffCube;
    return t.Lookup(rec[0] - kAxisMultiplier[axis], rec + 1, word,
                    rec[1 + word] - step);
  }
  if (coord == t.field_mask) return kOffCube;
  return t.Lookup(rec[0] + kAxisMultiplier[axis], rec + 1, word,
                  rec[1 + word] + step);
}

/// Mutation hooks for tests that corrupt a tree on purpose (invariant
/// detection, robustness). Kept out of the main API so production code
/// cannot reach mutable storage; lint bans raw-field access elsewhere.
struct CountingTree::TestPeer {
  static uint32_t& Count(CountingTree& tree, CellRef ref) {
    return tree.levels_[static_cast<size_t>(ref.level)].n[ref.index];
  }
  static int32_t& Child(CountingTree& tree, CellRef ref) {
    return tree.levels_[static_cast<size_t>(ref.level)].child[ref.index];
  }
  static uint32_t& Half(CountingTree& tree, CellRef ref, size_t axis) {
    return tree.levels_[static_cast<size_t>(ref.level)]
        .half[ref.index * tree.num_dims_ + axis];
  }
  static void SetUsedRaw(CountingTree& tree, CellRef ref, uint8_t value) {
    tree.levels_[static_cast<size_t>(ref.level)].used[ref.index] = value;
  }
};

}  // namespace mrcc
