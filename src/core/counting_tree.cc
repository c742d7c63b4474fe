#include "core/counting_tree.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string>

#include "common/check.h"
#include "common/simd.h"

namespace mrcc {
namespace {

// Debug-build hook shared by Builder::Finish, Seal and DropDeepestLevel: a
// structural violation at these points is a construction bug, so abort
// with the invariant's message rather than return a Status the caller
// would have to treat as an input error.
void DCheckInvariants(const CountingTree& tree) {
#ifndef NDEBUG
  const Status v = tree.ValidateInvariants();
  if (!v.ok()) {
    internal::CheckFailed(__FILE__, __LINE__, "ValidateInvariants()",
                          v.message().c_str());
  }
#else
  (void)tree;
#endif
}

// R_j of the additive hash, drawn from a SplitMix64 sequence.
constexpr std::array<uint64_t, CountingTree::kMaxDims> MakeAxisMultipliers() {
  std::array<uint64_t, CountingTree::kMaxDims> r{};
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (uint64_t& m : r) {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    m = (z ^ (z >> 31)) | 1;
  }
  return r;
}

// Scatters `in` (stride values per cell) to position pos[i] of a fresh,
// exactly sized vector.
template <typename T>
void Permute(std::vector<T>* v, const std::vector<uint32_t>& pos,
             size_t stride) {
  std::vector<T> out(v->size());
  for (size_t i = 0; i < pos.size(); ++i) {
    std::memcpy(&out[static_cast<size_t>(pos[i]) * stride], &(*v)[i * stride],
                stride * sizeof(T));
  }
  *v = std::move(out);
}

}  // namespace

// ---------------------------------------------------------------------------
// LevelTable: the keyed cell table of one level.

const std::array<uint64_t, CountingTree::kMaxDims>
    CountingTree::kAxisMultiplier = MakeAxisMultipliers();

uint64_t CountingTree::LevelTable::PackKey(const uint64_t* coords, size_t d,
                                           uint64_t* key) const {
  uint64_t hash = 0;
  for (size_t w = 0, j = 0; w < words; ++w) {
    uint64_t word = 0;
    for (size_t f = 0; f < fields && j < d; ++f, ++j) {
      word |= coords[j] << (f * static_cast<size_t>(level));
      hash += coords[j] * kAxisMultiplier[j];
    }
    key[w] = word;
  }
  return hash;
}

void CountingTree::LevelTable::ReserveSlots(size_t cells) {
  size_t cap = 16;
  while (cap < cells * 2) cap <<= 1;
  if (cap <= slots.size()) return;
  slots.assign(cap, kEmptySlot);
  for (uint32_t i = 0; i < size(); ++i) InsertSlot(i);
}

void CountingTree::LevelTable::InsertSlot(uint32_t cell) {
  const size_t mask = slots.size() - 1;
  size_t s = HomeSlot(Record(cell)[0]);
  while (slots[s] != kEmptySlot) s = (s + 1) & mask;
  slots[s] = cell;
}

size_t CountingTree::LevelTable::MemoryBytes() const {
  return keys.capacity() * sizeof(uint64_t) + n.capacity() * sizeof(uint32_t) +
         child.capacity() * sizeof(int32_t) + used.capacity() +
         owner.capacity() * sizeof(uint32_t) +
         half.capacity() * sizeof(uint32_t) +
         slots.capacity() * sizeof(uint32_t);
}

// ---------------------------------------------------------------------------
// Construction.

CountingTree::CountingTree(size_t num_dims, int num_resolutions)
    : num_dims_(num_dims),
      num_resolutions_(num_resolutions),
      levels_(static_cast<size_t>(num_resolutions)) {
  for (int h = 1; h < num_resolutions; ++h) {
    LevelTable& t = levels_[static_cast<size_t>(h)];
    t.level = h;
    t.fields = 64 / static_cast<size_t>(h);
    t.words = (num_dims + t.fields - 1) / t.fields;
    t.field_mask = (uint64_t{1} << h) - 1;
    t.ReserveSlots(0);
  }
}

CountingTree::Builder::Builder(size_t num_dims, int num_resolutions) {
  if (num_resolutions < 3) {
    status_ = Status::InvalidArgument("num_resolutions (H) must be >= 3");
    return;
  }
  if (num_dims == 0 || num_dims > kMaxDims) {
    status_ = Status::InvalidArgument(
        "dimensionality must be in [1, " + std::to_string(kMaxDims) + "]");
    return;
  }
  // Clamp to the deepest meaningful resolution (see kMaxResolutions): the
  // paper likewise allows truncating the tree to fit resources.
  const int h_effective = std::min(num_resolutions, kMaxResolutions + 1);
  tree_.reset(new CountingTree(num_dims, h_effective));
  tree_->nodes_.push_back(Node{});  // The root: level 1, no cells yet.
}

Status CountingTree::Builder::Add(std::span<const double> point) {
  MRCC_RETURN_IF_ERROR(status_);
  return tree_->Insert(point);
}

Result<CountingTree> CountingTree::Builder::Finish() && {
  MRCC_RETURN_IF_ERROR(status_);
  tree_->Seal();
  return std::move(*tree_);
}

Status CountingTree::Insert(std::span<const double> point) {
  if (point.size() != num_dims_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  for (double v : point) {
    if (!(v >= 0.0 && v < 1.0)) {
      return Status::InvalidArgument(
          "points must be normalized to [0,1)^d before insertion");
    }
  }
  packed_ = false;
  InsertPoint(point);
  return Status::OK();
}

Status CountingTree::InsertBatch(std::span<const double> values) {
  if (values.size() % num_dims_ != 0) {
    return Status::InvalidArgument(
        "batch of " + std::to_string(values.size()) +
        " values is not a whole number of " + std::to_string(num_dims_) +
        "-dimensional points");
  }
  for (size_t off = 0; off < values.size(); off += num_dims_) {
    MRCC_RETURN_IF_ERROR(Insert(values.subspan(off, num_dims_)));
  }
  return Status::OK();
}

void CountingTree::Seal() {
  if (packed_) return;
  Pack();
  // A search may have marked cells before the inserts; new cells start
  // unused, so clear everything for the next search.
  ResetUsedFlags();
  DCheckInvariants(*this);
}

Result<CountingTree> CountingTree::Build(const Dataset& data,
                                         int num_resolutions) {
  if (!data.InUnitCube()) {
    return Status::InvalidArgument(
        "dataset must be normalized to [0,1)^d before building the tree");
  }
  Builder builder(data.NumDims(), num_resolutions);
  MRCC_RETURN_IF_ERROR(builder.status());
  for (size_t i = 0; i < data.NumPoints(); ++i) {
    MRCC_RETURN_IF_ERROR(builder.Add(data.Point(i)));
  }
  return std::move(builder).Finish();
}

uint32_t CountingTree::AppendCell(int h, const uint64_t* record,
                                  uint32_t owner, int32_t child) {
  LevelTable& t = levels_[static_cast<size_t>(h)];
  const auto cell = static_cast<uint32_t>(t.size());
  t.keys.insert(t.keys.end(), record, record + t.words + 1);
  t.n.push_back(0);
  t.child.push_back(child);
  t.used.push_back(0);
  t.owner.push_back(owner);
  t.half.resize(t.half.size() + num_dims_, 0);
  nodes_[owner].count += 1;
  if ((t.size() * 2) > t.slots.size()) {
    t.ReserveSlots(t.size());  // Rehashes every record, this one included.
  } else {
    t.InsertSlot(cell);
  }
  return cell;
}

void CountingTree::InsertPoint(std::span<const double> point) {
  MRCC_DCHECK(!packed_);
  const size_t d = num_dims_;
  const int deepest = num_resolutions_ - 1;

  // grid[j] holds the first deepest + 1 binary digits of point[j]: the
  // level-h coordinate is grid[j] >> (deepest + 1 - h), and the digit
  // below it says which half of the level-h cell the point lies in.
  // ldexp is a pure exponent shift — exact for doubles.
  grid_scratch_.resize(d);
  bits_scratch_.resize(d);
  uint64_t* grid = grid_scratch_.data();
  uint8_t* next_bits = bits_scratch_.data();
  for (size_t j = 0; j < d; ++j) {
    grid[j] = static_cast<uint64_t>(std::ldexp(point[j], deepest + 1));
  }

  // The keys are absolute, so no level's probe waits on another's: form
  // every level's key record first and prefetch its home slot, then the
  // candidate cell's record and counts, so the levels' cache misses
  // overlap instead of forming one chain.
  record_scratch_.resize(static_cast<size_t>(deepest) * (d + 1));
  for (int h = 1; h <= deepest; ++h) {
    const LevelTable& t = levels_[static_cast<size_t>(h)];
    uint64_t* rec = record_scratch_.data() + static_cast<size_t>(h - 1) * (d + 1);
    const int shift = deepest + 1 - h;
    uint64_t hash = 0;
    for (size_t w = 0, j = 0; w < t.words; ++w) {
      uint64_t word = 0;
      for (size_t f = 0; f < t.fields && j < d; ++f, ++j) {
        const uint64_t c = grid[j] >> shift;
        word |= c << (f * static_cast<size_t>(h));
        hash += c * kAxisMultiplier[j];
      }
      rec[1 + w] = word;
    }
    rec[0] = hash;
    __builtin_prefetch(&t.slots[t.HomeSlot(hash)]);
  }
  for (int h = 1; h <= deepest; ++h) {
    const LevelTable& t = levels_[static_cast<size_t>(h)];
    const uint64_t* rec =
        record_scratch_.data() + static_cast<size_t>(h - 1) * (d + 1);
    const uint32_t cand = t.slots[t.HomeSlot(rec[0])];
    if (cand == LevelTable::kEmptySlot) continue;
    __builtin_prefetch(t.Record(cand));
    __builtin_prefetch(&t.n[cand], 1);
    __builtin_prefetch(&t.half[static_cast<size_t>(cand) * d], 1);
  }

  uint32_t node = 0;   // Root node (level-1 cells).
  bool fresh = false;  // A new cell has no descendants to find.
  for (int h = 1; h <= deepest; ++h) {
    LevelTable& t = levels_[static_cast<size_t>(h)];
    const uint64_t* rec =
        record_scratch_.data() + static_cast<size_t>(h - 1) * (d + 1);
    int64_t found = fresh ? -1 : t.Find(rec[0], rec + 1);
    if (found < 0) {
      fresh = true;
      int32_t child = -1;
      if (h < deepest) {
        // The point that creates a cell creates its child node too, so
        // node creation order follows parent-cell creation order.
        child = static_cast<int32_t>(nodes_.size());
        nodes_.push_back(Node{h + 1, 0, 0});
      }
      found = AppendCell(h, rec, node, child);
    }
    const auto cell = static_cast<size_t>(found);
    t.n[cell] += 1;
    // The point is in the lower half of this cell along e_j exactly when
    // its next digit is 0.
    const int shift = deepest - h;
    for (size_t j = 0; j < d; ++j) {
      next_bits[j] = static_cast<uint8_t>((grid[j] >> shift) & 1);
    }
    simd::IncrementWhereZero(&t.half[cell * d], next_bits, d);
    if (h < deepest) node = static_cast<uint32_t>(t.child[cell]);
  }
  ++total_points_;
}

// ---------------------------------------------------------------------------
// Pack: the canonical-order lifecycle (see the header comment).

void CountingTree::Pack() {
  // Node slices: each level's nodes tile it in pool (creation) order.
  std::vector<uint32_t> next(nodes_.size());
  std::vector<uint32_t> running(levels_.size(), 0);
  for (size_t m = 0; m < nodes_.size(); ++m) {
    Node& node = nodes_[m];
    uint32_t& at = running[static_cast<size_t>(node.level)];
    node.first = at;
    next[m] = at;
    at += node.count;
  }
  std::vector<uint32_t> pos;  // pos[old index] = canonical index.
  for (int h = 1; h < num_resolutions_; ++h) {
    LevelTable& t = levels_[static_cast<size_t>(h)];
    MRCC_DCHECK_EQ(running[static_cast<size_t>(h)], t.size());
    if (t.packed_cells == t.size()) continue;  // No new cells here.
    // A stable counting sort on the owning node: cells of one node keep
    // their current order, which is their creation order.
    pos.resize(t.size());
    bool identity = true;
    for (size_t i = 0; i < t.size(); ++i) {
      pos[i] = next[t.owner[i]]++;
      identity = identity && pos[i] == i;
    }
    if (identity) {
      t.keys.shrink_to_fit();
      t.n.shrink_to_fit();
      t.child.shrink_to_fit();
      t.used.shrink_to_fit();
      t.owner.shrink_to_fit();
      t.half.shrink_to_fit();
    } else {
      Permute(&t.keys, pos, t.words + 1);
      Permute(&t.n, pos, 1);
      Permute(&t.child, pos, 1);
      Permute(&t.used, pos, 1);
      Permute(&t.owner, pos, 1);
      Permute(&t.half, pos, num_dims_);
      for (uint32_t& slot : t.slots) {
        if (slot != LevelTable::kEmptySlot) slot = pos[slot];
      }
    }
    t.packed_cells = t.size();
  }
  packed_ = true;
}

// ---------------------------------------------------------------------------
// Read API.

CountingTree::LevelView::LevelView(const CountingTree* tree, int level)
    : table_(&tree->levels_[static_cast<size_t>(level)]),
      num_dims_(tree->num_dims_),
      level_(level) {}

CountingTree::LevelView CountingTree::Level(int h) const {
  MRCC_DCHECK(packed_);
  MRCC_DCHECK_GE(h, 1);
  MRCC_DCHECK_LT(h, num_resolutions_);
  return LevelView(this, h);
}

size_t CountingTree::LevelView::num_cells() const { return table_->size(); }

size_t CountingTree::LevelView::key_words() const { return table_->words; }

uint64_t CountingTree::LevelView::loc(uint32_t i) const {
  const uint64_t* key = table_->Record(i) + 1;
  uint64_t loc = 0;
  for (size_t w = 0, j = 0; w < table_->words; ++w) {
    for (size_t f = 0; f < table_->fields && j < num_dims_; ++f, ++j) {
      loc |= ((key[w] >> (f * static_cast<size_t>(level_))) & 1) << j;
    }
  }
  return loc;
}

std::span<const uint32_t> CountingTree::LevelView::counts() const {
  return table_->n;
}

std::span<const int32_t> CountingTree::LevelView::children() const {
  return table_->child;
}

std::span<const uint8_t> CountingTree::LevelView::used() const {
  return table_->used;
}

std::span<const uint32_t> CountingTree::LevelView::half() const {
  return table_->half;
}

std::span<const uint32_t> CountingTree::LevelView::half_of(uint32_t i) const {
  return std::span<const uint32_t>(table_->half.data() + i * num_dims_,
                                   num_dims_);
}

void CountingTree::LevelView::CoordsInto(uint32_t i, uint64_t* out) const {
  const uint64_t* key = table_->Record(i) + 1;
  for (size_t w = 0, j = 0; w < table_->words; ++w) {
    uint64_t word = key[w];
    for (size_t f = 0; f < table_->fields && j < num_dims_; ++f, ++j) {
      out[j] = word & table_->field_mask;
      word >>= level_;
    }
  }
}

std::vector<uint64_t> CountingTree::LevelView::Coords(uint32_t i) const {
  std::vector<uint64_t> coords(num_dims_);
  CoordsInto(i, coords.data());
  return coords;
}

int64_t CountingTree::LevelView::Find(const uint64_t* coords) const {
  for (size_t j = 0; j < num_dims_; ++j) {
    if (coords[j] > table_->field_mask) return -1;  // Off the cube.
  }
  std::array<uint64_t, kMaxDims> key;
  const uint64_t hash = table_->PackKey(coords, num_dims_, key.data());
  return table_->Find(hash, key.data());
}

size_t CountingTree::NumCellsAtLevel(int h) const {
  MRCC_DCHECK_GE(h, 1);
  MRCC_DCHECK_LT(h, num_resolutions_);
  return levels_[static_cast<size_t>(h)].size();
}

uint32_t CountingTree::Count(CellRef ref) const {
  return levels_[static_cast<size_t>(ref.level)].n[ref.index];
}

uint64_t CountingTree::Loc(CellRef ref) const {
  return Level(ref.level).loc(ref.index);
}

int32_t CountingTree::Child(CellRef ref) const {
  return levels_[static_cast<size_t>(ref.level)].child[ref.index];
}

bool CountingTree::Used(CellRef ref) const {
  return levels_[static_cast<size_t>(ref.level)].used[ref.index] != 0;
}

void CountingTree::SetUsed(CellRef ref, bool used) {
  levels_[static_cast<size_t>(ref.level)].used[ref.index] = used ? 1 : 0;
}

uint32_t CountingTree::HalfCount(CellRef ref, size_t axis) const {
  MRCC_DCHECK_LT(axis, num_dims_);
  return levels_[static_cast<size_t>(ref.level)]
      .half[ref.index * num_dims_ + axis];
}

std::vector<uint64_t> CountingTree::CellCoords(CellRef ref) const {
  return Level(ref.level).Coords(ref.index);
}

bool CountingTree::FindCell(int level, const std::vector<uint64_t>& coords,
                            CellRef* ref) const {
  MRCC_DCHECK_EQ(coords.size(), num_dims_);
  const int64_t cell = Level(level).Find(coords.data());
  if (cell < 0) return false;
  *ref = CellRef{level, static_cast<uint32_t>(cell)};
  return true;
}

bool CountingTree::FaceNeighbor(int level,
                                const std::vector<uint64_t>& coords,
                                size_t axis, int dir, CellRef* ref) const {
  MRCC_DCHECK(dir == -1 || dir == 1);
  MRCC_DCHECK_LT(axis, num_dims_);
  const uint64_t max_coord = (uint64_t{1} << level) - 1;
  if (dir < 0 && coords[axis] == 0) return false;
  if (dir > 0 && coords[axis] == max_coord) return false;
  std::vector<uint64_t> neighbor = coords;
  neighbor[axis] += static_cast<uint64_t>(dir);
  return FindCell(level, neighbor, ref);
}

uint32_t CountingTree::FaceNeighborCount(int level,
                                         const std::vector<uint64_t>& coords,
                                         size_t axis, int dir) const {
  CellRef ref;
  return FaceNeighbor(level, coords, axis, dir, &ref) ? Count(ref) : 0;
}

void CountingTree::ResetUsedFlags() {
  for (LevelTable& t : levels_) {
    std::fill(t.used.begin(), t.used.end(), uint8_t{0});
  }
}

Status CountingTree::DropDeepestLevel() {
  const int deepest = num_resolutions_ - 1;
  if (deepest <= 2) {
    return Status::InvalidArgument(
        "cannot drop below the paper's minimum of H = 3 resolutions");
  }
  MRCC_DCHECK(packed_);
  // Unlink the dropped level from its parent cells, then drop its table
  // and compact the node pool. Compaction preserves relative order and
  // the surviving levels are untouched, so the result has exactly the
  // layout a build with the smaller H would have produced — which keeps
  // every downstream stage bit-identical to that build.
  std::vector<int32_t>& parents =
      levels_[static_cast<size_t>(deepest - 1)].child;
  std::fill(parents.begin(), parents.end(), int32_t{-1});
  levels_.pop_back();

  std::vector<int32_t> remap(nodes_.size(), -1);
  size_t kept = 0;
  for (size_t m = 0; m < nodes_.size(); ++m) {
    if (nodes_[m].level >= deepest) continue;
    remap[m] = static_cast<int32_t>(kept);
    nodes_[kept++] = nodes_[m];
  }
  nodes_.resize(kept);
  nodes_.shrink_to_fit();
  for (int h = 1; h < deepest; ++h) {
    LevelTable& t = levels_[static_cast<size_t>(h)];
    for (uint32_t& owner : t.owner) {
      owner = static_cast<uint32_t>(remap[owner]);
    }
    for (int32_t& child : t.child) {
      if (child >= 0) {
        child = remap[static_cast<size_t>(child)];
        MRCC_DCHECK_GE(child, 0);
      }
    }
  }
  --num_resolutions_;
  DCheckInvariants(*this);
  return Status::OK();
}

Status CountingTree::ValidateInvariants() const {
  const auto fail = [](std::string msg) {
    return Status::Internal("tree invariant violated: " + std::move(msg));
  };
  const size_t d = num_dims_;
  if (d == 0 || d > kMaxDims) return fail("dimensionality out of range");
  if (num_resolutions_ < 3) return fail("fewer than 3 resolutions");
  if (nodes_.empty()) return fail("no root node");
  if (!packed_) return fail("tree is not packed");
  if (levels_.size() != static_cast<size_t>(num_resolutions_)) {
    return fail("level vector has wrong resolution count");
  }
  if (nodes_[0].level != 1) return fail("root node is not at level 1");

  // Array-size agreement, and slice partitioning: the nodes of each level
  // must tile it contiguously, in pool order — that is the canonical
  // enumeration order everything downstream relies on.
  std::vector<size_t> running(levels_.size(), 0);
  for (size_t m = 0; m < nodes_.size(); ++m) {
    const Node& node = nodes_[m];
    if (node.level < 1 || node.level >= num_resolutions_) {
      return fail("node " + std::to_string(m) + ": level " +
                  std::to_string(node.level) + " out of range");
    }
    size_t& at = running[static_cast<size_t>(node.level)];
    if (node.first != at) {
      return fail("node " + std::to_string(m) +
                  " slice does not start where the previous slice ended");
    }
    at += node.count;
  }
  for (int h = 1; h < num_resolutions_; ++h) {
    const LevelTable& t = levels_[static_cast<size_t>(h)];
    const std::string where = "level " + std::to_string(h) + ": ";
    const size_t n_cells = t.size();
    if (t.keys.size() != n_cells * (t.words + 1) ||
        t.child.size() != n_cells || t.used.size() != n_cells ||
        t.owner.size() != n_cells || t.half.size() != n_cells * d) {
      return fail(where + "cell arrays disagree on cell count");
    }
    if (running[static_cast<size_t>(h)] != n_cells) {
      return fail(where + "node slices cover " +
                  std::to_string(running[static_cast<size_t>(h)]) +
                  " cells, level holds " + std::to_string(n_cells));
    }
    if (t.slots.size() < 2 * n_cells) {
      return fail(where + "key table is over half full");
    }
    for (uint32_t i = 0; i < n_cells; ++i) {
      const uint64_t* rec = t.Record(i);
      if (t.Find(rec[0], rec + 1) != static_cast<int64_t>(i)) {
        return fail(where + "key table does not find cell " +
                    std::to_string(i) + " (duplicate or unindexed key)");
      }
    }
  }

  // parent_refs[m]: number of cells pointing at node m as their child.
  std::vector<uint32_t> parent_refs(nodes_.size(), 0);
  std::vector<uint64_t> coords(d), child_coords(d);
  uint64_t root_points = 0;
  for (size_t m = 0; m < nodes_.size(); ++m) {
    const Node& node = nodes_[m];
    const LevelView view(this, node.level);
    for (uint32_t c = 0; c < node.count; ++c) {
      const uint32_t i = node.first + c;
      const auto cell_where = [m, c] {
        return "node " + std::to_string(m) + ": cell " + std::to_string(c) +
               ": ";
      };
      if (view.table_->owner[i] != m) {
        return fail(cell_where() + "owner points at node " +
                    std::to_string(view.table_->owner[i]));
      }
      const uint32_t n = view.counts()[i];
      if (n == 0) return fail(cell_where() + "materialized cell is empty");
      const std::span<const uint32_t> half = view.half_of(i);
      for (size_t j = 0; j < d; ++j) {
        if (half[j] > n) {
          return fail(cell_where() + "half-space count " +
                      std::to_string(half[j]) + " exceeds cell count " +
                      std::to_string(n) + " on axis " + std::to_string(j));
        }
      }
      const int32_t child_node = view.children()[i];
      if (child_node >= 0) {
        const auto child_idx = static_cast<size_t>(child_node);
        if (child_idx >= nodes_.size()) {
          return fail(cell_where() + "dangling child pointer");
        }
        if (child_idx <= m) {
          return fail(cell_where() + "child node " + std::to_string(child_idx) +
                      " is not created after its parent node");
        }
        const Node& child = nodes_[child_idx];
        if (child.level != node.level + 1) {
          return fail(cell_where() + "child level is not parent level + 1");
        }
        view.CoordsInto(i, coords.data());
        const LevelView child_view(this, child.level);
        uint64_t child_sum = 0;
        for (uint32_t k = child.first; k < child.first + child.count; ++k) {
          child_view.CoordsInto(k, child_coords.data());
          for (size_t j = 0; j < d; ++j) {
            if ((child_coords[j] >> 1) != coords[j]) {
              return fail(cell_where() + "child cell coordinates do not lie "
                          "inside the parent cell");
            }
          }
          child_sum += child_view.counts()[k];
        }
        if (child_sum != n) {
          return fail(cell_where() + "child counts sum to " +
                      std::to_string(child_sum) + ", expected " +
                      std::to_string(n));
        }
        parent_refs[child_idx] += 1;
      }
      if (m == 0) root_points += n;
    }
  }
  for (size_t m = 1; m < nodes_.size(); ++m) {
    if (parent_refs[m] != 1) {
      return fail("node " + std::to_string(m) + " referenced by " +
                  std::to_string(parent_refs[m]) + " parent cells");
    }
  }
  if (root_points != total_points_) {
    return fail("root counts sum to " + std::to_string(root_points) +
                ", total_points is " + std::to_string(total_points_));
  }
  return Status::OK();
}

size_t CountingTree::MemoryBytes() const {
  size_t bytes = sizeof(*this) + nodes_.capacity() * sizeof(Node) +
                 levels_.capacity() * sizeof(LevelTable) +
                 grid_scratch_.capacity() * sizeof(uint64_t) +
                 record_scratch_.capacity() * sizeof(uint64_t) +
                 bits_scratch_.capacity();
  for (const LevelTable& t : levels_) bytes += t.MemoryBytes();
  return bytes;
}

}  // namespace mrcc
