#include "core/tree_io.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/fs.h"

namespace mrcc {
namespace {

constexpr char kMagic[4] = {'M', 'R', 'T', 'R'};
constexpr uint32_t kVersion = 1;

template <typename T>
void AppendPod(const T& v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Sequential reader over serialized tree bytes. Every read names the
/// section it parses, so an error can say *which* record failed and at
/// what offset — "cell record ends at byte 91213" locates the damage in
/// a multi-megabyte artifact without a hex dump.
class TreeReader {
 public:
  TreeReader(const std::string& bytes, const std::string& path)
      : bytes_(bytes), path_(path) {}

  template <typename T>
  [[nodiscard]] Status Read(const char* section, T* v) {
    if (bytes_.size() - pos_ < sizeof(T)) {
      return Status::IOError("truncated tree file " + path_ + ": " + section +
                             " ends at byte " + std::to_string(bytes_.size()) +
                             " (needed " + std::to_string(sizeof(T)) +
                             " bytes at offset " + std::to_string(pos_) + ")");
    }
    field_start_ = pos_;
    std::memcpy(v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  /// Rejects a value that parsed but cannot be right, pointing at the
  /// offset where the offending field starts.
  Status Bad(const char* section, const std::string& why) const {
    return Status::IOError("bad " + std::string(section) + " in " + path_ +
                           " at byte " + std::to_string(field_start_) + ": " +
                           why);
  }

  size_t pos() const { return pos_; }
  size_t size() const { return bytes_.size(); }

 private:
  const std::string& bytes_;
  const std::string& path_;
  size_t pos_ = 0;
  size_t field_start_ = 0;
};

}  // namespace

std::string SerializeTree(const CountingTree& tree) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendPod(kVersion, &out);
  AppendPod(static_cast<uint32_t>(tree.num_dims()), &out);
  AppendPod(static_cast<uint32_t>(tree.num_resolutions()), &out);
  AppendPod(tree.total_points(), &out);
  AppendPod(static_cast<uint64_t>(tree.num_nodes()), &out);
  const size_t d = tree.num_dims();
  MRCC_DCHECK(tree.packed_);
  std::vector<uint64_t> coords(d);
  for (const CountingTree::Node& node : tree.nodes_) {
    const CountingTree::LevelView view = tree.Level(node.level);
    AppendPod(static_cast<int32_t>(node.level), &out);
    // A node's base coordinates are its parent cell's: any of its cells'
    // coordinates halved (an empty root writes zeros).
    std::fill(coords.begin(), coords.end(), 0);
    if (node.count > 0) view.CoordsInto(node.first, coords.data());
    for (uint64_t c : coords) AppendPod(c >> 1, &out);
    AppendPod(static_cast<uint64_t>(node.count), &out);
    for (uint32_t i = node.first; i < node.first + node.count; ++i) {
      AppendPod(view.loc(i), &out);
      AppendPod(view.counts()[i], &out);
      AppendPod(view.children()[i], &out);
      for (uint32_t h : view.half_of(i)) AppendPod(h, &out);
    }
  }
  return out;
}

Status SaveTree(const CountingTree& tree, const std::string& path) {
  return WriteFileAtomic(path, SerializeTree(tree));
}

Result<CountingTree> ParseTree(const std::string& bytes,
                               const std::string& path) {
  TreeReader in(bytes, path);
  char magic[4];
  MRCC_RETURN_IF_ERROR(in.Read("magic", &magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return in.Bad("magic", "expected \"MRTR\"");
  }
  uint32_t version = 0, dims = 0, resolutions = 0;
  uint64_t total_points = 0, node_count = 0;
  MRCC_RETURN_IF_ERROR(in.Read("version", &version));
  if (version != kVersion) {
    return in.Bad("version", "unsupported version " + std::to_string(version) +
                                 " (reader supports " +
                                 std::to_string(kVersion) + ")");
  }
  MRCC_RETURN_IF_ERROR(in.Read("header dims", &dims));
  MRCC_RETURN_IF_ERROR(in.Read("header resolutions", &resolutions));
  MRCC_RETURN_IF_ERROR(in.Read("header total_points", &total_points));
  MRCC_RETURN_IF_ERROR(in.Read("header node_count", &node_count));
  if (dims == 0 || dims > CountingTree::kMaxDims) {
    return in.Bad("header dims", "implausible value");
  }
  if (resolutions < 3 || resolutions > CountingTree::kMaxResolutions + 1) {
    return in.Bad("header resolutions", "implausible value");
  }
  // The counts in the header and the per-node records drive allocations,
  // so never trust them further than the byte count: a record of k
  // elements needs at least k * sizeof(element) bytes of payload. This
  // turns a corrupt or truncated stream into a clean IOError instead of
  // a multi-gigabyte resize.
  const uint64_t d = dims;
  const uint64_t node_bytes = sizeof(int32_t) + d * sizeof(uint64_t) +
                              sizeof(uint64_t);
  const uint64_t cell_bytes = sizeof(uint64_t) + sizeof(uint32_t) +
                              sizeof(int32_t) + d * sizeof(uint32_t);
  if (node_count > bytes.size() / node_bytes) {
    return in.Bad("header node_count",
                  std::to_string(node_count) + " nodes cannot fit in " +
                      std::to_string(bytes.size()) + " bytes");
  }

  CountingTree tree(dims, static_cast<int>(resolutions));
  tree.total_points_ = total_points;
  tree.nodes_.resize(node_count);
  // Nodes are on disk in pool (creation) order and cells in per-node
  // creation order, so appending each record to its level directly
  // reproduces the canonical packed layout — no separate Pack() pass.
  std::vector<uint64_t> base(dims), coords(dims);
  std::vector<uint64_t> record(CountingTree::kMaxDims + 1);
  for (uint64_t n = 0; n < node_count; ++n) {
    int32_t level = 0;
    MRCC_RETURN_IF_ERROR(in.Read("node level", &level));
    if (level < 1 || level >= static_cast<int32_t>(resolutions)) {
      return in.Bad("node level", "level " + std::to_string(level) +
                                      " outside [1, " +
                                      std::to_string(resolutions) + ")");
    }
    tree.nodes_[n].level = level;
    for (uint64_t& c : base) {
      MRCC_RETURN_IF_ERROR(in.Read("node base coordinate", &c));
      if (c >= (uint64_t{1} << (level - 1))) {
        return in.Bad("node base coordinate",
                      std::to_string(c) + " outside the level-" +
                          std::to_string(level - 1) + " grid");
      }
    }
    uint64_t cell_count = 0;
    MRCC_RETURN_IF_ERROR(in.Read("node cell_count", &cell_count));
    if (cell_count > bytes.size() / cell_bytes) {
      return in.Bad("node cell_count",
                    std::to_string(cell_count) + " cells cannot fit in " +
                        std::to_string(bytes.size()) + " bytes");
    }
    CountingTree::LevelTable& table =
        tree.levels_[static_cast<size_t>(level)];
    tree.nodes_[n].first = static_cast<uint32_t>(table.size());
    for (uint64_t c = 0; c < cell_count; ++c) {
      uint64_t loc = 0;
      uint32_t count = 0;
      int32_t child = -1;
      MRCC_RETURN_IF_ERROR(in.Read("cell loc", &loc));
      if (dims < 64 && (loc >> dims) != 0) {
        return in.Bad("cell loc", "loc has bits above dimension " +
                                      std::to_string(dims));
      }
      MRCC_RETURN_IF_ERROR(in.Read("cell count", &count));
      MRCC_RETURN_IF_ERROR(in.Read("cell child pointer", &child));
      if (child >= 0 && static_cast<uint64_t>(child) >= node_count) {
        return in.Bad("cell child pointer",
                      "child " + std::to_string(child) + " >= node count " +
                          std::to_string(node_count));
      }
      for (size_t j = 0; j < dims; ++j) {
        coords[j] = base[j] * 2 + ((loc >> j) & 1);
      }
      record[0] = table.PackKey(coords.data(), dims, record.data() + 1);
      if (table.Find(record[0], record.data() + 1) >= 0) {
        return in.Bad("cell loc", "duplicate cell at level " +
                                      std::to_string(level));
      }
      const uint32_t cell = tree.AppendCell(
          level, record.data(), static_cast<uint32_t>(n), child);
      table.n[cell] = count;
      uint32_t* half = &table.half[static_cast<size_t>(cell) * dims];  // lint-allow: cell-storage
      for (size_t j = 0; j < dims; ++j) {
        MRCC_RETURN_IF_ERROR(in.Read("cell half count", &half[j]));
      }
    }
  }
  if (in.pos() != in.size()) {
    return Status::IOError(
        "trailing garbage in tree file " + path + ": " +
        std::to_string(in.size() - in.pos()) + " bytes past the last node" +
        " (tree ends at byte " + std::to_string(in.pos()) + ")");
  }
  for (CountingTree::LevelTable& table : tree.levels_) {
    table.packed_cells = table.size();
  }
  tree.packed_ = true;
  // Field-level reads above only prove the bytes parse; a well-formed
  // stream can still encode a structurally corrupt tree (half counts
  // exceeding the cell count, child sums that do not add up, a child
  // node listed before its parent). MergeTree and the β-search would
  // turn such a tree into silent nonsense, so reject it at the I/O
  // boundary.
  if (Status v = tree.ValidateInvariants(); !v.ok()) {
    return Status::IOError("corrupt tree in " + path + ": " + v.message());
  }
  return tree;
}

Result<CountingTree> LoadTree(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  MRCC_RETURN_IF_ERROR(bytes.status());
  return ParseTree(*bytes, path);
}

Result<MergeTreeStats> MergeTree(CountingTree* tree,
                                 const CountingTree& other) {
  if (tree->num_dims() != other.num_dims()) {
    return Status::InvalidArgument("tree dimensionality mismatch");
  }
  if (tree->num_resolutions() != other.num_resolutions()) {
    return Status::InvalidArgument("tree resolution mismatch");
  }

  // Layout-preserving merge. A serial build over the concatenated point
  // streams would append `other`'s new cells to each destination node in
  // `other`'s per-node creation order, and create the missing nodes in
  // `other`'s node creation order (a node is created by the point that
  // creates its parent cell). The fold below reproduces exactly that:
  // pass 1 probes the destination once per source cell, read-only, and
  // checks the source; new destination nodes then take pool indices in
  // source pool order; pass 2 folds each level in source cell order. The
  // final Pack() restores the canonical layout of that serial build, so
  // downstream consumers cannot tell a sharded build from a serial one —
  // the trees are identical, not merely equivalent.
  using LevelTable = CountingTree::LevelTable;
  constexpr uint32_t kAbsent = ~uint32_t{0};
  const size_t d = tree->num_dims();
  const int levels = tree->num_resolutions();
  // dest_node[s]: destination node of source node s (-1 = unseen, -2 =
  // to be created).
  std::vector<int64_t> dest_node(other.nodes_.size(), -1);
  dest_node[0] = 0;
  std::vector<std::vector<uint32_t>> found(static_cast<size_t>(levels));
  std::vector<size_t> created(static_cast<size_t>(levels), 0);
  for (int h = 1; h < levels; ++h) {
    const LevelTable& src = other.levels_[static_cast<size_t>(h)];
    const LevelTable& dst = tree->levels_[static_cast<size_t>(h)];
    std::vector<uint32_t>& hit = found[static_cast<size_t>(h)];
    hit.resize(src.size());
    for (uint32_t i = 0; i < src.size(); ++i) {
      const uint64_t* rec = src.Record(i);
      const int64_t at = dst.Find(rec[0], rec + 1);
      hit[i] = at < 0 ? kAbsent : static_cast<uint32_t>(at);
      created[static_cast<size_t>(h)] += at < 0;
      const int32_t child = src.child[i];
      if (child < 0) continue;
      // A child listed before its parent never comes out of Builder or
      // ParseTree; a source that has one is corrupt. Reject it before
      // the destination is touched.
      if (static_cast<size_t>(child) >= other.nodes_.size() ||
          static_cast<uint32_t>(child) <= src.owner[i] ||
          other.nodes_[static_cast<size_t>(child)].level != h + 1) {
        return Status::Internal("merge source tree is not in creation order");
      }
      dest_node[static_cast<size_t>(child)] =
          at < 0 ? -2 : dst.child[static_cast<size_t>(at)];
    }
  }
  for (size_t s = 1; s < dest_node.size(); ++s) {
    if (dest_node[s] == -1) {
      return Status::Internal("merge source tree has an orphan node");
    }
  }

  // Writes start here.
  MergeTreeStats stats;
  for (size_t s = 1; s < dest_node.size(); ++s) {
    if (dest_node[s] != -2) continue;
    dest_node[s] = static_cast<int64_t>(tree->nodes_.size());
    tree->nodes_.push_back(CountingTree::Node{other.nodes_[s].level, 0, 0});
    ++stats.nodes_created;
  }
  for (int h = 1; h < levels; ++h) {
    const LevelTable& src = other.levels_[static_cast<size_t>(h)];
    LevelTable& dst = tree->levels_[static_cast<size_t>(h)];
    const std::vector<uint32_t>& hit = found[static_cast<size_t>(h)];
    const size_t total = dst.size() + created[static_cast<size_t>(h)];
    dst.keys.reserve(total * (dst.words + 1));
    dst.n.reserve(total);
    dst.child.reserve(total);
    dst.used.reserve(total);
    dst.owner.reserve(total);
    dst.half.reserve(total * d);
    dst.ReserveSlots(total);
    for (uint32_t i = 0; i < src.size(); ++i) {
      uint32_t at = hit[i];
      if (at == kAbsent) {
        const int32_t child = src.child[i];
        at = tree->AppendCell(
            h, src.Record(i),
            static_cast<uint32_t>(dest_node[src.owner[i]]),
            child < 0 ? -1
                      : static_cast<int32_t>(
                            dest_node[static_cast<size_t>(child)]));
        ++stats.cells_created;
      } else {
        ++stats.cells_merged;
      }
      dst.n[at] += src.n[i];
      uint32_t* half = &dst.half[static_cast<size_t>(at) * d];  // lint-allow: cell-storage
      const uint32_t* add = &src.half[static_cast<size_t>(i) * d];  // lint-allow: cell-storage
      for (size_t j = 0; j < d; ++j) half[j] += add[j];
    }
  }
  tree->total_points_ += other.total_points_;
  tree->packed_ = false;
  tree->Seal();
  return stats;
}

bool TreesEquivalent(const CountingTree& a, const CountingTree& b) {
  if (a.num_dims() != b.num_dims() ||
      a.num_resolutions() != b.num_resolutions() ||
      a.total_points() != b.total_points()) {
    return false;
  }
  const size_t d = a.num_dims();
  for (int h = 1; h < a.num_resolutions(); ++h) {
    if (a.NumCellsAtLevel(h) != b.NumCellsAtLevel(h)) return false;
    const CountingTree::LevelView view = a.Level(h);
    const size_t cells = view.num_cells();
    for (uint32_t i = 0; i < cells; ++i) {
      const std::vector<uint64_t> coords = view.Coords(i);
      CountingTree::CellRef ref;
      if (!b.FindCell(h, coords, &ref)) return false;
      if (b.Count(ref) != view.counts()[i]) return false;
      for (size_t j = 0; j < d; ++j) {
        if (b.HalfCount(ref, j) != view.half_of(i)[j]) return false;
      }
    }
  }
  return true;
}

}  // namespace mrcc
