#include "core/level_index.h"

#include <array>

#include "common/check.h"

namespace mrcc {
namespace {

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

// R_j of the additive hash: fixed odd multipliers, one per axis, drawn
// from a SplitMix64 sequence.
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

constexpr std::array<uint64_t, CountingTree::kMaxDims> kAxisMultiplier =
    MakeAxisMultipliers();

}  // namespace

LevelIndex::LevelIndex(const CountingTree::LevelView& view)
    : level_(view.level()),
      num_dims_(view.num_dims()),
      fields_(64 / static_cast<size_t>(view.level())),
      words_((num_dims_ + fields_ - 1) / fields_),
      field_mask_((uint64_t{1} << view.level()) - 1) {
  MRCC_DCHECK_LE(num_dims_, CountingTree::kMaxDims);
  const size_t n_cells = view.num_cells();
  records_.assign(n_cells * (words_ + 1), 0);
  size_t cap = 16;
  while (cap < n_cells * 2) cap <<= 1;
  slots_.assign(cap, kEmptySlot);
  const size_t mask = cap - 1;
  std::vector<uint64_t> coords(num_dims_);
  for (uint32_t i = 0; i < n_cells; ++i) {
    view.CoordsInto(i, coords.data());
    uint64_t* rec = records_.data() + static_cast<size_t>(i) * (words_ + 1);
    rec[0] = PackKey(coords.data(), rec + 1);
    size_t s = Mix64(rec[0]) & mask;
    while (slots_[s] != kEmptySlot) s = (s + 1) & mask;
    slots_[s] = i;
  }
}

uint64_t LevelIndex::PackKey(const uint64_t* coords, uint64_t* key) const {
  uint64_t hash = 0;
  for (size_t w = 0, j = 0; w < words_; ++w) {
    uint64_t word = 0;
    for (size_t f = 0; f < fields_ && j < num_dims_; ++f, ++j) {
      word |= coords[j] << (f * static_cast<size_t>(level_));
      hash += coords[j] * kAxisMultiplier[j];
    }
    key[w] = word;
  }
  return hash;
}

int64_t LevelIndex::Lookup(uint64_t hash, const uint64_t* key, size_t word,
                           uint64_t word_value) const {
  const size_t mask = slots_.size() - 1;
  for (size_t s = Mix64(hash) & mask;; s = (s + 1) & mask) {
    const uint32_t cell = slots_[s];
    if (cell == kEmptySlot) return -1;
    const uint64_t* rec = Record(cell);
    if (rec[0] != hash || rec[1 + word] != word_value) continue;
    size_t k = 0;
    while (k < words_ && (k == word || rec[1 + k] == key[k])) ++k;
    if (k == words_) return static_cast<int64_t>(cell);
  }
}

int64_t LevelIndex::Find(const uint64_t* coords) const {
  for (size_t j = 0; j < num_dims_; ++j) {
    if (coords[j] > field_mask_) return -1;  // Off the cube.
  }
  std::array<uint64_t, CountingTree::kMaxDims> key;
  const uint64_t hash = PackKey(coords, key.data());
  return Lookup(hash, key.data(), 0, key[0]);
}

int64_t LevelIndex::FaceNeighborOf(uint32_t cell, size_t axis,
                                   int dir) const {
  MRCC_DCHECK(dir == -1 || dir == 1);
  MRCC_DCHECK_LT(axis, num_dims_);
  const uint64_t* rec = Record(cell);
  const size_t word = axis / fields_;
  const size_t shift = (axis % fields_) * static_cast<size_t>(level_);
  const uint64_t coord = (rec[1 + word] >> shift) & field_mask_;
  const uint64_t step = uint64_t{1} << shift;
  if (dir < 0) {
    if (coord == 0) return kOffCube;
    return Lookup(rec[0] - kAxisMultiplier[axis], rec + 1, word,
                  rec[1 + word] - step);
  }
  if (coord == field_mask_) return kOffCube;
  return Lookup(rec[0] + kAxisMultiplier[axis], rec + 1, word,
                rec[1 + word] + step);
}

void LevelIndex::CoordsInto(uint32_t cell, uint64_t* out) const {
  const uint64_t* key = Record(cell) + 1;
  for (size_t w = 0, j = 0; w < words_; ++w) {
    uint64_t word = key[w];
    for (size_t f = 0; f < fields_ && j < num_dims_; ++f, ++j) {
      out[j] = word & field_mask_;
      word >>= level_;
    }
  }
}

size_t LevelIndex::MemoryBytes() const {
  return sizeof(*this) + records_.capacity() * sizeof(uint64_t) +
         slots_.capacity() * sizeof(uint32_t);
}

}  // namespace mrcc
