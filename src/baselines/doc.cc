#include "baselines/doc.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"

namespace mrcc {
namespace {

// One candidate projected cluster: pivot + relevant dims + members.
struct Candidate {
  std::vector<bool> dims;
  std::vector<size_t> members;
  double quality = 0.0;
  size_t num_dims = 0;
};

double Mu(size_t cluster_size, size_t num_dims, double beta) {
  return static_cast<double>(cluster_size) *
         std::pow(1.0 / beta, static_cast<double>(num_dims));
}

// Branch-and-bound miner over dimension itemsets for one pivot (the FPC
// inner search): finds the dim set maximizing mu with support >= min_size.
class FpcMiner {
 public:
  FpcMiner(size_t d, double beta, double min_size)
      : d_(d), beta_(beta), min_size_(min_size) {}

  // transactions[i] = bitmask of dims where point i is within w of the
  // pivot. Must have d <= 62 bits used.
  Candidate Mine(const std::vector<uint64_t>& transactions) {
    best_ = Candidate();
    // Dims ordered by descending frequency focuses the search.
    std::vector<size_t> freq(d_, 0);
    for (uint64_t t : transactions) {
      for (size_t j = 0; j < d_; ++j) {
        if ((t >> j) & 1) ++freq[j];
      }
    }
    order_.clear();
    for (size_t j = 0; j < d_; ++j) {
      if (static_cast<double>(freq[j]) >= min_size_) order_.push_back(j);
    }
    std::sort(order_.begin(), order_.end(),
              [&](size_t a, size_t b) { return freq[a] > freq[b]; });

    std::vector<uint32_t> all(transactions.size());
    for (size_t i = 0; i < transactions.size(); ++i) {
      all[i] = static_cast<uint32_t>(i);
    }
    transactions_ = &transactions;
    nodes_visited_ = 0;
    Dfs(0, 0, all);
    return best_;
  }

 private:
  // Hard cap on search nodes keeps pathological pivots from stalling the
  // mining step; the frequency ordering makes good itemsets appear early.
  static constexpr size_t kMaxNodes = 2'000'000;

  void Dfs(size_t depth, uint64_t chosen_mask,
           const std::vector<uint32_t>& support_set) {
    if (++nodes_visited_ > kMaxNodes) return;
    const size_t chosen = static_cast<size_t>(__builtin_popcountll(chosen_mask));
    if (chosen > 0) {
      const double quality = Mu(support_set.size(), chosen, beta_);
      if (quality > best_.quality) {
        best_.quality = quality;
        best_.num_dims = chosen;
        best_.dims.assign(d_, false);
        for (size_t j = 0; j < d_; ++j) {
          if ((chosen_mask >> j) & 1) best_.dims[j] = true;
        }
        best_.members.assign(support_set.begin(), support_set.end());
      }
    }
    if (depth >= order_.size()) return;
    // Bound: even taking every remaining dim with unchanged support cannot
    // beat the incumbent -> prune.
    const size_t remaining = order_.size() - depth;
    const double bound =
        Mu(support_set.size(), chosen + remaining, beta_);
    if (bound <= best_.quality) return;

    // Branch 1: include order_[depth].
    const size_t dim = order_[depth];
    std::vector<uint32_t> next;
    next.reserve(support_set.size());
    for (uint32_t i : support_set) {
      if (((*transactions_)[i] >> dim) & 1) next.push_back(i);
    }
    if (static_cast<double>(next.size()) >= min_size_) {
      Dfs(depth + 1, chosen_mask | (uint64_t{1} << dim), next);
    }
    // Branch 2: exclude it.
    Dfs(depth + 1, chosen_mask, support_set);
  }

  const size_t d_;
  const double beta_;
  const double min_size_;
  std::vector<size_t> order_;
  const std::vector<uint64_t>* transactions_ = nullptr;
  size_t nodes_visited_ = 0;
  Candidate best_;
};

// CFPC: systematic best cluster over the pool using FPC mining over a few
// random medoids.
Candidate FpcBestCluster(const Dataset& data, const std::vector<size_t>& pool,
                         const DocParams& params, Rng& rng) {
  const size_t d = data.NumDims();
  const double min_size = params.alpha * static_cast<double>(pool.size());
  Candidate best;
  for (size_t trial = 0; trial < params.max_out; ++trial) {
    const size_t pivot_idx = pool[rng.UniformInt(pool.size())];
    const auto pivot = data.Point(pivot_idx);
    std::vector<uint64_t> transactions(pool.size(), 0);
    for (size_t i = 0; i < pool.size(); ++i) {
      const auto p = data.Point(pool[i]);
      uint64_t mask = 0;
      for (size_t j = 0; j < d; ++j) {
        if (std::fabs(p[j] - pivot[j]) <= params.w) mask |= uint64_t{1} << j;
      }
      transactions[i] = mask;
    }
    FpcMiner miner(d, params.beta, min_size);
    Candidate cand = miner.Mine(transactions);
    // Miner members index into `pool`; translate to dataset indices.
    std::vector<size_t> translated;
    translated.reserve(cand.members.size());
    for (size_t local : cand.members) translated.push_back(pool[local]);
    cand.members = std::move(translated);
    if (cand.quality > best.quality) best = std::move(cand);
  }
  return best;
}

}  // namespace

Doc::Doc(DocParams params) : params_(params) {}

std::string Doc::name() const { return "CFPC"; }

Result<Clustering> Doc::Cluster(const Dataset& data) {
  StartClock();
  const size_t n = data.NumPoints();
  const size_t d = data.NumDims();
  if (d > 62) return Status::InvalidArgument("CFPC supports d <= 62");
  if (!(params_.beta > 0.0 && params_.beta <= 0.5)) {
    return Status::InvalidArgument("beta must be in (0, 0.5]");
  }
  if (!(params_.alpha > 0.0 && params_.alpha < 1.0)) {
    return Status::InvalidArgument("alpha must be in (0, 1)");
  }
  Rng rng(params_.seed);

  Clustering out;
  out.labels.assign(n, kNoiseLabel);
  std::vector<size_t> pool(n);
  for (size_t i = 0; i < n; ++i) pool[i] = i;

  for (size_t c = 0; c < params_.num_clusters && !pool.empty(); ++c) {
    if (TimeExpired()) return TimeoutStatus();
    Candidate cand = FpcBestCluster(data, pool, params_, rng);
    if (cand.members.empty() || cand.num_dims == 0) break;

    const int label = static_cast<int>(out.clusters.size());
    ClusterInfo info;
    info.relevant_axes = cand.dims;
    out.clusters.push_back(std::move(info));
    for (size_t i : cand.members) out.labels[i] = label;

    // Remove found members from the pool.
    std::vector<bool> taken(n, false);
    for (size_t i : cand.members) taken[i] = true;
    std::vector<size_t> next_pool;
    next_pool.reserve(pool.size() - cand.members.size());
    for (size_t i : pool) {
      if (!taken[i]) next_pool.push_back(i);
    }
    pool = std::move(next_pool);
  }
  return out;
}

}  // namespace mrcc
