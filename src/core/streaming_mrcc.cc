#include "core/streaming_mrcc.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/tree_io.h"
#include "data/sanitize.h"

namespace mrcc {

Result<StreamingMrCC> StreamingMrCC::Create(const MrCCParams& params,
                                            size_t num_dims) {
  MRCC_RETURN_IF_ERROR(params.Validate(num_dims));
  StreamingMrCC engine(params, num_dims);
  Result<CountingTree> tree = engine.EmptyTree();
  if (!tree.ok()) return tree.status();
  engine.current_.emplace(std::move(*tree));
  return engine;
}

StreamingMrCC::StreamingMrCC(const MrCCParams& params, size_t num_dims)
    : params_(params), num_dims_(num_dims) {
  generation_points_ =
      params_.window.enabled()
          ? std::max<size_t>(1, params_.window.points /
                                    params_.window.generations)
          : std::numeric_limits<size_t>::max();
}

Result<CountingTree> StreamingMrCC::EmptyTree() const {
  CountingTree::Builder builder(num_dims_, params_.num_resolutions);
  MRCC_RETURN_IF_ERROR(builder.status());
  return std::move(builder).Finish();
}

Status StreamingMrCC::Push(std::span<const double> point) {
  // Mirror the batch build scan's hygiene: a point is either counted and
  // labelable, or invisible to both passes.
  const PointAction action = ClassifyPoint(point, params_.bad_point_policy);
  if (action == PointAction::kReject) {
    return Status::InvalidArgument(
        "pushed point has a NaN/Inf/out-of-[0,1) value; normalize the "
        "data or pick a bad_point_policy");
  }
  if (action == PointAction::kSkip) {
    ++points_skipped_;
    MetricsRegistry::Global().counter("input.points_skipped").Increment();
    return Status::OK();
  }
  if (action == PointAction::kClamp) {
    scratch_.assign(point.begin(), point.end());
    SanitizePoint(scratch_, params_.bad_point_policy);
    point = scratch_;
    ++points_clamped_;
    MetricsRegistry::Global().counter("input.points_clamped").Increment();
  }
  MRCC_RETURN_IF_ERROR(current_->Insert(point));
  ++points_seen_;
  ++retained_;
  ++current_points_;
  if (current_points_ >= generation_points_) {
    MRCC_RETURN_IF_ERROR(SealGeneration());
  }
  return Status::OK();
}

Status StreamingMrCC::PushChunk(std::span<const double> values) {
  if (values.size() % num_dims_ != 0) {
    return Status::InvalidArgument(
        "chunk of " + std::to_string(values.size()) +
        " values is not a whole number of " + std::to_string(num_dims_) +
        "-dimensional points");
  }
  for (size_t off = 0; off < values.size(); off += num_dims_) {
    MRCC_RETURN_IF_ERROR(Push(values.subspan(off, num_dims_)));
  }
  return Status::OK();
}

Status StreamingMrCC::SealGeneration() {
  current_->Seal();
  generations_.push_back(std::move(*current_));
  current_.reset();
  Result<CountingTree> fresh = EmptyTree();
  if (!fresh.ok()) return fresh.status();
  current_.emplace(std::move(*fresh));
  current_points_ = 0;

  // Count decay: whole generations leave when the retained total
  // overruns the window — the window is exact to one generation.
  while (retained_ > params_.window.points && !generations_.empty()) {
    const uint64_t evicted = generations_.front().total_points();
    generations_.pop_front();
    retained_ -= evicted;
    points_evicted_ += evicted;
    MetricsRegistry::Global().counter("tree.generations_evicted").Increment();
  }
  return Status::OK();
}

Result<MrCCResult> StreamingMrCC::Run(const DataSource* label_source) {
  MRCC_TRACE_SPAN_N("mrcc.run", static_cast<int64_t>(retained_));
  BudgetTracker tracker(params_.budget);
  MrCCStats stats;
  stats.points_skipped = points_skipped_;
  stats.points_clamped = points_clamped_;

  // Assemble the window tree: fold the generations oldest-to-newest,
  // the filling generation last — creation order equals stream order,
  // so the fold reproduces a batch build over the retained points
  // exactly. Always fold into a scratch tree: the budget drops in
  // ClusterTree must never mutate the live generations, so the next
  // snapshot starts from full H again.
  current_->Seal();  // Re-opens automatically on the next Push.
  Result<CountingTree> merged = EmptyTree();
  if (!merged.ok()) return merged.status();
  {
    MRCC_TRACE_SPAN_N("tree.merge",
                      static_cast<int64_t>(generations_.size() + 1));
    for (const CountingTree& generation : generations_) {
      Result<MergeTreeStats> fold = MergeTree(&*merged, generation);
      if (!fold.ok()) return fold.status();
      stats.tree_merge += *fold;
    }
    Result<MergeTreeStats> fold = MergeTree(&*merged, *current_);
    if (!fold.ok()) return fold.status();
    stats.tree_merge += *fold;
  }
  stats.tree_build_seconds = tracker.ElapsedSeconds();
  stats.tree_merge_seconds = stats.tree_build_seconds;

  // The fold leaves every used flag clear (MergeTree re-seals), so the
  // window is searched exactly like a freshly built batch tree.
  return ClusterTree(*merged, params_, label_source, tracker,
                     std::move(stats));
}

}  // namespace mrcc
