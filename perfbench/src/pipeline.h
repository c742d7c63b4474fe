// The calls the benchmark makes into the MrCC library, each layer reached
// through its public functions:
//   - RunComposed rebuilds MrCC::Run from its stages (sharded tree build,
//     MergeTree fold, RunBetaSearch, MergeBetaClusters, LabelPoints) so the
//     benchmark can put a span around each call;
//   - RunProbes times the stages that sit below RunBetaSearch (LevelIndex,
//     FaceLaplacianConvolveRange) and a bare data scan, as extra calls
//     outside the pipeline;
//   - Feed drives a StreamingMrCC window with periodic snapshots.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/counting_tree.h"
#include "core/mrcc.h"
#include "core/tree_io.h"
#include "data/data_source.h"
#include "data/dataset.h"
#include "spans.h"

namespace perfbench {

/// MrCC::Run's scan settings at default parameters: 4096-point chunks
/// (chunk_points = 0 resolves to this) read two chunks ahead.
inline constexpr size_t kChunkPoints = 4096;
inline constexpr size_t kReadAhead = 2;

/// Chunks per ingest-rate sample of a feed.
inline constexpr size_t kIngestWindow = 8;

/// The engine parameters every workload runs with (the paper's alpha and
/// H), at `threads` engine threads.
mrcc::MrCCParams EngineParams(int threads);

/// FNV-1a over the β-clusters' boxes and relevant axes.
uint64_t BetasHash(const std::vector<mrcc::BetaCluster>& betas);

struct ComposedResult {
  std::vector<int> labels;
  std::optional<mrcc::CountingTree> tree;
  mrcc::BetaSearchStats beta;
  mrcc::MergeTreeStats merge;
  size_t clusters = 0;
  /// Span id of the pipeline's root span.
  int root = -1;
  double wall_s = 0.0;
  double build_s = 0.0;        // All shard builders, spawn to join.
  double merge_s = 0.0;        // The MergeTree fold.
  double search_s = 0.0;       // RunBetaSearch.
  double merge_betas_s = 0.0;  // MergeBetaClusters.
  double label_s = 0.0;        // LabelPoints.
  /// Wall seconds of each shard builder.
  std::vector<double> shard_s;
  /// Seconds the shard builders spent counting points, summed over the
  /// shards (shard time minus the time they waited for the next chunk).
  double tree_busy_s = 0.0;
};

/// MrCC::Run over `source` with `threads` engine threads, composed from
/// public calls, with a span around each call in `log`. Produces the same
/// labels as MrCC::Run.
mrcc::Result<ComposedResult> RunComposed(const mrcc::DataSource& source,
                                         int threads, SpanLog& log);

struct ProbeResult {
  double scan_s = 0.0;          // No-op ScanChunks pass over the source.
  double index_build_s = 0.0;   // LevelIndex over levels 1..H-1.
  size_t index_bytes = 0;
  double convolve_s = 0.0;      // Face Laplacian over levels 2..H-1.
  uint64_t cells_convolved = 0;
  int root = -1;
};

/// Times the extra calls under their own root span in `log`.
mrcc::Result<ProbeResult> RunProbes(const mrcc::DataSource& source,
                                    const mrcc::CountingTree& tree,
                                    SpanLog& log);

struct FeedConfig {
  size_t points = 0;          // Points fed, from the start of the data.
  size_t window = 0;          // WindowParams::points.
  size_t generations = 8;     // WindowParams::generations.
  size_t snapshot_every = 0;  // 0: no snapshots while feeding.
};

struct FeedResult {
  /// Latency of each Snapshot() taken while feeding.
  std::vector<double> snapshot_s;
  /// Total seconds inside PushChunk.
  double push_s = 0.0;
  /// Points per second inside PushChunk over each run of kIngestWindow
  /// consecutive chunks (each about one generation, so each includes a
  /// seal and, once the window is full, an eviction).
  std::vector<double> ingest_rates;
  uint64_t pushed = 0;
  /// Calls made (pushes and snapshots), for the error rate.
  uint64_t calls = 0;
  /// The final snapshot, taken after the last push (labels filled when a
  /// label source was given) and its latency.
  mrcc::MrCCResult last;
  double last_snapshot_s = 0.0;
  uint64_t retained = 0;
  uint64_t evicted = 0;
  size_t generations_sealed = 0;
  /// BetasHash of every snapshot, folded in order.
  uint64_t snapshots_hash = 0;
  int root = -1;
};

/// Feeds the first `config.points` points of `data` through a windowed
/// StreamingMrCC in kChunkPoints chunks, snapshotting every
/// `config.snapshot_every` points and once more at the end (labeling
/// `label_source` when non-null). Spans go to `log` when non-null.
mrcc::Result<FeedResult> Feed(const mrcc::Dataset& data,
                              const FeedConfig& config,
                              const mrcc::DataSource* label_source,
                              SpanLog* log);

}  // namespace perfbench
