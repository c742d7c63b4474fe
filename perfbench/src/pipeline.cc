#include "pipeline.h"

#include <algorithm>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "common/parallel.h"
#include "core/beta_cluster_finder.h"
#include "core/cluster_builder.h"
#include "core/laplacian_mask.h"
#include "core/level_index.h"
#include "core/streaming_mrcc.h"
#include "data.h"
#include "data/prefetch.h"
#include "data/sanitize.h"

namespace perfbench {

using mrcc::Result;
using mrcc::Status;

namespace {

/// MrCC::Run gives no shard fewer points than this.
constexpr size_t kMinPointsPerShard = 2048;

}  // namespace

mrcc::MrCCParams EngineParams(int threads) {
  mrcc::MrCCParams params;
  params.num_threads = threads;
  return params;
}

uint64_t BetasHash(const std::vector<mrcc::BetaCluster>& betas) {
  uint64_t h = Fnv1a(nullptr, 0);
  for (const mrcc::BetaCluster& b : betas) {
    h = Fnv1a(b.lower.data(), b.lower.size() * sizeof(double), h);
    h = Fnv1a(b.upper.data(), b.upper.size() * sizeof(double), h);
    for (bool r : b.relevant) {
      const char bit = r ? 1 : 0;
      h = Fnv1a(&bit, 1, h);
    }
    h = Fnv1a(&b.level, sizeof(b.level), h);
    h = Fnv1a(&b.center_count, sizeof(b.center_count), h);
  }
  return h;
}

Result<ComposedResult> RunComposed(const mrcc::DataSource& source,
                                   int threads, SpanLog& log) {
  const size_t n = source.NumPoints();
  const size_t d = source.NumDims();
  const mrcc::MrCCParams params = EngineParams(threads);
  const int shards = std::max(
      1, std::min<int>(threads, static_cast<int>(n / kMinPointsPerShard)));

  ComposedResult out;
  const int run = log.NewRun();
  ScopedSpan root(&log, "pipeline", kUnattributed, -1, run);
  out.root = root.id();

  // Tree build: one builder per equal point slice, shard 0 on this thread
  // (as the engine's thread pool does), each scanning its slice through
  // the same read-ahead scanner the engine uses.
  std::vector<Result<mrcc::CountingTree>> partial;
  for (int t = 0; t < shards; ++t) {
    partial.emplace_back(Status::Internal("shard not run"));
  }
  std::vector<int> shard_span(static_cast<size_t>(shards), -1);
  std::vector<int64_t> shard_wait_ns(static_cast<size_t>(shards), 0);
  int build_span = -1;
  {
    ScopedSpan build(&log, "parallel.shards", "parallel", root.id(), run);
    build_span = build.id();
    auto shard = [&](int t) {
      const size_t st = static_cast<size_t>(t);
      ScopedSpan span(&log, "tree.build_shard", "counting_tree", build.id(),
                      run);
      shard_span[st] = span.id();
      mrcc::CountingTree::Builder builder(d, params.num_resolutions);
      Status status = builder.status();
      // Time between asking for a chunk and receiving it is the shard's
      // wait on the data layer.
      int64_t asked = NowNs();
      if (status.ok()) {
        const mrcc::ReadAheadScanner scanner(source, kReadAhead);
        status = scanner.ScanChunks(
            mrcc::SliceBegin(n, shards, t), mrcc::SliceEnd(n, shards, t),
            kChunkPoints,
            [&](size_t first, std::span<const double> values) -> Status {
              const int64_t got = NowNs();
              log.Record("data.chunk_wait", "data", span.id(), run, asked,
                         got);
              shard_wait_ns[st] += got - asked;
              for (size_t off = 0; off < values.size(); off += d) {
                const std::span<const double> point = values.subspan(off, d);
                if (mrcc::ClassifyPoint(point, params.bad_point_policy) !=
                    mrcc::PointAction::kKeep) {
                  return Status::InvalidArgument(
                      "point " + std::to_string(first + off / d) +
                      " is outside [0,1)^d");
                }
                MRCC_RETURN_IF_ERROR(builder.Add(point));
              }
              asked = NowNs();
              return Status::OK();
            });
      }
      partial[st] = status.ok() ? std::move(builder).Finish()
                                : Result<mrcc::CountingTree>(status);
    };
    std::vector<std::thread> workers;
    for (int t = 1; t < shards; ++t) workers.emplace_back(shard, t);
    shard(0);
    for (std::thread& w : workers) w.join();
  }
  for (const Result<mrcc::CountingTree>& p : partial) {
    if (!p.ok()) return p.status();
  }
  out.build_s = log.Seconds(build_span);
  for (int t = 0; t < shards; ++t) {
    const size_t st = static_cast<size_t>(t);
    const double s = log.Seconds(shard_span[st]);
    out.shard_s.push_back(s);
    out.tree_busy_s += s - static_cast<double>(shard_wait_ns[st]) * 1e-9;
  }

  int span_id = -1;
  {
    ScopedSpan span(&log, "tree.merge", "tree_io", root.id(), run);
    span_id = span.id();
    out.tree.emplace(std::move(*partial[0]));
    for (size_t t = 1; t < partial.size(); ++t) {
      Result<mrcc::MergeTreeStats> merged =
          mrcc::MergeTree(&*out.tree, *partial[t]);
      if (!merged.ok()) return merged.status();
      out.merge += *merged;
    }
  }
  out.merge_s = log.Seconds(span_id);

  mrcc::BetaFinderOptions finder;
  finder.alpha = params.alpha;
  finder.full_mask = params.full_mask;
  finder.num_threads = threads;
  Result<mrcc::BetaSearchResult> search(Status::Internal("search not run"));
  {
    ScopedSpan span(&log, "beta.search", "beta_cluster_finder", root.id(),
                    run);
    span_id = span.id();
    search = mrcc::RunBetaSearch(*out.tree, finder);
  }
  if (!search.ok()) return search.status();
  out.search_s = log.Seconds(span_id);
  out.beta = search->stats;

  std::vector<int> beta_to_cluster;
  mrcc::Clustering clustering;
  {
    ScopedSpan span(&log, "cluster.merge_betas", "cluster_builder",
                    root.id(), run);
    span_id = span.id();
    clustering = mrcc::MergeBetaClusters(search->betas, d, &beta_to_cluster);
  }
  out.merge_betas_s = log.Seconds(span_id);
  out.clusters = clustering.NumClusters();

  Result<std::vector<int>> labels(Status::Internal("labeling not run"));
  {
    ScopedSpan span(&log, "cluster.label", "cluster_builder", root.id(), run);
    span_id = span.id();
    labels = mrcc::LabelPoints(search->betas, beta_to_cluster, source,
                               threads, params.bad_point_policy,
                               kChunkPoints, kReadAhead);
  }
  if (!labels.ok()) return labels.status();
  out.label_s = log.Seconds(span_id);
  out.labels = std::move(*labels);
  return out;
}

Result<ProbeResult> RunProbes(const mrcc::DataSource& source,
                              const mrcc::CountingTree& tree, SpanLog& log) {
  ProbeResult out;
  const int run = log.NewRun();
  ScopedSpan root(&log, "probes", kUnattributed, -1, run);
  out.root = root.id();
  int span_id = -1;
  {
    ScopedSpan span(&log, "data.scan", "data", root.id(), run);
    span_id = span.id();
    MRCC_RETURN_IF_ERROR(source.ScanChunks(
        0, source.NumPoints(), kChunkPoints,
        [](size_t, std::span<const double>) { return Status::OK(); }));
  }
  out.scan_s = log.Seconds(span_id);

  // One index per level, as the β-search builds them; the convolution
  // needs the index of its own level.
  std::vector<std::optional<mrcc::LevelIndex>> index(
      static_cast<size_t>(tree.num_resolutions()));
  for (int h = 1; h < tree.num_resolutions(); ++h) {
    ScopedSpan span(&log, "beta.index_build", "beta_cluster_finder",
                    root.id(), run);
    index[static_cast<size_t>(h)].emplace(tree.Level(h));
  }
  std::vector<int64_t> response;
  for (int h = 2; h < tree.num_resolutions(); ++h) {
    const mrcc::CountingTree::LevelView view = tree.Level(h);
    const auto cells = static_cast<uint32_t>(view.num_cells());
    response.assign(cells, 0);
    ScopedSpan span(&log, "beta.convolve", "beta_cluster_finder", root.id(),
                    run);
    mrcc::FaceLaplacianConvolveRange(view, *index[static_cast<size_t>(h)], 0,
                                     cells, response.data());
    out.cells_convolved += cells;
  }
  for (const Span& s : log.Snapshot()) {
    if (s.run != run) continue;
    const double secs = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (s.name == "beta.index_build") out.index_build_s += secs;
    if (s.name == "beta.convolve") out.convolve_s += secs;
  }
  for (const std::optional<mrcc::LevelIndex>& idx : index) {
    if (idx) out.index_bytes += idx->MemoryBytes();
  }
  return out;
}

Result<FeedResult> Feed(const mrcc::Dataset& data, const FeedConfig& config,
                        const mrcc::DataSource* label_source, SpanLog* log) {
  mrcc::MrCCParams params = EngineParams(1);
  params.window.points = config.window;
  params.window.generations = config.generations;
  params.chunk_points = kChunkPoints;
  Result<mrcc::StreamingMrCC> engine =
      mrcc::StreamingMrCC::Create(params, data.NumDims());
  if (!engine.ok()) return engine.status();

  FeedResult out;
  const int run = log ? log->NewRun() : 0;
  ScopedSpan root(log, "feed", kUnattributed, -1, run);
  out.root = root.id();
  out.snapshots_hash = Fnv1a(nullptr, 0);
  const size_t n = std::min(config.points, data.NumPoints());
  const size_t d = data.NumDims();
  size_t next_snapshot = config.snapshot_every > 0
                             ? config.snapshot_every
                             : std::numeric_limits<size_t>::max();
  int64_t push_ns = 0;
  int64_t window_ns = 0;
  size_t window_points = 0;
  size_t window_chunks = 0;
  for (size_t begin = 0; begin < n; begin += kChunkPoints) {
    const size_t end = std::min(n, begin + kChunkPoints);
    const std::span<const double> values(data.Point(begin).data(),
                                         (end - begin) * d);
    const int64_t start = NowNs();
    Status pushed = Status::OK();
    {
      ScopedSpan span(log, "stream.push", "streaming_mrcc", root.id(), run);
      pushed = engine->PushChunk(values);
    }
    const int64_t took = NowNs() - start;
    push_ns += took;
    ++out.calls;
    if (!pushed.ok()) return pushed;
    window_ns += took;
    window_points += end - begin;
    if (++window_chunks == kIngestWindow) {
      out.ingest_rates.push_back(static_cast<double>(window_points) * 1e9 /
                                 static_cast<double>(window_ns));
      window_ns = 0;
      window_points = 0;
      window_chunks = 0;
    }
    out.pushed = end;
    if (end >= next_snapshot) {
      next_snapshot += config.snapshot_every;
      const int64_t t0 = NowNs();
      Result<mrcc::MrCCResult> snap(Status::Internal("snapshot not run"));
      {
        ScopedSpan span(log, "stream.snapshot", "streaming_mrcc", root.id(),
                        run);
        snap = engine->Snapshot();
      }
      out.snapshot_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
      ++out.calls;
      if (!snap.ok()) return snap.status();
      const uint64_t h = BetasHash(snap->beta_clusters);
      out.snapshots_hash = Fnv1a(&h, sizeof(h), out.snapshots_hash);
    }
  }
  out.push_s = static_cast<double>(push_ns) * 1e-9;

  const int64_t t0 = NowNs();
  Result<mrcc::MrCCResult> last(Status::Internal("snapshot not run"));
  {
    ScopedSpan span(log, "stream.snapshot", "streaming_mrcc", root.id(), run);
    last = label_source ? engine->Snapshot(*label_source) : engine->Snapshot();
  }
  out.last_snapshot_s = static_cast<double>(NowNs() - t0) * 1e-9;
  ++out.calls;
  if (!last.ok()) return last.status();
  out.last = std::move(*last);
  const uint64_t h = BetasHash(out.last.beta_clusters);
  out.snapshots_hash = Fnv1a(&h, sizeof(h), out.snapshots_hash);
  out.retained = engine->points_retained();
  out.evicted = engine->points_evicted();
  out.generations_sealed = engine->generations_sealed();
  return out;
}

}  // namespace perfbench
