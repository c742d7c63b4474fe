// The MrCC benchmark: runs one workload for a given seed and prints its
// metrics, ending with one JSON line.
//
//   mrcc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --data-dir DIR --out-dir DIR
//                  [--points N] [--corrupt-gate GATE]
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// rebuilds the pipeline from public calls with a span around each and
// reports the per-layer metrics. --points shrinks the workload (the
// self-test uses it); --corrupt-gate flips one label in front of the named
// correctness gate, which must then fail the run (also for the self-test).
// perfbench/README.md describes the workloads and every metric.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/memory.h"
#include "common/timer.h"
#include "core/beta_cluster_finder.h"
#include "core/cluster_builder.h"
#include "core/mrcc.h"
#include "data.h"
#include "data/catalog.h"
#include "data/data_source.h"
#include "data/dataset_io.h"
#include "eval/quality.h"
#include "host.h"
#include "pipeline.h"
#include "spans.h"

namespace perfbench {
namespace {

using mrcc::Dataset;
using mrcc::MrCC;
using mrcc::MrCCResult;
using mrcc::Result;

struct Workload {
  const char* name;
  const char* family;  // "14d" (the paper's base family) or "30d_s".
  size_t points;
  bool file;         // Input read through ChunkedBinaryDataSource.
  bool stream;       // Fed through StreamingMrCC.
  bool multithread;  // min(4, CPUs) engine threads instead of 1.
};

// Why each exists is in perfbench/README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"base14d_1m", "14d", 1000000, false, false, false},
    {"dims30d_90k", "30d_s", 90000, false, false, false},
    {"file14d_1m_mt", "14d", 1000000, true, false, true},
    {"stream14d_window", "14d", 1000000, false, true, false},
};

// The stream workload's shape at its full 1,000,000 points; --points
// scales the window and the snapshot interval with the input.
constexpr size_t kStreamWindow = 250000;
constexpr size_t kStreamGenerations = 8;
constexpr size_t kSnapshotEvery = 65536;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

/// Largest share of the traced pipeline's wall time that may fall outside
/// every layer's spans.
constexpr double kAccountingTolerance = 0.05;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = "perfbench/data";
  std::string out_dir = "perfbench/out";
  size_t points = 0;  // 0: the workload's own size.
  std::string corrupt_gate;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// "n=N median=M" plus the highest percentile with at least ten samples
/// beyond it, when there are enough samples for one.
std::string Summary(std::vector<double> v) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "n=%zu median=%.6g", v.size(), Median(v));
  std::string out = buf;
  if (v.size() <= 16) {
    out += " [";
    for (size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.4g", i ? " " : "", v[i]);
      out += buf;
    }
    out += "]";
  }
  if (v.size() >= 20) {
    std::sort(v.begin(), v.end());
    const size_t idx = v.size() - 11;  // Ten samples lie above it.
    const int pct = static_cast<int>(100 * (idx + 1) / v.size());
    std::snprintf(buf, sizeof(buf), " p%d=%.6g", pct, v[idx]);
    out += buf;
  }
  return out;
}

/// Correctness gates and the error count. Every call into the program and
/// every gate check is one attempted operation.
class Gates {
 public:
  explicit Gates(std::string corrupt) : corrupt_(std::move(corrupt)) {}

  /// Label vectors must agree (compared by FNV-1a). The gate named by
  /// --corrupt-gate sees `got` with one label changed.
  void Labels(const std::string& gate, const std::vector<int>& want,
              std::vector<int> got) {
    if (gate == corrupt_ && !got.empty()) {
      got[0] = got[0] == mrcc::kNoiseLabel ? 0 : mrcc::kNoiseLabel;
    }
    char detail[128];
    std::snprintf(detail, sizeof(detail),
                  "labels FNV-1a %016" PRIx64 " (n=%zu) vs %016" PRIx64
                  " (n=%zu)",
                  LabelsHash(want), want.size(), LabelsHash(got), got.size());
    Check(gate, want.size() == got.size() &&
                    LabelsHash(want) == LabelsHash(got), detail);
  }

  void Check(const std::string& gate, bool ok, const std::string& detail) {
    ++attempted_;
    ++checks_[gate];
    if (!ok) Fail("gate " + gate + " failed: " + detail);
  }

  /// `n` calls into the program that succeeded.
  void Calls(uint64_t n) { attempted_ += n; }

  /// One call that failed.
  void Failed(const std::string& what, const mrcc::Status& status) {
    ++attempted_;
    Fail(what + ": " + status.ToString());
  }

  /// The corrupted gate must have run, or the self-test proves nothing.
  void Finish() {
    if (!corrupt_.empty() && checks_[corrupt_] == 0) {
      Fail("gate " + corrupt_ + " was never checked");
    }
  }

  bool ok() const { return failed_ == 0; }
  uint64_t attempted() const { return std::max<uint64_t>(1, attempted_); }
  uint64_t failed() const { return failed_; }

 private:
  void Fail(const std::string& what) {
    ++failed_;
    std::printf("FAILED %s\n", what.c_str());
  }

  std::string corrupt_;
  std::map<std::string, int> checks_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one invocation shares.
struct Context {
  Options opt;
  Workload w{};
  size_t points = 0;
  int threads = 1;
  std::string points_path;
  mrcc::Clustering truth;
  Gates gates{""};
  SpanLog log;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Input size relative to the workload's own; scales the stream shape.
  double Scale() const {
    return static_cast<double>(points) / static_cast<double>(w.points);
  }
  /// Points the stream window retains.
  size_t Window() const {
    return std::max<size_t>(kChunkPoints,
                            static_cast<size_t>(Scale() * kStreamWindow));
  }
  /// Feeds `points_fed` points through the stream window, snapshotting
  /// every kSnapshotEvery points (scaled) when `snapshots`.
  FeedConfig StreamConfig(size_t points_fed, bool snapshots) const {
    FeedConfig c;
    c.points = points_fed;
    c.window = Window();
    c.generations = kStreamGenerations;
    if (snapshots) {
      const auto chunks = static_cast<size_t>(
          Scale() * static_cast<double>(kSnapshotEvery / kChunkPoints) + 0.5);
      c.snapshot_every = std::max<size_t>(1, chunks) * kChunkPoints;
    }
    return c;
  }
};

/// The workload's input, as the program receives it.
struct Input {
  std::optional<Dataset> memory;
  std::optional<mrcc::MemoryDataSource> memory_source;
  std::optional<mrcc::ChunkedBinaryDataSource> file;

  const mrcc::DataSource& source() const {
    if (file) return *file;
    return *memory_source;
  }
};

/// Loads (memory workloads) or opens (the file workload) the input through
/// the program; returns the seconds it took.
Result<double> LoadInput(const Context& ctx, Input& in) {
  mrcc::Timer timer;
  if (ctx.w.file) {
    Result<mrcc::ChunkedBinaryDataSource> f =
        mrcc::ChunkedBinaryDataSource::Open(ctx.points_path);
    if (!f.ok()) return f.status();
    in.file.emplace(std::move(*f));
  } else {
    in.memory_source.reset();
    in.memory.reset();
    Result<Dataset> d = mrcc::LoadBinary(ctx.points_path);
    if (!d.ok()) return d.status();
    in.memory.emplace(std::move(*d));
    in.memory_source.emplace(*in.memory);
  }
  return timer.ElapsedSeconds();
}

/// Runs MrCC::Run, counting the call.
std::optional<MrCCResult> RunEngine(Context& ctx, const MrCC& engine,
                                    const mrcc::DataSource& source) {
  Result<MrCCResult> r = engine.Run(source);
  if (!r.ok()) {
    ctx.gates.Failed("MrCC::Run", r.status());
    return std::nullopt;
  }
  ctx.gates.Calls(1);
  return std::move(*r);
}

void AddQuality(Context& ctx, const mrcc::Clustering& found) {
  const mrcc::QualityReport q = mrcc::EvaluateClustering(found, ctx.truth);
  ctx.Add("quality", q.quality, "fraction");
  ctx.Add("subspace_quality", q.subspace_quality, "fraction");
}

/// The points a feed's window retains at its end.
Dataset RetainedWindow(const Dataset& data, const FeedResult& feed) {
  return Slice(data, feed.pushed - feed.retained, feed.pushed);
}

/// The window gate: the final snapshot's β-clusters must equal those of a
/// batch MrCC::Run over exactly the retained points, and so must the
/// labels both give those points.
void CheckWindow(Context& ctx, const Dataset& window,
                 const MrCCResult& snapshot,
                 const std::vector<int>& snapshot_labels) {
  const std::optional<MrCCResult> batch =
      RunEngine(ctx, MrCC(EngineParams(1)), mrcc::MemoryDataSource(window));
  if (!batch) return;
  ctx.gates.Check("window",
                  BetasHash(batch->beta_clusters) ==
                      BetasHash(snapshot.beta_clusters),
                  "snapshot beta-clusters differ from the batch run's");
  ctx.gates.Labels("window", batch->clustering.labels, snapshot_labels);
}

// ---------------------------------------------------------------------------
// Untraced runs: the end-to-end metrics.

void BatchEndToEnd(Context& ctx) {
  const MrCC engine(EngineParams(ctx.threads));
  Input in;
  std::vector<double> setup_s;
  std::vector<int> reference;
  for (int i = 0; i < kSetups; ++i) {
    mrcc::Timer timer;
    Result<double> loaded = LoadInput(ctx, in);
    if (!loaded.ok()) return ctx.gates.Failed("load", loaded.status());
    const std::optional<MrCCResult> warm = RunEngine(ctx, engine, in.source());
    if (!warm) return;
    setup_s.push_back(timer.ElapsedSeconds());
    if (i == 0) {
      reference = warm->clustering.labels;
    } else {
      ctx.gates.Labels("repeat", reference, warm->clustering.labels);
    }
  }

  std::vector<double> run_s;
  std::vector<double> heap_mb;
  std::optional<MrCCResult> last;
  mrcc::Timer measured;
  do {
    last.reset();
    mrcc::MemoryUsageScope scope;
    mrcc::Timer timer;
    last = RunEngine(ctx, engine, in.source());
    const double seconds = timer.ElapsedSeconds();
    if (!last) return;
    run_s.push_back(seconds);
    heap_mb.push_back(static_cast<double>(scope.PeakDeltaBytes()) / 1048576.0);
    ctx.gates.Labels("repeat", reference, last->clustering.labels);
  } while (measured.ElapsedSeconds() < ctx.opt.seconds);

  if (ctx.w.file) {
    // Bit-identity across backends and thread counts: the file read at
    // ctx.threads threads must label exactly like memory at one thread.
    Result<Dataset> memory = mrcc::LoadBinary(ctx.points_path);
    if (!memory.ok()) return ctx.gates.Failed("load", memory.status());
    const std::optional<MrCCResult> base = RunEngine(
        ctx, MrCC(EngineParams(1)), mrcc::MemoryDataSource(*memory));
    if (!base) return;
    ctx.gates.Labels("backend", base->clustering.labels,
                     last->clustering.labels);
  }

  std::printf("run_s: %s\n", Summary(run_s).c_str());
  std::printf("setup_s: %s\n", Summary(setup_s).c_str());
  const double run = Median(run_s);
  ctx.Add("time_to_clusters_s", run, "s");
  ctx.Add("points_per_s", static_cast<double>(ctx.points) / run, "1/s");
  ctx.Add("peak_heap_mb", Median(heap_mb), "MiB");
  AddQuality(ctx, last->clustering);
  ctx.Add("setup_s", Median(setup_s), "s");
}

void StreamEndToEnd(Context& ctx) {
  Input in;
  std::vector<double> setup_s;
  // The warm-up run of a set-up feeds one window's worth of points and
  // takes one snapshot.
  const FeedConfig warm_config = ctx.StreamConfig(ctx.Window(), false);
  for (int i = 0; i < kSetups; ++i) {
    mrcc::Timer timer;
    Result<double> loaded = LoadInput(ctx, in);
    if (!loaded.ok()) return ctx.gates.Failed("load", loaded.status());
    Result<FeedResult> warm = Feed(*in.memory, warm_config, nullptr, nullptr);
    if (!warm.ok()) return ctx.gates.Failed("warm-up feed", warm.status());
    ctx.gates.Calls(warm->calls);
    setup_s.push_back(timer.ElapsedSeconds());
  }

  const Dataset& data = *in.memory;
  const mrcc::MemoryDataSource all(data);
  const FeedConfig config = ctx.StreamConfig(ctx.points, true);
  std::vector<double> snapshot_s;
  std::vector<double> heap_mb;
  std::vector<double> ingest_rates;
  uint64_t pushed = 0;
  std::vector<int> first_labels;
  uint64_t first_snapshots = 0;
  std::optional<FeedResult> last;
  mrcc::Timer measured;
  do {
    last.reset();
    mrcc::MemoryUsageScope scope;
    Result<FeedResult> feed = Feed(data, config, &all, nullptr);
    if (!feed.ok()) return ctx.gates.Failed("feed", feed.status());
    heap_mb.push_back(static_cast<double>(scope.PeakDeltaBytes()) / 1048576.0);
    ctx.gates.Calls(feed->calls);
    snapshot_s.insert(snapshot_s.end(), feed->snapshot_s.begin(),
                      feed->snapshot_s.end());
    ingest_rates.insert(ingest_rates.end(), feed->ingest_rates.begin(),
                        feed->ingest_rates.end());
    pushed += feed->pushed;
    const std::vector<int>& labels = feed->last.clustering.labels;
    if (first_labels.empty()) {
      const auto begin = labels.begin() +
                         static_cast<std::ptrdiff_t>(feed->pushed -
                                                     feed->retained);
      CheckWindow(ctx, RetainedWindow(data, *feed), feed->last,
                  std::vector<int>(begin, begin + static_cast<std::ptrdiff_t>(
                                                      feed->retained)));
      first_labels = labels;
      first_snapshots = feed->snapshots_hash;
    } else {
      ctx.gates.Labels("repeat", first_labels, labels);
      ctx.gates.Check("repeat", first_snapshots == feed->snapshots_hash,
                      "snapshot beta-clusters differ between feeds");
    }
    last = std::move(*feed);
  } while (measured.ElapsedSeconds() < ctx.opt.seconds);

  std::printf("snapshot_s: %s\n", Summary(snapshot_s).c_str());
  std::printf("ingest points/s per %zu-chunk window: %s\n", kIngestWindow,
              Summary(ingest_rates).c_str());
  std::printf("setup_s: %s\n", Summary(setup_s).c_str());
  std::printf("feeds: %zu, points pushed: %" PRIu64 "\n", heap_mb.size(),
              pushed);
  ctx.Add("time_to_clusters_s", Median(snapshot_s), "s");
  ctx.Add("points_per_s", Median(ingest_rates), "1/s");
  ctx.Add("peak_heap_mb", Median(heap_mb), "MiB");
  AddQuality(ctx, last->last.clustering);
  ctx.Add("setup_s", Median(setup_s), "s");
}

// ---------------------------------------------------------------------------
// Traced runs: the per-layer metrics.

void PrintBreakdown(const char* title,
                    const std::vector<std::map<std::string, LayerTime>>& reps,
                    const std::vector<double>& walls) {
  std::map<std::string, std::vector<double>> self;
  std::map<std::string, std::vector<double>> wall;
  for (const auto& rep : reps) {
    for (const auto& [layer, t] : rep) {
      self[layer].push_back(t.self_s);
      wall[layer].push_back(t.wall_s);
    }
  }
  const double total = Median(walls);
  std::printf("%s: median of %zu traced runs, wall %.4f s\n", title,
              reps.size(), total);
  std::printf("  %-22s %12s %12s %8s\n", "layer", "self_s", "wall_s",
              "share");
  double sum = 0.0;
  for (const auto& [layer, v] : wall) {
    const double w = Median(v);
    sum += w;
    std::printf("  %-22s %12.6f %12.6f %7.2f%%\n", layer.c_str(),
                Median(self[layer]), w, total > 0 ? 100.0 * w / total : 0.0);
  }
  std::printf("  %-22s %12s %12.6f\n", "sum of medians", "", sum);
}

/// One composed-pipeline repetition's numbers.
struct ComposedRep {
  ComposedResult result;
  std::map<std::string, LayerTime> layers;
};

void StreamLayers(Context& ctx, const Dataset& data, const FeedConfig& config,
                  std::optional<Dataset>* window_out) {
  Result<FeedResult> feed = Feed(data, config, nullptr, &ctx.log);
  if (!feed.ok()) return ctx.gates.Failed("feed", feed.status());
  ctx.gates.Calls(feed->calls);
  PrintBreakdown("per-layer self time, stream feed",
                 {LayerBreakdown(ctx.log.Snapshot(), feed->root)},
                 {ctx.log.Seconds(feed->root)});
  std::printf("stream.snapshot_s: %s\n", Summary(feed->snapshot_s).c_str());

  Dataset window = RetainedWindow(data, *feed);
  // The search half of a snapshot, on a batch tree over the same points.
  Result<mrcc::CountingTree> tree =
      mrcc::CountingTree::Build(window, EngineParams(1).num_resolutions);
  if (!tree.ok()) return ctx.gates.Failed("tree build", tree.status());
  mrcc::BetaFinderOptions finder;
  finder.alpha = EngineParams(1).alpha;
  finder.num_threads = 1;
  mrcc::Timer timer;
  Result<mrcc::BetaSearchResult> search = mrcc::RunBetaSearch(*tree, finder);
  const double search_s = timer.ElapsedSeconds();
  if (!search.ok()) return ctx.gates.Failed("beta search", search.status());
  ctx.gates.Calls(2);

  Result<std::vector<int>> labels =
      mrcc::LabelPoints(feed->last.beta_clusters, feed->last.beta_to_cluster,
                        mrcc::MemoryDataSource(window), 1);
  if (!labels.ok()) return ctx.gates.Failed("labeling", labels.status());
  ctx.gates.Calls(1);
  CheckWindow(ctx, window, feed->last, *labels);

  ctx.Add("stream.push_s", feed->push_s, "s");
  ctx.Add("stream.snapshot_search_s", search_s, "s");
  ctx.Add("stream.snapshot_fold_s", feed->last_snapshot_s - search_s, "s");
  ctx.Add("stream.generations_sealed",
          static_cast<double>(feed->generations_sealed), "count");
  ctx.Add("stream.points_evicted", static_cast<double>(feed->evicted),
          "count");
  if (window_out) window_out->emplace(std::move(window));
}

/// Untraced MrCC::Run repetitions, then traced composed repetitions over
/// the same input, then the extra probes. `reference` holds MrCC::Run's
/// labels for this input.
void PipelineLayers(Context& ctx, const mrcc::DataSource& source,
                    const std::vector<int>& reference, double load_s) {
  const size_t n = source.NumPoints();
  const size_t d = source.NumDims();
  const MrCC engine(EngineParams(ctx.threads));
  std::vector<double> run_s;
  std::optional<MrCCResult> untraced;
  mrcc::Timer measured;
  do {
    untraced.reset();
    mrcc::Timer timer;
    untraced = RunEngine(ctx, engine, source);
    if (!untraced) return;
    run_s.push_back(timer.ElapsedSeconds());
    ctx.gates.Labels("repeat", reference, untraced->clustering.labels);
  } while (measured.ElapsedSeconds() < ctx.opt.seconds / 2 ||
           run_s.size() < 2);

  std::vector<ComposedRep> reps;
  measured.Reset();
  do {
    Result<ComposedResult> c = RunComposed(source, ctx.threads, ctx.log);
    if (!c.ok()) return ctx.gates.Failed("composed pipeline", c.status());
    ctx.gates.Calls(1);
    ctx.gates.Labels("composed", reference, c->labels);
    // The composed pipeline must do exactly MrCC::Run's work.
    const mrcc::MrCCStats& s = untraced->stats;
    bool same = c->beta.cells_convolved == s.beta_search.cells_convolved &&
                c->beta.candidates_tested == s.beta_search.candidates_tested &&
                c->beta.binomial_tests == s.beta_search.binomial_tests &&
                c->beta.accepted == s.beta_search.accepted &&
                c->merge.cells_merged == s.tree_merge.cells_merged &&
                c->merge.cells_created == s.tree_merge.cells_created;
    for (int h = 1; h < c->tree->num_resolutions(); ++h) {
      same = same && c->tree->NumCellsAtLevel(h) ==
                         s.cells_per_level[static_cast<size_t>(h)];
    }
    ctx.gates.Check("composed", same,
                    "work counters differ from MrCC::Run's MrCCStats");
    std::map<std::string, LayerTime> layers =
        LayerBreakdown(ctx.log.Snapshot(), c->root);
    c->wall_s = ctx.log.Seconds(c->root);
    reps.push_back({std::move(*c), std::move(layers)});
  } while (measured.ElapsedSeconds() < ctx.opt.seconds / 2);

  std::vector<std::map<std::string, LayerTime>> layer_reps;
  std::vector<double> wall, build, busy, shard_max, imbalance, merge, search,
      merge_betas, label, unattributed;
  for (const ComposedRep& r : reps) {
    const ComposedResult& c = r.result;
    layer_reps.push_back(r.layers);
    wall.push_back(c.wall_s);
    build.push_back(c.build_s);
    busy.push_back(c.tree_busy_s);
    double sum = 0.0;
    double slowest = 0.0;
    for (double s : c.shard_s) {
      sum += s;
      slowest = std::max(slowest, s);
    }
    shard_max.push_back(slowest);
    imbalance.push_back(slowest * static_cast<double>(c.shard_s.size()) / sum);
    merge.push_back(c.merge_s);
    search.push_back(c.search_s);
    merge_betas.push_back(c.merge_betas_s);
    label.push_back(c.label_s);
    auto it = r.layers.find(kUnattributed);
    unattributed.push_back(it == r.layers.end() ? 0.0
                                                : it->second.wall_s / c.wall_s);
  }
  PrintBreakdown("per-layer self time, pipeline", layer_reps, wall);
  const double unattributed_frac = Median(unattributed);
  char detail[128];
  std::snprintf(detail, sizeof(detail),
                "%.4f of the pipeline's wall time is outside every layer "
                "(tolerance %.2f)",
                unattributed_frac, kAccountingTolerance);
  ctx.gates.Check("accounting", unattributed_frac <= kAccountingTolerance,
                  detail);
  std::printf("untraced run_s: %s; traced wall: %s\n", Summary(run_s).c_str(),
              Summary(wall).c_str());

  const ComposedResult& c = reps.back().result;
  Result<ProbeResult> probes = RunProbes(source, *c.tree, ctx.log);
  if (!probes.ok()) return ctx.gates.Failed("probes", probes.status());
  ctx.gates.Calls(1);
  PrintBreakdown("per-layer self time, extra calls",
                 {LayerBreakdown(ctx.log.Snapshot(), probes->root)},
                 {ctx.log.Seconds(probes->root)});

  const int h_levels = c.tree->num_resolutions() - 1;
  const double points_dims = static_cast<double>(n) * static_cast<double>(d);
  ctx.Add("data.scan_s", probes->scan_s, "s");
  ctx.Add("data.scan_gb_per_s", points_dims * 8.0 / probes->scan_s / 1e9,
          "GB/s");
  ctx.Add("data.load_s", load_s, "s");
  ctx.Add("tree.build_s", Median(build), "s");
  ctx.Add("tree.ns_per_point_dim",
          Median(busy) * 1e9 / (points_dims * h_levels), "ns");
  size_t cells = 0;
  for (int h = 1; h <= h_levels; ++h) cells += c.tree->NumCellsAtLevel(h);
  ctx.Add("tree.cells", static_cast<double>(cells), "count");
  for (int h = 1; h <= 3; ++h) {
    ctx.Add("tree.cells_l" + std::to_string(h),
            h <= h_levels ? static_cast<double>(c.tree->NumCellsAtLevel(h))
                          : 0.0,
            "count");
  }
  ctx.Add("tree.bytes", static_cast<double>(c.tree->MemoryBytes()), "bytes");
  ctx.Add("tree.shard_build_s_max", Median(shard_max), "s");
  ctx.Add("tree.shard_imbalance", Median(imbalance), "ratio");
  ctx.Add("tree.merge_s", Median(merge), "s");
  ctx.Add("tree.merge.cells_merged", static_cast<double>(c.merge.cells_merged),
          "count");
  ctx.Add("tree.merge.cells_created",
          static_cast<double>(c.merge.cells_created), "count");
  ctx.Add("beta.search_s", Median(search), "s");
  ctx.Add("beta.index_build_s", probes->index_build_s, "s");
  ctx.Add("beta.index_bytes", static_cast<double>(probes->index_bytes),
          "bytes");
  ctx.Add("beta.convolve_s", probes->convolve_s, "s");
  ctx.Add("beta.convolve_ns_per_cell_dim",
          probes->convolve_s * 1e9 /
              (static_cast<double>(probes->cells_convolved) *
               static_cast<double>(d)),
          "ns");
  ctx.Add("beta.cells_convolved", static_cast<double>(c.beta.cells_convolved),
          "count");
  ctx.Add("beta.candidates_tested",
          static_cast<double>(c.beta.candidates_tested), "count");
  ctx.Add("beta.binomial_tests", static_cast<double>(c.beta.binomial_tests),
          "count");
  ctx.Add("beta.accepted", static_cast<double>(c.beta.accepted), "count");
  ctx.Add("cluster.label_s", Median(label), "s");
  ctx.Add("cluster.merge_betas_s", Median(merge_betas), "s");
  ctx.Add("cluster.count", static_cast<double>(c.clusters), "count");
  ctx.Add("trace.overhead_frac", Median(wall) / Median(run_s) - 1.0,
          "fraction");
  ctx.Add("trace.unattributed_frac", unattributed_frac, "fraction");
}

void TracedRun(Context& ctx) {
  Input in;
  std::vector<double> load_s;
  for (int i = 0; i < kSetups; ++i) {
    Result<double> loaded = LoadInput(ctx, in);
    if (!loaded.ok()) return ctx.gates.Failed("load", loaded.status());
    load_s.push_back(*loaded);
  }
  // Stream-layer numbers exist on every workload: the stream workload
  // feeds all its points with periodic snapshots; the batch workloads feed
  // their first window's worth and snapshot at the end.
  std::optional<Dataset> file_copy;
  if (ctx.w.file) {
    Result<Dataset> memory = mrcc::LoadBinary(ctx.points_path);
    if (!memory.ok()) return ctx.gates.Failed("load", memory.status());
    file_copy.emplace(std::move(*memory));
  }
  const Dataset& data = ctx.w.file ? *file_copy : *in.memory;
  if (ctx.w.stream) {
    std::optional<Dataset> window;
    StreamLayers(ctx, data, ctx.StreamConfig(ctx.points, true), &window);
    if (!window) return;
    // The pipeline layers of the stream workload: a batch run over the
    // retained window, which is what each snapshot clusters.
    const mrcc::MemoryDataSource source(*window);
    const std::optional<MrCCResult> warm =
        RunEngine(ctx, MrCC(EngineParams(ctx.threads)), source);
    if (!warm) return;
    PipelineLayers(ctx, source, warm->clustering.labels, Median(load_s));
    return;
  }
  StreamLayers(ctx, data, ctx.StreamConfig(ctx.Window(), true), nullptr);
  const std::optional<MrCCResult> warm =
      RunEngine(ctx, MrCC(EngineParams(ctx.threads)), in.source());
  if (!warm) return;
  PipelineLayers(ctx, in.source(), warm->clustering.labels, Median(load_s));
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt->workload = val;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      opt->trace = val == "1";
    } else if (key == "--data-dir") {
      opt->data_dir = val;
    } else if (key == "--out-dir") {
      opt->out_dir = val;
    } else if (key == "--points") {
      opt->points = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--corrupt-gate") {
      opt->corrupt_gate = val;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && opt->seconds > 0;
}

void PrintResult(const Context& ctx) {
  std::printf("error_rate: %" PRIu64 "/%" PRIu64 "\n", ctx.gates.failed(),
              ctx.gates.attempted());
  for (const Metric& m : ctx.metrics) {
    std::printf("metric %-28s %.10g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += ctx.gates.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ctx.gates.attempted());
  json += ", \"failed\": " + std::to_string(ctx.gates.failed());
  json += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < ctx.metrics.size(); ++i) {
    const Metric& m = ctx.metrics[i];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  Context ctx;
  if (!ParseArgs(argc, argv, &ctx.opt)) {
    std::fprintf(stderr,
                 "usage: mrcc_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--data-dir DIR] [--out-dir DIR] [--points N] "
                 "[--corrupt-gate GATE]\n");
    return 2;
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (ctx.opt.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", ctx.opt.workload.c_str());
    return 2;
  }
  ctx.w = *found;
  ctx.points = ctx.opt.points > 0 ? ctx.opt.points : ctx.w.points;
  ctx.threads = ctx.w.multithread ? std::min(4, AffinityCpus()) : 1;
  ctx.gates = Gates(ctx.opt.corrupt_gate);
  std::printf("%s\n", HostRecord().c_str());
  std::printf("workload %s seed %" PRIu64 " points %zu engine_threads %d "
              "trace %d\n",
              ctx.w.name, ctx.opt.seed, ctx.points, ctx.threads,
              ctx.opt.trace ? 1 : 0);

  mrcc::SyntheticConfig config = std::string(ctx.w.family) == "14d"
                                     ? mrcc::Base14dConfig(1.0)
                                     : mrcc::DimsGroupConfigs(1.0).back();
  config.num_points = ctx.points;
  // The cluster structure is the catalog's (its own generator seed); the
  // seed orders the points. See README.md, "Seeds".
  mrcc::Timer timer;
  Result<DatasetFiles> files =
      EnsureDataset(config, ctx.opt.seed, ctx.opt.data_dir);
  if (!files.ok()) {
    std::fprintf(stderr, "dataset: %s\n", files.status().ToString().c_str());
    return 1;
  }
  std::printf("dataset %s (%s in %.3f s)\n", files->points.c_str(),
              files->generated ? "generated" : "cached",
              timer.ElapsedSeconds());
  ctx.points_path = files->points;
  Result<mrcc::Clustering> truth = LoadTruth(files->truth);
  if (!truth.ok()) {
    std::fprintf(stderr, "truth: %s\n", truth.status().ToString().c_str());
    return 1;
  }
  ctx.truth = std::move(*truth);

  if (ctx.opt.trace) {
    TracedRun(ctx);
  } else if (ctx.w.stream) {
    StreamEndToEnd(ctx);
  } else {
    BatchEndToEnd(ctx);
  }
  ctx.gates.Finish();
  if (ctx.opt.trace) {
    std::error_code ec;
    std::filesystem::create_directories(ctx.opt.out_dir, ec);
    const std::string path = ctx.opt.out_dir + "/trace-" + ctx.w.name +
                             "-seed" + std::to_string(ctx.opt.seed) + ".json";
    if (ctx.log.WriteJson(path)) std::printf("spans written to %s\n", path.c_str());
  }
  PrintResult(ctx);
  return ctx.gates.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
