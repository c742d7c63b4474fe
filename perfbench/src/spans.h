// In-memory span log for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions (no code inside the library is traced). Each
// span carries a name, the layer it is charged to, start and end times,
// its parent span and the id of the run it belongs to. The log is kept in
// memory and written out once, when the benchmark ends.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Layer name of a root span: its self time is time no layer claimed.
inline constexpr const char* kUnattributed = "(unattributed)";

struct Span {
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int id = 0;
  int parent = -1;  // -1: the root of its run.
  int run = 0;
};

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Thread-safe append-only span store.
class SpanLog {
 public:
  /// Opens a span now; returns its id.
  int Begin(const std::string& name, const std::string& layer, int parent,
            int run);
  /// Closes span `id` now.
  void End(int id);
  /// Adds a span whose interval was measured by the caller.
  int Record(const std::string& name, const std::string& layer, int parent,
             int run, int64_t start_ns, int64_t end_ns);
  /// A fresh run id.
  int NewRun();

  /// Duration of span `id` in seconds.
  double Seconds(int id) const;
  std::vector<Span> Snapshot() const;

  /// Writes every span as a JSON array of objects.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int runs_ = 0;
};

/// RAII span; a null log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, const std::string& layer,
             int parent, int run)
      : log_(log), id_(log ? log->Begin(name, layer, parent, run) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Time charged to one layer within one run.
struct LayerTime {
  /// Sum over the layer's spans of duration minus the part of it that
  /// child spans cover. Spans on concurrent threads each count in full,
  /// so this is busy time and can exceed the wall time.
  double self_s = 0.0;
  /// Wall time attributed to the layer: every instant of the root span is
  /// split evenly between the spans active at that instant that have no
  /// active child. These sum to the root span's duration exactly.
  double wall_s = 0.0;
};

/// Per-layer self and wall time of the run whose root span is `root`.
std::map<std::string, LayerTime> LayerBreakdown(const std::vector<Span>& spans,
                                                int root);

}  // namespace perfbench
