#include "data/prefetch.h"

#include <deque>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/trace.h"

namespace mrcc {
namespace {

/// One ring slot: a reusable chunk buffer plus the chunk's identity.
/// Slot contents are not guarded by the ring mutex — ownership moves
/// between the reader and the consumer through the mutex-protected
/// queues below, and that hand-off orders every access: exactly one side
/// holds a slot index at any moment.
struct ChunkSlot {
  std::vector<double> values;
  size_t first = 0;
};

/// The bounded ring connecting the reader thread to the consumer:
/// `free_` holds reusable slots, `filled_` holds read chunks in point
/// order. Both sides block on their queue (reader on a full ring,
/// consumer on an empty one) and wake through the paired CondVars. The
/// wait counters tally blocking episodes, not wait iterations, so they
/// read as "times one side outran the other".
class ChunkRing {
 public:
  explicit ChunkRing(size_t depth) : slots_(depth) {
    MutexLock lock(mu_);
    for (size_t i = depth; i > 0; --i) free_.push_back(i - 1);
  }

  /// Reader side: blocks until a slot is free. Returns false when the
  /// consumer cancelled the scan — the reader must stop reading.
  bool AcquireFree(size_t* slot) {
    UniqueMutexLock lock(mu_);
    if (free_.empty() && !cancelled_) {
      ++queue_full_waits_;
      while (free_.empty() && !cancelled_) free_cv_.Wait(lock);
    }
    if (cancelled_) return false;
    *slot = free_.back();
    free_.pop_back();
    return true;
  }

  /// Reader side: publishes a filled slot to the consumer.
  void PushFilled(size_t slot) {
    {
      MutexLock lock(mu_);
      filled_.push_back(slot);
    }
    filled_cv_.NotifyOne();
  }

  /// Reader side: publishes the scan's final Status. No PushFilled may
  /// follow; the consumer drains the remaining filled slots first, then
  /// observes this status — the same prefix-then-fail order as a
  /// synchronous scan.
  void Finish(Status status) {
    {
      MutexLock lock(mu_);
      done_ = true;
      reader_status_ = std::move(status);
    }
    filled_cv_.NotifyAll();
  }

  /// Consumer side: pops the next chunk in order, blocking while the
  /// ring is empty and the reader still runs. Returns false when drained
  /// and done — read FinalStatus() then.
  bool PopFilled(size_t* slot) {
    UniqueMutexLock lock(mu_);
    if (filled_.empty() && !done_) {
      ++stalls_;
      while (filled_.empty() && !done_) filled_cv_.Wait(lock);
    }
    if (filled_.empty()) return false;
    *slot = filled_.front();
    filled_.pop_front();
    return true;
  }

  /// Consumer side: returns a consumed slot to the reader.
  void ReleaseFree(size_t slot) {
    {
      MutexLock lock(mu_);
      free_.push_back(slot);
    }
    free_cv_.NotifyOne();
  }

  /// Consumer side: aborts the scan (the consumer callback failed).
  /// Wakes a reader blocked in AcquireFree so it can exit.
  void Cancel() {
    {
      MutexLock lock(mu_);
      cancelled_ = true;
    }
    free_cv_.NotifyAll();
  }

  Status FinalStatus() {
    MutexLock lock(mu_);
    return reader_status_;
  }

  uint64_t stalls() {
    MutexLock lock(mu_);
    return stalls_;
  }

  uint64_t queue_full_waits() {
    MutexLock lock(mu_);
    return queue_full_waits_;
  }

  /// The slot's buffer; see the ChunkSlot ownership comment.
  ChunkSlot& slot(size_t i) { return slots_[i]; }

  /// Bytes the ring's buffers actually allocated. Call only after the
  /// reader thread is joined.
  size_t BufferBytes() const {
    size_t bytes = 0;
    for (const ChunkSlot& s : slots_) {
      bytes += s.values.capacity() * sizeof(double);
    }
    return bytes;
  }

 private:
  std::vector<ChunkSlot> slots_;
  Mutex mu_;
  CondVar free_cv_;
  CondVar filled_cv_;
  std::vector<size_t> free_ MRCC_GUARDED_BY(mu_);
  std::deque<size_t> filled_ MRCC_GUARDED_BY(mu_);
  bool done_ MRCC_GUARDED_BY(mu_) = false;
  bool cancelled_ MRCC_GUARDED_BY(mu_) = false;
  Status reader_status_ MRCC_GUARDED_BY(mu_);
  uint64_t stalls_ MRCC_GUARDED_BY(mu_) = 0;
  uint64_t queue_full_waits_ MRCC_GUARDED_BY(mu_) = 0;
};

/// Joins the reader on every exit path: a consumer error must not leave
/// a detached thread scanning a source the caller may destroy.
class ThreadJoiner {
 public:
  explicit ThreadJoiner(std::thread* thread) : thread_(thread) {}
  ~ThreadJoiner() {
    if (thread_->joinable()) thread_->join();
  }
  ThreadJoiner(const ThreadJoiner&) = delete;
  ThreadJoiner& operator=(const ThreadJoiner&) = delete;

 private:
  std::thread* thread_;
};

}  // namespace

Status ReadAheadScanner::ScanChunks(size_t begin, size_t end,
                                    size_t chunk_points,
                                    const DataSource::ChunkCallback& fn,
                                    PrefetchStats* stats) const {
  PrefetchStats local;
  const DataSource::ChunkCallback counted_fn =
      [&local, &fn](size_t first, std::span<const double> values) -> Status {
    ++local.chunks;
    return fn(first, values);
  };

  bool pipelined = depth_ > 0;
  // The reader is a thread like any pool worker: its spawn can fail
  // under thread-limit pressure (or the armed `pool.spawn` failpoint),
  // and like the pool the scan degrades to fewer threads — here, to the
  // synchronous path — rather than failing; results are unchanged.
  if (pipelined && fp::MaybeTrue("pool.spawn")) {
    pipelined = false;
    ++local.spawn_fallbacks;
  }

  Status status;
  if (!pipelined) {
    status = source_->ScanChunks(begin, end, chunk_points, counted_fn);
  } else {
    MRCC_TRACE_SPAN_N("source.prefetch", static_cast<int64_t>(depth_));
    ChunkRing ring(depth_);
    // Every chunk the wrapped source delivers is copied into a ring slot
    // and handed over; the `source.chunk.read` failpoint and the
    // `source.scan_chunk` span fire inside this thread, where the I/O is.
    auto reader_main = [this, begin, end, chunk_points, &ring]() {
      Status read_status = source_->ScanChunks(
          begin, end, chunk_points,
          [&ring](size_t first, std::span<const double> values) -> Status {
            size_t slot = 0;
            if (!ring.AcquireFree(&slot)) {
              // Consumer cancelled; this status stays inside the
              // pipeline (the consumer's own error wins).
              return Status::Internal("read-ahead consumer stopped");
            }
            ChunkSlot& s = ring.slot(slot);
            s.values.assign(values.begin(), values.end());
            s.first = first;
            ring.PushFilled(slot);
            return Status::OK();
          });
      ring.Finish(std::move(read_status));
    };

    std::thread reader;
    try {
      reader = std::thread(reader_main);
    } catch (const std::system_error&) {
      ++local.spawn_fallbacks;
    }
    if (!reader.joinable()) {
      status = source_->ScanChunks(begin, end, chunk_points, counted_fn);
    } else {
      ThreadJoiner joiner(&reader);
      size_t slot = 0;
      while (ring.PopFilled(&slot)) {
        ChunkSlot& s = ring.slot(slot);
        ++local.chunks;
        if (Status fn_status = fn(s.first, s.values); !fn_status.ok()) {
          status = std::move(fn_status);
          ring.Cancel();
          break;
        }
        ring.ReleaseFree(slot);
      }
      reader.join();
      if (status.ok()) status = ring.FinalStatus();
      local.stalls = ring.stalls();
      local.queue_full_waits = ring.queue_full_waits();
      MetricsRegistry::Global().gauge("memory.prefetch_ring_bytes").SetMax(
          static_cast<int64_t>(ring.BufferBytes()));
    }
  }

  MetricsRegistry& metrics = MetricsRegistry::Global();
  if (local.stalls > 0) {
    metrics.counter("source.prefetch.stalls").Add(
        static_cast<int64_t>(local.stalls));
  }
  if (local.queue_full_waits > 0) {
    metrics.counter("source.prefetch.queue_full_waits").Add(
        static_cast<int64_t>(local.queue_full_waits));
  }
  if (local.spawn_fallbacks > 0) {
    metrics.counter("source.prefetch.spawn_fallbacks").Add(
        static_cast<int64_t>(local.spawn_fallbacks));
  }
  if (stats != nullptr) *stats += local;
  return status;
}

}  // namespace mrcc
