#ifndef NLQ_PERFBENCH_TRACE_H_
#define NLQ_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace nlq::perfbench {

using Clock = std::chrono::steady_clock;

/// One timed call into a layer, recorded from outside the program.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // spans of one request share it
  int64_t start_ns = 0;  // since the tracer's epoch
  int64_t end_ns = 0;
};

/// Aggregate of every span with one name.
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

/// In-memory span store. Spans are appended when they end (a mutex per
/// append; a run records a few spans per statement) and written out
/// only after the run.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  void Record(Span span);

  /// Self time of every span: its duration minus the part of it that
  /// its children cover (children of one span never overlap here: a
  /// client issues its calls one after another).
  std::vector<double> SelfTimesMs() const;

  /// Totals by span name.
  std::map<std::string, SpanTotals> TotalsByName() const;

  /// Sum of the durations of each span's direct children, by parent
  /// id: the part of the parent that the children account for.
  std::map<uint64_t, double> ChildMsByParent() const;

  size_t size() const;

  /// Writes one JSON object per span (with its self time) to `path`.
  bool Dump(const std::string& path) const;

 private:
  const Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a null tracer makes it a no-op, so untraced requests pay
/// one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
             uint64_t request)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.name = name;
    span_.id = tracer_->NewId();
    span_.parent = parent;
    span_.request = request;
    span_.start_ns = tracer_->NowNs();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = tracer_->NowNs();
    tracer_->Record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return tracer_ == nullptr ? 0 : span_.id; }

 private:
  Tracer* const tracer_;
  Span span_;
};

}  // namespace nlq::perfbench

#endif  // NLQ_PERFBENCH_TRACE_H_
