#include "engine/exec/plan.h"

#include <chrono>
#include <utility>

#include "common/strings.h"

namespace nlq::engine::exec {
namespace {

/// Decorator around an operator's real cursor that charges rows,
/// batches and time spent inside Next() to the operator's stats sink.
/// Relaxed atomics: sinks are shared by the node's parallel streams.
class InstrumentedStream : public ExecStream {
 public:
  InstrumentedStream(ExecStreamPtr inner, OperatorStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  StatusOr<bool> Next(RowBatch* out) override {
    const auto start = std::chrono::steady_clock::now();
    StatusOr<bool> result = inner_->Next(out);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    stats_->time_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count(),
        std::memory_order_relaxed);
    if (result.ok() && result.value()) {
      stats_->rows_out.fetch_add(out->size(), std::memory_order_relaxed);
      stats_->batches_out.fetch_add(1, std::memory_order_relaxed);
    }
    return result;
  }

 private:
  ExecStreamPtr inner_;
  OperatorStats* stats_;
};

/// Span-path twin of InstrumentedStream: counts the rows each span
/// batch carries (post-filter, so "rows_out" shows selectivity),
/// batches, and time inside Next().
class InstrumentedColumnStream : public ColumnStream {
 public:
  InstrumentedColumnStream(ColumnStreamPtr inner, OperatorStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  StatusOr<bool> Next(ColumnSpanBatch* out) override {
    const auto start = std::chrono::steady_clock::now();
    StatusOr<bool> result = inner_->Next(out);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    stats_->time_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count(),
        std::memory_order_relaxed);
    if (result.ok() && result.value()) {
      stats_->rows_out.fetch_add(out->rows, std::memory_order_relaxed);
      stats_->batches_out.fetch_add(1, std::memory_order_relaxed);
    }
    return result;
  }

 private:
  ColumnStreamPtr inner_;
  OperatorStats* stats_;
};

void AppendMillis(uint64_t nanos, std::string* out) {
  *out += StringPrintf("%.3fms", static_cast<double>(nanos) / 1e6);
}

}  // namespace

StatusOr<ExecStreamPtr> PlanNode::OpenStream(size_t s) const {
  NLQ_ASSIGN_OR_RETURN(ExecStreamPtr stream, OpenStreamImpl(s));
  if (stats_ == nullptr) return stream;
  return ExecStreamPtr(
      std::make_unique<InstrumentedStream>(std::move(stream), stats_));
}

StatusOr<ColumnStreamPtr> PlanNode::OpenColumnStream(size_t s) const {
  NLQ_ASSIGN_OR_RETURN(ColumnStreamPtr stream, OpenColumnStreamImpl(s));
  return InstrumentColumnStream(std::move(stream));
}

ColumnStreamPtr PlanNode::InstrumentColumnStream(
    ColumnStreamPtr stream) const {
  if (stats_ == nullptr) return stream;
  return ColumnStreamPtr(
      std::make_unique<InstrumentedColumnStream>(std::move(stream), stats_));
}

StatusOr<ColumnStreamPtr> PlanNode::OpenColumnStreamImpl(size_t) const {
  return Status::Internal(std::string(name()) +
                          " produces rows, not column spans");
}

void AttachQueryStats(PlanNode* root, QueryStats* stats) {
  size_t depth = 0;
  for (PlanNode* node = root; node != nullptr;
       node = node->child_.get(), ++depth) {
    node->stats_ = stats == nullptr
                       ? nullptr
                       : stats->AddOperator(node->name(), node->annotation(),
                                            depth);
  }
}

std::string ExplainPlan(const PlanNode& root) {
  std::string out;
  size_t depth = 0;
  for (const PlanNode* node = &root; node != nullptr;
       node = node->child(), ++depth) {
    if (depth > 0) {
      out.append(3 * (depth - 1), ' ');
      out += "└─ ";
    }
    out += node->name();
    const std::string ann = node->annotation();
    if (!ann.empty()) {
      out += " (";
      out += ann;
      out += ")";
    }
    out += "\n";
  }
  return out;
}

std::string RenderAnalyzedPlan(const QueryStatsSnapshot& snapshot) {
  std::string out;
  for (size_t i = 0; i < snapshot.operators.size(); ++i) {
    const OperatorStatsSnapshot& op = snapshot.operators[i];
    if (op.depth > 0) {
      out.append(3 * (op.depth - 1), ' ');
      out += "└─ ";
    }
    out += op.name;
    if (!op.annotation.empty()) {
      out += " (";
      out += op.annotation;
      out += ")";
    }
    // Self-time subtracts the next operator in the chain (plans are
    // linear, so operators[i + 1] is always i's only input). Clamped:
    // with parallel streams both numbers are sums over streams and the
    // child can legitimately accumulate more than the parent saw.
    const uint64_t child_ns = i + 1 < snapshot.operators.size()
                                  ? snapshot.operators[i + 1].time_ns
                                  : 0;
    const uint64_t self_ns =
        op.time_ns > child_ns ? op.time_ns - child_ns : 0;
    out += StringPrintf(" [rows=%llu batches=%llu time=",
                        static_cast<unsigned long long>(op.rows_out),
                        static_cast<unsigned long long>(op.batches_out));
    AppendMillis(op.time_ns, &out);
    out += " self=";
    AppendMillis(self_ns, &out);
    out += "]\n";
  }
  out += StringPrintf(
      "Totals: rows=%llu pages_decoded=%llu cache(hits=%llu misses=%llu "
      "fallbacks=%llu) time=",
      static_cast<unsigned long long>(snapshot.rows_returned),
      static_cast<unsigned long long>(snapshot.pages_decoded),
      static_cast<unsigned long long>(snapshot.column_cache_hits),
      static_cast<unsigned long long>(snapshot.column_cache_misses),
      static_cast<unsigned long long>(snapshot.column_cache_fallbacks));
  AppendMillis(snapshot.wall_time_ns, &out);
  out += "\n";
  // When the decoded-column cache fell back, say who hit the budget and
  // why — the counters alone do not name the consumer.
  if (!snapshot.column_cache_note.empty()) {
    out += "cache=fallback (";
    out += snapshot.column_cache_note;
    out += ")\n";
  }
  return out;
}

std::string RedactTimings(std::string_view rendered) {
  // Replaces the value of every `time=<num>ms` / `self=<num>ms` pair
  // with `<T>`. Hand-rolled so the goldens do not depend on <regex>.
  auto is_number_char = [](char c) {
    return (c >= '0' && c <= '9') || c == '.';
  };
  std::string out;
  out.reserve(rendered.size());
  size_t i = 0;
  while (i < rendered.size()) {
    size_t key_len = 0;
    if (rendered.substr(i).starts_with("time=")) {
      key_len = 5;
    } else if (rendered.substr(i).starts_with("self=")) {
      key_len = 5;
    }
    if (key_len > 0) {
      size_t j = i + key_len;
      const size_t num_begin = j;
      while (j < rendered.size() && is_number_char(rendered[j])) ++j;
      if (j > num_begin && rendered.substr(j).starts_with("ms")) {
        out += rendered.substr(i, key_len);
        out += "<T>";
        i = j + 2;
        continue;
      }
    }
    out += rendered[i++];
  }
  return out;
}

}  // namespace nlq::engine::exec
