#ifndef NLQ_ENGINE_EXEC_VECTOR_HASH_AGGREGATE_NODE_H_
#define NLQ_ENGINE_EXEC_VECTOR_HASH_AGGREGATE_NODE_H_

#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/threadpool.h"
#include "engine/exec/aggregate_state.h"
#include "engine/exec/bytecode.h"
#include "engine/exec/columnar_scan_node.h"
#include "engine/exec/plan.h"
#include "engine/expr.h"

namespace nlq::engine::exec {

/// Hash aggregation over the columnar pipeline: the same INIT / ROW /
/// MERGE / FINALIZE protocol as HashAggregateNode (the shared state
/// machinery in aggregate_state.h), but the ROW phase evaluates GROUP
/// BY keys and aggregate arguments through compiled bytecode over span
/// batches instead of interpreted Datum trees.
///
/// A global aggregate is the zero-key group: each stream seeds it when
/// it opens (so every morsel has a partial state and the merge folds
/// all of them in morsel-index order), it resolves once per batch
/// rather than per row, COUNT(*) adds the batch's row count, bare
/// column arguments are read straight off the spans and `on_spans`
/// aggregate UDF calls (the paper's n,L,Q builds) go through
/// AggregateUdf::AccumulateSpans on those spans, zero-copy.
///
/// Bit-exactness with the row path holds because (a) group-key Datums
/// are boxed from the same arithmetic the interpreter performs, (b)
/// groups are inserted per row in batch order (identical hash-table
/// iteration order), and (c) per (group, aggregate) accumulation
/// visits rows in the same order — only the loop nesting (per-spec
/// outer instead of per-row outer) differs, which is observationally
/// identical because argument programs are pure.
class VectorHashAggregateNode : public PlanNode {
 public:
  /// `child` is the columnar chain (ColumnarScan, possibly under a
  /// VectorFilter); `scan` points at its leaf for cache warming.
  VectorHashAggregateNode(PlanNodePtr child, const ColumnarScanNode* scan,
                          BoundAggregation agg,
                          std::vector<CompiledExprPtr> key_progs,
                          std::vector<VectorAggSpec> spec_args,
                          std::vector<int> slot_to_col, bool has_having,
                          std::string having_text, size_t num_output,
                          ThreadPool* pool, const QueryContext* ctx = nullptr);

  const char* name() const override { return "VectorHashAggregate"; }
  std::string annotation() const override;
  size_t output_width() const override { return num_output_; }
  size_t num_streams() const override { return 1; }
  StatusOr<ExecStreamPtr> OpenStreamImpl(size_t s) const override;

  /// Runs the four phases to completion and returns the result rows.
  StatusOr<std::vector<storage::Row>> Compute() const;

  /// EXPLAIN view annotation (e.g. "view=ineligible (group-by)") set
  /// only when the planner runs with view maintenance enabled; empty
  /// keeps the default EXPLAIN output unchanged.
  void set_view_note(std::string note) { view_note_ = std::move(note); }

 private:
  const ColumnarScanNode* scan_;
  BoundAggregation agg_;
  std::vector<CompiledExprPtr> key_progs_;
  std::vector<VectorAggSpec> spec_args_;
  std::vector<int> slot_to_col_;
  bool has_having_;
  std::string having_text_;
  size_t num_output_;
  ThreadPool* pool_;
  const QueryContext* ctx_;
  std::string view_note_;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_VECTOR_HASH_AGGREGATE_NODE_H_
