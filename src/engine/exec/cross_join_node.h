#ifndef NLQ_ENGINE_EXEC_CROSS_JOIN_NODE_H_
#define NLQ_ENGINE_EXEC_CROSS_JOIN_NODE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "engine/exec/column_stream.h"
#include "engine/exec/plan.h"
#include "storage/value.h"

namespace nlq::engine::exec {

/// Cross product of the child stream (probe side) with one
/// materialized small table (build side) — the paper's scoring
/// pattern joins the data set X with tiny k-row model tables. The
/// build rows are pre-filtered at plan time by WHERE-conjunct
/// pushdown (the §3.6 join-optimization analogue); `pushed_text`
/// records those conjuncts for EXPLAIN.
///
/// Output rows are `child_row ++ build_row`; streams follow the
/// child's fan-out.
///
/// In the vector pipeline (after EnableSpans) the node joins column
/// spans instead: each child span batch of n rows becomes the n*k
/// joined rows in the same probe-major order as the row form, with
/// the child's columns repeated per build row and the build table's
/// requested columns appended, in batches of at most `batch_capacity`
/// rows.
class CrossJoinNode : public PlanNode {
 public:
  CrossJoinNode(PlanNodePtr child, std::vector<storage::Row> build_rows,
                size_t build_width, std::string display_name,
                std::vector<std::string> pushed_text);

  /// Switches the node to column spans. `cols` are the build-table
  /// columns (schema index and numeric type) the programs above read,
  /// in span order after the child's columns.
  void EnableSpans(
      const std::vector<std::pair<size_t, storage::DataType>>& cols,
      size_t batch_capacity, const QueryContext* ctx);

  const char* name() const override { return "CrossJoin"; }
  std::string annotation() const override;
  size_t output_width() const override;
  StatusOr<ExecStreamPtr> OpenStreamImpl(size_t s) const override;
  StatusOr<ColumnStreamPtr> OpenColumnStreamImpl(size_t s) const override;

 private:
  std::vector<storage::Row> build_rows_;
  size_t build_width_;
  std::string display_name_;  // "M AS m1"
  std::vector<std::string> pushed_text_;

  // Span form (EnableSpans): the requested build columns, columnar.
  bool spans_ = false;
  std::vector<ScratchColumn> build_cols_;
  size_t batch_capacity_ = 0;
  const QueryContext* ctx_ = nullptr;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_CROSS_JOIN_NODE_H_
