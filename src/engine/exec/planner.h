#ifndef NLQ_ENGINE_EXEC_PLANNER_H_
#define NLQ_ENGINE_EXEC_PLANNER_H_

#include <memory>

#include "common/query_context.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "engine/ast.h"
#include "engine/exec/bytecode.h"
#include "engine/exec/plan.h"
#include "storage/catalog.h"
#include "storage/schema.h"
#include "udf/udf.h"

namespace nlq::engine::exec {

class ViewRegistry;

/// A planned SELECT: the physical operator tree plus the result
/// schema its root produces.
struct PhysicalPlan {
  PlanNodePtr root;
  storage::Schema output_schema;
};

/// Builds a physical plan from a parsed SELECT statement:
///
///   [Limit] <- [Sort] <- Gather|HashAggregate <- [Filter]
///       <- [CrossJoin...] <- ParallelScan|ConstantInput
///
/// (the interpreted row path: the differential oracle, and the
/// fallback for what the columnar pipeline cannot compile).
///
/// Planning performs all binding (scope resolution, aggregate
/// extraction, WHERE-conjunct pushdown into the materialized small
/// tables, ORDER BY binding over the result schema) so that
/// execution is pure data flow. Planning a statement does not scan
/// the driver table; only the small cross-join sides are
/// materialized.
///
/// With expression compilation enabled, single-table SELECTs whose
/// expressions all compile to bytecode run on the columnar pipeline:
///
///   [Limit] <- [Sort] <- VectorHashAggregate <- [VectorFilter]
///       <- ColumnarScan                                        or
///   [Limit] <- [Sort] <- Gather <- VectorProject
///       <- [VectorFilter] <- ColumnarScan
///
/// with simple `column <op> literal` comparisons pushed into the scan
/// and the remaining WHERE conjuncts ANDed into one compiled
/// VectorFilter program; scalar UDF calls compile to span calls. An
/// aggregate therefore ends in one of two node types:
/// VectorHashAggregate, or the row path's HashAggregate oracle.
///
/// A global aggregate is VectorHashAggregate's zero-key group; in it,
/// an aggregate UDF call whose non-constant arguments are all bare
/// columns — the paper's N,L,Q summary queries — accumulates straight
/// off the scan's column spans (AggregateUdf::AccumulateSpans). With a
/// view registry, such an aggregate of the maintained-view shape is
/// bound to the registry and served from registered per-morsel
/// partials (EXPLAIN: `view=fresh delta=…` / `view=stale (seeding
/// …)`).
///
/// A FROM-list model table that WHERE pushdown leaves with exactly one
/// row is bound as constants rather than cross-joined, so the paper's
/// scoring statements are single-table here; one left with no rows
/// empties the join (a ConstantInput leaf with no rows); one with two
/// or more rows becomes a CrossJoin over column spans between the scan
/// and the rest of the pipeline. Statements that stay on the row path
/// (SELECT *, VARCHAR expressions) run fully interpreted, and with
/// expression compilation off every statement does, cross joins
/// included: that is the differential oracle.
class Planner {
 public:
  /// `morsel_rows` is the scan-morsel size handed to the leaf nodes
  /// (0 = partition-granular streams, the pre-morsel behavior).
  /// `ctx` — when non-null — is the statement's QueryContext; every
  /// planned node that loops over batches or claims morsels polls it,
  /// and memory-hungry operators charge its MemoryTracker. The context
  /// must outlive the plan's execution.
  /// `enable_expr_compile` gates every vectorized choice (the columnar
  /// pipeline, maintained views, constant binding of one-row model
  /// tables): off plans the pure interpreted row path, the
  /// differential oracle.
  /// `bytecode_cache` — optional — deduplicates compiled programs
  /// across statements; it must outlive the plan.
  /// `views` — optional — is the maintained-view registry: when set,
  /// eligible global aggregates are served from (and incrementally
  /// refresh) materialized per-morsel partials instead of rescanning;
  /// it must outlive the plan.
  Planner(storage::Catalog* catalog, const udf::UdfRegistry* registry,
          ThreadPool* pool, bool enable_column_cache, uint64_t morsel_rows,
          const QueryContext* ctx, bool enable_expr_compile,
          BytecodeCache* bytecode_cache, ViewRegistry* views);

  StatusOr<PhysicalPlan> Plan(const SelectStatement& select) const;

 private:
  storage::Catalog* catalog_;
  const udf::UdfRegistry* registry_;
  ThreadPool* pool_;
  bool enable_column_cache_;
  uint64_t morsel_rows_;
  const QueryContext* ctx_;
  bool enable_expr_compile_;
  BytecodeCache* bytecode_cache_;
  ViewRegistry* views_;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_PLANNER_H_
