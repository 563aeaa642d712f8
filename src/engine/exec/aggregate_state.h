#ifndef NLQ_ENGINE_EXEC_AGGREGATE_STATE_H_
#define NLQ_ENGINE_EXEC_AGGREGATE_STATE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/memory_tracker.h"
#include "common/query_context.h"
#include "common/status.h"
#include "engine/exec/bytecode.h"
#include "engine/exec/column_stream.h"
#include "engine/expr.h"
#include "storage/value.h"
#include "udf/heap_segment.h"

namespace nlq::engine::exec {

/// Per-group aggregation state shared by every aggregate operator: the
/// row-at-a-time HashAggregateNode, the vectorized
/// VectorHashAggregateNode (a global aggregate is its zero-key group)
/// and the maintained-view registry, which keeps zero-key states
/// across statements. All of them run the same INIT / ROW / MERGE /
/// FINALIZE protocol over these structures, which is what keeps their
/// results byte-identical: only the ROW-phase argument evaluation
/// differs (interpreted Datums vs compiled bytecode registers vs
/// column spans).

/// The one builtin aggregate state (SUM/COUNT/MIN/MAX/AVG).
struct BuiltinAggState {
  double sum = 0.0;
  int64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  bool seen = false;
};

/// ROW phase of one SQL builtin for one non-NULL argument value — the
/// single update rule every ROW loop applies (NULLs are skipped by the
/// caller, COUNT(*) counts rows without an argument).
inline void AccumulateBuiltin(AggregateSpec::Kind kind, double x,
                              BuiltinAggState* b) {
  switch (kind) {
    case AggregateSpec::Kind::kSum:
    case AggregateSpec::Kind::kAvg:
      b->sum += x;
      ++b->count;
      break;
    case AggregateSpec::Kind::kCount:
      ++b->count;
      break;
    case AggregateSpec::Kind::kMin:
      if (!b->seen || x < b->min) b->min = x;
      break;
    case AggregateSpec::Kind::kMax:
      if (!b->seen || x > b->max) b->max = x;
      break;
    default:
      break;
  }
  b->seen = true;
}

struct GroupState {
  storage::Row keys;
  std::vector<BuiltinAggState> builtin;  // parallel to specs
  std::vector<std::unique_ptr<udf::HeapSegment>> heaps;
  std::vector<void*> udf_states;  // parallel to specs, null for builtins
};

struct RowKeyHash {
  size_t operator()(const storage::Row& row) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const storage::Datum& d : row) {
      h ^= d.KeyHash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

struct RowKeyEq {
  bool operator()(const storage::Row& a, const storage::Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i].KeyEquals(b[i])) return false;
    }
    return true;
  }
};

using GroupMap =
    std::unordered_map<storage::Row, GroupState, RowKeyHash, RowKeyEq>;

/// One aggregate-call argument in the span ROW phase: a literal Datum
/// passed through unchanged (aggregate UDFs like nlq_list take leading
/// VARCHAR configuration literals, which must not require
/// compilation), or an expression over the input. `col` is the
/// argument's span column when it is a bare non-VARCHAR column
/// reference (-1 otherwise). A SQL builtin's argument is `output`, its
/// root in the node's one builtin-argument program. An aggregate UDF
/// argument that a ROW loop evaluates per row (grouped and non-span
/// calls) has its own `prog`; `on_spans` calls read their columns off
/// the spans and need none.
struct VectorAggArg {
  bool is_constant = false;  // `constant` applies
  storage::Datum constant;
  int col = -1;
  int output = -1;       // builtin argument: root in the builtin program
  CompiledExprPtr prog;  // per-row aggregate UDF argument, else null
};

/// Per-AggregateSpec span arguments, parallel to BoundAggregation::specs.
/// COUNT(*) has none; SQL builtins have exactly one. `on_spans` marks a
/// zero-key aggregate UDF call whose non-constant arguments are all
/// bare columns: its ROW phase hands the columns to
/// AggregateUdf::AccumulateSpans instead of calling Accumulate per row.
struct VectorAggSpec {
  std::vector<VectorAggArg> args;
  bool on_spans = false;
};

/// INIT: zeroed builtin state; aggregate UDFs allocate their state
/// inside a fresh HeapSegment (the per-thread UDF heap), charged
/// against `memory` when given.
StatusOr<GroupState> InitGroupState(const std::vector<AggregateSpec>& specs,
                                    storage::Row keys, MemoryTracker* memory);

/// Inserts a fresh (INIT) group for `key`, which `groups` must not
/// hold yet, charging the hash-table entry against `memory` when given.
StatusOr<GroupState*> InsertGroup(const std::vector<AggregateSpec>& specs,
                                  const storage::Row& key,
                                  MemoryTracker* memory, GroupMap* groups);

/// The group of `key` in `groups`, inserted on first sight.
inline StatusOr<GroupState*> FindOrInsertGroup(
    const std::vector<AggregateSpec>& specs, const storage::Row& key,
    MemoryTracker* memory, GroupMap* groups) {
  auto it = groups->find(key);
  if (it != groups->end()) return &it->second;
  return InsertGroup(specs, key, memory, groups);
}

/// MERGE: folds `src` into `dst` (builtin states added/min-maxed,
/// aggregate UDFs via their Merge phase; hits the `udf_merge`
/// failpoint per UDF spec).
Status MergeGroup(const std::vector<AggregateSpec>& specs, GroupState* dst,
                  const GroupState* src);

/// FINALIZE one group: one Datum per aggregate spec.
StatusOr<storage::Row> FinalizeGroup(const std::vector<AggregateSpec>& specs,
                                     const GroupState& state);

/// FINALIZE + HAVING + SELECT projection of one group: finalizes its
/// aggregates, applies HAVING (`projections[num_output]` when
/// `has_having`) and evaluates the `num_output` SELECT projections over
/// (keys, aggs) into `out`. Returns false when HAVING drops the group.
StatusOr<bool> ProjectGroup(const BoundAggregation& agg, bool has_having,
                            size_t num_output, const GroupState& state,
                            storage::Row* out);

/// MERGE + FINALIZE tail shared by both hash-aggregate operators:
/// folds partials[1..] into partials[0] in stream order, seeds the
/// empty-input global group when there are no GROUP BY keys, then
/// projects every group (in partials[0]'s map order) via ProjectGroup.
StatusOr<std::vector<storage::Row>> MergeAndFinalize(
    const BoundAggregation& agg, bool has_having, size_t num_output,
    std::vector<GroupMap>* partials, MemoryTracker* memory);

/// ROW phase over span batches, shared by VectorHashAggregateNode and
/// the maintained-view registry. One instance per stream: it owns the
/// bytecode VM and the buffers reused across batches.
///
/// Every SQL builtin argument is an output of one program (`builtins`,
/// CompileOutputs over the arguments in spec order), evaluated once per
/// batch: each column it reads is loaded once, in place. Each output
/// is folded by a typed loop as soon as the program completes it, with
/// the aggregate kind fixed outside the row loop; dense SUMs fold four
/// at a time as independent chains. Every state still adds its values
/// in row order, one at a time, so results match AccumulateBuiltin's
/// per-row rule bit for bit.
class SpanAccumulator {
 public:
  /// `slot_to_col` maps the programs' input slots to span columns;
  /// `builtins` is null when the aggregate has no SQL builtin with an
  /// argument. All of them must outlive the accumulator.
  SpanAccumulator(const std::vector<AggregateSpec>& specs,
                  const std::vector<VectorAggSpec>& args,
                  const CompiledExpr* builtins,
                  const std::vector<int>& slot_to_col,
                  const QueryContext* ctx);

  /// Folds the `batch.rows` rows of `batch` into their groups: all of
  /// them into `group` when it is non-null (the zero-key group, which
  /// takes `on_spans` UDF calls and a per-batch COUNT(*)), row r into
  /// `group_of[r]` otherwise. Per (group, aggregate) rows are visited
  /// in batch order, like the row path.
  Status Accumulate(const ColumnSpanBatch& batch, GroupState* group,
                    GroupState* const* group_of);

  /// The VM, for the caller's GROUP BY key programs.
  ExprVM* vm() { return &vm_; }

 private:
  /// `on_spans` ROW phase: widens BIGINT columns to double and applies
  /// the skip-row NULL policy (a NULL in any argument drops the row
  /// from this UDF only) by order-preserving compaction, then hands
  /// dense spans to AccumulateSpans — zero-copy when a column is DOUBLE
  /// and no argument has NULLs. Called even when every row compacts
  /// away: the UDF state must still fix its shape, exactly as
  /// Accumulate does before its own NULL check.
  Status AccumulateUdfSpans(size_t i, const ColumnSpanBatch& in, void* state);

  /// Folds builtin outputs [begin, end) of `builtins_` over `n` rows.
  void FoldOutputs(size_t begin, size_t end, size_t n, GroupState* group,
                   GroupState* const* group_of);

  /// A dense SUM output of the zero-key group: lanes `a` (times `b`
  /// for a product) with no NULLs, folded into `state`.
  struct DenseSum {
    const double* a;
    const double* b;
    BuiltinAggState* state;
  };

  /// Folds dense SUMs four at a time, each as its own row-order chain.
  template <bool kProduct>
  static void FoldDense(const std::vector<DenseSum>& sums, size_t n);

  const std::vector<AggregateSpec>& specs_;
  const std::vector<VectorAggSpec>& args_;
  const CompiledExpr* builtins_;
  const std::vector<int>& slot_to_col_;
  ExprVM vm_;
  std::vector<size_t> output_spec_;  // builtin program root -> spec
  // Per spec: the leading constants of an `on_spans` call.
  std::vector<std::vector<storage::Datum>> const_args_;
  std::vector<ExprVM::Reg> arg_regs_;
  std::vector<storage::Datum> row_args_;
  std::vector<std::vector<double>> span_bufs_;
  std::vector<const double*> spans_;
  std::vector<uint8_t> keep_;
  std::vector<DenseSum> dense_sums_;
  std::vector<DenseSum> dense_products_;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_AGGREGATE_STATE_H_
