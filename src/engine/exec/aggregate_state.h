#ifndef NLQ_ENGINE_EXEC_AGGREGATE_STATE_H_
#define NLQ_ENGINE_EXEC_AGGREGATE_STATE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/memory_tracker.h"
#include "common/status.h"
#include "engine/expr.h"
#include "storage/value.h"
#include "udf/heap_segment.h"

namespace nlq::engine::exec {

/// Per-group aggregation state shared by the row-at-a-time
/// HashAggregateNode and the vectorized VectorHashAggregateNode. Both
/// run the same INIT / ROW / MERGE / FINALIZE protocol over these
/// structures, which is what keeps their results byte-identical: only
/// the ROW-phase argument evaluation differs (interpreted Datums vs
/// compiled bytecode registers).

/// The one builtin aggregate state (SUM/COUNT/MIN/MAX/AVG), also used
/// by the columnar partials in agg_partials.h.
struct BuiltinAggState {
  double sum = 0.0;
  int64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  bool seen = false;
};

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

/// INIT: zeroed builtin state; aggregate UDFs allocate their state
/// inside a fresh HeapSegment (the per-thread UDF heap). Charges the
/// hash-table entry against `memory` when given.
StatusOr<GroupState> InitGroupState(const std::vector<AggregateSpec>& specs,
                                    storage::Row keys, MemoryTracker* memory);

/// MERGE: folds `src` into `dst` (builtin states added/min-maxed,
/// aggregate UDFs via their Merge phase; hits the `udf_merge`
/// failpoint per UDF spec).
Status MergeGroup(const std::vector<AggregateSpec>& specs, GroupState* dst,
                  GroupState* src);

/// FINALIZE one group: one Datum per aggregate spec.
StatusOr<storage::Row> FinalizeGroup(const std::vector<AggregateSpec>& specs,
                                     const GroupState& state);

/// MERGE + FINALIZE tail shared by both hash-aggregate operators:
/// folds partials[1..] into partials[0] in stream order, seeds the
/// empty-input global group when there are no GROUP BY keys, then per
/// group (in partials[0]'s map order) finalizes aggregates, applies
/// HAVING (`projections[num_output]` when `has_having`) and evaluates
/// the `num_output` SELECT projections over (keys, aggs).
StatusOr<std::vector<storage::Row>> MergeAndFinalize(
    const BoundAggregation& agg, bool has_having, size_t num_output,
    std::vector<GroupMap>* partials, MemoryTracker* memory);

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_AGGREGATE_STATE_H_
