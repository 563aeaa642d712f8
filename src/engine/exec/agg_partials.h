#ifndef NLQ_ENGINE_EXEC_AGG_PARTIALS_H_
#define NLQ_ENGINE_EXEC_AGG_PARTIALS_H_

#include <memory>
#include <vector>

#include "common/memory_tracker.h"
#include "common/status.h"
#include "engine/exec/aggregate_state.h"
#include "engine/exec/column_stream.h"
#include "engine/exec/columnar_aggregate_node.h"
#include "storage/value.h"
#include "udf/heap_segment.h"

namespace nlq::engine::exec {

/// Shared INIT/ROW/MERGE/FINALIZE machinery of the columnar fast path,
/// factored out of ColumnarAggregateNode so the maintained-view
/// registry accumulates, merges and finalizes partial states through
/// the exact same code — identical code is the cheapest proof of
/// bit-identical results (see DESIGN.md section 13).

/// One morsel's partial aggregation state. Builtins use the row path's
/// own BuiltinAggState (aggregate_state.h), so both paths stay
/// byte-identical; the row path keeps the same triple per hash-table
/// group, here there is exactly one global group. Movable, not
/// copyable: UDF state lives in owned heap segments (deep-copy via
/// ClonePartialInto).
struct PartialState {
  std::vector<BuiltinAggState> builtin;
  std::vector<std::unique_ptr<udf::HeapSegment>> heaps;
  std::vector<void*> udf_states;  // parallel to specs, null for builtins
};

/// Per-drain scratch reused across batches: widened / compacted double
/// spans and the skip mask.
struct SpanScratch {
  std::vector<std::vector<double>> cols;
  std::vector<const double*> spans;
  std::vector<uint8_t> keep;
};

/// Sizes `state` for `specs` and Init-s one heap segment + UDF state
/// per kUdf spec, charged against `memory` (nullptr = untracked).
Status InitPartial(const std::vector<ColumnarAggSpec>& specs,
                   MemoryTracker* memory, PartialState* state);

/// ROW phase of one span batch over every spec: CountStar adds the
/// batch's (post-filter) row count, UDF specs go through the skip-row
/// NULL compaction into AccumulateSpans, builtins run their tight span
/// loop. Exactly the dispatch ColumnarAggregateNode::Compute performs
/// per batch.
Status AccumulateSpecsBatch(const std::vector<ColumnarAggSpec>& specs,
                            const ColumnSpanBatch& batch, PartialState* state,
                            SpanScratch* scratch);

/// MERGE phase: folds `src` into `dst` (builtin += / min / max, UDF
/// Merge). Callers fold in morsel-index order for determinism.
Status MergePartial(const std::vector<ColumnarAggSpec>& specs,
                    PartialState* dst, const PartialState* src);

/// Deep copy: Init-s `dst` fresh and transplants `src` into it —
/// builtin states by assignment, UDF states by merging `src` into the
/// fresh (empty) state, which copies a relocatable state. Fails with
/// Internal if any UDF spec's state is not relocatable
/// (AggregateUdf::RelocatableStateSize == 0); callers gate on
/// MaintainableSpecs first.
Status ClonePartialInto(const std::vector<ColumnarAggSpec>& specs,
                        MemoryTracker* memory, const PartialState& src,
                        PartialState* dst);

/// True when every spec's state can be kept and cloned across
/// statements: builtins always can; UDF specs need a relocatable state
/// block. Gate of maintained-view eligibility.
bool MaintainableSpecs(const std::vector<ColumnarAggSpec>& specs);

/// FINALIZE phase: one output Datum per spec, matching the row path's
/// finalization (Int64 counts, NULL-on-empty sums, result-type-cast
/// min/max, UDF Finalize).
StatusOr<storage::Row> FinalizePartial(
    const std::vector<ColumnarAggSpec>& specs, const PartialState& state);

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_AGG_PARTIALS_H_
