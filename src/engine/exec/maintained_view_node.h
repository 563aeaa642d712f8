#ifndef NLQ_ENGINE_EXEC_MAINTAINED_VIEW_NODE_H_
#define NLQ_ENGINE_EXEC_MAINTAINED_VIEW_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "engine/exec/plan.h"
#include "engine/exec/view_registry.h"
#include "engine/expr.h"

namespace nlq::engine::exec {

/// Leaf pipeline breaker serving an eligible global aggregate from the
/// maintained-view registry: refresh (delta-accumulate rows appended
/// past each partition watermark — O(delta), not O(n)), merge a clone
/// of the stored per-morsel partials in morsel-index order, finalize,
/// project. Planned instead of ColumnarScan→VectorHashAggregate when
/// view maintenance is on and the global aggregate's shape is
/// maintainable; results are bit-identical to that pipeline by
/// construction (shared zero-key accumulate/merge/finalize code, same
/// grid, same fold order).
class MaintainedViewNode : public PlanNode {
 public:
  /// `view_state` is the plan-time freshness annotation
  /// ("view=fresh delta=Δ of N row(s)" / "view=stale (seeding ...)").
  /// `agg` (zero keys), `spec_args` and `slot_to_col` come from the
  /// vector pipeline the view replaces; the descriptor is pointed at
  /// them.
  MaintainedViewNode(ViewRegistry* registry, ViewDescriptor descriptor,
                     BoundAggregation agg, std::vector<VectorAggSpec> spec_args,
                     std::vector<int> slot_to_col, size_t num_output,
                     std::string view_state, ThreadPool* pool,
                     const QueryContext* ctx);

  const char* name() const override { return "MaintainedViewScan"; }
  std::string annotation() const override;
  size_t output_width() const override { return num_output_; }
  size_t num_streams() const override { return 1; }
  StatusOr<ExecStreamPtr> OpenStreamImpl(size_t s) const override;

  /// Serves the aggregate values from the registry and applies the
  /// SELECT-list projections, returning the single output row.
  StatusOr<std::vector<storage::Row>> Compute() const;

 private:
  ViewRegistry* registry_;
  ViewDescriptor descriptor_;
  BoundAggregation agg_;  // descriptor_ points at these three
  std::vector<VectorAggSpec> spec_args_;
  std::vector<int> slot_to_col_;
  size_t num_output_;
  std::string view_state_;
  ThreadPool* pool_;
  const QueryContext* ctx_;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_MAINTAINED_VIEW_NODE_H_
