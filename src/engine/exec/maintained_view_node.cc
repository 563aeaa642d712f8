#include "engine/exec/maintained_view_node.h"

#include <utility>

#include "common/strings.h"
#include "engine/exec/gather_node.h"

namespace nlq::engine::exec {
namespace {

using storage::Row;

class MaintainedViewStream : public ExecStream {
 public:
  explicit MaintainedViewStream(const MaintainedViewNode* node)
      : node_(node) {}

  StatusOr<bool> Next(RowBatch* out) override {
    if (!materialized_) {
      NLQ_ASSIGN_OR_RETURN(std::vector<Row> rows, node_->Compute());
      replay_ = std::make_unique<VectorStream>(std::move(rows));
      materialized_ = true;
    }
    return replay_->Next(out);
  }

 private:
  const MaintainedViewNode* node_;
  bool materialized_ = false;
  std::unique_ptr<VectorStream> replay_;
};

}  // namespace

MaintainedViewNode::MaintainedViewNode(
    ViewRegistry* registry, ViewDescriptor descriptor, BoundAggregation agg,
    std::vector<VectorAggSpec> spec_args, std::vector<int> slot_to_col,
    size_t num_output, std::string view_state, ThreadPool* pool,
    const QueryContext* ctx)
    : PlanNode(nullptr),
      registry_(registry),
      descriptor_(std::move(descriptor)),
      agg_(std::move(agg)),
      spec_args_(std::move(spec_args)),
      slot_to_col_(std::move(slot_to_col)),
      num_output_(num_output),
      view_state_(std::move(view_state)),
      pool_(pool),
      ctx_(ctx) {
  descriptor_.specs = &agg_.specs;
  descriptor_.args = &spec_args_;
  descriptor_.slot_to_col = &slot_to_col_;
}

std::string MaintainedViewNode::annotation() const {
  std::string out = StringPrintf(
      "%s: %zu aggregate(s), %zu partition(s), %s",
      descriptor_.table_name.c_str(), agg_.specs.size(),
      descriptor_.table->num_partitions(), view_state_.c_str());
  if (!descriptor_.filters.empty()) {
    out += ", filter: ";
    for (size_t i = 0; i < descriptor_.filters.size(); ++i) {
      if (i > 0) out += " AND ";
      out += descriptor_.filters[i].text;
    }
  }
  return out;
}

StatusOr<ExecStreamPtr> MaintainedViewNode::OpenStreamImpl(size_t) const {
  return ExecStreamPtr(new MaintainedViewStream(this));
}

StatusOr<std::vector<Row>> MaintainedViewNode::Compute() const {
  NLQ_ASSIGN_OR_RETURN(GroupState group,
                       registry_->Serve(descriptor_, pool_, ctx_));
  std::vector<Row> rows(1);
  NLQ_RETURN_IF_ERROR(ProjectGroup(agg_, /*has_having=*/false, num_output_,
                                   group, &rows[0])
                          .status());
  return rows;
}

}  // namespace nlq::engine::exec
