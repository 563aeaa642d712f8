#include "engine/exec/vector_hash_aggregate_node.h"

#include <memory>
#include <utility>

#include "common/metrics.h"
#include "common/strings.h"
#include "engine/exec/aggregate_state.h"
#include "engine/exec/gather_node.h"

namespace nlq::engine::exec {
namespace {

using storage::Datum;
using storage::Row;

class VectorAggregateStream : public ExecStream {
 public:
  explicit VectorAggregateStream(const VectorHashAggregateNode* node)
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
  const VectorHashAggregateNode* node_;
  bool materialized_ = false;
  std::unique_ptr<VectorStream> replay_;
};

/// ROW phase over one columnar stream: keys run through the VM per
/// batch and groups resolve per row in batch order; the zero-key group
/// is seeded when the stream opens and resolves once per batch.
Status AccumulateColumnStream(const PlanNode& child, size_t stream,
                              const BoundAggregation& agg,
                              const std::vector<CompiledExprPtr>& key_progs,
                              const std::vector<VectorAggSpec>& spec_args,
                              const CompiledExpr* builtin_prog,
                              const std::vector<int>& slot_to_col,
                              const QueryContext* query_ctx,
                              GroupMap* groups) {
  const size_t num_keys = key_progs.size();
  MemoryTracker* memory =
      query_ctx != nullptr ? query_ctx->memory() : nullptr;
  GroupState* global = nullptr;
  if (num_keys == 0) {
    NLQ_ASSIGN_OR_RETURN(global,
                         FindOrInsertGroup(agg.specs, Row{}, memory, groups));
  }
  NLQ_ASSIGN_OR_RETURN(ColumnStreamPtr source, child.OpenColumnStream(stream));

  ColumnSpanBatch batch;
  SpanAccumulator acc(agg.specs, spec_args, builtin_prog, slot_to_col,
                      query_ctx);
  ExprVM& vm = *acc.vm();
  std::vector<std::vector<Datum>> key_cols(num_keys);
  Row key(num_keys);
  std::vector<GroupState*> group_of;

  for (;;) {
    if (query_ctx != nullptr) NLQ_RETURN_IF_ERROR(query_ctx->CheckAlive());
    NLQ_ASSIGN_OR_RETURN(const bool more, source->Next(&batch));
    if (!more) break;
    const size_t n = batch.rows;

    if (global == nullptr) {
      for (size_t k = 0; k < num_keys; ++k) {
        NLQ_RETURN_IF_ERROR(
            vm.EvalSpans(*key_progs[k], batch, slot_to_col, n));
        key_cols[k].resize(n);
        vm.BoxResult(*key_progs[k], n, key_cols[k].data());
      }
      // Resolve groups per row, in batch order — the insertion sequence
      // (and therefore the hash table's iteration order at FINALIZE)
      // matches the row path's exactly.
      group_of.resize(n);
      for (size_t r = 0; r < n; ++r) {
        for (size_t k = 0; k < num_keys; ++k) key[k] = key_cols[k][r];
        NLQ_ASSIGN_OR_RETURN(group_of[r],
                             FindOrInsertGroup(agg.specs, key, memory, groups));
      }
    }
    NLQ_RETURN_IF_ERROR(acc.Accumulate(batch, global, group_of.data()));

    if (query_ctx != nullptr && query_ctx->stats() != nullptr) {
      query_ctx->stats()->rows_vectorized.fetch_add(
          n, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

}  // namespace

VectorHashAggregateNode::VectorHashAggregateNode(
    PlanNodePtr child, const ColumnarScanNode* scan, BoundAggregation agg,
    std::vector<CompiledExprPtr> key_progs,
    std::vector<VectorAggSpec> spec_args, CompiledExprPtr builtin_prog,
    std::vector<int> slot_to_col, bool has_having, std::string having_text,
    size_t num_output, ThreadPool* pool, const QueryContext* ctx)
    : PlanNode(std::move(child)),
      scan_(scan),
      agg_(std::move(agg)),
      key_progs_(std::move(key_progs)),
      spec_args_(std::move(spec_args)),
      builtin_prog_(std::move(builtin_prog)),
      slot_to_col_(std::move(slot_to_col)),
      has_having_(has_having),
      having_text_(std::move(having_text)),
      num_output_(num_output),
      pool_(pool),
      ctx_(ctx) {}

std::string VectorHashAggregateNode::annotation() const {
  std::string out =
      StringPrintf("%zu group key(s), %zu aggregate(s)",
                   agg_.key_exprs.size(), agg_.specs.size());
  size_t udfs = 0;
  for (const auto& spec : agg_.specs) {
    if (spec.kind == AggregateSpec::Kind::kUdf) ++udfs;
  }
  if (udfs > 0) out += StringPrintf(", %zu aggregate UDF call(s)", udfs);
  size_t on_spans = 0;
  for (const VectorAggSpec& spec : spec_args_) on_spans += spec.on_spans;
  if (on_spans > 0) out += StringPrintf(" (%zu on column spans)", on_spans);
  if (has_having_) out += ", having: " + having_text_;
  out += StringPrintf("; merge: %zu partial state(s) per group, %zu worker(s)",
                      child_->num_streams(),
                      pool_ != nullptr ? pool_->num_workers() : 1);
  size_t ops =
      builtin_prog_ != nullptr ? builtin_prog_->num_instructions() : 0;
  for (const CompiledExprPtr& prog : key_progs_) {
    ops += prog->num_instructions();
  }
  for (const VectorAggSpec& spec : spec_args_) {
    for (const VectorAggArg& arg : spec.args) {
      if (arg.prog != nullptr) ops += arg.prog->num_instructions();
    }
  }
  out += StringPrintf("; compiled, %zu op(s)", ops);
  if (!view_note_.empty()) out += ", " + view_note_;
  return out;
}

StatusOr<ExecStreamPtr> VectorHashAggregateNode::OpenStreamImpl(size_t) const {
  return ExecStreamPtr(new VectorAggregateStream(this));
}

StatusOr<std::vector<Row>> VectorHashAggregateNode::Compute() const {
  if (views_ != nullptr) {
    StatusOr<GroupState> served = views_->Serve(view_descriptor(), pool_, ctx_);
    if (served.ok()) {
      std::vector<Row> rows(1);
      NLQ_RETURN_IF_ERROR(ProjectGroup(agg_, has_having_, num_output_,
                                       *served, &rows[0])
                              .status());
      return rows;
    }
    // The registry dropped the entry; anything but cancellation or a
    // deadline degrades to the rescan below.
    const StatusCode code = served.status().code();
    if (code == StatusCode::kCancelled ||
        code == StatusCode::kDeadlineExceeded) {
      return served.status();
    }
  }

  // Fill the decoded-column cache one partition per task BEFORE the
  // morsel drain (Table::EnsureDecodedColumns is not safe against
  // concurrent fills of the same partition).
  NLQ_RETURN_IF_ERROR(scan_->WarmCache(pool_));

  // ROW phase: one hash table per columnar stream, drained in
  // parallel. On failure `partials` is destroyed whole — every partial
  // group state (and its UDF heap segments) is torn down with it.
  const size_t streams = child_->num_streams();
  std::vector<GroupMap> partials(streams);
  auto drain_one = [&](size_t s) -> Status {
    return AccumulateColumnStream(*child_, s, agg_, key_progs_, spec_args_,
                                  builtin_prog_.get(), slot_to_col_, ctx_,
                                  &partials[s]);
  };
  if (streams == 1 || pool_ == nullptr) {
    for (size_t s = 0; s < streams; ++s) NLQ_RETURN_IF_ERROR(drain_one(s));
  } else {
    NLQ_RETURN_IF_ERROR(pool_->ParallelFor(streams, drain_one, ctx_));
  }

  return MergeAndFinalize(agg_, has_having_, num_output_, &partials,
                          ctx_ != nullptr ? ctx_->memory() : nullptr);
}

}  // namespace nlq::engine::exec
