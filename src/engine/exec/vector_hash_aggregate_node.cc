#include "engine/exec/vector_hash_aggregate_node.h"

#include <memory>
#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "engine/exec/aggregate_state.h"
#include "engine/exec/gather_node.h"
#include "storage/column_batch.h"

namespace nlq::engine::exec {
namespace {

using storage::DataType;
using storage::Datum;
using storage::NullBitGet;
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

/// ROW phase over one columnar stream: keys and aggregate arguments
/// run through the VM per batch, groups resolve per row in batch
/// order, accumulation runs per (spec, row) off the result registers.
Status AccumulateColumnStream(const PlanNode& child, size_t stream,
                              const BoundAggregation& agg,
                              const std::vector<CompiledExprPtr>& key_progs,
                              const std::vector<VectorAggSpec>& spec_args,
                              const std::vector<int>& slot_to_col,
                              const QueryContext* query_ctx,
                              GroupMap* groups) {
  NLQ_ASSIGN_OR_RETURN(ColumnStreamPtr source, child.OpenColumnStream(stream));
  const std::vector<AggregateSpec>& specs = agg.specs;
  const size_t num_keys = key_progs.size();
  MemoryTracker* memory =
      query_ctx != nullptr ? query_ctx->memory() : nullptr;

  ColumnSpanBatch batch;
  ExprVM vm(query_ctx);
  std::vector<std::vector<Datum>> key_cols(num_keys);
  Row key(num_keys);
  std::vector<GroupState*> group_of;
  std::vector<ExprVM::Reg> arg_regs;
  std::vector<Datum> scratch;

  for (;;) {
    if (query_ctx != nullptr) NLQ_RETURN_IF_ERROR(query_ctx->CheckAlive());
    NLQ_ASSIGN_OR_RETURN(const bool more, source->Next(&batch));
    if (!more) break;
    const size_t n = batch.rows;

    for (size_t k = 0; k < num_keys; ++k) {
      NLQ_RETURN_IF_ERROR(vm.EvalSpans(*key_progs[k], batch, slot_to_col, n));
      key_cols[k].resize(n);
      vm.BoxResult(*key_progs[k], n, key_cols[k].data());
    }

    // Resolve groups per row, in batch order — the insertion sequence
    // (and therefore the hash table's iteration order at FINALIZE)
    // matches the row path's exactly.
    group_of.resize(n);
    for (size_t r = 0; r < n; ++r) {
      for (size_t k = 0; k < num_keys; ++k) key[k] = key_cols[k][r];
      auto it = groups->find(key);
      if (it == groups->end()) {
        NLQ_ASSIGN_OR_RETURN(GroupState fresh,
                             InitGroupState(specs, key, memory));
        it = groups->emplace(key, std::move(fresh)).first;
      }
      group_of[r] = &it->second;
    }

    for (size_t i = 0; i < specs.size(); ++i) {
      const AggregateSpec& spec = specs[i];
      if (spec.kind == AggregateSpec::Kind::kCountStar) {
        for (size_t r = 0; r < n; ++r) ++group_of[r]->builtin[i].count;
        continue;
      }
      if (spec.kind == AggregateSpec::Kind::kUdf) {
        const std::vector<VectorAggArg>& args = spec_args[i].args;
        // Copy every non-constant argument's result out of the VM so
        // all argument lanes coexist for the per-row assembly.
        arg_regs.resize(args.size());
        for (size_t a = 0; a < args.size(); ++a) {
          if (args[a].prog == nullptr) continue;
          NLQ_RETURN_IF_ERROR(
              vm.EvalSpans(*args[a].prog, batch, slot_to_col, n));
          vm.CopyResult(*args[a].prog, n, &arg_regs[a]);
        }
        scratch.resize(args.size());
        for (size_t r = 0; r < n; ++r) {
          for (size_t a = 0; a < args.size(); ++a) {
            scratch[a] = args[a].prog == nullptr
                             ? args[a].constant
                             : BoxRegValue(arg_regs[a],
                                           args[a].prog->result_type(), r);
          }
          NLQ_FAILPOINT("udf_accumulate");
          NLQ_RETURN_IF_ERROR(
              spec.udaf->Accumulate(group_of[r]->udf_states[i], scratch));
        }
        continue;
      }
      // SQL builtin: one argument program; accumulate straight off the
      // result register, skipping NULL lanes like the interpreter.
      const CompiledExpr& prog = *spec_args[i].args[0].prog;
      NLQ_RETURN_IF_ERROR(vm.EvalSpans(prog, batch, slot_to_col, n));
      const ExprVM::Reg& res = vm.result(prog);
      const bool is_double = prog.result_type() == DataType::kDouble;
      for (size_t r = 0; r < n; ++r) {
        if (res.has_nulls && NullBitGet(res.nulls.data(), r)) continue;
        const double x =
            is_double ? res.d[r] : static_cast<double>(res.i[r]);
        BuiltinAggState& b = group_of[r]->builtin[i];
        switch (spec.kind) {
          case AggregateSpec::Kind::kSum:
          case AggregateSpec::Kind::kAvg:
            b.sum += x;
            ++b.count;
            break;
          case AggregateSpec::Kind::kCount:
            ++b.count;
            break;
          case AggregateSpec::Kind::kMin:
            if (!b.seen || x < b.min) b.min = x;
            break;
          case AggregateSpec::Kind::kMax:
            if (!b.seen || x > b.max) b.max = x;
            break;
          default:
            break;
        }
        b.seen = true;
      }
    }

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
    std::vector<VectorAggSpec> spec_args, std::vector<int> slot_to_col,
    bool has_having, std::string having_text, size_t num_output,
    ThreadPool* pool, const QueryContext* ctx)
    : PlanNode(std::move(child)),
      scan_(scan),
      agg_(std::move(agg)),
      key_progs_(std::move(key_progs)),
      spec_args_(std::move(spec_args)),
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
  if (has_having_) out += ", having: " + having_text_;
  out += StringPrintf("; merge: %zu partial state(s) per group, %zu worker(s)",
                      child_->num_streams(),
                      pool_ != nullptr ? pool_->num_workers() : 1);
  size_t ops = 0;
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
                                  slot_to_col_, ctx_, &partials[s]);
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
