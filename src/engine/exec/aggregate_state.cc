#include "engine/exec/aggregate_state.h"

#include <utility>

#include "common/failpoint.h"
#include "engine/exec/gather_node.h"
#include "storage/column_batch.h"

namespace nlq::engine::exec {

using storage::DataType;
using storage::Datum;
using storage::NullBitGet;
using storage::Row;

StatusOr<GroupState> InitGroupState(const std::vector<AggregateSpec>& specs,
                                    Row keys, MemoryTracker* memory) {
  GroupState state;
  state.keys = std::move(keys);
  state.builtin.resize(specs.size());
  state.heaps.resize(specs.size());
  state.udf_states.resize(specs.size(), nullptr);
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind != AggregateSpec::Kind::kUdf) continue;
    NLQ_ASSIGN_OR_RETURN(state.heaps[i], udf::HeapSegment::Create(memory));
    NLQ_ASSIGN_OR_RETURN(void* udf_state,
                         specs[i].udaf->Init(state.heaps[i].get()));
    state.udf_states[i] = udf_state;
  }
  return state;
}

StatusOr<GroupState*> InsertGroup(const std::vector<AggregateSpec>& specs,
                                  const Row& key, MemoryTracker* memory,
                                  GroupMap* groups) {
  if (memory != nullptr) {
    // Hash-table entry overhead: the group's key row plus the three
    // parallel state vectors (heap segment charges ride on the
    // segments themselves, in InitGroupState).
    size_t bytes = sizeof(GroupState) + ApproxRowBytes(key) +
                   specs.size() * (sizeof(BuiltinAggState) +
                                   sizeof(std::unique_ptr<udf::HeapSegment>) +
                                   sizeof(void*));
    NLQ_RETURN_IF_ERROR(memory->Charge(bytes, "hash-aggregate group"));
  }
  NLQ_ASSIGN_OR_RETURN(GroupState fresh, InitGroupState(specs, key, memory));
  return &groups->emplace(key, std::move(fresh)).first->second;
}

Status MergeGroup(const std::vector<AggregateSpec>& specs, GroupState* dst,
                  const GroupState* src) {
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind == AggregateSpec::Kind::kUdf) {
      NLQ_FAILPOINT("udf_merge");
      NLQ_RETURN_IF_ERROR(
          specs[i].udaf->Merge(dst->udf_states[i], src->udf_states[i]));
      continue;
    }
    BuiltinAggState& d = dst->builtin[i];
    const BuiltinAggState& s = src->builtin[i];
    d.sum += s.sum;
    d.count += s.count;
    if (s.seen) {
      if (!d.seen || s.min < d.min) d.min = s.min;
      if (!d.seen || s.max > d.max) d.max = s.max;
      d.seen = true;
    }
  }
  return Status::OK();
}

StatusOr<Row> FinalizeGroup(const std::vector<AggregateSpec>& specs,
                            const GroupState& state) {
  Row out(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const AggregateSpec& spec = specs[i];
    const BuiltinAggState& b = state.builtin[i];
    switch (spec.kind) {
      case AggregateSpec::Kind::kCountStar:
      case AggregateSpec::Kind::kCount:
        out[i] = Datum::Int64(b.count);
        break;
      case AggregateSpec::Kind::kSum:
        out[i] = b.seen ? Datum::Double(b.sum) : Datum::Null(DataType::kDouble);
        break;
      case AggregateSpec::Kind::kAvg:
        out[i] = b.count > 0
                     ? Datum::Double(b.sum / static_cast<double>(b.count))
                     : Datum::Null(DataType::kDouble);
        break;
      case AggregateSpec::Kind::kMin:
      case AggregateSpec::Kind::kMax: {
        if (!b.seen) {
          out[i] = Datum::Null(spec.result_type);
          break;
        }
        const double v =
            spec.kind == AggregateSpec::Kind::kMin ? b.min : b.max;
        out[i] = spec.result_type == DataType::kInt64
                     ? Datum::Int64(static_cast<int64_t>(v))
                     : Datum::Double(v);
        break;
      }
      case AggregateSpec::Kind::kUdf: {
        NLQ_ASSIGN_OR_RETURN(Datum v, spec.udaf->Finalize(state.udf_states[i]));
        out[i] = std::move(v);
        break;
      }
    }
  }
  return out;
}

StatusOr<bool> ProjectGroup(const BoundAggregation& agg, bool has_having,
                            size_t num_output, const GroupState& state,
                            Row* out) {
  NLQ_ASSIGN_OR_RETURN(Row agg_values, FinalizeGroup(agg.specs, state));
  Status error;
  EvalContext ctx;
  ctx.keys = &state.keys;
  ctx.aggs = &agg_values;
  ctx.error = &error;
  if (has_having) {
    const Datum keep = agg.projections[num_output]->Eval(ctx);
    NLQ_RETURN_IF_ERROR(error);
    if (keep.is_null() || keep.AsDouble() == 0.0) return false;
  }
  out->resize(num_output);
  for (size_t c = 0; c < num_output; ++c) {
    (*out)[c] = agg.projections[c]->Eval(ctx);
  }
  NLQ_RETURN_IF_ERROR(error);
  return true;
}

StatusOr<std::vector<Row>> MergeAndFinalize(const BoundAggregation& agg,
                                            bool has_having, size_t num_output,
                                            std::vector<GroupMap>* partials,
                                            MemoryTracker* memory) {
  // MERGE phase: fold partial states into stream 0's table.
  GroupMap& global = (*partials)[0];
  for (size_t p = 1; p < partials->size(); ++p) {
    for (auto& [key, state] : (*partials)[p]) {
      auto it = global.find(key);
      if (it == global.end()) {
        global.emplace(key, std::move(state));
      } else {
        NLQ_RETURN_IF_ERROR(MergeGroup(agg.specs, &it->second, &state));
      }
    }
    (*partials)[p].clear();
  }

  // Global aggregate over empty input still yields one row.
  if (global.empty() && agg.key_exprs.empty()) {
    NLQ_RETURN_IF_ERROR(
        FindOrInsertGroup(agg.specs, Row{}, memory, &global).status());
  }

  // FINALIZE phase: finalize aggregates, filter by HAVING, project.
  std::vector<Row> rows;
  rows.reserve(global.size());
  for (const auto& [key, state] : global) {
    Row out;
    NLQ_ASSIGN_OR_RETURN(const bool keep,
                         ProjectGroup(agg, has_having, num_output, state,
                                      &out));
    if (keep) rows.push_back(std::move(out));
  }
  return rows;
}

SpanAccumulator::SpanAccumulator(const std::vector<AggregateSpec>& specs,
                                 const std::vector<VectorAggSpec>& args,
                                 const std::vector<int>& slot_to_col,
                                 const QueryContext* ctx)
    : specs_(specs),
      args_(args),
      slot_to_col_(slot_to_col),
      vm_(ctx),
      const_args_(specs.size()) {
  for (size_t i = 0; i < specs.size(); ++i) {
    if (!args[i].on_spans) continue;
    for (const VectorAggArg& arg : args[i].args) {
      if (arg.prog != nullptr) break;
      const_args_[i].push_back(arg.constant);
    }
  }
}

Status SpanAccumulator::Accumulate(const ColumnSpanBatch& batch,
                                   GroupState* group,
                                   GroupState* const* group_of) {
  const size_t n = batch.rows;
  for (size_t i = 0; i < specs_.size(); ++i) {
    const AggregateSpec& spec = specs_[i];
    const std::vector<VectorAggArg>& args = args_[i].args;
    if (spec.kind == AggregateSpec::Kind::kCountStar) {
      if (group != nullptr) {
        group->builtin[i].count += static_cast<int64_t>(n);
      } else {
        for (size_t r = 0; r < n; ++r) ++group_of[r]->builtin[i].count;
      }
      continue;
    }
    if (spec.kind == AggregateSpec::Kind::kUdf) {
      if (group != nullptr && args_[i].on_spans) {
        NLQ_RETURN_IF_ERROR(
            AccumulateUdfSpans(i, batch, group->udf_states[i]));
        continue;
      }
      // Copy every non-constant argument's result out of the VM so
      // all argument lanes coexist for the per-row assembly.
      arg_regs_.resize(args.size());
      for (size_t a = 0; a < args.size(); ++a) {
        if (args[a].prog == nullptr) continue;
        NLQ_RETURN_IF_ERROR(
            vm_.EvalSpans(*args[a].prog, batch, slot_to_col_, n));
        vm_.CopyResult(*args[a].prog, n, &arg_regs_[a]);
      }
      row_args_.resize(args.size());
      for (size_t r = 0; r < n; ++r) {
        for (size_t a = 0; a < args.size(); ++a) {
          row_args_[a] = args[a].prog == nullptr
                             ? args[a].constant
                             : BoxRegValue(arg_regs_[a],
                                           args[a].prog->result_type(), r);
        }
        NLQ_FAILPOINT("udf_accumulate");
        GroupState* g = group != nullptr ? group : group_of[r];
        NLQ_RETURN_IF_ERROR(spec.udaf->Accumulate(g->udf_states[i], row_args_));
      }
      continue;
    }
    // SQL builtin: accumulate straight off the argument's span or its
    // program's result register, skipping NULL lanes like the
    // interpreter.
    const VectorAggArg& arg = args[0];
    const double* dv = nullptr;
    const int64_t* iv = nullptr;
    const uint64_t* nb = nullptr;
    if (arg.col >= 0) {
      dv = batch.doubles[arg.col];
      iv = batch.ints[arg.col];
      nb = batch.null_bits[arg.col];
    } else {
      NLQ_RETURN_IF_ERROR(vm_.EvalSpans(*arg.prog, batch, slot_to_col_, n));
      const ExprVM::Reg& res = vm_.result(*arg.prog);
      if (arg.prog->result_type() == DataType::kDouble) {
        dv = res.d.data();
      } else {
        iv = res.i.data();
      }
      if (res.has_nulls) nb = res.nulls.data();
    }
    for (size_t r = 0; r < n; ++r) {
      if (nb != nullptr && NullBitGet(nb, r)) continue;
      const double x = dv != nullptr ? dv[r] : static_cast<double>(iv[r]);
      AccumulateBuiltin(spec.kind, x,
                        group != nullptr ? &group->builtin[i]
                                         : &group_of[r]->builtin[i]);
    }
  }
  return Status::OK();
}

Status SpanAccumulator::AccumulateUdfSpans(size_t i, const ColumnSpanBatch& in,
                                           void* state) {
  const std::vector<VectorAggArg>& args = args_[i].args;
  const size_t first = const_args_[i].size();
  const size_t ncols = args.size() - first;
  if (span_bufs_.size() < ncols) span_bufs_.resize(ncols);
  spans_.resize(ncols);
  bool any_nulls = false;
  for (size_t a = first; a < args.size(); ++a) {
    any_nulls |= in.null_bits[args[a].col] != nullptr;
  }
  size_t out_rows = in.rows;
  if (any_nulls) {
    keep_.assign(in.rows, 1);
    out_rows = 0;
    for (size_t a = first; a < args.size(); ++a) {
      const uint64_t* nb = in.null_bits[args[a].col];
      if (nb == nullptr) continue;
      for (size_t r = 0; r < in.rows; ++r) {
        if (NullBitGet(nb, r)) keep_[r] = 0;
      }
    }
    for (size_t r = 0; r < in.rows; ++r) out_rows += keep_[r];
  }
  NLQ_FAILPOINT("udf_accumulate");
  for (size_t a = 0; a < ncols; ++a) {
    const int c = args[first + a].col;
    const double* dv = in.doubles[c];
    const int64_t* iv = in.ints[c];
    if (!any_nulls && dv != nullptr) {
      spans_[a] = dv;  // zero-copy fast path
      continue;
    }
    std::vector<double>& buf = span_bufs_[a];
    buf.resize(out_rows);
    size_t w = 0;
    for (size_t r = 0; r < in.rows; ++r) {
      if (any_nulls && !keep_[r]) continue;
      buf[w++] = dv != nullptr ? dv[r] : static_cast<double>(iv[r]);
    }
    spans_[a] = buf.data();
  }
  return specs_[i].udaf->AccumulateSpans(state, const_args_[i], spans_.data(),
                                         ncols, out_rows);
}

}  // namespace nlq::engine::exec
