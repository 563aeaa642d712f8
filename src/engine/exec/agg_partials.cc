#include "engine/exec/agg_partials.h"

#include <utility>

#include "common/failpoint.h"
#include "storage/column_batch.h"

namespace nlq::engine::exec {
namespace {

using storage::DataType;
using storage::Datum;
using storage::NullBitGet;
using storage::Row;

/// ROW phase of one SQL builtin over one span: NULLs are skipped per
/// column and `seen` is raised per surviving row, matching the row
/// path's per-Datum loop update for update.
void AccumulateBuiltinSpan(AggregateSpec::Kind kind,
                           const ColumnSpanBatch& in, size_t c,
                           BuiltinAggState* b) {
  const double* dv = in.doubles[c];
  const int64_t* iv = in.ints[c];
  const uint64_t* nb = in.null_bits[c];
  for (size_t r = 0; r < in.rows; ++r) {
    if (nb != nullptr && NullBitGet(nb, r)) continue;
    const double x = dv != nullptr ? dv[r] : static_cast<double>(iv[r]);
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
}

/// ROW phase of one aggregate UDF over one batch: widens BIGINT
/// arguments to double and applies the skip-row NULL policy (a NULL in
/// any argument drops the row from this UDF only) by order-preserving
/// compaction, then hands dense spans to AccumulateSpans. Called even
/// when every row compacts away — the UDF state must still fix its
/// shape, exactly as Accumulate does before its own NULL check.
Status AccumulateUdfSpans(const ColumnarAggSpec& spec,
                          const ColumnSpanBatch& in, void* state,
                          SpanScratch* scratch) {
  const size_t ncols = spec.arg_cols.size();
  if (scratch->cols.size() < ncols) scratch->cols.resize(ncols);
  scratch->spans.resize(ncols);
  bool any_nulls = false;
  for (size_t a = 0; a < ncols; ++a) {
    any_nulls |= in.null_bits[spec.arg_cols[a]] != nullptr;
  }
  size_t out_rows = in.rows;
  if (any_nulls) {
    scratch->keep.assign(in.rows, 1);
    out_rows = 0;
    for (size_t a = 0; a < ncols; ++a) {
      const uint64_t* nb = in.null_bits[spec.arg_cols[a]];
      if (nb == nullptr) continue;
      for (size_t r = 0; r < in.rows; ++r) {
        if (NullBitGet(nb, r)) scratch->keep[r] = 0;
      }
    }
    for (size_t r = 0; r < in.rows; ++r) out_rows += scratch->keep[r];
  }
  NLQ_FAILPOINT("udf_accumulate");
  for (size_t a = 0; a < ncols; ++a) {
    const size_t c = spec.arg_cols[a];
    const double* dv = in.doubles[c];
    const int64_t* iv = in.ints[c];
    if (!any_nulls && dv != nullptr) {
      scratch->spans[a] = dv;  // zero-copy fast path
      continue;
    }
    std::vector<double>& buf = scratch->cols[a];
    buf.resize(out_rows);
    size_t w = 0;
    for (size_t r = 0; r < in.rows; ++r) {
      if (any_nulls && !scratch->keep[r]) continue;
      buf[w++] = dv != nullptr ? dv[r] : static_cast<double>(iv[r]);
    }
    scratch->spans[a] = buf.data();
  }
  return spec.udaf->AccumulateSpans(state, spec.const_args,
                                    scratch->spans.data(), ncols, out_rows);
}

}  // namespace

Status InitPartial(const std::vector<ColumnarAggSpec>& specs,
                   MemoryTracker* memory, PartialState* state) {
  state->builtin.resize(specs.size());
  state->heaps.resize(specs.size());
  state->udf_states.resize(specs.size(), nullptr);
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind != AggregateSpec::Kind::kUdf) continue;
    NLQ_ASSIGN_OR_RETURN(state->heaps[i], udf::HeapSegment::Create(memory));
    NLQ_ASSIGN_OR_RETURN(void* udf_state,
                         specs[i].udaf->Init(state->heaps[i].get()));
    state->udf_states[i] = udf_state;
  }
  return Status::OK();
}

Status AccumulateSpecsBatch(const std::vector<ColumnarAggSpec>& specs,
                            const ColumnSpanBatch& batch, PartialState* state,
                            SpanScratch* scratch) {
  for (size_t i = 0; i < specs.size(); ++i) {
    const ColumnarAggSpec& spec = specs[i];
    if (spec.kind == AggregateSpec::Kind::kCountStar) {
      state->builtin[i].count += static_cast<int64_t>(batch.rows);
    } else if (spec.kind == AggregateSpec::Kind::kUdf) {
      NLQ_RETURN_IF_ERROR(
          AccumulateUdfSpans(spec, batch, state->udf_states[i], scratch));
    } else {
      AccumulateBuiltinSpan(spec.kind, batch, spec.arg_cols[0],
                            &state->builtin[i]);
    }
  }
  return Status::OK();
}

Status MergePartial(const std::vector<ColumnarAggSpec>& specs,
                    PartialState* dst, const PartialState* src) {
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

Status ClonePartialInto(const std::vector<ColumnarAggSpec>& specs,
                        MemoryTracker* memory, const PartialState& src,
                        PartialState* dst) {
  NLQ_RETURN_IF_ERROR(InitPartial(specs, memory, dst));
  dst->builtin = src.builtin;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind != AggregateSpec::Kind::kUdf) continue;
    if (specs[i].udaf->RelocatableStateSize() == 0) {
      return Status::Internal(specs[i].udaf->name() +
                              " state is not relocatable; cannot clone");
    }
    NLQ_RETURN_IF_ERROR(
        specs[i].udaf->Merge(dst->udf_states[i], src.udf_states[i]));
  }
  return Status::OK();
}

bool MaintainableSpecs(const std::vector<ColumnarAggSpec>& specs) {
  for (const ColumnarAggSpec& spec : specs) {
    if (spec.kind != AggregateSpec::Kind::kUdf) continue;
    if (spec.udaf->RelocatableStateSize() == 0) return false;
  }
  return true;
}

StatusOr<Row> FinalizePartial(const std::vector<ColumnarAggSpec>& specs,
                              const PartialState& state) {
  Row out(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const ColumnarAggSpec& spec = specs[i];
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

}  // namespace nlq::engine::exec
