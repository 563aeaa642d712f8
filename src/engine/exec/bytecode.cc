#include "engine/exec/bytecode.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "engine/expr.h"
#include "storage/column_batch.h"

namespace nlq::engine::exec {

using storage::DataType;
using storage::Datum;
using storage::NullBitGet;
using storage::NullBitmapWords;
using storage::NullBitSet;

// ---------------------------------------------------------------------------
// ExprVM
// ---------------------------------------------------------------------------

namespace {

bool AnyBitSet(const uint64_t* words, size_t count) {
  for (size_t w = 0; w < count; ++w) {
    if (words[w] != 0) return true;
  }
  return false;
}

/// Points `r` at its own buffers, sized for `n` lanes of type `t`, with
/// no NULLs.
void Prep(ExprVM::Reg& r, DataType t, size_t n) {
  if (t == DataType::kDouble) {
    r.own_d.resize(n);
    r.d = r.own_d.data();
  } else {
    r.own_i.resize(n);
    r.i = r.own_i.data();
  }
  r.own_nulls.assign(NullBitmapWords(n), 0);
  r.nulls = r.own_nulls.data();
  r.has_nulls = false;
}

/// Runs `prog` over `n` rows. `load` fills the destination register of
/// each kLoadCol instruction (the only input-dependent opcode), so the
/// row-gather and span entry points share every operator loop — and
/// therefore produce bit-identical results by construction. After each
/// instruction, `sink(begin, end)` receives the outputs it completed.
template <typename Loader, typename Sink>
Status RunProgram(const CompiledExpr& prog, size_t n,
                  std::vector<ExprVM::Reg>* regs,
                  std::vector<udf::ArgSpan>* call_args,
                  const QueryContext* ctx, Loader load, Sink sink) {
  if (regs->size() < prog.num_regs()) regs->resize(prog.num_regs());
  const size_t words = NullBitmapWords(n);

  auto prep = [&](ExprVM::Reg& r, DataType t) { Prep(r, t, n); };
  auto copy_nulls = [&](ExprVM::Reg& dst, const ExprVM::Reg& a) {
    if (!a.has_nulls) return;
    std::memcpy(dst.own_nulls.data(), a.nulls, words * sizeof(uint64_t));
    dst.has_nulls = true;
  };
  auto union_nulls = [&](ExprVM::Reg& dst, const ExprVM::Reg& a,
                         const ExprVM::Reg& b) {
    if (!a.has_nulls && !b.has_nulls) return;
    for (size_t w = 0; w < words; ++w) {
      dst.own_nulls[w] =
          (a.has_nulls ? a.nulls[w] : 0) | (b.has_nulls ? b.nulls[w] : 0);
    }
    dst.has_nulls = true;
  };
  auto set_null = [](ExprVM::Reg& dst, size_t r) {
    NullBitSet(dst.own_nulls.data(), r);
    dst.has_nulls = true;
  };
  auto is_null = [](const ExprVM::Reg& a, size_t r) {
    return a.has_nulls && NullBitGet(a.nulls, r);
  };

  const std::vector<ProgramOutput>& outputs = prog.outputs();
  size_t next_output = 0;
  const std::vector<Instr>& instrs = prog.instructions();
  for (size_t pc = 0; pc < instrs.size(); ++pc) {
    const Instr& ins = instrs[pc];
    ExprVM::Reg& dst = (*regs)[ins.dst];
    // Register allocation never hands an instruction one of its own
    // operands as destination, so every loop may write dst freely.
    switch (ins.op) {
      case OpCode::kLoadCol: {
        load(ins, &dst);
        break;
      }
      case OpCode::kLoadConst: {
        prep(dst, ins.type);
        if (ins.const_null) {
          dst.own_nulls.assign(words, ~uint64_t{0});
          dst.nulls = dst.own_nulls.data();
          dst.has_nulls = true;
        }
        if (ins.type == DataType::kDouble) {
          std::fill(dst.own_d.begin(), dst.own_d.end(),
                    ins.const_null ? 0.0 : ins.const_d);
        } else {
          std::fill(dst.own_i.begin(), dst.own_i.end(),
                    ins.const_null ? int64_t{0} : ins.const_i);
        }
        break;
      }
      case OpCode::kCastDouble: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        prep(dst, DataType::kDouble);
        for (size_t r = 0; r < n; ++r) {
          dst.own_d[r] = static_cast<double>(a.i[r]);
        }
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kTruthD: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        prep(dst, DataType::kInt64);
        for (size_t r = 0; r < n; ++r) dst.own_i[r] = a.d[r] != 0.0 ? 1 : 0;
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kTruthI: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        prep(dst, DataType::kInt64);
        for (size_t r = 0; r < n; ++r) dst.own_i[r] = a.i[r] != 0 ? 1 : 0;
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kNegI: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        prep(dst, DataType::kInt64);
        for (size_t r = 0; r < n; ++r) dst.own_i[r] = -a.i[r];
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kNegD: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        prep(dst, DataType::kDouble);
        for (size_t r = 0; r < n; ++r) dst.own_d[r] = -a.d[r];
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kNot: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        prep(dst, DataType::kInt64);
        for (size_t r = 0; r < n; ++r) dst.own_i[r] = a.i[r] == 0 ? 1 : 0;
        copy_nulls(dst, a);
        break;
      }
      case OpCode::kAddI:
      case OpCode::kSubI:
      case OpCode::kMulI: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
        prep(dst, DataType::kInt64);
        int64_t* out = dst.own_i.data();
        if (ins.op == OpCode::kAddI) {
          for (size_t r = 0; r < n; ++r) out[r] = a.i[r] + b.i[r];
        } else if (ins.op == OpCode::kSubI) {
          for (size_t r = 0; r < n; ++r) out[r] = a.i[r] - b.i[r];
        } else {
          for (size_t r = 0; r < n; ++r) out[r] = a.i[r] * b.i[r];
        }
        union_nulls(dst, a, b);
        break;
      }
      case OpCode::kModI: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
        prep(dst, DataType::kInt64);
        union_nulls(dst, a, b);
        for (size_t r = 0; r < n; ++r) {
          if (b.i[r] == 0) {
            dst.own_i[r] = 0;
            set_null(dst, r);
          } else {
            dst.own_i[r] = a.i[r] % b.i[r];
          }
        }
        break;
      }
      case OpCode::kAddD:
      case OpCode::kSubD:
      case OpCode::kMulD: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
        prep(dst, DataType::kDouble);
        double* out = dst.own_d.data();
        if (ins.op == OpCode::kAddD) {
          for (size_t r = 0; r < n; ++r) out[r] = a.d[r] + b.d[r];
        } else if (ins.op == OpCode::kSubD) {
          for (size_t r = 0; r < n; ++r) out[r] = a.d[r] - b.d[r];
        } else {
          for (size_t r = 0; r < n; ++r) out[r] = a.d[r] * b.d[r];
        }
        union_nulls(dst, a, b);
        break;
      }
      case OpCode::kDivD: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
        prep(dst, DataType::kDouble);
        union_nulls(dst, a, b);
        for (size_t r = 0; r < n; ++r) {
          if (b.d[r] == 0.0) {
            dst.own_d[r] = 0.0;
            set_null(dst, r);
          } else {
            dst.own_d[r] = a.d[r] / b.d[r];
          }
        }
        break;
      }
      case OpCode::kModD:
      case OpCode::kFmod: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
        prep(dst, DataType::kDouble);
        union_nulls(dst, a, b);
        for (size_t r = 0; r < n; ++r) {
          if (b.d[r] == 0.0) {
            dst.own_d[r] = 0.0;
            set_null(dst, r);
          } else {
            dst.own_d[r] = std::fmod(a.d[r], b.d[r]);
          }
        }
        break;
      }
      case OpCode::kCmpEq:
      case OpCode::kCmpNe:
      case OpCode::kCmpLt:
      case OpCode::kCmpLe:
      case OpCode::kCmpGt:
      case OpCode::kCmpGe: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
        prep(dst, DataType::kInt64);
        // The -1/0/1 ladder mirrors the interpreter's EvalComparison,
        // including its NaN behavior (NaN compares "equal").
        for (size_t r = 0; r < n; ++r) {
          const double av = a.d[r];
          const double bv = b.d[r];
          const int cmp = av < bv ? -1 : (av > bv ? 1 : 0);
          bool pass = false;
          switch (ins.op) {
            case OpCode::kCmpEq: pass = cmp == 0; break;
            case OpCode::kCmpNe: pass = cmp != 0; break;
            case OpCode::kCmpLt: pass = cmp < 0; break;
            case OpCode::kCmpLe: pass = cmp <= 0; break;
            case OpCode::kCmpGt: pass = cmp > 0; break;
            default: pass = cmp >= 0; break;
          }
          dst.own_i[r] = pass ? 1 : 0;
        }
        union_nulls(dst, a, b);
        break;
      }
      case OpCode::kAnd:
      case OpCode::kOr: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
        prep(dst, DataType::kInt64);
        const bool is_and = ins.op == OpCode::kAnd;
        if (!a.has_nulls && !b.has_nulls) {
          for (size_t r = 0; r < n; ++r) {
            dst.own_i[r] = is_and ? (a.i[r] & b.i[r]) : (a.i[r] | b.i[r]);
          }
          break;
        }
        for (size_t r = 0; r < n; ++r) {
          const bool an = is_null(a, r);
          const bool bn = is_null(b, r);
          const bool at = !an && a.i[r] != 0;
          const bool bt = !bn && b.i[r] != 0;
          if (is_and) {
            if ((!an && !at) || (!bn && !bt)) {
              dst.own_i[r] = 0;  // a definite FALSE dominates
            } else if (an || bn) {
              dst.own_i[r] = 0;
              set_null(dst, r);
            } else {
              dst.own_i[r] = 1;
            }
          } else {
            if (at || bt) {
              dst.own_i[r] = 1;  // a definite TRUE dominates
            } else if (an || bn) {
              dst.own_i[r] = 0;
              set_null(dst, r);
            } else {
              dst.own_i[r] = 0;
            }
          }
        }
        break;
      }
      case OpCode::kIsNull:
      case OpCode::kIsNotNull: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        prep(dst, DataType::kInt64);
        const bool want_null = ins.op == OpCode::kIsNull;
        for (size_t r = 0; r < n; ++r) {
          dst.own_i[r] = is_null(a, r) == want_null ? 1 : 0;
        }
        break;
      }
      case OpCode::kSqrt: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        prep(dst, DataType::kDouble);
        copy_nulls(dst, a);
        for (size_t r = 0; r < n; ++r) {
          if (a.d[r] < 0.0) {
            dst.own_d[r] = 0.0;
            set_null(dst, r);
          } else {
            dst.own_d[r] = std::sqrt(a.d[r]);
          }
        }
        break;
      }
      case OpCode::kLn: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        prep(dst, DataType::kDouble);
        copy_nulls(dst, a);
        for (size_t r = 0; r < n; ++r) {
          if (a.d[r] <= 0.0) {
            dst.own_d[r] = 0.0;
            set_null(dst, r);
          } else {
            dst.own_d[r] = std::log(a.d[r]);
          }
        }
        break;
      }
      case OpCode::kAbs:
      case OpCode::kExp:
      case OpCode::kFloor:
      case OpCode::kCeil:
      case OpCode::kRound: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        prep(dst, DataType::kDouble);
        copy_nulls(dst, a);
        double* out = dst.own_d.data();
        switch (ins.op) {
          case OpCode::kAbs:
            for (size_t r = 0; r < n; ++r) out[r] = std::fabs(a.d[r]);
            break;
          case OpCode::kExp:
            for (size_t r = 0; r < n; ++r) out[r] = std::exp(a.d[r]);
            break;
          case OpCode::kFloor:
            for (size_t r = 0; r < n; ++r) out[r] = std::floor(a.d[r]);
            break;
          case OpCode::kCeil:
            for (size_t r = 0; r < n; ++r) out[r] = std::ceil(a.d[r]);
            break;
          default:
            for (size_t r = 0; r < n; ++r) out[r] = std::round(a.d[r]);
            break;
        }
        break;
      }
      case OpCode::kPow: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
        prep(dst, DataType::kDouble);
        union_nulls(dst, a, b);
        for (size_t r = 0; r < n; ++r) {
          dst.own_d[r] = std::pow(a.d[r], b.d[r]);
        }
        break;
      }
      case OpCode::kLeast:
      case OpCode::kGreatest: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
        prep(dst, DataType::kDouble);
        union_nulls(dst, a, b);
        // Fold direction matches the interpreter's running-best scan:
        // the newer operand (b) replaces the accumulator (a) only on a
        // strict win, so NaN ties resolve identically.
        if (ins.op == OpCode::kLeast) {
          for (size_t r = 0; r < n; ++r) {
            dst.own_d[r] = b.d[r] < a.d[r] ? b.d[r] : a.d[r];
          }
        } else {
          for (size_t r = 0; r < n; ++r) {
            dst.own_d[r] = b.d[r] > a.d[r] ? b.d[r] : a.d[r];
          }
        }
        break;
      }
      case OpCode::kCoalesce: {
        const ExprVM::Reg& a = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
        prep(dst, ins.type);
        for (size_t r = 0; r < n; ++r) {
          const bool an = is_null(a, r);
          const ExprVM::Reg& src = an ? b : a;
          if (ins.type == DataType::kDouble) {
            dst.own_d[r] = src.d[r];
          } else {
            dst.own_i[r] = src.i[r];
          }
          if (an && is_null(b, r)) set_null(dst, r);
        }
        break;
      }
      case OpCode::kSelect: {
        const ExprVM::Reg& cond = (*regs)[ins.a];
        const ExprVM::Reg& b = (*regs)[ins.b];
        const ExprVM::Reg& c = (*regs)[ins.c];
        prep(dst, ins.type);
        for (size_t r = 0; r < n; ++r) {
          const bool taken = !is_null(cond, r) && cond.i[r] != 0;
          const ExprVM::Reg& src = taken ? b : c;
          if (ins.type == DataType::kDouble) {
            dst.own_d[r] = src.d[r];
          } else {
            dst.own_i[r] = src.i[r];
          }
          if (is_null(src, r)) set_null(dst, r);
        }
        break;
      }
      case OpCode::kCallUdf: {
        const UdfCall& call = prog.calls()[ins.slot];
        prep(dst, ins.type);
        call_args->resize(call.args.size());
        for (size_t k = 0; k < call.args.size(); ++k) {
          const ExprVM::Reg& a = (*regs)[call.args[k]];
          udf::ArgSpan& span = (*call_args)[k];
          span.type = call.arg_types[k];
          span.d = a.d;
          span.i = a.i;
          span.nulls = a.has_nulls ? a.nulls : nullptr;
        }
        udf::ResultSpan result;
        result.d = dst.own_d.data();
        result.i = dst.own_i.data();
        result.nulls = dst.own_nulls.data();
        NLQ_RETURN_IF_ERROR(call.udf->InvokeSpans(
            call_args->data(), call_args->size(), n, ctx, &result));
        dst.has_nulls = result.has_nulls;
        break;
      }
    }
    const size_t begin = next_output;
    while (next_output < outputs.size() && outputs[next_output].after == pc) {
      ++next_output;
    }
    if (next_output > begin) sink(begin, next_output);
  }
  return Status::OK();
}

void NoSink(size_t, size_t) {}

/// Loads span column `ins.slot` in place: the register views the
/// batch's lanes and null bitmap, which outlive the evaluation.
auto SpanLoader(const ColumnSpanBatch& in, const std::vector<int>& slot_to_col,
                size_t n) {
  return [&in, &slot_to_col, n](const Instr& ins, ExprVM::Reg* dst) {
    const int col = slot_to_col[ins.slot];
    dst->d = in.doubles[col];
    dst->i = in.ints[col];
    const uint64_t* nb = in.null_bits[col];
    dst->nulls = nb;
    dst->has_nulls = nb != nullptr && AnyBitSet(nb, NullBitmapWords(n));
  };
}

}  // namespace

Status ExprVM::EvalRows(const CompiledExpr& prog, const storage::Row* rows,
                        size_t n) {
  return RunProgram(prog, n, &regs_, &call_args_, ctx_,
                    [&](const Instr& ins, Reg* dst) {
    Prep(*dst, ins.type, n);
    const size_t slot = ins.slot;
    if (ins.type == DataType::kDouble) {
      for (size_t r = 0; r < n; ++r) {
        const Datum& v = rows[r][slot];
        if (v.is_null()) {
          dst->own_d[r] = 0.0;
          NullBitSet(dst->own_nulls.data(), r);
          dst->has_nulls = true;
        } else {
          dst->own_d[r] = v.AsDouble();
        }
      }
    } else {
      for (size_t r = 0; r < n; ++r) {
        const Datum& v = rows[r][slot];
        if (v.is_null()) {
          dst->own_i[r] = 0;
          NullBitSet(dst->own_nulls.data(), r);
          dst->has_nulls = true;
        } else {
          dst->own_i[r] = v.int_value();
        }
      }
    }
  }, NoSink);
}

Status ExprVM::EvalSpans(const CompiledExpr& prog, const ColumnSpanBatch& in,
                         const std::vector<int>& slot_to_col, size_t n) {
  return RunProgram(prog, n, &regs_, &call_args_, ctx_,
                    SpanLoader(in, slot_to_col, n), NoSink);
}

Status ExprVM::EvalOutputs(const CompiledExpr& prog, const ColumnSpanBatch& in,
                           const std::vector<int>& slot_to_col, size_t n,
                           const std::function<void(size_t, size_t)>& sink) {
  return RunProgram(prog, n, &regs_, &call_args_, ctx_,
                    SpanLoader(in, slot_to_col, n), sink);
}

Datum BoxRegValue(const ExprVM::Reg& reg, DataType type, size_t r) {
  if (reg.has_nulls && NullBitGet(reg.nulls, r)) {
    return Datum::Null(type);
  }
  return type == DataType::kDouble ? Datum::Double(reg.d[r])
                                   : Datum::Int64(reg.i[r]);
}

void ExprVM::BoxResult(const CompiledExpr& prog, size_t n,
                       Datum* out) const {
  const Reg& reg = regs_[prog.result_reg()];
  const DataType type = prog.result_type();
  for (size_t r = 0; r < n; ++r) out[r] = BoxRegValue(reg, type, r);
}

void ExprVM::CopyResult(const CompiledExpr& prog, size_t n, Reg* out) const {
  const Reg& reg = regs_[prog.result_reg()];
  Prep(*out, prog.result_type(), n);
  if (prog.result_type() == DataType::kDouble) {
    std::copy(reg.d, reg.d + n, out->own_d.begin());
  } else {
    std::copy(reg.i, reg.i + n, out->own_i.begin());
  }
  if (reg.has_nulls) {
    std::copy(reg.nulls, reg.nulls + NullBitmapWords(n),
              out->own_nulls.begin());
    out->has_nulls = true;
  }
}

void ExprVM::AndResultIntoKeep(const CompiledExpr& prog, size_t n,
                               uint8_t* keep) const {
  const Reg& reg = regs_[prog.result_reg()];
  const bool is_double = prog.result_type() == DataType::kDouble;
  for (size_t r = 0; r < n; ++r) {
    if (reg.has_nulls && NullBitGet(reg.nulls, r)) {
      keep[r] = 0;
      continue;
    }
    const bool truthy = is_double ? reg.d[r] != 0.0 : reg.i[r] != 0;
    if (!truthy) keep[r] = 0;
  }
}

// ---------------------------------------------------------------------------
// BytecodeBuilder
// ---------------------------------------------------------------------------

struct BytecodeBuilder::Value {
  storage::DataType type = storage::DataType::kDouble;
  bool is_const = false;
  storage::Datum cval;
  int reg = -1;  // materialized register, -1 until needed
  bool calls_udf = false;  // computed through a kCallUdf (may fail)
};

BytecodeBuilder::BytecodeBuilder() = default;
BytecodeBuilder::~BytecodeBuilder() = default;

bool BytecodeBuilder::Valid(ValueId v) const {
  return v >= 0 && static_cast<size_t>(v) < values_.size();
}

DataType BytecodeBuilder::TypeOf(ValueId v) const { return values_[v].type; }

bool BytecodeBuilder::CallsUdf(ValueId v) const {
  return Valid(v) && values_[v].calls_udf;
}

BytecodeBuilder::ValueId BytecodeBuilder::Constant(const Datum& v) {
  if (v.type() == DataType::kVarchar) return kInvalidValue;
  Value val;
  val.type = v.type();
  val.is_const = true;
  val.cval = v;
  values_.push_back(std::move(val));
  return static_cast<ValueId>(values_.size() - 1);
}

BytecodeBuilder::ValueId BytecodeBuilder::LoadColumn(size_t slot,
                                                     DataType type) {
  if (type == DataType::kVarchar) return kInvalidValue;
  if (slot > UINT32_MAX) return kInvalidValue;
  if (slot < loads_.size() && loads_[slot] != kInvalidValue) {
    return loads_[slot];
  }
  Instr ins;
  ins.op = OpCode::kLoadCol;
  ins.type = type;
  ins.slot = static_cast<uint32_t>(slot);
  const ValueId v = Emit(ins, type);
  if (Valid(v)) {
    slots_.push_back(slot);
    if (loads_.size() <= slot) loads_.resize(slot + 1, kInvalidValue);
    loads_[slot] = v;
  }
  return v;
}

BytecodeBuilder::ValueId BytecodeBuilder::Emit(Instr instr, DataType type) {
  if (num_regs_ >= UINT16_MAX) return kInvalidValue;
  instr.dst = static_cast<uint16_t>(num_regs_++);
  instr.type = type;
  instrs_.push_back(instr);
  Value val;
  val.type = type;
  val.reg = instr.dst;
  values_.push_back(std::move(val));
  return static_cast<ValueId>(values_.size() - 1);
}

uint16_t BytecodeBuilder::Reg(ValueId v) {
  Value& val = values_[v];
  if (val.reg >= 0) return static_cast<uint16_t>(val.reg);
  // A constant used by a non-foldable consumer: materialize one
  // broadcast load (per use site is fine — trees are small).
  Instr ins;
  ins.op = OpCode::kLoadConst;
  ins.type = val.type;
  ins.const_null = val.cval.is_null();
  if (!ins.const_null) {
    if (val.type == DataType::kDouble) {
      ins.const_d = val.cval.double_value();
    } else {
      ins.const_i = val.cval.int_value();
    }
  }
  ins.dst = static_cast<uint16_t>(num_regs_++);
  instrs_.push_back(ins);
  val.reg = ins.dst;
  return ins.dst;
}

BytecodeBuilder::ValueId BytecodeBuilder::EmitOrFold(
    Instr instr, DataType type, std::initializer_list<ValueId> operands) {
  bool all_const = true;
  for (ValueId v : operands) {
    if (!Valid(v)) return kInvalidValue;
    all_const = all_const && values_[v].is_const;
  }
  if (all_const && operands.size() > 0) {
    // Constant folding: run the single instruction over a one-row
    // batch through the VM itself, so the folded value is computed by
    // exactly the code that would have run per batch.
    CompiledExpr tmp;
    uint16_t opregs[3] = {0, 0, 0};
    size_t k = 0;
    for (ValueId v : operands) {
      const Value& val = values_[v];
      Instr load;
      load.op = OpCode::kLoadConst;
      load.type = val.type;
      load.const_null = val.cval.is_null();
      if (!load.const_null) {
        if (val.type == DataType::kDouble) {
          load.const_d = val.cval.double_value();
        } else {
          load.const_i = val.cval.int_value();
        }
      }
      load.dst = static_cast<uint16_t>(k);
      opregs[k++] = load.dst;
      tmp.instrs_.push_back(load);
    }
    instr.a = opregs[0];
    instr.b = operands.size() > 1 ? opregs[1] : opregs[0];
    instr.c = operands.size() > 2 ? opregs[2] : opregs[0];
    instr.dst = static_cast<uint16_t>(k);
    instr.type = type;
    tmp.instrs_.push_back(instr);
    tmp.num_regs_ = k + 1;
    ProgramOutput result;
    result.reg = instr.dst;
    result.type = type;
    result.after = static_cast<uint32_t>(k);
    tmp.outputs_.push_back(result);
    // Builtin opcodes are total, so the fold cannot fail.
    ExprVM vm;
    if (!vm.EvalRows(tmp, nullptr, 1).ok()) return kInvalidValue;
    return Constant(BoxRegValue(vm.result(tmp), type, 0));
  }
  size_t k = 0;
  bool calls_udf = false;
  for (ValueId v : operands) {
    const uint16_t reg = Reg(v);
    if (k == 0) instr.a = reg;
    if (k == 1) instr.b = reg;
    if (k == 2) instr.c = reg;
    calls_udf = calls_udf || values_[v].calls_udf;
    ++k;
  }
  const ValueId out = Emit(instr, type);
  if (Valid(out)) values_[out].calls_udf = calls_udf;
  return out;
}

BytecodeBuilder::ValueId BytecodeBuilder::CastDouble(ValueId v) {
  if (!Valid(v)) return kInvalidValue;
  if (TypeOf(v) == DataType::kDouble) return v;
  Instr ins;
  ins.op = OpCode::kCastDouble;
  return EmitOrFold(ins, DataType::kDouble, {v});
}

BytecodeBuilder::ValueId BytecodeBuilder::Truth(ValueId v) {
  if (!Valid(v)) return kInvalidValue;
  Instr ins;
  ins.op = TypeOf(v) == DataType::kDouble ? OpCode::kTruthD : OpCode::kTruthI;
  return EmitOrFold(ins, DataType::kInt64, {v});
}

BytecodeBuilder::ValueId BytecodeBuilder::Unary(UnaryOp op, ValueId v) {
  if (!Valid(v)) return kInvalidValue;
  if (op == UnaryOp::kNegate) {
    Instr ins;
    const DataType t = TypeOf(v);
    ins.op = t == DataType::kDouble ? OpCode::kNegD : OpCode::kNegI;
    return EmitOrFold(ins, t, {v});
  }
  // NOT: truth-normalize, then flip with NULL preserved (3VL).
  const ValueId t = Truth(v);
  if (!Valid(t)) return kInvalidValue;
  Instr ins;
  ins.op = OpCode::kNot;
  return EmitOrFold(ins, DataType::kInt64, {t});
}

BytecodeBuilder::ValueId BytecodeBuilder::Binary(BinaryOp op, ValueId l,
                                                 ValueId r) {
  if (!Valid(l) || !Valid(r)) return kInvalidValue;
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kMod: {
      const bool both_int = TypeOf(l) == DataType::kInt64 &&
                            TypeOf(r) == DataType::kInt64;
      Instr ins;
      if (both_int) {
        switch (op) {
          case BinaryOp::kAdd: ins.op = OpCode::kAddI; break;
          case BinaryOp::kSub: ins.op = OpCode::kSubI; break;
          case BinaryOp::kMul: ins.op = OpCode::kMulI; break;
          default: ins.op = OpCode::kModI; break;
        }
        return EmitOrFold(ins, DataType::kInt64, {l, r});
      }
      switch (op) {
        case BinaryOp::kAdd: ins.op = OpCode::kAddD; break;
        case BinaryOp::kSub: ins.op = OpCode::kSubD; break;
        case BinaryOp::kMul: ins.op = OpCode::kMulD; break;
        default: ins.op = OpCode::kModD; break;
      }
      return EmitOrFold(ins, DataType::kDouble, {CastDouble(l), CastDouble(r)});
    }
    case BinaryOp::kDiv: {
      Instr ins;
      ins.op = OpCode::kDivD;
      return EmitOrFold(ins, DataType::kDouble, {CastDouble(l), CastDouble(r)});
    }
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      Instr ins;
      switch (op) {
        case BinaryOp::kEq: ins.op = OpCode::kCmpEq; break;
        case BinaryOp::kNe: ins.op = OpCode::kCmpNe; break;
        case BinaryOp::kLt: ins.op = OpCode::kCmpLt; break;
        case BinaryOp::kLe: ins.op = OpCode::kCmpLe; break;
        case BinaryOp::kGt: ins.op = OpCode::kCmpGt; break;
        default: ins.op = OpCode::kCmpGe; break;
      }
      return EmitOrFold(ins, DataType::kInt64, {CastDouble(l), CastDouble(r)});
    }
    case BinaryOp::kAnd:
    case BinaryOp::kOr: {
      // The VM evaluates both sides on every lane. That matches the
      // interpreter's short-circuit only while the right side cannot
      // fail, so a right side that calls a UDF stays interpreted.
      if (CallsUdf(r)) return kInvalidValue;
      Instr ins;
      ins.op = op == BinaryOp::kAnd ? OpCode::kAnd : OpCode::kOr;
      return EmitOrFold(ins, DataType::kInt64, {Truth(l), Truth(r)});
    }
  }
  return kInvalidValue;
}

BytecodeBuilder::ValueId BytecodeBuilder::IsNull(ValueId v, bool negated) {
  if (!Valid(v)) return kInvalidValue;
  Instr ins;
  ins.op = negated ? OpCode::kIsNotNull : OpCode::kIsNull;
  return EmitOrFold(ins, DataType::kInt64, {v});
}

BytecodeBuilder::ValueId BytecodeBuilder::Call1(ScalarFn1 fn, ValueId v) {
  if (!Valid(v)) return kInvalidValue;
  Instr ins;
  switch (fn) {
    case ScalarFn1::kSqrt: ins.op = OpCode::kSqrt; break;
    case ScalarFn1::kAbs: ins.op = OpCode::kAbs; break;
    case ScalarFn1::kExp: ins.op = OpCode::kExp; break;
    case ScalarFn1::kLn: ins.op = OpCode::kLn; break;
    case ScalarFn1::kFloor: ins.op = OpCode::kFloor; break;
    case ScalarFn1::kCeil: ins.op = OpCode::kCeil; break;
    case ScalarFn1::kRound: ins.op = OpCode::kRound; break;
  }
  return EmitOrFold(ins, DataType::kDouble, {CastDouble(v)});
}

BytecodeBuilder::ValueId BytecodeBuilder::Power(ValueId x, ValueId y) {
  // The interpreter skips y when x is NULL.
  if (!Valid(x) || !Valid(y) || CallsUdf(y)) return kInvalidValue;
  Instr ins;
  ins.op = OpCode::kPow;
  return EmitOrFold(ins, DataType::kDouble, {CastDouble(x), CastDouble(y)});
}

BytecodeBuilder::ValueId BytecodeBuilder::FMod(ValueId x, ValueId y) {
  if (!Valid(x) || !Valid(y) || CallsUdf(y)) return kInvalidValue;
  Instr ins;
  ins.op = OpCode::kFmod;
  return EmitOrFold(ins, DataType::kDouble, {CastDouble(x), CastDouble(y)});
}

BytecodeBuilder::ValueId BytecodeBuilder::Least(
    const std::vector<ValueId>& args) {
  if (args.empty() || LaterArgCallsUdf(args)) return kInvalidValue;
  ValueId acc = CastDouble(args[0]);
  for (size_t i = 1; i < args.size() && Valid(acc); ++i) {
    Instr ins;
    ins.op = OpCode::kLeast;
    acc = EmitOrFold(ins, DataType::kDouble, {acc, CastDouble(args[i])});
  }
  return acc;
}

BytecodeBuilder::ValueId BytecodeBuilder::Greatest(
    const std::vector<ValueId>& args) {
  if (args.empty() || LaterArgCallsUdf(args)) return kInvalidValue;
  ValueId acc = CastDouble(args[0]);
  for (size_t i = 1; i < args.size() && Valid(acc); ++i) {
    Instr ins;
    ins.op = OpCode::kGreatest;
    acc = EmitOrFold(ins, DataType::kDouble, {acc, CastDouble(args[i])});
  }
  return acc;
}

bool BytecodeBuilder::LaterArgCallsUdf(const std::vector<ValueId>& args) const {
  for (size_t i = 1; i < args.size(); ++i) {
    if (CallsUdf(args[i])) return true;
  }
  return false;
}

BytecodeBuilder::ValueId BytecodeBuilder::Coalesce(
    const std::vector<ValueId>& args) {
  if (args.empty() || LaterArgCallsUdf(args)) return kInvalidValue;
  for (ValueId v : args) {
    if (!Valid(v) || TypeOf(v) != DataType::kDouble) return kInvalidValue;
  }
  ValueId acc = args[0];
  for (size_t i = 1; i < args.size() && Valid(acc); ++i) {
    Instr ins;
    ins.op = OpCode::kCoalesce;
    acc = EmitOrFold(ins, DataType::kDouble, {acc, args[i]});
  }
  return acc;
}

BytecodeBuilder::ValueId BytecodeBuilder::Case(
    const std::vector<std::pair<ValueId, ValueId>>& branches,
    ValueId else_value, DataType result_type) {
  if (branches.empty() || result_type == DataType::kVarchar) {
    return kInvalidValue;
  }
  // All alternatives must share one static numeric type; a mixed CASE
  // returns dynamically-typed Datums the typed register cannot
  // reproduce, so it stays interpreted.
  // Only the first condition runs on every row; a UDF call anywhere
  // else runs conditionally in the interpreter and stays there.
  for (size_t i = 0; i < branches.size(); ++i) {
    const auto& [cond, value] = branches[i];
    if (!Valid(cond) || !Valid(value) || TypeOf(value) != result_type ||
        (i > 0 && CallsUdf(cond)) || CallsUdf(value)) {
      return kInvalidValue;
    }
  }
  ValueId acc = else_value;
  if (acc == kInvalidValue) {
    acc = Constant(Datum::Null(result_type));
  } else if (TypeOf(acc) != result_type || CallsUdf(acc)) {
    return kInvalidValue;
  }
  for (size_t i = branches.size(); i-- > 0 && Valid(acc);) {
    Instr ins;
    ins.op = OpCode::kSelect;
    acc = EmitOrFold(ins, result_type,
                     {Truth(branches[i].first), branches[i].second, acc});
  }
  return acc;
}

BytecodeBuilder::ValueId BytecodeBuilder::CallUdf(
    const udf::ScalarUdf* udf, const std::vector<ValueId>& args) {
  if (udf->return_type() == DataType::kVarchar) return kInvalidValue;
  UdfCall call;
  call.udf = udf;
  for (ValueId v : args) {
    if (!Valid(v)) return kInvalidValue;
    call.args.push_back(Reg(v));
    call.arg_types.push_back(TypeOf(v));
  }
  Instr ins;
  ins.op = OpCode::kCallUdf;
  ins.slot = static_cast<uint32_t>(calls_.size());
  calls_.push_back(std::move(call));
  const ValueId out = Emit(ins, udf->return_type());
  if (Valid(out)) values_[out].calls_udf = true;
  return out;
}

namespace {

void AppendBytes(std::string* key, const void* p, size_t size) {
  key->append(static_cast<const char*>(p), size);
}

std::string SerializeProgram(const std::vector<Instr>& instrs,
                             const std::vector<UdfCall>& calls,
                             const std::vector<ProgramOutput>& outputs) {
  std::string key;
  key.reserve(instrs.size() * 32 + outputs.size() * 16);
  for (const Instr& ins : instrs) {
    key.push_back(static_cast<char>(ins.op));
    key.push_back(static_cast<char>(ins.type));
    key.push_back(static_cast<char>(ins.const_null));
    AppendBytes(&key, &ins.dst, sizeof(ins.dst));
    AppendBytes(&key, &ins.a, sizeof(ins.a));
    AppendBytes(&key, &ins.b, sizeof(ins.b));
    AppendBytes(&key, &ins.c, sizeof(ins.c));
    AppendBytes(&key, &ins.slot, sizeof(ins.slot));
    AppendBytes(&key, &ins.const_d, sizeof(ins.const_d));
    AppendBytes(&key, &ins.const_i, sizeof(ins.const_i));
  }
  // A call site is identified by the UDF object itself: the cache is
  // per Database, and so is the registry that owns the UDFs.
  for (const UdfCall& call : calls) {
    AppendBytes(&key, &call.udf, sizeof(call.udf));
    const uint32_t argc = static_cast<uint32_t>(call.args.size());
    AppendBytes(&key, &argc, sizeof(argc));
    AppendBytes(&key, call.args.data(), argc * sizeof(uint16_t));
    for (const DataType t : call.arg_types) key.push_back(static_cast<char>(t));
  }
  for (const ProgramOutput& out : outputs) {
    AppendBytes(&key, &out.reg, sizeof(out.reg));
    AppendBytes(&key, &out.factor, sizeof(out.factor));
    key.push_back(static_cast<char>(out.product));
    key.push_back(static_cast<char>(out.type));
    AppendBytes(&key, &out.root, sizeof(out.root));
    AppendBytes(&key, &out.after, sizeof(out.after));
  }
  return key;
}

/// Calls `fn` on each register `ins` reads: its operands a, b, c in
/// that order, or its call site's arguments.
template <typename Fn>
void ForEachOperand(Instr& ins, std::vector<UdfCall>& calls, const Fn& fn) {
  switch (ins.op) {
    case OpCode::kLoadCol:
    case OpCode::kLoadConst:
      return;
    case OpCode::kCallUdf:
      for (uint16_t& r : calls[ins.slot].args) fn(r);
      return;
    case OpCode::kCastDouble:
    case OpCode::kTruthD:
    case OpCode::kTruthI:
    case OpCode::kNegI:
    case OpCode::kNegD:
    case OpCode::kNot:
    case OpCode::kIsNull:
    case OpCode::kIsNotNull:
    case OpCode::kSqrt:
    case OpCode::kAbs:
    case OpCode::kExp:
    case OpCode::kLn:
    case OpCode::kFloor:
    case OpCode::kCeil:
    case OpCode::kRound:
      fn(ins.a);
      return;
    case OpCode::kSelect:
      fn(ins.a);
      fn(ins.b);
      fn(ins.c);
      return;
    default:
      fn(ins.a);
      fn(ins.b);
      return;
  }
}

constexpr uint32_t kDropped = UINT32_MAX;

}  // namespace

std::shared_ptr<CompiledExpr> BytecodeBuilder::Finish(ValueId root) {
  return Seal({root}, /*streamed=*/false);
}

std::shared_ptr<CompiledExpr> BytecodeBuilder::FinishOutputs(
    const std::vector<ValueId>& roots) {
  if (roots.empty()) return nullptr;
  return Seal(roots, /*streamed=*/true);
}

std::shared_ptr<CompiledExpr> BytecodeBuilder::Seal(
    const std::vector<ValueId>& roots, bool streamed) {
  std::vector<ProgramOutput> outputs(roots.size());
  for (size_t o = 0; o < roots.size(); ++o) {
    if (!Valid(roots[o])) return nullptr;
    outputs[o].root = static_cast<uint32_t>(o);
    outputs[o].type = TypeOf(roots[o]);
    outputs[o].reg = Reg(roots[o]);  // materializes constant roots
  }
  // Builder registers are SSA: instruction k defines register k.
  // `pos[k]` counts k's readers, then holds k's position in the sealed
  // program (kDropped for a fused product).
  const size_t count = instrs_.size();
  std::vector<uint32_t> pos(count, 0);
  for (Instr& ins : instrs_) {
    ForEachOperand(ins, calls_, [&](uint16_t r) { ++pos[r]; });
  }
  for (const ProgramOutput& out : outputs) ++pos[out.reg];

  // A streamed root kMulD read by nothing else is fused into its
  // consumer: the output names the factors and the instruction goes.
  for (ProgramOutput& out : outputs) {
    const Instr& def = instrs_[out.reg];
    if (streamed && def.op == OpCode::kMulD && pos[out.reg] == 1) {
      pos[out.reg] = kDropped;
      out.reg = def.a;
      out.factor = def.b;
      out.product = true;
    }
  }
  size_t kept = 0;
  for (size_t k = 0; k < count; ++k) {
    if (pos[k] == kDropped) continue;
    pos[k] = static_cast<uint32_t>(kept);
    instrs_[kept++] = instrs_[k];
  }
  instrs_.resize(kept);

  // Liveness: a value dies after its last reader, which for an output
  // is the point the sink consumes it — right after the value is
  // complete when streamed, the program's end otherwise.
  std::vector<uint32_t> last_use(count, 0);
  for (size_t k = 0; k < count; ++k) last_use[k] = pos[k];
  for (size_t j = 0; j < kept; ++j) {
    ForEachOperand(instrs_[j], calls_, [&](uint16_t r) {
      last_use[r] = std::max(last_use[r], static_cast<uint32_t>(j));
    });
  }
  for (ProgramOutput& out : outputs) {
    out.after = streamed ? pos[out.reg] : static_cast<uint32_t>(kept - 1);
    if (out.product) out.after = std::max(out.after, pos[out.factor]);
    last_use[out.reg] = std::max(last_use[out.reg], out.after);
    if (out.product) {
      last_use[out.factor] = std::max(last_use[out.factor], out.after);
    }
  }
  std::sort(outputs.begin(), outputs.end(),
            [](const ProgramOutput& a, const ProgramOutput& b) {
              return a.after != b.after ? a.after < b.after : a.root < b.root;
            });

  // Linear-scan allocation: each instruction takes a free register for
  // its destination before it releases the values whose last reader it
  // is (its operands, the outputs it completes, its own value when
  // nothing reads it), so a destination never aliases an operand.
  std::vector<uint16_t> phys(count, 0);
  std::vector<uint16_t> free_regs;
  size_t num_regs = 0;
  auto release = [&](uint16_t v, uint32_t j) {
    if (last_use[v] != j) return;
    last_use[v] = kDropped;  // an operand read twice is released once
    free_regs.push_back(phys[v]);
  };
  size_t next_output = 0;
  for (size_t k = 0, j = 0; j < kept; ++k) {
    if (pos[k] != j) continue;  // fused away
    Instr& ins = instrs_[j];
    uint16_t reg = 0;
    if (free_regs.empty()) {
      reg = static_cast<uint16_t>(num_regs++);
    } else {
      reg = free_regs.back();
      free_regs.pop_back();
    }
    phys[k] = reg;
    ins.dst = reg;
    const uint32_t at = static_cast<uint32_t>(j);
    ForEachOperand(ins, calls_, [&](uint16_t& r) {
      const uint16_t v = r;
      r = phys[v];
      release(v, at);
    });
    for (; next_output < outputs.size() && outputs[next_output].after == at;
         ++next_output) {
      release(outputs[next_output].reg, at);
      if (outputs[next_output].product) {
        release(outputs[next_output].factor, at);
      }
    }
    release(static_cast<uint16_t>(k), at);
    ++j;
  }
  for (ProgramOutput& out : outputs) {
    out.reg = phys[out.reg];
    if (out.product) out.factor = phys[out.factor];
  }

  auto prog = std::make_shared<CompiledExpr>();
  prog->instrs_ = std::move(instrs_);
  prog->num_regs_ = num_regs;
  prog->outputs_ = std::move(outputs);
  std::sort(slots_.begin(), slots_.end());
  slots_.erase(std::unique(slots_.begin(), slots_.end()), slots_.end());
  prog->slots_ = std::move(slots_);
  prog->calls_ = std::move(calls_);
  prog->key_ = SerializeProgram(prog->instrs_, prog->calls_, prog->outputs_);
  return prog;
}

// ---------------------------------------------------------------------------
// Cache + entry point
// ---------------------------------------------------------------------------

CompiledExprPtr BytecodeCache::Intern(std::shared_ptr<CompiledExpr> prog) {
  // Registry lookups are per-compile (statement planning), never
  // per-row; references are re-resolved each time because
  // ResetForTest invalidates cached pointers.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(prog->cache_key());
  if (it != cache_.end()) {
    MetricsRegistry::Global().counter("bytecode.cache_hits").Increment();
    return it->second;
  }
  if (cache_.size() >= kMaxEntries) cache_.clear();
  CompiledExprPtr shared = std::move(prog);
  cache_.emplace(shared->cache_key(), shared);
  MetricsRegistry::Global().counter("bytecode.compiles").Increment();
  return shared;
}

size_t BytecodeCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

namespace {

/// Emits every expression into one builder and seals it: one result
/// when `streamed` is false, one output per expression otherwise.
CompiledExprPtr Compile(const std::vector<const BoundExpr*>& exprs,
                        bool streamed, BytecodeCache* cache) {
#if defined(NLQ_FAILPOINTS)
  // Armed `expr_compile` forces the interpreted fallback everywhere.
  // Guarded by the build flag (not just Check) so Release binaries
  // stay free of failpoint symbols.
  if (!failpoint::Check("expr_compile").ok()) return nullptr;
#endif
  BytecodeBuilder builder;
  std::vector<BytecodeBuilder::ValueId> roots;
  for (const BoundExpr* expr : exprs) {
    const int root = expr->EmitBytecode(&builder);
    if (root < 0) return nullptr;
    roots.push_back(root);
  }
  std::shared_ptr<CompiledExpr> prog =
      streamed ? builder.FinishOutputs(roots) : builder.Finish(roots[0]);
  if (prog == nullptr) return nullptr;
  if (cache != nullptr) return cache->Intern(std::move(prog));
  MetricsRegistry::Global().counter("bytecode.compiles").Increment();
  return prog;
}

}  // namespace

CompiledExprPtr CompileExpr(const BoundExpr& expr, BytecodeCache* cache) {
  return Compile({&expr}, /*streamed=*/false, cache);
}

CompiledExprPtr CompileOutputs(const std::vector<const BoundExpr*>& exprs,
                               BytecodeCache* cache) {
  return Compile(exprs, /*streamed=*/true, cache);
}

}  // namespace nlq::engine::exec
