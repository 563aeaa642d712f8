#ifndef NLQ_ENGINE_EXEC_BYTECODE_H_
#define NLQ_ENGINE_EXEC_BYTECODE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "engine/ast.h"
#include "engine/exec/column_stream.h"
#include "storage/value.h"
#include "udf/udf.h"

namespace nlq::engine {
class BoundExpr;  // engine/expr.h (included by bytecode.cc only)
}  // namespace nlq::engine

namespace nlq::engine::exec {

using nlq::engine::BoundExpr;

/// Register-based expression bytecode (DESIGN.md §11).
///
/// A compiled program is a flat instruction array evaluated batch at a
/// time: every instruction reads whole operand registers (one value
/// lane of `n` doubles or int64s plus a null bitmap) and writes one
/// destination register. Registers are allocated by liveness when the
/// program is sealed: a register is reused once its last reader has
/// run, so the register file holds the values live at one time, and an
/// instruction's destination is never one of its own operands. NULL
/// semantics are "compute everywhere, mask by bitmap": null lanes
/// always hold the defined value 0/0.0, ops propagate bitmaps (union
/// for strict ops, the SQL three-valued rules for AND/OR), and
/// consumers skip rows whose result bit is set — the
/// same skip-row rule the interpreted Datum path implements with
/// is_null() checks. Every builtin opcode is total (division by zero,
/// sqrt of a negative, ln of a non-positive all yield NULL, exactly
/// like expr.cc) and needs no per-row error plumbing. The one opcode
/// that can fail is kCallUdf: it hands whole registers to a scalar
/// UDF's InvokeSpans, which may return the UDF's error or observe a
/// cancel or deadline; evaluation then stops with that status.
/// Because every lane computes every operand, a call compiles only
/// where the interpreter also runs it on every row: never in a CASE
/// result, a later CASE condition, the right side of AND/OR, or an
/// argument of COALESCE/LEAST/GREATEST after the first (or the second
/// argument of POWER/MOD), all of which the interpreter may skip.
enum class OpCode : uint8_t {
  kLoadCol,    // dst <- input slot `slot` (type from instr.type)
  kLoadConst,  // dst <- broadcast constant
  kCastDouble, // dst.d <- (double) a.i
  kTruthD,     // dst.i <- a.d != 0 (bool; NULL stays NULL)
  kTruthI,     // dst.i <- a.i != 0
  kNegI,       // dst.i <- -a.i
  kNegD,       // dst.d <- -a.d
  kNot,        // dst.i <- !a.i (3VL: NULL stays NULL)
  kAddI, kSubI, kMulI,
  kModI,       // b == 0 -> NULL
  kAddD, kSubD, kMulD,
  kDivD,       // b == 0.0 -> NULL
  kModD,       // fmod; b == 0.0 -> NULL
  // Comparisons take double operands (ints are cast first — the
  // interpreter compares via Datum::AsDouble) and produce bool int64.
  kCmpEq, kCmpNe, kCmpLt, kCmpLe, kCmpGt, kCmpGe,
  kAnd, kOr,   // 3VL over bool regs (false/true dominate resp.)
  kIsNull,     // dst.i <- null(a); never NULL itself
  kIsNotNull,
  kSqrt,       // a < 0 -> NULL
  kAbs, kExp,
  kLn,         // a <= 0 -> NULL
  kFloor, kCeil, kRound,
  kPow,
  kFmod,       // builtin mod(x, y): doubles, y == 0 -> NULL
  kLeast,      // dst.d <- b < a ? b : a; NULL if either is
  kGreatest,   // dst.d <- b > a ? b : a; NULL if either is
  kCoalesce,   // dst <- a unless null(a), else b (same-typed lanes)
  kSelect,     // dst <- truth(a) ? b : c (a bool; NULL cond -> c)
  kCallUdf,    // dst <- scalar UDF call site `slot` (CompiledExpr::calls)
};

/// A kCallUdf call site: the UDF and its argument registers.
struct UdfCall {
  const udf::ScalarUdf* udf = nullptr;
  std::vector<uint16_t> args;
  std::vector<storage::DataType> arg_types;  // parallel to args
};

/// One instruction. `dst`/`a`/`b`/`c` are register numbers; `type` is
/// the destination's lane type (kDouble or kInt64 — VARCHAR never
/// compiles); `slot`/const_* are the kLoadCol / kLoadConst payloads,
/// and `slot` is the call-site index for kCallUdf.
struct Instr {
  OpCode op = OpCode::kLoadConst;
  storage::DataType type = storage::DataType::kDouble;
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint16_t c = 0;
  uint32_t slot = 0;
  bool const_null = false;
  double const_d = 0.0;
  int64_t const_i = 0;
};

/// One output of a program. A single-result program (Finish) has one,
/// its result register. A multi-output program (FinishOutputs) has one
/// per root, handed to ExprVM::EvalOutputs' sink right after the
/// instruction that completes it, so its registers can be reused once
/// it has been consumed. A root computed by a kMulD that nothing else
/// reads is not executed: the output names its two factors
/// (`product`), and the consumer multiplies them lane by lane, the
/// same IEEE product the instruction would have stored.
struct ProgramOutput {
  uint16_t reg = 0;     // the value, or the left factor when `product`
  uint16_t factor = 0;  // the right factor when `product`
  bool product = false;
  storage::DataType type = storage::DataType::kDouble;
  uint32_t root = 0;   // position in FinishOutputs' `roots`
  uint32_t after = 0;  // ready once instruction `after` has run
};

/// An immutable compiled program. Shared (via the cache) between
/// plans and streams; all evaluation state lives in ExprVM.
class CompiledExpr {
 public:
  const std::vector<Instr>& instructions() const { return instrs_; }
  size_t num_instructions() const { return instrs_.size(); }
  /// Registers after liveness allocation: the most values live at
  /// once, not the number of instructions or outputs.
  size_t num_regs() const { return num_regs_; }
  uint16_t result_reg() const { return outputs_[0].reg; }
  storage::DataType result_type() const { return outputs_[0].type; }

  /// Outputs in evaluation order (nondecreasing `after`).
  const std::vector<ProgramOutput>& outputs() const { return outputs_; }

  /// Input slots the program reads, sorted unique — the planner
  /// projects exactly these into the columnar scan.
  const std::vector<size_t>& referenced_slots() const { return slots_; }

  /// kCallUdf call sites, indexed by the instruction's `slot`.
  const std::vector<UdfCall>& calls() const { return calls_; }

  /// Byte-serialized program, the compile-cache key: two statements
  /// producing identical instruction streams share one entry.
  const std::string& cache_key() const { return key_; }

 private:
  friend class BytecodeBuilder;
  std::vector<Instr> instrs_;
  size_t num_regs_ = 0;
  std::vector<ProgramOutput> outputs_;
  std::vector<size_t> slots_;
  std::vector<UdfCall> calls_;
  std::string key_;
};

using CompiledExprPtr = std::shared_ptr<const CompiledExpr>;

/// Unary builtin functions the bytecode implements directly.
enum class ScalarFn1 : uint8_t {
  kSqrt, kAbs, kExp, kLn, kFloor, kCeil, kRound,
};

/// Emission interface BoundExpr::EmitBytecode targets. Values are SSA:
/// every emit returns a fresh ValueId (or kInvalidValue when the
/// construct cannot compile — the caller then falls back to the
/// interpreter). The builder applies the interpreter's typing rules
/// (int arithmetic stays int, everything else widens to double,
/// comparisons go through double) and folds constant subtrees at
/// emission time by evaluating the would-be instruction over a
/// one-row batch — the folded semantics are the VM's own, so
/// `price * (1 + 0.07)` compiles to load, load-const 1.07, mul.
class BytecodeBuilder {
 public:
  using ValueId = int;
  static constexpr ValueId kInvalidValue = -1;

  BytecodeBuilder();
  ~BytecodeBuilder();

  /// Numeric or NULL literal; VARCHAR returns kInvalidValue.
  ValueId Constant(const storage::Datum& v);
  /// Input slot of numeric type; VARCHAR returns kInvalidValue. Each
  /// slot is loaded once per program: a later load of the same slot
  /// returns the first one's value.
  ValueId LoadColumn(size_t slot, storage::DataType type);
  ValueId Unary(UnaryOp op, ValueId v);
  ValueId Binary(BinaryOp op, ValueId l, ValueId r);
  ValueId IsNull(ValueId v, bool negated);
  ValueId Call1(ScalarFn1 fn, ValueId v);
  ValueId Power(ValueId x, ValueId y);
  ValueId FMod(ValueId x, ValueId y);
  /// least/greatest fold left over double-widened args (any NULL arg
  /// makes the result NULL, like the interpreter).
  ValueId Least(const std::vector<ValueId>& args);
  ValueId Greatest(const std::vector<ValueId>& args);
  /// First non-NULL arg. Compiles only when every arg is DOUBLE: the
  /// interpreter returns the winning arg's dynamic Datum unchanged
  /// (and NULL-of-DOUBLE when all are NULL), which a typed register
  /// can only reproduce for an all-double argument list.
  ValueId Coalesce(const std::vector<ValueId>& args);
  /// CASE WHEN chain; branches/else must share one static type.
  ValueId Case(const std::vector<std::pair<ValueId, ValueId>>& branches,
               ValueId else_value, storage::DataType result_type);
  /// Scalar UDF call over whole registers (InvokeSpans). Never folded,
  /// even over constant arguments: the call may fail, and it runs at
  /// execution time exactly as the interpreter runs it. VARCHAR
  /// results return kInvalidValue, and so does any consumer that would
  /// run the call only on some rows (see OpCode).
  ValueId CallUdf(const udf::ScalarUdf* udf, const std::vector<ValueId>& args);

  /// Seals the program with `root` as its result, which stays in its
  /// register after evaluation. Returns nullptr if root is invalid.
  std::shared_ptr<CompiledExpr> Finish(ValueId root);

  /// Seals a multi-output program, one output per root (a root may
  /// repeat). Each output is live only until EvalOutputs hands it to
  /// the sink, and a root kMulD read by nothing else becomes a
  /// `product` output. Returns nullptr if any root is invalid.
  std::shared_ptr<CompiledExpr> FinishOutputs(
      const std::vector<ValueId>& roots);

 private:
  struct Value;
  std::shared_ptr<CompiledExpr> Seal(const std::vector<ValueId>& roots,
                                     bool streamed);
  ValueId Emit(Instr instr, storage::DataType type);
  ValueId EmitOrFold(Instr instr, storage::DataType type,
                     std::initializer_list<ValueId> operands);
  /// Materializes a (possibly constant) value into a register.
  uint16_t Reg(ValueId v);
  ValueId CastDouble(ValueId v);
  ValueId Truth(ValueId v);
  bool Valid(ValueId v) const;
  storage::DataType TypeOf(ValueId v) const;
  /// True when v is computed through a kCallUdf.
  bool CallsUdf(ValueId v) const;
  bool LaterArgCallsUdf(const std::vector<ValueId>& args) const;

  std::vector<Value> values_;
  std::vector<Instr> instrs_;
  size_t num_regs_ = 0;
  std::vector<size_t> slots_;
  std::vector<ValueId> loads_;  // slot -> its one load, or kInvalidValue
  std::vector<UdfCall> calls_;
};

/// Per-stream evaluation scratch: the register file plus gather
/// buffers. One VM serves any number of programs/batches; register
/// storage is sized to the largest (program, batch) seen and reused.
/// Not thread-safe — each stream owns its VM, mirroring how each row
/// stream owns its Datum scratch. `ctx` (optional) is the statement's
/// QueryContext, which kCallUdf hands to InvokeSpans for polling.
class ExprVM {
 public:
  explicit ExprVM(const QueryContext* ctx = nullptr) : ctx_(ctx) {}

  /// One register's lanes. Exactly one of d/i is meaningful, by the
  /// instruction's type; `nulls` is meaningful only when has_nulls. The
  /// lanes point into the register's own buffers, or straight into an
  /// input span: a kLoadCol over spans reads the column in place.
  struct Reg {
    const double* d = nullptr;
    const int64_t* i = nullptr;
    const uint64_t* nulls = nullptr;
    bool has_nulls = false;
    std::vector<double> own_d;
    std::vector<int64_t> own_i;
    std::vector<uint64_t> own_nulls;
  };

  /// Evaluates `prog` over `n` materialized rows (gathering by slot).
  /// Fails only through a kCallUdf (the UDF's error, or a cancel or
  /// deadline it observed).
  Status EvalRows(const CompiledExpr& prog, const storage::Row* rows,
                  size_t n);

  /// Evaluates `prog` over column spans. `slot_to_col[slot]` maps each
  /// referenced input slot to its index in `in`'s columns. Fails like
  /// EvalRows.
  Status EvalSpans(const CompiledExpr& prog, const ColumnSpanBatch& in,
                   const std::vector<int>& slot_to_col, size_t n);

  /// Evaluates a FinishOutputs program over column spans. After each
  /// instruction that completes outputs, calls `sink(begin, end)` with
  /// their range in prog.outputs(); their registers (reg()) hold the
  /// values only during that call. Fails like EvalRows.
  Status EvalOutputs(const CompiledExpr& prog, const ColumnSpanBatch& in,
                     const std::vector<int>& slot_to_col, size_t n,
                     const std::function<void(size_t, size_t)>& sink);

  const Reg& reg(uint16_t r) const { return regs_[r]; }

  /// The result register after an Eval call for `prog`.
  const Reg& result(const CompiledExpr& prog) const {
    return regs_[prog.result_reg()];
  }

  /// Boxes the result into Datums (NULL bits become typed SQL NULLs).
  void BoxResult(const CompiledExpr& prog, size_t n,
                 storage::Datum* out) const;

  /// Copies the result register out of the VM (so several programs'
  /// results can be held at once while the VM is reused).
  void CopyResult(const CompiledExpr& prog, size_t n, Reg* out) const;

  /// ANDs the result's truth value into `keep` (row kept only when
  /// the verdict is non-NULL and non-zero — FilterNode's rule).
  void AndResultIntoKeep(const CompiledExpr& prog, size_t n,
                         uint8_t* keep) const;

 private:
  const QueryContext* ctx_;
  std::vector<Reg> regs_;
  std::vector<udf::ArgSpan> call_args_;  // kCallUdf scratch
};

/// Boxes one lane of a VM register as a Datum of `type`.
storage::Datum BoxRegValue(const ExprVM::Reg& reg, storage::DataType type,
                           size_t r);

/// Process-wide-per-Database compile cache, keyed by the serialized
/// program. Bounded; overflowing clears it (compiles are per-statement
/// rare, so the bound only guards runaway schema churn).
class BytecodeCache {
 public:
  /// Deduplicates `prog` against the cache: returns the cached twin
  /// (counting `bytecode.cache_hits`) or inserts it (counting
  /// `bytecode.compiles`). Thread-safe.
  CompiledExprPtr Intern(std::shared_ptr<CompiledExpr> prog);

  size_t size() const;

 private:
  static constexpr size_t kMaxEntries = 4096;
  mutable std::mutex mu_;
  std::unordered_map<std::string, CompiledExprPtr> cache_;
};

/// Compiles `expr` to bytecode, interning through `cache` when given.
/// Returns nullptr — interpreted fallback — when the tree contains a
/// construct the bytecode cannot express (VARCHAR operands or results,
/// aggregate refs, mixed-type COALESCE/CASE) or when the
/// `expr_compile` failpoint is armed.
CompiledExprPtr CompileExpr(const BoundExpr& expr, BytecodeCache* cache);

/// Compiles `exprs` into one multi-output program (FinishOutputs), one
/// output per expression in order, interning through `cache` when
/// given. Returns nullptr when any expression does not compile (or
/// under the `expr_compile` failpoint), like CompileExpr.
CompiledExprPtr CompileOutputs(const std::vector<const BoundExpr*>& exprs,
                               BytecodeCache* cache);

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_BYTECODE_H_
