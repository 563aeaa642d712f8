// Unit tests for the expression bytecode layer (engine/exec/bytecode.h):
// compilation and constant folding, NULL/3VL semantics, bit-exact parity
// between the compiled VM (rows and spans) and the interpreted evaluator,
// fallback rules, and the compile cache with its process counters.

#include "engine/exec/bytecode.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "engine/database.h"
#include "engine/exec/column_stream.h"
#include "engine/expr.h"
#include "engine/parser.h"
#include "stats/sqlgen.h"
#include "storage/column_batch.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "tests/test_util.h"

namespace nlq::engine::exec {
namespace {

using storage::DataType;
using storage::Datum;
using storage::Row;

// Test relation: x, y DOUBLE; i, j BIGINT; s VARCHAR (never compiles).
// Rows exercise every soft-error and NULL edge the ISA defines.
class BytecodeTest : public ::testing::Test {
 protected:
  BytecodeTest()
      : schema_({{"x", DataType::kDouble},
                 {"y", DataType::kDouble},
                 {"i", DataType::kInt64},
                 {"j", DataType::kInt64},
                 {"s", DataType::kVarchar}}) {
    db_ = nlq::testing::MakeTestDatabase(/*num_partitions=*/1);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    rows_ = {
        {Datum::Double(2.5), Datum::Double(4.0), Datum::Int64(7),
         Datum::Int64(3), Datum::Varchar("a")},
        {Datum::Double(-9.0), Datum::Double(0.0), Datum::Int64(-5),
         Datum::Int64(0), Datum::Varchar("b")},
        {Datum::Null(DataType::kDouble), Datum::Double(1.5), Datum::Int64(0),
         Datum::Null(DataType::kInt64), Datum::Varchar("c")},
        {Datum::Double(nan), Datum::Double(2.0), Datum::Int64(42),
         Datum::Int64(-4), Datum::Varchar("d")},
        {Datum::Double(0.0), Datum::Null(DataType::kDouble), Datum::Int64(1),
         Datum::Int64(1), Datum::Varchar("e")},
    };
  }

  BoundExprPtr Bind(const std::string& text) {
    auto parsed = ParseExpression(text);
    EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    if (!parsed.ok()) return nullptr;
    BindingScope scope;
    scope.AddTable("T", &schema_);
    auto bound = BindRowExpr(*parsed.value(), scope, &db_->udfs());
    EXPECT_TRUE(bound.ok()) << text << ": " << bound.status().ToString();
    return bound.ok() ? std::move(bound.value()) : nullptr;
  }

  CompiledExprPtr Compile(const std::string& text) {
    BoundExprPtr bound = Bind(text);
    return bound ? CompileExpr(*bound, /*cache=*/nullptr) : nullptr;
  }

  /// Asserts two Datums are indistinguishable, comparing doubles by bit
  /// pattern so -0.0 vs 0.0 or differing NaN payloads fail.
  static void ExpectSameDatum(const Datum& a, const Datum& b,
                              const std::string& what) {
    ASSERT_EQ(a.type(), b.type()) << what;
    ASSERT_EQ(a.is_null(), b.is_null()) << what;
    if (a.is_null()) return;
    if (a.type() == DataType::kDouble) {
      uint64_t abits = 0, bbits = 0;
      const double ad = a.double_value(), bd = b.double_value();
      std::memcpy(&abits, &ad, sizeof(abits));
      std::memcpy(&bbits, &bd, sizeof(bbits));
      EXPECT_EQ(abits, bbits) << what;
    } else if (a.type() == DataType::kInt64) {
      EXPECT_EQ(a.int_value(), b.int_value()) << what;
    } else {
      EXPECT_EQ(a.string_value(), b.string_value()) << what;
    }
  }

  /// The central check: interpreted Eval, compiled EvalRows, and
  /// compiled EvalSpans all produce identical Datums on every row.
  void ExpectParity(const std::string& text) {
    SCOPED_TRACE(text);
    BoundExprPtr bound = Bind(text);
    ASSERT_NE(bound, nullptr);
    CompiledExprPtr prog = CompileExpr(*bound, /*cache=*/nullptr);
    ASSERT_NE(prog, nullptr) << "expected \"" << text << "\" to compile";

    const size_t n = rows_.size();
    std::vector<Datum> interpreted(n);
    Status error;
    EvalContext ctx;
    ctx.error = &error;
    for (size_t r = 0; r < n; ++r) {
      ctx.input = &rows_[r];
      interpreted[r] = bound->Eval(ctx);
    }
    NLQ_ASSERT_OK(error);

    ExprVM vm;
    std::vector<Datum> via_rows(n);
    vm.EvalRows(*prog, rows_.data(), n);
    vm.BoxResult(*prog, n, via_rows.data());

    std::vector<Datum> via_spans(n);
    SpanData spans = BuildSpans(*prog, n);
    vm.EvalSpans(*prog, spans.batch, spans.slot_to_col, n);
    vm.BoxResult(*prog, n, via_spans.data());

    for (size_t r = 0; r < n; ++r) {
      const std::string at = text + " @row " + std::to_string(r);
      ExpectSameDatum(interpreted[r], via_rows[r], at + " (rows)");
      ExpectSameDatum(interpreted[r], via_spans[r], at + " (spans)");
    }
  }

  /// Columnar copy of rows_ holding exactly the program's referenced
  /// slots, with null bitmaps, as ColumnarScan would produce them.
  struct SpanData {
    ColumnSpanBatch batch;
    std::vector<int> slot_to_col;
    std::vector<std::vector<double>> dbufs;
    std::vector<std::vector<int64_t>> ibufs;
    std::vector<std::vector<uint64_t>> nbufs;
  };

  SpanData BuildSpans(const CompiledExpr& prog, size_t n) const {
    SpanData out;
    out.slot_to_col.assign(schema_.num_columns(), -1);
    out.batch.rows = n;
    for (const size_t slot : prog.referenced_slots()) {
      const DataType type = schema_.column(slot).type;
      out.slot_to_col[slot] = static_cast<int>(out.batch.doubles.size());
      auto& dbuf = out.dbufs.emplace_back(n, 0.0);
      auto& ibuf = out.ibufs.emplace_back(n, 0);
      auto& nbuf = out.nbufs.emplace_back((n + 63) / 64, 0);
      bool has_nulls = false;
      for (size_t r = 0; r < n; ++r) {
        const Datum& v = rows_[r][slot];
        if (v.is_null()) {
          nbuf[r / 64] |= uint64_t{1} << (r % 64);
          has_nulls = true;
        } else if (type == DataType::kDouble) {
          dbuf[r] = v.double_value();
        } else {
          ibuf[r] = v.int_value();
        }
      }
      out.batch.doubles.push_back(type == DataType::kDouble ? dbuf.data()
                                                            : nullptr);
      out.batch.ints.push_back(type == DataType::kInt64 ? ibuf.data()
                                                        : nullptr);
      out.batch.null_bits.push_back(has_nulls ? nbuf.data() : nullptr);
    }
    return out;
  }

  storage::Schema schema_;
  std::unique_ptr<Database> db_;
  std::vector<Row> rows_;
};

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

TEST_F(BytecodeTest, FoldsConstantSubtreeIntoOneLoad) {
  // x * (1 + 0.07) -> load x, load-const 1.07, mul: the constant
  // subtree never becomes instructions of its own.
  CompiledExprPtr prog = Compile("x * (1 + 0.07)");
  ASSERT_NE(prog, nullptr);
  ASSERT_EQ(prog->num_instructions(), 3u);
  const auto& in = prog->instructions();
  EXPECT_EQ(in[0].op, OpCode::kLoadCol);
  EXPECT_EQ(in[1].op, OpCode::kLoadConst);
  EXPECT_DOUBLE_EQ(in[1].const_d, 1.07);
  EXPECT_EQ(in[2].op, OpCode::kMulD);
  EXPECT_EQ(prog->result_type(), DataType::kDouble);
}

TEST_F(BytecodeTest, FoldsFullyConstantExpressionToSingleConst) {
  CompiledExprPtr prog = Compile("1 + 2 * 3");
  ASSERT_NE(prog, nullptr);
  ASSERT_EQ(prog->num_instructions(), 1u);
  EXPECT_EQ(prog->instructions()[0].op, OpCode::kLoadConst);
  EXPECT_EQ(prog->instructions()[0].const_i, 7);
  EXPECT_EQ(prog->result_type(), DataType::kInt64);
  EXPECT_TRUE(prog->referenced_slots().empty());
}

TEST_F(BytecodeTest, FoldingUsesVmSoftErrorSemantics) {
  // Folding evaluates the VM's own opcodes, so a constant division by
  // zero folds to a NULL constant instead of failing the compile.
  for (const char* text : {"1.0 / 0.0", "sqrt(0.0 - 4.0)", "5 % 0"}) {
    SCOPED_TRACE(text);
    CompiledExprPtr prog = Compile(text);
    ASSERT_NE(prog, nullptr);
    ASSERT_EQ(prog->num_instructions(), 1u);
    EXPECT_EQ(prog->instructions()[0].op, OpCode::kLoadConst);
    EXPECT_TRUE(prog->instructions()[0].const_null);
  }
}

// ---------------------------------------------------------------------------
// Compiled == interpreted, row path and span path, bit for bit
// ---------------------------------------------------------------------------

TEST_F(BytecodeTest, ArithmeticParity) {
  ExpectParity("x + y");
  ExpectParity("x - y * 2.0");
  ExpectParity("-x");
  ExpectParity("i + j");
  ExpectParity("i * j - 4");
  ExpectParity("-i");
  ExpectParity("x + i");  // int operand widens to double
}

TEST_F(BytecodeTest, SoftErrorsYieldNullParity) {
  ExpectParity("x / y");    // row 1 divides by zero
  ExpectParity("i % j");    // row 1 mods by zero
  ExpectParity("sqrt(x)");  // row 1 is negative
  ExpectParity("ln(x)");    // rows 1 and 4 are <= 0
  ExpectParity("mod(x, y)");
}

TEST_F(BytecodeTest, ComparisonParity) {
  ExpectParity("x = y");
  ExpectParity("x <> y");
  ExpectParity("x < y");
  ExpectParity("x <= y");
  ExpectParity("i > j");
  ExpectParity("i >= x");  // mixed int/double goes through double
}

TEST_F(BytecodeTest, ThreeValuedLogicParity) {
  ExpectParity("x > 0 AND y > 0");  // NULL AND false = false
  ExpectParity("x > 0 OR y > 0");   // NULL OR true = true
  ExpectParity("NOT (x > 0)");
  ExpectParity("x IS NULL");
  ExpectParity("x IS NOT NULL");
  ExpectParity("j IS NULL AND x IS NOT NULL");
}

TEST_F(BytecodeTest, ScalarFunctionParity) {
  ExpectParity("abs(x)");
  ExpectParity("exp(y)");
  ExpectParity("floor(x)");
  ExpectParity("ceil(x)");
  ExpectParity("round(x)");
  ExpectParity("power(x, 2)");
  ExpectParity("power(x, y)");
}

TEST_F(BytecodeTest, LeastGreatestCoalesceParity) {
  // Row 3 puts a NaN into x: least/greatest must pick exactly the
  // operand the interpreter picks.
  ExpectParity("least(x, y)");
  ExpectParity("greatest(x, y)");
  ExpectParity("least(x, y, 1.0)");
  ExpectParity("coalesce(x, y)");
  ExpectParity("coalesce(x, y, 0.0)");
}

TEST_F(BytecodeTest, CaseParity) {
  // Row 2's NULL condition takes the ELSE branch, like the interpreter.
  ExpectParity("CASE WHEN x > 0 THEN x ELSE y END");
  ExpectParity("CASE WHEN x > 0 THEN 1 WHEN y > 0 THEN 2 ELSE 3 END");
  ExpectParity("CASE WHEN i % 2 = 0 THEN x + y ELSE x - y END");
}

// ---------------------------------------------------------------------------
// Multi-output programs (one per aggregate's builtin arguments)
// ---------------------------------------------------------------------------

TEST_F(BytecodeTest, MultiOutputProgramLoadsEachColumnOnceAndFusesProducts) {
  std::vector<BoundExprPtr> bound;
  for (const char* text : {"x", "x * y", "y * x", "i * j", "1.0", "x",
                           "x * y + 1.0", "i"}) {
    bound.push_back(Bind(text));
    ASSERT_NE(bound.back(), nullptr);
  }
  std::vector<const BoundExpr*> exprs;
  for (const BoundExprPtr& b : bound) exprs.push_back(b.get());
  CompiledExprPtr prog = CompileOutputs(exprs, /*cache=*/nullptr);
  ASSERT_NE(prog, nullptr);

  // One load per referenced slot, however often the slot appears.
  std::vector<uint32_t> loaded;
  size_t muls = 0;
  for (const Instr& ins : prog->instructions()) {
    if (ins.op == OpCode::kLoadCol) loaded.push_back(ins.slot);
    if (ins.op == OpCode::kMulD) ++muls;
  }
  std::sort(loaded.begin(), loaded.end());
  EXPECT_EQ(loaded, (std::vector<uint32_t>{0, 1, 2, 3}));
  // The two root DOUBLE products are fused into their consumer; the
  // product under "+ 1.0" is an operand, so it still executes.
  EXPECT_EQ(muls, 1u);

  ASSERT_EQ(prog->outputs().size(), exprs.size());
  std::vector<bool> seen(exprs.size(), false);
  uint32_t after = 0;
  for (const ProgramOutput& out : prog->outputs()) {
    ASSERT_LT(out.root, exprs.size());
    seen[out.root] = true;
    EXPECT_GE(out.after, after);  // evaluation order
    after = out.after;
    EXPECT_LT(out.after, prog->num_instructions());
    const bool root_product = out.root == 1 || out.root == 2;
    EXPECT_EQ(out.product, root_product) << "root " << out.root;
    EXPECT_EQ(out.type, out.root == 3 || out.root == 7 ? DataType::kInt64
                                                       : DataType::kDouble);
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
            static_cast<long>(exprs.size()));
}

TEST_F(BytecodeTest, MultiOutputRegisterFileHoldsLiveValuesOnly) {
  // 200 computed outputs: each is consumed as soon as it is complete,
  // so its registers are reused and the file stays the size of the
  // live set (two loads, the temporaries of one output), not 200x.
  std::vector<BoundExprPtr> bound;
  for (int k = 0; k < 200; ++k) {
    bound.push_back(Bind("(x + " + std::to_string(k) + ".5) * (y - 1.0)"));
    ASSERT_NE(bound.back(), nullptr);
  }
  std::vector<const BoundExpr*> exprs;
  for (const BoundExprPtr& b : bound) exprs.push_back(b.get());
  CompiledExprPtr prog = CompileOutputs(exprs, /*cache=*/nullptr);
  ASSERT_NE(prog, nullptr);
  EXPECT_GT(prog->num_instructions(), 600u);
  EXPECT_LE(prog->num_regs(), 8u);
}

TEST_F(BytecodeTest, MultiOutputValuesMatchInterpreterPerRow) {
  const std::vector<std::string> texts = {
      "x", "x * y", "i * j", "1.0", "x * y + 1.0", "i", "x / y", "y * y"};
  std::vector<BoundExprPtr> bound;
  for (const std::string& text : texts) {
    bound.push_back(Bind(text));
    ASSERT_NE(bound.back(), nullptr);
  }
  std::vector<const BoundExpr*> exprs;
  for (const BoundExprPtr& b : bound) exprs.push_back(b.get());
  CompiledExprPtr prog = CompileOutputs(exprs, /*cache=*/nullptr);
  ASSERT_NE(prog, nullptr);

  const size_t n = rows_.size();
  SpanData spans = BuildSpans(*prog, n);
  ExprVM vm;
  std::vector<std::vector<Datum>> got(texts.size());
  size_t sink_calls = 0;
  NLQ_ASSERT_OK(vm.EvalOutputs(
      *prog, spans.batch, spans.slot_to_col, n, [&](size_t begin, size_t end) {
        ++sink_calls;
        for (size_t k = begin; k < end; ++k) {
          const ProgramOutput& out = prog->outputs()[k];
          const ExprVM::Reg& a = vm.reg(out.reg);
          for (size_t r = 0; r < n; ++r) {
            if (!out.product) {
              got[out.root].push_back(BoxRegValue(a, out.type, r));
              continue;
            }
            const ExprVM::Reg& b = vm.reg(out.factor);
            const bool null =
                (a.has_nulls && storage::NullBitGet(a.nulls, r)) ||
                (b.has_nulls && storage::NullBitGet(b.nulls, r));
            got[out.root].push_back(null ? Datum::Null(DataType::kDouble)
                                         : Datum::Double(a.d[r] * b.d[r]));
          }
        }
      }));
  EXPECT_GT(sink_calls, 1u);  // outputs are handed over as they complete

  Status error;
  EvalContext ctx;
  ctx.error = &error;
  for (size_t o = 0; o < texts.size(); ++o) {
    ASSERT_EQ(got[o].size(), n) << texts[o];
    for (size_t r = 0; r < n; ++r) {
      ctx.input = &rows_[r];
      ExpectSameDatum(bound[o]->Eval(ctx), got[o][r],
                      texts[o] + " @row " + std::to_string(r));
    }
  }
  NLQ_ASSERT_OK(error);
}

// ---------------------------------------------------------------------------
// Fallback: constructs the bytecode cannot express return nullptr
// ---------------------------------------------------------------------------

TEST_F(BytecodeTest, UncompilableConstructsFallBackToInterpreter) {
  EXPECT_EQ(Compile("s"), nullptr);                  // VARCHAR column
  EXPECT_EQ(Compile("s IS NULL"), nullptr);          // VARCHAR operand
  EXPECT_EQ(Compile("pack_point(x)"), nullptr);      // scalar UDF
  EXPECT_EQ(Compile("coalesce(i, x)"), nullptr);     // mixed-type coalesce
  // ...while the numeric twin compiles.
  EXPECT_NE(Compile("coalesce(x, y)"), nullptr);
}

// ---------------------------------------------------------------------------
// Compile cache: dedup by serialized program, process counters
// ---------------------------------------------------------------------------

TEST_F(BytecodeTest, CacheDeduplicatesIdenticalProgramsAndCounts) {
  auto& compiles = MetricsRegistry::Global().counter("bytecode.compiles");
  auto& hits = MetricsRegistry::Global().counter("bytecode.cache_hits");
  const uint64_t compiles_before = compiles.Value();
  const uint64_t hits_before = hits.Value();

  BytecodeCache cache;
  BoundExprPtr a = Bind("x + y * 2.0");
  BoundExprPtr b = Bind("x + y * 2.0");
  BoundExprPtr c = Bind("x - y");
  ASSERT_TRUE(a && b && c);

  CompiledExprPtr pa = CompileExpr(*a, &cache);
  CompiledExprPtr pb = CompileExpr(*b, &cache);
  ASSERT_NE(pa, nullptr);
  // Identical instruction streams share one cache entry (same object).
  EXPECT_EQ(pa.get(), pb.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(compiles.Value() - compiles_before, 1u);
  EXPECT_EQ(hits.Value() - hits_before, 1u);

  CompiledExprPtr pc = CompileExpr(*c, &cache);
  ASSERT_NE(pc, nullptr);
  EXPECT_NE(pc.get(), pa.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(compiles.Value() - compiles_before, 2u);
  EXPECT_EQ(hits.Value() - hits_before, 1u);
}

TEST_F(BytecodeTest, WideSqlBuildPlansOneProgramPerAggregate) {
  // The paper's d=32 long-SQL n,L,Q build has 1 + 32 + 528 SUM terms.
  // Planning it builds exactly one program, the aggregate's fused
  // builtin-argument program: one cache miss the first time, one hit
  // every time after (compile work per statement = misses + hits).
  const size_t d = 32;
  std::string create = "CREATE TABLE W (i BIGINT";
  for (size_t a = 1; a <= d; ++a) {
    create += ", X" + std::to_string(a) + " DOUBLE";
  }
  NLQ_ASSERT_OK(db_->ExecuteCommand(create + ")"));
  const std::string sql = stats::NlqSqlQuery(
      "W", stats::DimensionColumns(d), stats::MatrixKind::kLowerTriangular);

  auto& compiles = MetricsRegistry::Global().counter("bytecode.compiles");
  auto& hits = MetricsRegistry::Global().counter("bytecode.cache_hits");
  for (int rep = 0; rep < 2; ++rep) {
    SCOPED_TRACE(rep);
    const uint64_t before = compiles.Value() + hits.Value();
    NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, db_->Explain(sql));
    EXPECT_EQ(compiles.Value() + hits.Value() - before, 1u);
    // The annotation counts that program's ops once: 32 column loads
    // and sum(1.0)'s constant; the 528 products are fused into the
    // SUM loops, not executed as instructions.
    EXPECT_NE(plan.find("VectorHashAggregate (0 group key(s), 561 "
                        "aggregate(s); merge: "),
              std::string::npos)
        << plan;
    EXPECT_NE(plan.find("; compiled, 33 op(s))"), std::string::npos) << plan;
  }
}

TEST_F(BytecodeTest, CacheKeyDistinguishesConstants) {
  BytecodeCache cache;
  BoundExprPtr a = Bind("x * 2.0");
  BoundExprPtr b = Bind("x * 3.0");
  ASSERT_TRUE(a && b);
  CompiledExprPtr pa = CompileExpr(*a, &cache);
  CompiledExprPtr pb = CompileExpr(*b, &cache);
  ASSERT_TRUE(pa && pb);
  EXPECT_NE(pa->cache_key(), pb->cache_key());
  EXPECT_EQ(cache.size(), 2u);
}

}  // namespace
}  // namespace nlq::engine::exec
