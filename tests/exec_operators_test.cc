// Unit tests for the physical operators in src/engine/exec, driven
// directly (no SQL) at the batch-boundary row counts n ∈ {0, 1, 1023,
// 1024, 1025} — empty input, single row, one row under / exactly /
// one row over the RowBatch capacity.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "engine/ast.h"
#include "engine/database.h"
#include "engine/exec/cross_join_node.h"
#include "engine/exec/executor.h"
#include "engine/exec/filter_node.h"
#include "engine/exec/gather_node.h"
#include "engine/exec/hash_aggregate_node.h"
#include "engine/exec/limit_node.h"
#include "engine/exec/plan.h"
#include "engine/exec/project_node.h"
#include "engine/exec/scan_node.h"
#include "engine/exec/sort_node.h"
#include "engine/expr.h"
#include "storage/partitioned_table.h"
#include "tests/test_util.h"

namespace nlq::engine::exec {
namespace {

using storage::Datum;
using storage::PartitionedTable;
using storage::Row;

class ExecOperatorsTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    db_ = nlq::testing::MakeTestDatabase(/*num_partitions=*/4);
    auto table = db_->catalog().CreateTable(
        "T", storage::Schema{{{"i", storage::DataType::kInt64},
                              {"v", storage::DataType::kDouble}}});
    NLQ_ASSERT_OK(table.status());
    table_ = table.value();
    const size_t n = GetParam();
    for (size_t i = 0; i < n; ++i) {
      NLQ_ASSERT_OK(table_->AppendRow(
          {Datum::Int64(static_cast<int64_t>(i)),
           Datum::Double(static_cast<double>(i) * 0.5)}));
    }
  }

  size_t n() const { return GetParam(); }

  PlanNodePtr Scan() const {
    return std::make_unique<ParallelScanNode>(table_, "T",
                                              RowBatch::kDefaultCapacity);
  }

  /// Binds an AST expression against T's schema.
  BoundExprPtr Bind(const ExprPtr& expr) const {
    BindingScope scope;
    scope.AddTable("T", &table_->schema());
    auto bound = BindRowExpr(*expr, scope, &db_->udfs());
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return bound.ok() ? std::move(bound.value()) : nullptr;
  }

  std::vector<Row> Drain(const PlanNode& node) const {
    auto rows = DrainAllStreams(node, &db_->pool(), RowBatch::kDefaultCapacity);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? std::move(rows.value()) : std::vector<Row>{};
  }

  /// Scan streams are morsels: one per non-empty partition at these
  /// row counts (all < kDefaultMorselRows), at least one overall.
  size_t ExpectedStreams() const {
    size_t streams = 0;
    for (size_t p = 0; p < table_->num_partitions(); ++p) {
      if (table_->partition(p).num_rows() > 0) ++streams;
    }
    return std::max<size_t>(streams, 1);
  }

  std::unique_ptr<Database> db_;
  PartitionedTable* table_ = nullptr;
};

TEST_P(ExecOperatorsTest, ScanProducesEveryRowInBoundedBatches) {
  const PlanNodePtr scan = Scan();
  ASSERT_EQ(scan->num_streams(), ExpectedStreams());

  size_t total = 0;
  int64_t sum = 0;
  for (size_t s = 0; s < scan->num_streams(); ++s) {
    auto stream = scan->OpenStream(s);
    NLQ_ASSERT_OK(stream.status());
    RowBatch batch;
    for (;;) {
      auto more = stream.value()->Next(&batch);
      NLQ_ASSERT_OK(more.status());
      if (!more.value()) break;
      ASSERT_GT(batch.size(), 0u);
      ASSERT_LE(batch.size(), RowBatch::kDefaultCapacity);
      total += batch.size();
      for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(batch.row(i).size(), 2u);
        sum += batch.row(i)[0].int_value();
      }
    }
  }
  EXPECT_EQ(total, n());
  // Every i in [0, n) seen exactly once: the sums match.
  EXPECT_EQ(sum, static_cast<int64_t>(n() * (n() - 1) / 2));
}

TEST_P(ExecOperatorsTest, FilterKeepsOnlyMatchingRows) {
  // i % 2 = 0
  ExprPtr pred = MakeBinary(
      BinaryOp::kEq,
      MakeBinary(BinaryOp::kMod, MakeColumnRef("", "i"),
                 MakeLiteral(Datum::Int64(2))),
      MakeLiteral(Datum::Int64(0)));
  FilterNode filter(Scan(), Bind(pred), {"(i % 2 = 0)"});
  const std::vector<Row> rows = Drain(filter);
  EXPECT_EQ(rows.size(), (n() + 1) / 2);
  for (const Row& row : rows) EXPECT_EQ(row[0].int_value() % 2, 0);
}

TEST_P(ExecOperatorsTest, FilterThatDropsEverythingYieldsEmpty) {
  ExprPtr pred = MakeBinary(BinaryOp::kLt, MakeColumnRef("", "i"),
                            MakeLiteral(Datum::Int64(0)));
  FilterNode filter(Scan(), Bind(pred), {"(i < 0)"});
  EXPECT_TRUE(Drain(filter).empty());
}

TEST_P(ExecOperatorsTest, ProjectComputesExpressions) {
  // SELECT i * 2 + 1, v
  std::vector<BoundExprPtr> projections;
  projections.push_back(Bind(MakeBinary(
      BinaryOp::kAdd,
      MakeBinary(BinaryOp::kMul, MakeColumnRef("", "i"),
                 MakeLiteral(Datum::Int64(2))),
      MakeLiteral(Datum::Int64(1)))));
  projections.push_back(Bind(MakeColumnRef("", "v")));
  ProjectNode project(Scan(), std::move(projections));
  EXPECT_EQ(project.output_width(), 2u);
  const std::vector<Row> rows = Drain(project);
  ASSERT_EQ(rows.size(), n());
  int64_t sum = 0;
  for (const Row& row : rows) {
    ASSERT_EQ(row.size(), 2u);
    sum += row[0].int_value();
  }
  EXPECT_EQ(sum, static_cast<int64_t>(2 * (n() * (n() - 1) / 2) + n()));
}

TEST_P(ExecOperatorsTest, PassThroughProjectForwardsChildStream) {
  ProjectNode project(Scan());
  EXPECT_EQ(project.output_width(), 2u);
  EXPECT_EQ(project.num_streams(), ExpectedStreams());
  EXPECT_EQ(Drain(project).size(), n());
}

TEST_P(ExecOperatorsTest, GatherPreservesPartitionOrder) {
  GatherNode gather(Scan(), &db_->pool(), RowBatch::kDefaultCapacity);
  ASSERT_EQ(gather.num_streams(), 1u);
  const std::vector<Row> gathered = Drain(gather);

  auto reference = table_->ReadAllRows();
  NLQ_ASSERT_OK(reference.status());
  ASSERT_EQ(gathered.size(), reference.value().size());
  for (size_t i = 0; i < gathered.size(); ++i) {
    EXPECT_EQ(gathered[i][0].int_value(),
              reference.value()[i][0].int_value());
  }
}

TEST_P(ExecOperatorsTest, CrossJoinEmitsFullProduct) {
  std::vector<Row> build;
  for (int64_t b = 100; b < 103; ++b) build.push_back({Datum::Int64(b)});
  CrossJoinNode join(Scan(), std::move(build), /*build_width=*/1, "B AS b",
                     {});
  EXPECT_EQ(join.output_width(), 3u);
  const std::vector<Row> rows = Drain(join);
  ASSERT_EQ(rows.size(), 3 * n());
  // Each probe row pairs with every build row, build side cycling
  // fastest.
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].size(), 3u);
    EXPECT_EQ(rows[i][2].int_value(),
              static_cast<int64_t>(100 + i % 3));
  }
}

TEST_P(ExecOperatorsTest, CrossJoinWithEmptyBuildSideIsEmpty) {
  CrossJoinNode join(Scan(), {}, /*build_width=*/1, "B AS b", {});
  EXPECT_TRUE(Drain(join).empty());
}

TEST_P(ExecOperatorsTest, HashAggregateGroupsAndMerges) {
  // SELECT i % 3, count(*), sum(i) FROM T GROUP BY i % 3
  ExprPtr key = MakeBinary(BinaryOp::kMod, MakeColumnRef("", "i"),
                           MakeLiteral(Datum::Int64(3)));
  std::vector<ExprPtr> items;
  items.push_back(key->Clone());
  std::vector<ExprPtr> count_args;
  count_args.push_back(MakeStar());
  items.push_back(MakeFunction("count", std::move(count_args)));
  std::vector<ExprPtr> sum_args;
  sum_args.push_back(MakeColumnRef("", "i"));
  items.push_back(MakeFunction("sum", std::move(sum_args)));

  BindingScope scope;
  scope.AddTable("T", &table_->schema());
  std::vector<const Expr*> select_exprs;
  for (const auto& e : items) select_exprs.push_back(e.get());
  std::vector<const Expr*> group_by{key.get()};
  auto agg = BindAggregation(select_exprs, group_by, scope, &db_->udfs());
  NLQ_ASSERT_OK(agg.status());

  HashAggregateNode node(Scan(), std::move(agg.value()),
                         /*has_having=*/false, "", /*num_output=*/3,
                         &db_->pool(), RowBatch::kDefaultCapacity);
  std::vector<Row> rows = Drain(node);
  ASSERT_EQ(rows.size(), std::min<size_t>(n(), 3));

  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a[0].int_value() < b[0].int_value();
  });
  for (const Row& row : rows) {
    const int64_t g = row[0].int_value();
    int64_t expect_count = 0;
    double expect_sum = 0.0;
    for (size_t i = 0; i < n(); ++i) {
      if (static_cast<int64_t>(i) % 3 != g) continue;
      ++expect_count;
      expect_sum += static_cast<double>(i);
    }
    EXPECT_EQ(row[1].int_value(), expect_count);
    EXPECT_DOUBLE_EQ(row[2].AsDouble(), expect_sum);
  }
}

TEST_P(ExecOperatorsTest, GlobalAggregateOverAnyInputYieldsOneRow) {
  // SELECT count(*) FROM T — one row even when T is empty.
  std::vector<ExprPtr> count_args;
  count_args.push_back(MakeStar());
  ExprPtr count = MakeFunction("count", std::move(count_args));

  BindingScope scope;
  scope.AddTable("T", &table_->schema());
  std::vector<const Expr*> select_exprs{count.get()};
  auto agg = BindAggregation(select_exprs, {}, scope, &db_->udfs());
  NLQ_ASSERT_OK(agg.status());

  HashAggregateNode node(Scan(), std::move(agg.value()),
                         /*has_having=*/false, "", /*num_output=*/1,
                         &db_->pool(), RowBatch::kDefaultCapacity);
  const std::vector<Row> rows = Drain(node);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int_value(), static_cast<int64_t>(n()));
}

TEST_P(ExecOperatorsTest, SortIsStableOnTiedKeys) {
  // Sort by i % 10: ties must keep their gathered (partition) order.
  auto gathered = DrainAllStreams(*Scan(), &db_->pool(),
                                  RowBatch::kDefaultCapacity);
  NLQ_ASSERT_OK(gathered.status());
  std::vector<Row> expected = gathered.value();
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Row& a, const Row& b) {
                     return a[0].int_value() % 10 < b[0].int_value() % 10;
                   });

  std::vector<BoundExprPtr> keys;
  keys.push_back(Bind(MakeBinary(BinaryOp::kMod, MakeColumnRef("", "i"),
                                 MakeLiteral(Datum::Int64(10)))));
  SortNode sort(std::make_unique<GatherNode>(Scan(), &db_->pool(),
                                             RowBatch::kDefaultCapacity),
                std::move(keys), {false}, /*limit=*/-1);
  const std::vector<Row> rows = Drain(sort);
  ASSERT_EQ(rows.size(), expected.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0].int_value(), expected[i][0].int_value()) << i;
  }
}

TEST_P(ExecOperatorsTest, PartialSortWithLimitMatchesFullSortPrefix) {
  const int64_t limit = 7;
  auto gathered = DrainAllStreams(*Scan(), &db_->pool(),
                                  RowBatch::kDefaultCapacity);
  NLQ_ASSERT_OK(gathered.status());
  std::vector<Row> expected = gathered.value();
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Row& a, const Row& b) {
                     return a[0].int_value() % 10 > b[0].int_value() % 10;
                   });
  if (expected.size() > static_cast<size_t>(limit)) {
    expected.resize(static_cast<size_t>(limit));
  }

  std::vector<BoundExprPtr> keys;
  keys.push_back(Bind(MakeBinary(BinaryOp::kMod, MakeColumnRef("", "i"),
                                 MakeLiteral(Datum::Int64(10)))));
  SortNode sort(std::make_unique<GatherNode>(Scan(), &db_->pool(),
                                             RowBatch::kDefaultCapacity),
                std::move(keys), {true}, limit);
  const std::vector<Row> rows = Drain(sort);
  ASSERT_EQ(rows.size(), expected.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0].int_value(), expected[i][0].int_value()) << i;
  }
}

TEST_P(ExecOperatorsTest, LimitTruncatesAndShortCircuits) {
  LimitNode limit(std::make_unique<GatherNode>(Scan(), &db_->pool(),
                                               RowBatch::kDefaultCapacity),
                  10);
  EXPECT_EQ(Drain(limit).size(), std::min<size_t>(n(), 10));

  LimitNode zero(std::make_unique<GatherNode>(Scan(), &db_->pool(),
                                              RowBatch::kDefaultCapacity),
                 0);
  EXPECT_TRUE(Drain(zero).empty());
}

TEST_P(ExecOperatorsTest, ExecutePlanMaterializesRootStream) {
  PhysicalPlan plan;
  plan.root = std::make_unique<GatherNode>(Scan(), &db_->pool(),
                                           RowBatch::kDefaultCapacity);
  plan.output_schema = table_->schema();
  auto result = ExecutePlan(plan);
  NLQ_ASSERT_OK(result.status());
  EXPECT_EQ(result->num_rows(), n());
  EXPECT_EQ(result->num_columns(), 2u);
}

INSTANTIATE_TEST_SUITE_P(BatchBoundaries, ExecOperatorsTest,
                         ::testing::Values(0, 1, 1023, 1024, 1025));

// ---------------------------------------------------------------------------
// SQL builtins through the aggregate's one multi-output program: every
// builtin argument is an output of one bytecode program per
// VectorHashAggregate, folded by typed loops (dense SUMs four chains at
// a time). The forced interpreted row path is the oracle, bit for bit,
// at row counts straddling one and two 1024-row batches.
// ---------------------------------------------------------------------------

/// Renders a result so "equal" means byte-identical (doubles by bit
/// pattern, NULLs by type).
std::string Signature(const ResultSet& result) {
  std::string out;
  for (const Row& row : result.rows()) {
    for (const Datum& v : row) {
      if (v.is_null()) {
        out += "NULL,";
      } else if (v.type() == storage::DataType::kDouble) {
        uint64_t bits = 0;
        const double d = v.double_value();
        std::memcpy(&bits, &d, sizeof(bits));
        out += "d" + std::to_string(bits) + ",";
      } else {
        out += "i" + std::to_string(v.int_value()) + ",";
      }
    }
    out += "\n";
  }
  return out;
}

class FusedBuiltinAggregateTest : public ::testing::TestWithParam<size_t> {
 protected:
  /// T(i, j BIGINT; x, y, z DOUBLE) with `n` rows: NULLs in j, x and y
  /// on different row patterns, none in z (its SUMs take the dense
  /// four-chain loops); values that round when multiplied and summed.
  std::unique_ptr<Database> MakeDatabase(size_t partitions) const {
    auto db = nlq::testing::MakeTestDatabase(partitions, /*num_threads=*/2);
    auto table = db->catalog().CreateTable(
        "T", storage::Schema{{{"i", storage::DataType::kInt64},
                              {"j", storage::DataType::kInt64},
                              {"x", storage::DataType::kDouble},
                              {"y", storage::DataType::kDouble},
                              {"z", storage::DataType::kDouble}}});
    EXPECT_TRUE(table.ok());
    if (!table.ok()) return db;
    for (size_t r = 0; r < GetParam(); ++r) {
      const int64_t i = static_cast<int64_t>(r);
      const Datum j = r % 3 == 0 ? Datum::Null(storage::DataType::kInt64)
                                 : Datum::Int64(i * 7 % 11 - 5);
      const Datum x =
          r % 7 == 3 ? Datum::Null(storage::DataType::kDouble)
                     : Datum::Double(static_cast<double>(r * 2654435761u %
                                                         100003) /
                                     997.0);
      const Datum y = r % 5 == 1 ? Datum::Null(storage::DataType::kDouble)
                                 : Datum::Double(0.1 * static_cast<double>(
                                                           r % 29) - 1.3);
      const Datum z = Datum::Double(static_cast<double>(r % 97) / 7.0 + 0.1);
      EXPECT_TRUE((*table)->AppendRow({Datum::Int64(i), j, x, y, z}).ok());
    }
    return db;
  }
};

TEST_P(FusedBuiltinAggregateTest, MatchesInterpretedBitForBit) {
  // Mixed kinds; DOUBLE and BIGINT (kMulI) products, fused ones whose
  // factors hold NULLs (avg(x * y) counts only rows where both are
  // non-NULL; in i * y only the right factor has any) or are computed
  // (y * j widens j); a duplicated argument
  // (sum(x) twice, x also under count/min) and a constant one
  // (sum(1.0)); a computed argument whose register is reused; dense
  // SUMs of z, plain and fused, more than four per batch.
  const std::string aggs =
      "sum(x), avg(y), count(x), count(*), min(x), max(y), sum(x * y), "
      "sum(i * j), avg(i * j), min(i * j), max(j), sum(x), sum(1.0), "
      "count(j), max(x * y), sum(x * y + 1.0), sum(x * x), count(1.0), "
      "avg(x * y), sum(y * j), count(x * y), avg(i * y), sum(z), "
      "sum(z * z), avg(z * i), sum(z * 0.1), sum(z + 1.0), avg(z), "
      "sum(z * z)";
  const std::string global = "SELECT " + aggs + " FROM T";
  const std::string grouped =
      "SELECT i % 3, " + aggs + " FROM T GROUP BY i % 3 ORDER BY 1";
  QueryOptions interpreted;
  interpreted.force_interpreted = true;
  for (const size_t partitions : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions));
    auto db = MakeDatabase(partitions);
    for (const std::string& sql : {global, grouped}) {
      NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, db->Explain(sql));
      EXPECT_NE(plan.find("VectorHashAggregate"), std::string::npos) << plan;
      NLQ_ASSERT_OK_AND_ASSIGN(std::string row_plan,
                               db->Explain(sql, interpreted));
      EXPECT_EQ(row_plan.find("Vector"), std::string::npos) << row_plan;

      NLQ_ASSERT_OK_AND_ASSIGN(ResultSet fused, db->Execute(sql));
      NLQ_ASSERT_OK_AND_ASSIGN(ResultSet oracle,
                               db->Execute(sql, interpreted));
      EXPECT_EQ(Signature(fused), Signature(oracle)) << sql;
    }
    if (GetParam() == 0) {
      // Empty input: one row, SUM and MIN over nothing are NULL and
      // the COUNTs are 0, on both paths.
      NLQ_ASSERT_OK_AND_ASSIGN(ResultSet empty, db->Execute(global));
      ASSERT_EQ(empty.num_rows(), 1u);
      EXPECT_TRUE(empty.At(0, 0).is_null());   // sum(x)
      EXPECT_EQ(empty.At(0, 2).int_value(), 0);  // count(x)
      EXPECT_EQ(empty.At(0, 3).int_value(), 0);  // count(*)
      EXPECT_TRUE(empty.At(0, 4).is_null());   // min(x)
      EXPECT_TRUE(empty.At(0, 12).is_null());  // sum(1.0)
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BatchBoundaries, FusedBuiltinAggregateTest,
                         ::testing::Values(0, 1, 1023, 1024, 1025, 2047,
                                           2048, 2049));

TEST(ConstantInputNodeTest, EmitsRequestedEmptyRows) {
  for (const size_t rows : {size_t{0}, size_t{1}}) {
    ConstantInputNode node(rows);
    auto drained = DrainAllStreams(node, nullptr, RowBatch::kDefaultCapacity);
    NLQ_ASSERT_OK(drained.status());
    EXPECT_EQ(drained->size(), rows);
  }
}

TEST(CompareDatumTest, Int64KeysCompareExactlyAbove2Pow53) {
  // 2^53 and 2^53 + 1 collapse to the same double; the int path must
  // still order them.
  const int64_t big = int64_t{1} << 53;
  EXPECT_EQ(static_cast<double>(big), static_cast<double>(big + 1));
  EXPECT_EQ(CompareDatum(Datum::Int64(big), Datum::Int64(big + 1)), -1);
  EXPECT_EQ(CompareDatum(Datum::Int64(big + 1), Datum::Int64(big)), 1);
  EXPECT_EQ(CompareDatum(Datum::Int64(big), Datum::Int64(big)), 0);
}

TEST(CompareDatumTest, NullsFirstAndMixedTypesViaDouble) {
  EXPECT_EQ(CompareDatum(Datum::Null(storage::DataType::kInt64),
                         Datum::Int64(-5)),
            -1);
  EXPECT_EQ(CompareDatum(Datum::Int64(-5),
                         Datum::Null(storage::DataType::kInt64)),
            1);
  EXPECT_EQ(CompareDatum(Datum::Int64(2), Datum::Double(2.5)), -1);
  EXPECT_EQ(CompareDatum(Datum::Double(3.5), Datum::Int64(3)), 1);
}

}  // namespace
}  // namespace nlq::engine::exec
