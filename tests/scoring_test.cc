#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/query_context.h"
#include "common/random.h"
#include "engine/database.h"
#include "gen/datagen.h"
#include "stats/miner.h"
#include "stats/model_tables.h"
#include "stats/scoring.h"
#include "tests/test_util.h"

namespace nlq::stats {
namespace {

using storage::DataType;
using storage::Datum;

// ---------------------------------------------------------------------------
// Direct scalar-UDF invocation
// ---------------------------------------------------------------------------

class ScalarUdfDirectTest : public ::testing::Test {
 protected:
  void SetUp() override { NLQ_ASSERT_OK(RegisterScoringUdfs(&registry_)); }

  StatusOr<Datum> Call(const std::string& name, std::vector<double> args) {
    const udf::ScalarUdf* fn = registry_.FindScalar(name);
    EXPECT_NE(fn, nullptr);
    std::vector<Datum> datums;
    for (double v : args) datums.push_back(Datum::Double(v));
    NLQ_RETURN_IF_ERROR(fn->CheckArity(datums.size()));
    return fn->Invoke(datums);
  }

  udf::UdfRegistry registry_;
};

TEST_F(ScalarUdfDirectTest, LinearRegScoreDotProduct) {
  // d=2: x = (3, 4), b0 = 1, b = (2, -1) -> 1 + 6 - 4 = 3.
  NLQ_ASSERT_OK_AND_ASSIGN(Datum v,
                           Call("linearregscore", {3, 4, 1, 2, -1}));
  EXPECT_DOUBLE_EQ(v.double_value(), 3.0);
}

TEST_F(ScalarUdfDirectTest, LinearRegScoreArity) {
  EXPECT_FALSE(Call("linearregscore", {1, 2}).ok());
  EXPECT_FALSE(Call("linearregscore", {1, 2, 3, 4}).ok());
}

TEST_F(ScalarUdfDirectTest, FaScoreCentersAndProjects) {
  // d=2: x=(5, 7), mu=(1, 2), lambda=(0.5, -1) -> 4*0.5 + 5*(-1) = -3.
  NLQ_ASSERT_OK_AND_ASSIGN(Datum v, Call("fascore", {5, 7, 1, 2, 0.5, -1}));
  EXPECT_DOUBLE_EQ(v.double_value(), -3.0);
}

TEST_F(ScalarUdfDirectTest, FaScoreArity) {
  EXPECT_FALSE(Call("fascore", {1, 2, 3, 4}).ok());
}

TEST_F(ScalarUdfDirectTest, KMeansDistanceSquaredEuclidean) {
  NLQ_ASSERT_OK_AND_ASSIGN(Datum v, Call("kmeansdistance", {0, 0, 3, 4}));
  EXPECT_DOUBLE_EQ(v.double_value(), 25.0);
}

TEST_F(ScalarUdfDirectTest, ClusterScorePicksMinimumOneBased) {
  NLQ_ASSERT_OK_AND_ASSIGN(Datum v, Call("clusterscore", {9, 2, 5}));
  EXPECT_EQ(v.int_value(), 2);
  NLQ_ASSERT_OK_AND_ASSIGN(Datum first, Call("clusterscore", {1, 1, 1}));
  EXPECT_EQ(first.int_value(), 1);  // ties break to the lowest j
}

TEST_F(ScalarUdfDirectTest, ClusterScoreAllNullGivesNull) {
  const udf::ScalarUdf* fn = registry_.FindScalar("clusterscore");
  std::vector<Datum> args{Datum::Null(DataType::kDouble),
                          Datum::Null(DataType::kDouble)};
  NLQ_ASSERT_OK_AND_ASSIGN(Datum v, fn->Invoke(args));
  EXPECT_TRUE(v.is_null());
}

/// Calls `fn` both ways over `rows` rows — InvokeSpans once, Invoke
/// per row — and expects bit-identical lanes and NULLs.
void ExpectSpansMatchInvoke(const udf::ScalarUdf& fn,
                            const std::vector<udf::ArgSpan>& args,
                            size_t rows) {
  const bool as_double = fn.return_type() == DataType::kDouble;
  std::vector<double> d(rows, -1.0);
  std::vector<int64_t> i(rows, -1);
  std::vector<uint64_t> nulls(storage::NullBitmapWords(rows), 0);
  udf::ResultSpan out;
  out.d = d.data();
  out.i = i.data();
  out.nulls = nulls.data();
  NLQ_ASSERT_OK(fn.InvokeSpans(args.data(), args.size(), rows, nullptr, &out));
  std::vector<Datum> values(args.size());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < args.size(); ++a) values[a] = args[a].At(r);
    NLQ_ASSERT_OK_AND_ASSIGN(Datum want, fn.Invoke(values));
    const bool null = storage::NullBitGet(nulls.data(), r);
    ASSERT_EQ(null, want.is_null()) << fn.name() << " row " << r;
    if (null) continue;
    if (as_double) {
      uint64_t got_bits = 0, want_bits = 0;
      const double want_v = want.double_value();
      std::memcpy(&got_bits, &d[r], sizeof(got_bits));
      std::memcpy(&want_bits, &want_v, sizeof(want_bits));
      EXPECT_EQ(got_bits, want_bits) << fn.name() << " row " << r;
    } else {
      EXPECT_EQ(i[r], want.int_value()) << fn.name() << " row " << r;
    }
  }
  EXPECT_EQ(out.has_nulls,
            std::any_of(nulls.begin(), nulls.end(),
                        [](uint64_t w) { return w != 0; }));
}

TEST_F(ScalarUdfDirectTest, InvokeSpansMatchesInvokeBitForBit) {
  constexpr size_t kRows = 131;
  constexpr size_t kMaxArgs = 9;
  Random rng(7);
  std::vector<std::vector<double>> lanes(kMaxArgs, std::vector<double>(kRows));
  std::vector<std::vector<int64_t>> ints(kMaxArgs,
                                         std::vector<int64_t>(kRows));
  for (size_t a = 0; a < kMaxArgs; ++a) {
    for (size_t r = 0; r < kRows; ++r) {
      lanes[a][r] = rng.NextDouble() * 20.0 - 10.0;
      ints[a][r] = static_cast<int64_t>(rng.NextUint64(21)) - 10;
    }
  }
  // Every third row of argument 1 is NULL; its lane keeps a nonzero
  // value, as a VM register's NULL lane may.
  std::vector<uint64_t> some_nulls(storage::NullBitmapWords(kRows), 0);
  for (size_t r = 0; r < kRows; r += 3) {
    storage::NullBitSet(some_nulls.data(), r);
  }

  const std::pair<const char*, size_t> kCalls[] = {
      {"linearregscore", 7}, {"fascore", 9}, {"kmeansdistance", 6},
      {"clusterscore", 4}};
  for (const auto& [name, argc] : kCalls) {
    const udf::ScalarUdf* fn = registry_.FindScalar(name);
    ASSERT_NE(fn, nullptr) << name;
    std::vector<udf::ArgSpan> args(argc);
    for (size_t a = 0; a < argc; ++a) args[a].d = lanes[a].data();
    ExpectSpansMatchInvoke(*fn, args, kRows);  // dense doubles
    args[1].nulls = some_nulls.data();
    ExpectSpansMatchInvoke(*fn, args, kRows);  // NULL rows
    args[argc - 1].type = DataType::kInt64;
    args[argc - 1].i = ints[argc - 1].data();
    ExpectSpansMatchInvoke(*fn, args, kRows);  // an INT64 argument
  }
}

TEST_F(ScalarUdfDirectTest, DefaultInvokeSpansPollsTheContext) {
  // A row-by-row span call observes a cancel before its first row.
  const udf::ScalarUdf* fn = registry_.FindScalar("kmeansdistance");
  std::vector<double> x = {1.0, 2.0};
  const int64_t c[] = {3, 4};
  std::vector<udf::ArgSpan> args(2);
  args[0].d = x.data();
  args[1].type = DataType::kInt64;  // takes the default Invoke loop
  args[1].i = c;
  std::vector<double> out_d(2);
  std::vector<uint64_t> nulls(1, 0);
  udf::ResultSpan out;
  out.d = out_d.data();
  out.nulls = nulls.data();
  QueryContext ctx;
  ctx.cancel_token()->store(true);
  EXPECT_EQ(fn->InvokeSpans(args.data(), 2, 2, &ctx, &out).code(),
            StatusCode::kCancelled);
}

TEST_F(ScalarUdfDirectTest, PackPointFormat) {
  NLQ_ASSERT_OK_AND_ASSIGN(Datum v, Call("pack_point", {1.5, -2, 3}));
  EXPECT_EQ(v.string_value(), "1.5;-2;3");
}

// ---------------------------------------------------------------------------
// End-to-end scoring through the engine (SQL vs UDF vs direct model)
// ---------------------------------------------------------------------------

class ScoringPipelineTest : public ::testing::Test {
 protected:
  static constexpr size_t kD = 4;
  static constexpr size_t kK = 3;

  void SetUp() override {
    db_ = nlq::testing::MakeTestDatabase();
    miner_ = std::make_unique<WarehouseMiner>(db_.get());
    gen::MixtureOptions options;
    options.n = 500;
    options.d = kD;
    options.num_clusters = kK;
    options.noise_fraction = 0.05;
    options.seed = 321;
    options.with_y = true;
    NLQ_ASSERT_OK(gen::GenerateDataSetTable(db_.get(), "X", options).status());
  }

  /// Reads a scored table into id -> value maps for comparison.
  std::map<int64_t, std::vector<double>> ReadScores(const std::string& table) {
    auto result = db_->Execute("SELECT * FROM " + table + " ORDER BY i");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::map<int64_t, std::vector<double>> scores;
    for (size_t r = 0; r < result->num_rows(); ++r) {
      std::vector<double> values;
      for (size_t c = 1; c < result->num_columns(); ++c) {
        values.push_back(result->GetDouble(r, c));
      }
      scores[static_cast<int64_t>(result->GetDouble(r, 0))] =
          std::move(values);
    }
    return scores;
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<WarehouseMiner> miner_;
};

TEST_F(ScoringPipelineTest, LinRegSqlAndUdfAgreeWithModel) {
  NLQ_ASSERT_OK_AND_ASSIGN(
      LinearRegressionModel model,
      miner_->BuildLinearRegression("X", DimensionColumns(kD), "Y",
                                    ComputeVia::kUdfList));
  NLQ_ASSERT_OK(
      miner_->ScoreLinearRegression("X", model, "SC_UDF", /*use_udf=*/true));
  NLQ_ASSERT_OK(
      miner_->ScoreLinearRegression("X", model, "SC_SQL", /*use_udf=*/false));
  auto udf_scores = ReadScores("SC_UDF");
  auto sql_scores = ReadScores("SC_SQL");
  ASSERT_EQ(udf_scores.size(), 500u);
  ASSERT_EQ(sql_scores.size(), 500u);

  // Both agree with each other and with direct model prediction.
  auto x_rows = db_->Execute("SELECT * FROM X ORDER BY i");
  ASSERT_TRUE(x_rows.ok());
  for (size_t r = 0; r < x_rows->num_rows(); ++r) {
    const int64_t id = x_rows->At(r, 0).int_value();
    std::vector<double> x(kD);
    for (size_t a = 0; a < kD; ++a) x[a] = x_rows->GetDouble(r, a + 1);
    const double expect = model.Predict(x.data());
    EXPECT_NEAR(udf_scores[id][0], expect, 1e-9);
    EXPECT_NEAR(sql_scores[id][0], expect, 1e-9);
  }
}

TEST_F(ScoringPipelineTest, PcaSqlAndUdfAgreeWithModel) {
  NLQ_ASSERT_OK_AND_ASSIGN(
      PcaModel model, miner_->BuildPca("X", kD, 2, ComputeVia::kUdfList));
  NLQ_ASSERT_OK(miner_->ScorePca("X", model, "PC_UDF", /*use_udf=*/true));
  NLQ_ASSERT_OK(miner_->ScorePca("X", model, "PC_SQL", /*use_udf=*/false));
  auto udf_scores = ReadScores("PC_UDF");
  auto sql_scores = ReadScores("PC_SQL");
  ASSERT_EQ(udf_scores.size(), 500u);

  auto x_rows = db_->Execute("SELECT * FROM X ORDER BY i");
  ASSERT_TRUE(x_rows.ok());
  for (size_t r = 0; r < x_rows->num_rows(); ++r) {
    const int64_t id = x_rows->At(r, 0).int_value();
    std::vector<double> x(kD);
    for (size_t a = 0; a < kD; ++a) x[a] = x_rows->GetDouble(r, a + 1);
    const linalg::Vector expect = model.Score(x.data());
    ASSERT_EQ(udf_scores[id].size(), 2u);
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(udf_scores[id][j], expect[j], 1e-6);
      EXPECT_NEAR(sql_scores[id][j], expect[j], 1e-6);
    }
  }
}

TEST_F(ScoringPipelineTest, KMeansSqlAndUdfAgreeWithModel) {
  KMeansOptions options;
  options.k = kK;
  options.max_iterations = 5;
  NLQ_ASSERT_OK_AND_ASSIGN(KMeansModel model,
                           miner_->BuildKMeansInDbms("X", kD, options));
  NLQ_ASSERT_OK(miner_->ScoreKMeans("X", model, "KM_UDF", /*use_udf=*/true));
  NLQ_ASSERT_OK(miner_->ScoreKMeans("X", model, "KM_SQL", /*use_udf=*/false));
  auto udf_scores = ReadScores("KM_UDF");
  auto sql_scores = ReadScores("KM_SQL");
  ASSERT_EQ(udf_scores.size(), 500u);
  ASSERT_EQ(sql_scores.size(), 500u);

  auto x_rows = db_->Execute("SELECT * FROM X ORDER BY i");
  ASSERT_TRUE(x_rows.ok());
  for (size_t r = 0; r < x_rows->num_rows(); ++r) {
    const int64_t id = x_rows->At(r, 0).int_value();
    std::vector<double> x(kD);
    for (size_t a = 0; a < kD; ++a) x[a] = x_rows->GetDouble(r, a + 1);
    const int64_t expect =
        static_cast<int64_t>(model.NearestCentroid(x.data())) + 1;
    EXPECT_EQ(static_cast<int64_t>(udf_scores[id][0]), expect);
    EXPECT_EQ(static_cast<int64_t>(sql_scores[id][0]), expect);
  }
}

// ---------------------------------------------------------------------------
// Model tables
// ---------------------------------------------------------------------------

TEST_F(ScoringPipelineTest, BetaTableRoundTrip) {
  NLQ_ASSERT_OK_AND_ASSIGN(
      LinearRegressionModel model,
      miner_->BuildLinearRegression("X", DimensionColumns(kD), "Y",
                                    ComputeVia::kSql));
  NLQ_ASSERT_OK(StoreBetaTable(db_.get(), "B", model));
  NLQ_ASSERT_OK_AND_ASSIGN(linalg::Vector beta, LoadBetaTable(db_.get(), "B"));
  ASSERT_EQ(beta.size(), model.beta.size());
  for (size_t i = 0; i < beta.size(); ++i) {
    EXPECT_EQ(beta[i], model.beta[i]);  // exact text round trip
  }
  // Re-storing replaces the table.
  NLQ_ASSERT_OK(StoreBetaTable(db_.get(), "B", model));
}

TEST_F(ScoringPipelineTest, ClusterTablesRoundTrip) {
  KMeansOptions options;
  options.k = kK;
  options.max_iterations = 3;
  NLQ_ASSERT_OK_AND_ASSIGN(KMeansModel model,
                           miner_->BuildKMeansInDbms("X", kD, options));
  NLQ_ASSERT_OK(StoreClusterTables(db_.get(), "TC", "TR", "TW", model));
  NLQ_ASSERT_OK_AND_ASSIGN(KMeansModel loaded,
                           LoadClusterTables(db_.get(), "TC", "TR", "TW"));
  EXPECT_EQ(loaded.k, model.k);
  EXPECT_EQ(loaded.d, model.d);
  EXPECT_EQ(loaded.centroids.MaxAbsDiff(model.centroids), 0.0);
  EXPECT_EQ(loaded.radii.MaxAbsDiff(model.radii), 0.0);
}

TEST_F(ScoringPipelineTest, GeneratedSqlTextLooksRight) {
  const std::string sql = LinRegScoreSqlQuery("X", "BETA", 2);
  EXPECT_NE(sql.find("b0 + b1 * X1 + b2 * X2"), std::string::npos);
  const std::string udf = KMeansScoreUdfQuery("X", "C", 2, 2);
  EXPECT_NE(udf.find("clusterscore("), std::string::npos);
  EXPECT_NE(udf.find("C1.j = 1 AND C2.j = 2"), std::string::npos);
  const std::string assign = KMeansAssignSqlQuery("D", 3);
  EXPECT_NE(assign.find("CASE"), std::string::npos);
  EXPECT_NE(assign.find("ELSE 3 END"), std::string::npos);
}

}  // namespace
}  // namespace nlq::stats
