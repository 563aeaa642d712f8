// Differential/property suite (DESIGN.md #10): the same statistical
// query must produce *bit-identical* sufficient statistics on every
// execution path the engine has — the paper's "long" SQL query
// (Section 3.4), the aggregate-UDF row path (Figure 3) and the
// columnar pipeline's zero-key group, whose n,L,Q calls run the fused
// span kernel — and match an external C++ oracle that
// recomputes (n, L, Q) straight from the storage layer, mirroring the
// engine's morsel grid and morsel-index merge order. Every case is
// additionally swept across worker-thread counts {1, 2, 4}; the
// thread count must never change a single output bit, because the
// morsel grid (and therefore the merge order) depends only on the
// partition layout and morsel size, never on scheduling.
//
// Tables are generated from a seeded PRNG with dyadic-rational cell
// values (exact through SQL text round-trips), mixed NULL densities,
// row counts straddling the 1024-row decode batch, 1–8 partitions and
// morsel sizes that split partitions mid-stream. NULL placement picks
// the comparison set:
//   - NULLs confined to an unused padding column: all four paths are
//     comparable (the SQL query's sum(1.0) n-term counts every
//     surviving row, which equals the UDF count when no dimension is
//     NULL);
//   - NULLs inside the dimensions: the wide SQL query's per-column /
//     per-product NULL skipping diverges from the UDFs' documented
//     skip-row policy by design, so those cases compare the three
//     skip-row paths (UDF row, UDF columnar, oracle) only.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "engine/database.h"
#include "engine/exec/morsel.h"
#include "stats/scoring.h"
#include "stats/sqlgen.h"
#include "stats/sufstats.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/partitioned_table.h"
#include "tests/test_util.h"

namespace nlq::engine {
namespace {

using stats::MatrixKind;
using stats::SufStats;
using storage::Datum;
using storage::Row;

// ---------------------------------------------------------------------------
// Bit-exact signatures
// ---------------------------------------------------------------------------

std::string Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return StringPrintf("%016llx", static_cast<unsigned long long>(bits));
}

/// Renders a result set so "equal" means byte-identical, not close.
std::string ResultSignature(const ResultSet& result) {
  std::string out;
  for (const auto& row : result.rows()) {
    for (const Datum& v : row) {
      if (v.is_null()) {
        out += "NULL,";
        continue;
      }
      switch (v.type()) {
        case storage::DataType::kDouble:
          out += "d:" + Bits(v.double_value()) + ",";
          break;
        case storage::DataType::kInt64:
          out += StringPrintf("i:%lld,", static_cast<long long>(v.int_value()));
          break;
        case storage::DataType::kVarchar:
          out += "s:" + v.string_value() + ",";
          break;
      }
    }
    out += "\n";
  }
  return out;
}

/// Bit pattern of every statistic a SufStats carries. Min/max are
/// optional because the wide SQL query does not compute them.
std::string SufSignature(const SufStats& s, bool with_minmax) {
  std::string out = "n:" + Bits(s.n()) + "\n";
  const size_t d = s.d();
  for (size_t a = 0; a < d; ++a) {
    out += StringPrintf("L%zu:", a) + Bits(s.L(a)) + "\n";
  }
  for (size_t a = 0; a < d; ++a) {
    const size_t b_end = s.kind() == MatrixKind::kFull ? d : a + 1;
    for (size_t b = 0; b < b_end; ++b) {
      if (s.kind() == MatrixKind::kDiagonal && b != a) continue;
      out += StringPrintf("Q%zu_%zu:", a, b) + Bits(s.Q(a, b)) + "\n";
    }
  }
  if (with_minmax) {
    for (size_t a = 0; a < d; ++a) {
      out += StringPrintf("m%zu:", a) + Bits(s.Min(a)) + "," + Bits(s.Max(a)) +
             "\n";
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Case generation
// ---------------------------------------------------------------------------

struct TableConfig {
  size_t partitions;
  size_t rows;
  size_t d;
  MatrixKind kind;
  uint64_t morsel_rows;   // 0 = partition-granular morsels
  unsigned null_pct;      // per-cell NULL probability in percent
  bool nulls_in_dims;     // false: NULLs only in the padding column
  uint64_t seed;
};

// Row counts straddle the 1024-row decode batch; morsel sizes split
// partitions into several streams (the pre-existing equivalence tests
// only ever ran one morsel per partition); partition counts include
// layouts that divide the rows unevenly.
const TableConfig kConfigs[] = {
    // Four-path cases: dimensions stay NULL-free.
    {1, 0, 2, MatrixKind::kLowerTriangular, 16384, 0, false, 101},
    {1, 1, 1, MatrixKind::kDiagonal, 16384, 0, false, 102},
    {2, 1, 3, MatrixKind::kFull, 0, 0, false, 103},
    {2, 7, 2, MatrixKind::kLowerTriangular, 64, 0, false, 104},
    {3, 100, 4, MatrixKind::kFull, 256, 0, false, 105},
    {4, 100, 1, MatrixKind::kDiagonal, 64, 25, false, 106},
    {4, 1023, 2, MatrixKind::kLowerTriangular, 16384, 0, false, 107},
    {4, 1024, 2, MatrixKind::kFull, 1024, 0, false, 108},
    {4, 1025, 3, MatrixKind::kLowerTriangular, 256, 10, false, 109},
    {5, 511, 4, MatrixKind::kDiagonal, 128, 0, false, 110},
    {7, 777, 3, MatrixKind::kFull, 0, 20, false, 111},
    {8, 1200, 4, MatrixKind::kLowerTriangular, 1024, 0, false, 112},
    {8, 64, 2, MatrixKind::kDiagonal, 64, 0, false, 113},
    {6, 300, 3, MatrixKind::kLowerTriangular, 96, 15, false, 114},
    {3, 1024, 1, MatrixKind::kFull, 0, 0, false, 115},
    {2, 1025, 4, MatrixKind::kFull, 512, 0, false, 116},
    // Three-path cases: NULLs land inside the dimensions, exercising
    // the skip-row policy (and its columnar compaction) under WHERE.
    {1, 50, 2, MatrixKind::kLowerTriangular, 16384, 30, true, 201},
    {2, 100, 3, MatrixKind::kFull, 64, 20, true, 202},
    {4, 1023, 2, MatrixKind::kDiagonal, 256, 10, true, 203},
    {4, 1024, 3, MatrixKind::kLowerTriangular, 1024, 35, true, 204},
    {5, 1025, 4, MatrixKind::kFull, 0, 15, true, 205},
    {7, 777, 1, MatrixKind::kLowerTriangular, 128, 50, true, 206},
    {8, 1200, 2, MatrixKind::kDiagonal, 16384, 5, true, 207},
    {3, 7, 4, MatrixKind::kLowerTriangular, 64, 80, true, 208},
};

const char* KindName(MatrixKind kind) {
  switch (kind) {
    case MatrixKind::kDiagonal:
      return "diag";
    case MatrixKind::kLowerTriangular:
      return "triang";
    case MatrixKind::kFull:
      return "full";
  }
  return "?";
}

/// Cell values are dyadic rationals k/256 with |k| < 2^15: at most 8
/// fractional decimal digits, so "%.8f" round-trips them exactly
/// through SQL text and back into the same double.
double NextCell(Random* rng) {
  const int64_t k =
      static_cast<int64_t>(rng->NextUint64(1u << 16)) - (1 << 15);
  return static_cast<double>(k) / 256.0;
}

/// Builds the batched INSERT statements for `cfg` — regenerated
/// identically for every thread-count variant so all databases hold
/// the same rows in the same partition layout.
std::vector<std::string> BuildInserts(const TableConfig& cfg) {
  Random rng(cfg.seed);
  std::vector<std::string> statements;
  std::string insert;
  for (size_t r = 0; r < cfg.rows; ++r) {
    if (insert.empty()) insert = "INSERT INTO T VALUES ";
    insert += StringPrintf("(%zu", r);
    for (size_t c = 0; c < cfg.d + 1; ++c) {  // d dimensions + padding
      const bool dim = c < cfg.d;
      const double v = NextCell(&rng);  // always drawn: keeps streams aligned
      const bool null_here = cfg.null_pct > 0 &&
                             (dim ? cfg.nulls_in_dims : !cfg.nulls_in_dims) &&
                             rng.NextUint64(100) < cfg.null_pct;
      if (null_here) {
        insert += ", NULL";
      } else {
        insert += StringPrintf(", %.8f", v);
      }
    }
    insert += ")";
    if ((r + 1) % 128 == 0 || r + 1 == cfg.rows) {
      statements.push_back(insert);
      insert.clear();
    } else {
      insert += ", ";
    }
  }
  return statements;
}

/// NLQ_TEST_SPILL=1 (the CI spill-smoke job) runs the entire suite
/// against spilled tables behind a minimum-size buffer pool: every
/// query streams compressed chunks through eviction + readahead, and
/// the suite's cross-path bit-equality checks double as the
/// spilled-vs-resident differential — the oracle reads the same
/// spilled table through BatchScanner, so a single flipped bit
/// anywhere in the codec/pool/readahead stack fails the run.
bool SpillSmoke() {
  const char* v = std::getenv("NLQ_TEST_SPILL");
  return v != nullptr && v[0] == '1';
}

/// NLQ_TEST_VIEWS=1 (the CI views-smoke job) re-runs the suite with
/// maintained-view registration enabled: every eligible aggregate is
/// executed twice — the first statement seeds the view's per-morsel
/// partials, the second serves the registered entry — and both must be
/// bit-identical to the views-off columnar result, which the row path
/// and the external oracle already pin. Under NLQ_TEST_SPILL the
/// tables are spilled, so views are ineligible and the mode degrades
/// to the plain suite.
bool ViewsSmoke() {
  const char* v = std::getenv("NLQ_TEST_VIEWS");
  return v != nullptr && v[0] == '1';
}

void CreateAndFill(Database* db, const TableConfig& cfg,
                   const std::vector<std::string>& inserts) {
  std::string create = "CREATE TABLE T (i BIGINT";
  for (size_t a = 0; a < cfg.d; ++a) {
    create += StringPrintf(", X%zu DOUBLE", a + 1);
  }
  create += ", PAD DOUBLE)";
  NLQ_ASSERT_OK(db->ExecuteCommand(create));
  for (const std::string& insert : inserts) {
    NLQ_ASSERT_OK(db->ExecuteCommand(insert));
  }
  if (SpillSmoke()) NLQ_ASSERT_OK(db->SpillTable("T"));
}

std::unique_ptr<Database> MakeDiffDatabase(const TableConfig& cfg,
                                           size_t num_threads) {
  DatabaseOptions options;
  options.num_partitions = cfg.partitions;
  options.num_threads = num_threads;
  options.morsel_rows = cfg.morsel_rows;
  if (SpillSmoke()) {
    // Smallest legal pool: every config's table is then larger than
    // the frame set, so scans must evict and re-read continuously.
    options.buffer_pool_bytes =
        storage::kPageSize * storage::BufferPool::kMinFrames;
  }
  options.enable_view_maintenance = ViewsSmoke();
  auto db = std::make_unique<Database>(options);
  EXPECT_TRUE(stats::RegisterAllStatsUdfs(&db->udfs()).ok());
  return db;
}

/// One WHERE clause plus the oracle's row-level rendering of it. A
/// NULL operand makes the SQL comparison UNKNOWN, which drops the row
/// on every engine path; the predicates mirror that with an explicit
/// is_null() check.
struct WhereVariant {
  std::string suffix;  // "" or " WHERE ..."
  std::function<bool(const Row&)> pred;
};

std::vector<WhereVariant> BuildWheres(const TableConfig& cfg) {
  std::vector<WhereVariant> wheres;
  wheres.push_back({"", [](const Row&) { return true; }});
  wheres.push_back({" WHERE X1 > -8.0", [](const Row& row) {
                      return !row[1].is_null() && row[1].AsDouble() > -8.0;
                    }});
  const int64_t cutoff =
      cfg.rows == 0 ? 1 : static_cast<int64_t>(cfg.rows * 3 / 4);
  wheres.push_back(
      {StringPrintf(" WHERE i < %lld", static_cast<long long>(cutoff)),
       [cutoff](const Row& row) { return row[0].int_value() < cutoff; }});
  return wheres;
}

/// Per-statement override planning the pure interpreted row path: no
/// vector pipeline, no compiled programs. This is
/// the suite's oracle-side execution mode.
QueryOptions Interpreted() {
  QueryOptions options;
  options.force_interpreted = true;
  return options;
}

// ---------------------------------------------------------------------------
// External oracle: recomputes SufStats straight from the storage
// layer, outside the exec layer entirely, mirroring the engine's
// accumulation structure — one partial per morsel of the same grid
// BuildMorselGrid hands the scan nodes, merged in morsel-index order
// (how both aggregate nodes fold their per-stream partials).
// ---------------------------------------------------------------------------

void ComputeOracle(const storage::PartitionedTable& table,
                   const TableConfig& cfg, const WhereVariant& where,
                   SufStats* out, uint64_t* surviving) {
  const std::vector<exec::Morsel> grid =
      exec::BuildMorselGrid(table, cfg.morsel_rows);
  SufStats total(cfg.d, cfg.kind);
  bool first = true;
  uint64_t n_survive = 0;
  std::vector<double> x(cfg.d);
  for (const exec::Morsel& m : grid) {
    SufStats part(cfg.d, cfg.kind);
    storage::BatchScanner scanner =
        table.ScanPartitionBatches(m.partition, m.begin, m.end);
    storage::RowBatch batch;
    while (scanner.Next(&batch)) {
      for (size_t r = 0; r < batch.size(); ++r) {
        const Row& row = batch.row(r);
        if (!where.pred(row)) continue;
        bool null_dim = false;
        for (size_t a = 0; a < cfg.d; ++a) null_dim |= row[1 + a].is_null();
        if (null_dim) continue;  // the UDFs' skip-row policy
        for (size_t a = 0; a < cfg.d; ++a) x[a] = row[1 + a].double_value();
        part.Update(x.data());
        ++n_survive;
      }
    }
    NLQ_ASSERT_OK(scanner.status());
    if (first) {
      total = part;
      first = false;
    } else {
      NLQ_ASSERT_OK(total.Merge(part));
    }
  }
  *out = total;
  *surviving = n_survive;
}

// ---------------------------------------------------------------------------
// One differential case
// ---------------------------------------------------------------------------

struct CaseSigs {
  std::string row;  // UDF, forced interpreted row path
  std::string col;  // UDF, columnar fast path
  std::string sql;  // wide SQL query (empty when not comparable)
};

void RunCase(Database* db, const TableConfig& cfg, const WhereVariant& where,
             const SufStats& oracle, uint64_t surviving, CaseSigs* sigs) {
  const std::vector<std::string> cols = stats::DimensionColumns(cfg.d);
  const std::string udf_sql =
      stats::NlqUdfQuery("T", cols, cfg.kind, stats::ParamStyle::kList) +
      where.suffix;

  auto columnar = db->Execute(udf_sql);
  auto rowpath = db->Execute(udf_sql, Interpreted());
  NLQ_ASSERT_OK(columnar.status());
  NLQ_ASSERT_OK(rowpath.status());

  // The two executions must really take different paths, or this test
  // degenerates into comparing a path with itself.
  auto col_plan = db->Explain(udf_sql);
  auto row_plan = db->Explain(udf_sql, Interpreted());
  NLQ_ASSERT_OK(col_plan.status());
  NLQ_ASSERT_OK(row_plan.status());
  if (ViewsSmoke() && !SpillSmoke()) {
    // The execution above seeded the view; the plan now serves it.
    EXPECT_NE(col_plan->find("VectorHashAggregate (0 group key(s)"),
              std::string::npos)
        << udf_sql << "\n"
        << *col_plan;
    EXPECT_NE(col_plan->find("view=fresh"), std::string::npos)
        << udf_sql << "\n"
        << *col_plan;
  } else {
    EXPECT_NE(col_plan->find("VectorHashAggregate"), std::string::npos)
        << udf_sql << "\n"
        << *col_plan;
    EXPECT_NE(col_plan->find("ColumnarScan"), std::string::npos)
        << udf_sql << "\n"
        << *col_plan;
    EXPECT_NE(col_plan->find("on column spans"), std::string::npos)
        << udf_sql << "\n"
        << *col_plan;
  }
  EXPECT_EQ(row_plan->find("Columnar"), std::string::npos)
      << udf_sql << "\n"
      << *row_plan;

  sigs->col = ResultSignature(*columnar);
  sigs->row = ResultSignature(*rowpath);
  EXPECT_EQ(sigs->col, sigs->row) << udf_sql;

  if (ViewsSmoke()) {
    // Fresh-hit pass: the registered view (zero delta) must reproduce
    // the seeding statement's bytes exactly.
    auto again = db->Execute(udf_sql);
    NLQ_ASSERT_OK(again.status());
    EXPECT_EQ(ResultSignature(*again), sigs->col) << udf_sql;
  }

  // Decoded UDF result vs the external oracle, bit for bit. Skipped
  // when no row survived: a never-accumulated UDF state finalizes as
  // the documented d=0 empty statistics, which carries no shape to
  // compare (the cross-path and cross-thread equalities above still
  // pin its exact bytes).
  if (surviving > 0) {
    NLQ_ASSERT_OK_AND_ASSIGN(
        SufStats decoded,
        SufStats::FromPackedString(rowpath->At(0, 0).string_value()));
    EXPECT_EQ(SufSignature(decoded, /*with_minmax=*/true),
              SufSignature(oracle, /*with_minmax=*/true))
        << udf_sql;
  }

  // The paper's wide SQL query, decoded back into SufStats. Only when
  // the dimensions are NULL-free (otherwise its per-column NULL
  // skipping legitimately diverges from skip-row) and at least one
  // row survived (SUM over nothing is NULL, which has no bit pattern
  // to compare).
  if (!cfg.nulls_in_dims && surviving > 0) {
    const std::string wide_sql =
        stats::NlqSqlQuery("T", cols, cfg.kind) + where.suffix;
    auto wide = db->Execute(wide_sql);
    NLQ_ASSERT_OK(wide.status());
    sigs->sql = ResultSignature(*wide);
    NLQ_ASSERT_OK_AND_ASSIGN(
        SufStats from_sql,
        stats::SufStatsFromWideRow(*wide, 0, cfg.d, cfg.kind));
    EXPECT_EQ(SufSignature(from_sql, /*with_minmax=*/false),
              SufSignature(oracle, /*with_minmax=*/false))
        << wide_sql;
  }
}

TEST(DifferentialQueryTest, AllPathsBitIdenticalAcrossThreads) {
  const size_t kThreads[] = {1, 2, 4};
  size_t cases = 0;
  for (const TableConfig& cfg : kConfigs) {
    const std::vector<std::string> inserts = BuildInserts(cfg);
    const std::vector<WhereVariant> wheres = BuildWheres(cfg);
    std::vector<CaseSigs> baseline(wheres.size());
    for (size_t t = 0; t < 3; ++t) {
      auto db = MakeDiffDatabase(cfg, kThreads[t]);
      CreateAndFill(db.get(), cfg, inserts);
      auto table = db->catalog().GetTable("T");
      NLQ_ASSERT_OK(table.status());
      for (size_t w = 0; w < wheres.size(); ++w) {
        SCOPED_TRACE(StringPrintf(
            "seed=%llu threads=%zu kind=%s where=[%s]",
            static_cast<unsigned long long>(cfg.seed), kThreads[t],
            KindName(cfg.kind), wheres[w].suffix.c_str()));
        SufStats oracle;
        uint64_t surviving = 0;
        ComputeOracle(**table, cfg, wheres[w], &oracle, &surviving);
        CaseSigs sigs;
        RunCase(db.get(), cfg, wheres[w], oracle, surviving, &sigs);
        if (t == 0) {
          baseline[w] = sigs;
        } else {
          // Thread count must not change one bit of any path.
          EXPECT_EQ(sigs.row, baseline[w].row);
          EXPECT_EQ(sigs.col, baseline[w].col);
          EXPECT_EQ(sigs.sql, baseline[w].sql);
        }
        ++cases;
      }
    }
  }
  // The issue's floor: this suite is only meaningful at volume.
  EXPECT_GE(cases, 200u);
}

// The paper's second parameter-passing style (Figure 3's packed
// string) runs through pack_point + nlq_string instead of nlq_list;
// both must produce the identical packed statistics.
TEST(DifferentialQueryTest, StringStyleMatchesListStyle) {
  const size_t kPick[] = {4, 8, 18, 21};  // indexes into kConfigs
  for (const size_t idx : kPick) {
    const TableConfig& cfg = kConfigs[idx];
    SCOPED_TRACE(StringPrintf("seed=%llu",
                              static_cast<unsigned long long>(cfg.seed)));
    auto db = MakeDiffDatabase(cfg, /*num_threads=*/2);
    CreateAndFill(db.get(), cfg, BuildInserts(cfg));
    const std::vector<std::string> cols = stats::DimensionColumns(cfg.d);
    const std::string list_sql =
        stats::NlqUdfQuery("T", cols, cfg.kind, stats::ParamStyle::kList);
    const std::string string_sql =
        stats::NlqUdfQuery("T", cols, cfg.kind, stats::ParamStyle::kString);
    auto list_result = db->Execute(list_sql, Interpreted());
    auto string_result = db->Execute(string_sql, Interpreted());
    NLQ_ASSERT_OK(list_result.status());
    NLQ_ASSERT_OK(string_result.status());
    EXPECT_EQ(ResultSignature(*list_result), ResultSignature(*string_result));
  }
}

// Builtin SQL aggregates against the same oracle: COUNT is the
// surviving-row count, SUM/MIN/MAX over X1 are the oracle's L(0),
// Min(0), Max(0) — bit for bit, on both paths.
TEST(DifferentialQueryTest, BuiltinAggregatesMatchOracle) {
  for (const TableConfig& cfg : kConfigs) {
    if (cfg.nulls_in_dims || cfg.rows == 0) continue;
    SCOPED_TRACE(StringPrintf("seed=%llu",
                              static_cast<unsigned long long>(cfg.seed)));
    auto db = MakeDiffDatabase(cfg, /*num_threads=*/4);
    CreateAndFill(db.get(), cfg, BuildInserts(cfg));
    auto table = db->catalog().GetTable("T");
    NLQ_ASSERT_OK(table.status());
    const std::vector<WhereVariant> wheres = BuildWheres(cfg);
    for (const WhereVariant& where : wheres) {
      SufStats oracle;
      uint64_t surviving = 0;
      ComputeOracle(**table, cfg, where, &oracle, &surviving);
      if (surviving == 0) continue;
      const std::string sql =
          "SELECT count(*), sum(X1), min(X1), max(X1) FROM T" + where.suffix;
      auto columnar = db->Execute(sql);
      auto rowpath = db->Execute(sql, Interpreted());
      NLQ_ASSERT_OK(columnar.status());
      NLQ_ASSERT_OK(rowpath.status());
      EXPECT_EQ(ResultSignature(*columnar), ResultSignature(*rowpath)) << sql;
      EXPECT_EQ(columnar->At(0, 0).int_value(),
                static_cast<int64_t>(surviving));
      EXPECT_EQ(Bits(columnar->At(0, 1).double_value()), Bits(oracle.L(0)));
      EXPECT_EQ(Bits(columnar->At(0, 2).double_value()), Bits(oracle.Min(0)));
      EXPECT_EQ(Bits(columnar->At(0, 3).double_value()), Bits(oracle.Max(0)));
    }
  }
}

// ---------------------------------------------------------------------------
// Segment models (GROUP BY) and scoring projections through the
// compiled pipeline: the vectorized plans (VectorHashAggregate, and
// VectorProject over one-row model tables bound as constants) must
// match the forced interpreted row path and the external oracle bit
// for bit, across worker-thread counts {1, 2, 4}.
// ---------------------------------------------------------------------------

/// Per-group oracle mirroring the engine's structure exactly: one
/// partial map per morsel of the same grid, folded into the total in
/// morsel-index order (how both aggregate nodes merge their streams).
void ComputeGroupedOracle(const storage::PartitionedTable& table,
                          const TableConfig& cfg, int64_t modulus,
                          std::map<int64_t, SufStats>* out) {
  const std::vector<exec::Morsel> grid =
      exec::BuildMorselGrid(table, cfg.morsel_rows);
  std::map<int64_t, SufStats> total;
  std::vector<double> x(cfg.d);
  for (const exec::Morsel& m : grid) {
    std::map<int64_t, SufStats> part;
    storage::BatchScanner scanner =
        table.ScanPartitionBatches(m.partition, m.begin, m.end);
    storage::RowBatch batch;
    while (scanner.Next(&batch)) {
      for (size_t r = 0; r < batch.size(); ++r) {
        const Row& row = batch.row(r);
        bool null_dim = false;
        for (size_t a = 0; a < cfg.d; ++a) null_dim |= row[1 + a].is_null();
        if (null_dim) continue;
        for (size_t a = 0; a < cfg.d; ++a) x[a] = row[1 + a].double_value();
        const int64_t g = row[0].int_value() % modulus;
        auto it = part.find(g);
        if (it == part.end()) {
          it = part.emplace(g, SufStats(cfg.d, cfg.kind)).first;
        }
        it->second.Update(x.data());
      }
    }
    NLQ_ASSERT_OK(scanner.status());
    for (auto& [g, stats] : part) {
      auto it = total.find(g);
      if (it == total.end()) {
        total.emplace(g, stats);
      } else {
        NLQ_ASSERT_OK(it->second.Merge(stats));
      }
    }
  }
  *out = std::move(total);
}

TEST(DifferentialQueryTest, GroupedBuildsMatchOracleAcrossThreads) {
  const size_t kThreads[] = {1, 2, 4};
  const int64_t kModulus = 3;
  // NULL-free dimensions, layouts straddling batch/morsel boundaries.
  const size_t kPick[] = {4, 7, 11, 15};
  for (const size_t idx : kPick) {
    const TableConfig& cfg = kConfigs[idx];
    ASSERT_FALSE(cfg.nulls_in_dims);
    const std::vector<std::string> inserts = BuildInserts(cfg);
    const std::vector<std::string> cols = stats::DimensionColumns(cfg.d);
    const std::string udf_sql = stats::NlqUdfQueryGrouped(
        "T", cols, cfg.kind, stats::ParamStyle::kList, "i % 3");
    const std::string wide_sql =
        stats::NlqSqlQueryGrouped("T", cols, cfg.kind, "i % 3");
    std::string baseline;
    for (const size_t threads : kThreads) {
      SCOPED_TRACE(StringPrintf(
          "seed=%llu threads=%zu",
          static_cast<unsigned long long>(cfg.seed), threads));
      auto db = MakeDiffDatabase(cfg, threads);
      CreateAndFill(db.get(), cfg, inserts);

      // The default plan is the compiled pipeline; forced interpreted
      // is the row-path oracle. Identical output, including group
      // order.
      auto compiled = db->Execute(udf_sql);
      auto interpreted = db->Execute(udf_sql, Interpreted());
      NLQ_ASSERT_OK(compiled.status());
      NLQ_ASSERT_OK(interpreted.status());
      EXPECT_EQ(ResultSignature(*compiled), ResultSignature(*interpreted))
          << udf_sql;
      auto wide_compiled = db->Execute(wide_sql);
      auto wide_interpreted = db->Execute(wide_sql, Interpreted());
      NLQ_ASSERT_OK(wide_compiled.status());
      NLQ_ASSERT_OK(wide_interpreted.status());
      EXPECT_EQ(ResultSignature(*wide_compiled),
                ResultSignature(*wide_interpreted))
          << wide_sql;

      // Both statements really vectorize (and the oracle run doesn't).
      NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, db->Explain(udf_sql));
      EXPECT_NE(plan.find("VectorHashAggregate"), std::string::npos) << plan;
      NLQ_ASSERT_OK_AND_ASSIGN(std::string row_plan,
                               db->Explain(udf_sql, Interpreted()));
      EXPECT_EQ(row_plan.find("Vector"), std::string::npos) << row_plan;

      // Against the external per-group oracle, bit for bit.
      auto table = db->catalog().GetTable("T");
      NLQ_ASSERT_OK(table.status());
      std::map<int64_t, SufStats> oracle;
      ComputeGroupedOracle(**table, cfg, kModulus, &oracle);
      ASSERT_EQ(compiled->num_rows(), oracle.size());
      for (size_t r = 0; r < compiled->num_rows(); ++r) {
        const int64_t g = compiled->At(r, 0).int_value();
        ASSERT_TRUE(oracle.count(g)) << "unexpected group " << g;
        NLQ_ASSERT_OK_AND_ASSIGN(
            SufStats decoded,
            SufStats::FromPackedString(compiled->At(r, 1).string_value()));
        EXPECT_EQ(SufSignature(decoded, /*with_minmax=*/true),
                  SufSignature(oracle.at(g), /*with_minmax=*/true))
            << "group " << g;
      }
      for (size_t r = 0; r < wide_compiled->num_rows(); ++r) {
        const int64_t g = wide_compiled->At(r, 0).int_value();
        NLQ_ASSERT_OK_AND_ASSIGN(
            SufStats from_sql,
            stats::SufStatsFromWideRow(*wide_compiled, r, cfg.d, cfg.kind,
                                       /*first_col=*/1));
        EXPECT_EQ(SufSignature(from_sql, /*with_minmax=*/false),
                  SufSignature(oracle.at(g), /*with_minmax=*/false))
            << "group " << g;
      }

      // Thread count must not change one bit of either path.
      const std::string sig =
          ResultSignature(*compiled) + ResultSignature(*wide_compiled);
      if (baseline.empty()) {
        baseline = sig;
      } else {
        EXPECT_EQ(sig, baseline);
      }
    }
  }
}

// The paper's wide SQL build where the dimensions hold NULLs: each
// SUM skips its own NULL lanes (sum(X1 * X2) skips a row where either
// factor is NULL; sum(1.0) counts every row), which is not the UDFs'
// skip-row policy, so the interpreted row path is the oracle here. The
// vector plan folds every term through the aggregate's one fused
// program, whose NULL handling must match per output, per batch and
// per group, at every thread count.
TEST(DifferentialQueryTest, WideSqlWithNullDimensionsMatchesInterpreted) {
  const size_t kThreads[] = {1, 2, 4};
  size_t cases = 0;
  for (const TableConfig& cfg : kConfigs) {
    if (!cfg.nulls_in_dims) continue;
    const std::vector<std::string> inserts = BuildInserts(cfg);
    const std::vector<std::string> cols = stats::DimensionColumns(cfg.d);
    std::vector<std::string> statements;
    for (const WhereVariant& where : BuildWheres(cfg)) {
      statements.push_back(stats::NlqSqlQuery("T", cols, cfg.kind) +
                           where.suffix);
    }
    statements.push_back(
        stats::NlqSqlQueryGrouped("T", cols, cfg.kind, "i % 3"));
    std::vector<std::string> baseline(statements.size());
    for (const size_t threads : kThreads) {
      SCOPED_TRACE(StringPrintf(
          "seed=%llu threads=%zu",
          static_cast<unsigned long long>(cfg.seed), threads));
      auto db = MakeDiffDatabase(cfg, threads);
      CreateAndFill(db.get(), cfg, inserts);
      for (size_t q = 0; q < statements.size(); ++q) {
        const std::string& sql = statements[q];
        NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, db->Explain(sql));
        EXPECT_NE(plan.find("VectorHashAggregate"), std::string::npos)
            << plan;
        auto compiled = db->Execute(sql);
        auto interpreted = db->Execute(sql, Interpreted());
        NLQ_ASSERT_OK(compiled.status());
        NLQ_ASSERT_OK(interpreted.status());
        const std::string sig = ResultSignature(*compiled);
        EXPECT_EQ(sig, ResultSignature(*interpreted)) << sql;
        if (baseline[q].empty()) {
          baseline[q] = sig;
        } else {
          EXPECT_EQ(sig, baseline[q]) << sql;
        }
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 80u);
}

/// Model tables for the six scoring statements over T(i, X1..Xd):
/// BETA(b0..bd), MU(X1..Xd), LAMBDA(j, X1..Xd) with k rows and
/// C(j, X1..Xd) with k rows, all exact dyadic values.
std::vector<std::string> ModelTableStatements(size_t d, size_t k) {
  std::vector<std::string> out;
  std::string create = "CREATE TABLE BETA (b0 DOUBLE";
  std::string insert = "INSERT INTO BETA VALUES (0.5";
  for (size_t a = 1; a <= d; ++a) {
    create += StringPrintf(", b%zu DOUBLE", a);
    insert += StringPrintf(", %.8f", 0.25 * static_cast<double>(a));
  }
  out.push_back(create + ")");
  out.push_back(insert + ")");
  std::string cols;
  for (size_t a = 1; a <= d; ++a) cols += StringPrintf(", X%zu DOUBLE", a);
  out.push_back("CREATE TABLE MU (" + cols.substr(2) + ")");
  std::string mu = "INSERT INTO MU VALUES (";
  for (size_t a = 1; a <= d; ++a) {
    mu += StringPrintf("%s%.8f", a > 1 ? ", " : "",
                       0.125 * static_cast<double>(a) - 1.0);
  }
  out.push_back(mu + ")");
  for (const char* table : {"LAMBDA", "C"}) {
    out.push_back(StringPrintf("CREATE TABLE %s (j BIGINT", table) + cols +
                  ")");
    std::string rows = StringPrintf("INSERT INTO %s VALUES ", table);
    for (size_t j = 1; j <= k; ++j) {
      rows += StringPrintf("%s(%zu", j > 1 ? ", " : "", j);
      for (size_t a = 1; a <= d; ++a) {
        rows += StringPrintf(", %.8f", static_cast<double>(j) * 0.5 -
                                           static_cast<double>(a) / 16.0);
      }
      rows += ")";
    }
    out.push_back(rows);
  }
  return out;
}

TEST(DifferentialQueryTest, ScoringProjectionsMatchAcrossThreads) {
  const size_t kThreads[] = {1, 2, 4};
  const size_t kPick[] = {4, 8, 15, 21};
  const size_t kComponents = 2;
  for (const size_t idx : kPick) {
    const TableConfig& cfg = kConfigs[idx];
    const std::vector<std::string> inserts = BuildInserts(cfg);
    const size_t d = cfg.d;
    // The six scoring statements of the paper's Table 4 (linreg, PCA
    // and k-means, each in UDF and SQL style; k-means SQL is two
    // steps, the second reading the first's materialized distances),
    // plus a join-free projection.
    const std::vector<std::string> statements = {
        stats::LinRegScoreUdfQuery("T", "BETA", d),
        stats::LinRegScoreSqlQuery("T", "BETA", d),
        stats::PcaScoreUdfQuery("T", "MU", "LAMBDA", d, kComponents),
        stats::PcaScoreSqlQuery("T", "MU", "LAMBDA", d, kComponents),
        stats::KMeansScoreUdfQuery("T", "C", d, kComponents),
        stats::KMeansDistancesSqlQuery("T", "C", d, kComponents),
        stats::KMeansAssignSqlQuery("DIST", kComponents),
        "SELECT i, X1 * X1 + 0.5 FROM T",
    };
    std::string baseline;
    for (const size_t threads : kThreads) {
      SCOPED_TRACE(StringPrintf(
          "seed=%llu threads=%zu",
          static_cast<unsigned long long>(cfg.seed), threads));
      auto db = MakeDiffDatabase(cfg, threads);
      CreateAndFill(db.get(), cfg, inserts);
      for (const std::string& sql : ModelTableStatements(d, kComponents)) {
        NLQ_ASSERT_OK(db->ExecuteCommand(sql));
      }
      NLQ_ASSERT_OK(db->ExecuteCommand("CREATE TABLE DIST AS " +
                                       statements[5]));

      std::string sig;
      for (const std::string& sql : statements) {
        // Every one-row model table binds as constants: no cross join
        // is left, and the whole statement runs the vector pipeline,
        // scalar UDF calls included. The oracle keeps the row path.
        NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, db->Explain(sql));
        EXPECT_NE(plan.find("VectorProject"), std::string::npos)
            << sql << "\n" << plan;
        EXPECT_EQ(plan.find("CrossJoin"), std::string::npos)
            << sql << "\n" << plan;
        EXPECT_EQ(plan.find("└─ Project"), std::string::npos)
            << sql << "\n" << plan;

        auto compiled = db->Execute(sql);
        auto interpreted = db->Execute(sql, Interpreted());
        NLQ_ASSERT_OK(compiled.status());
        NLQ_ASSERT_OK(interpreted.status());
        EXPECT_EQ(compiled->num_rows(), cfg.rows) << sql;
        EXPECT_EQ(ResultSignature(*compiled), ResultSignature(*interpreted))
            << sql;
        sig += ResultSignature(*compiled);
      }
      if (baseline.empty()) {
        baseline = sig;
      } else {
        EXPECT_EQ(sig, baseline);
      }
    }
  }
}

/// Runs `sql` compiled and interpreted, expects bit-identical results
/// and returns the compiled one.
ResultSet ExpectPathsAgree(Database* db, const std::string& sql) {
  auto compiled = db->Execute(sql);
  auto interpreted = db->Execute(sql, Interpreted());
  EXPECT_TRUE(compiled.ok()) << sql << ": " << compiled.status().ToString();
  EXPECT_TRUE(interpreted.ok())
      << sql << ": " << interpreted.status().ToString();
  if (!compiled.ok() || !interpreted.ok()) return ResultSet();
  EXPECT_EQ(ResultSignature(*compiled), ResultSignature(*interpreted)) << sql;
  return std::move(compiled).value();
}

TEST(DifferentialQueryTest, ModelTableJoinEdgeCases) {
  const TableConfig& cfg = kConfigs[8];  // 1025 rows, NULLs in PAD only
  const std::vector<std::string> inserts = BuildInserts(cfg);
  for (const size_t threads : {1, 4}) {
    SCOPED_TRACE(StringPrintf("threads=%zu", threads));
    auto db = MakeDiffDatabase(cfg, threads);
    CreateAndFill(db.get(), cfg, inserts);
    NLQ_ASSERT_OK(db->ExecuteCommand(
        "CREATE TABLE M (j BIGINT, c DOUBLE, w BIGINT)"));
    NLQ_ASSERT_OK(db->ExecuteCommand(
        "INSERT INTO M VALUES (1, 0.75, 3), (2, NULL, -2), (3, 2.5, 7)"));

    // 0, 1 and 2 rows left after pushdown.
    const std::string proj = "SELECT i, X1 * m.c + X2, i * m.w FROM T, M m";
    NLQ_ASSERT_OK_AND_ASSIGN(std::string empty_plan,
                             db->Explain(proj + " WHERE m.j = 9"));
    EXPECT_NE(empty_plan.find("ConstantInput (M AS m: 0 rows after "
                              "pushdown: (m.j = 9))"),
              std::string::npos)
        << empty_plan;
    EXPECT_EQ(ExpectPathsAgree(db.get(), proj + " WHERE m.j = 9").num_rows(),
              0u);
    const ResultSet empty_agg = ExpectPathsAgree(
        db.get(), "SELECT count(*), sum(X1 * m.c) FROM T, M m WHERE m.j = 9");
    ASSERT_EQ(empty_agg.num_rows(), 1u);
    EXPECT_EQ(empty_agg.At(0, 0).int_value(), 0);
    EXPECT_TRUE(empty_agg.At(0, 1).is_null());

    NLQ_ASSERT_OK_AND_ASSIGN(std::string one_plan,
                             db->Explain(proj + " WHERE m.j = 1"));
    EXPECT_NE(one_plan.find("VectorProject"), std::string::npos) << one_plan;
    EXPECT_EQ(ExpectPathsAgree(db.get(), proj + " WHERE m.j = 1").num_rows(),
              cfg.rows);

    // Two rows stay a CrossJoin, joined as column spans (the NULL
    // coefficient and BIGINT column ride along as span columns).
    NLQ_ASSERT_OK_AND_ASSIGN(std::string two_plan,
                             db->Explain(proj + " WHERE m.j >= 2"));
    EXPECT_NE(two_plan.find("CrossJoin (M AS m: materialized, 2 rows"),
              std::string::npos)
        << two_plan;
    EXPECT_NE(two_plan.find("VectorProject"), std::string::npos) << two_plan;
    EXPECT_EQ(ExpectPathsAgree(db.get(), proj + " WHERE m.j >= 2").num_rows(),
              2 * cfg.rows);
    // Multi-row joins in every pipeline shape: two joined tables, a
    // constant table next to a joined one, a filter across both sides,
    // scalar UDFs, and grouped and global aggregates.
    EXPECT_EQ(ExpectPathsAgree(db.get(),
                               "SELECT i, X1 * a.c + b.w, a.j * 10 + b.j "
                               "FROM T, M a, M b WHERE a.j <= 2 AND b.j >= 2")
                  .num_rows(),
              4 * cfg.rows);
    EXPECT_EQ(ExpectPathsAgree(db.get(),
                               "SELECT i, X1 * a.c + b.w FROM T, M a, M b "
                               "WHERE a.j = 1")
                  .num_rows(),
              3 * cfg.rows);
    ExpectPathsAgree(db.get(), "SELECT i, X2, m.j FROM T, M m WHERE X1 > m.c");
    ExpectPathsAgree(db.get(),
                     "SELECT i, kmeansdistance(X1, X2, m.c, m.w), "
                     "clusterscore(m.c, X1, X2) FROM T, M m");
    ExpectPathsAgree(db.get(),
                     "SELECT i % 3, count(*), sum(X1 * m.c), sum(m.w), "
                     "min(X2 + m.j) FROM T, M m WHERE m.j >= 2 "
                     "GROUP BY i % 3");
    ExpectPathsAgree(db.get(),
                     "SELECT count(*), sum(X1 * m.c), "
                     "nlq_list('triang', X1, m.w) FROM T, M m");

    // A NULL coefficient: NULL through SQL arithmetic, 0.0 through the
    // UDF's Datum::AsDouble — both exactly as the interpreter does.
    const ResultSet null_coef = ExpectPathsAgree(
        db.get(),
        "SELECT i, X1 * m.c, linearregscore(X1, X2, m.w, m.c, m.c), "
        "kmeansdistance(X1, X2, m.c, m.w), clusterscore(m.c, X1) "
        "FROM T, M m WHERE m.j = 2");
    ASSERT_EQ(null_coef.num_rows(), cfg.rows);
    EXPECT_TRUE(null_coef.At(0, 1).is_null());
    EXPECT_FALSE(null_coef.At(0, 2).is_null());

    // BIGINT model columns: integer arithmetic stays integer, and an
    // INT64 argument takes the UDF's Invoke-per-row span loop.
    ExpectPathsAgree(db.get(),
                     "SELECT i + m.w, i * m.j, X1 * m.w, "
                     "kmeansdistance(X1, X2, m.w, m.j) "
                     "FROM T, M m WHERE m.j = 3");

    // Aggregates over a constant-bound model table.
    ExpectPathsAgree(db.get(),
                     "SELECT sum(X1 * m.c), nlq_list('triang', X1, X2) "
                     "FROM T, M m WHERE m.j = 1");
    ExpectPathsAgree(db.get(),
                     "SELECT i % 3, sum(linearregscore(X1, m.c, m.c)) "
                     "FROM T, M m WHERE m.j = 3 GROUP BY i % 3");

    // A model table rewritten between two statements: the second
    // statement binds the new row, never the old constants (the
    // compiled program cache is keyed by them).
    const std::string score = "SELECT i, X1 * b.c FROM T, B b";
    NLQ_ASSERT_OK(db->ExecuteCommand("CREATE TABLE B (c DOUBLE)"));
    NLQ_ASSERT_OK(db->ExecuteCommand("INSERT INTO B VALUES (2)"));
    const ResultSet before = ExpectPathsAgree(db.get(), score);
    NLQ_ASSERT_OK(db->ExecuteCommand("DROP TABLE B"));
    NLQ_ASSERT_OK(db->ExecuteCommand("CREATE TABLE B (c DOUBLE)"));
    NLQ_ASSERT_OK(db->ExecuteCommand("INSERT INTO B VALUES (-3)"));
    const ResultSet after = ExpectPathsAgree(db.get(), score);
    ASSERT_EQ(before.num_rows(), after.num_rows());
    for (size_t r = 0; r < after.num_rows(); ++r) {
      const Datum& x = after.At(r, 1);
      if (before.At(r, 1).is_null()) {
        EXPECT_TRUE(x.is_null());
        continue;
      }
      EXPECT_EQ(x.double_value(), before.At(r, 1).double_value() / 2 * -3)
          << "row " << r;
    }
    // A second row turns the same statement back into a cross join.
    NLQ_ASSERT_OK(db->ExecuteCommand("INSERT INTO B VALUES (5)"));
    EXPECT_EQ(ExpectPathsAgree(db.get(), score).num_rows(), 2 * cfg.rows);
  }
}

/// `count` rows of F(i, b, x1, x2, x3) starting at id `first`: exact
/// dyadic doubles, a BIGINT column, NULLs in b and x2.
std::string MixedRows(size_t first, size_t count) {
  std::string insert = "INSERT INTO F VALUES ";
  for (size_t r = first; r < first + count; ++r) {
    if (r > first) insert += ", ";
    insert += StringPrintf("(%zu, ", r);
    insert += r % 5 == 0 ? std::string("NULL")
                         : StringPrintf("%lld", static_cast<long long>(
                                                    (r * 7) % 23) - 11);
    insert += StringPrintf(", %.6f, ", static_cast<double>((r * 37) % 64) / 16 - 2);
    insert += r % 7 == 0 ? std::string("NULL")
                         : StringPrintf("%.6f", static_cast<double>(
                                                    (r * 13) % 40) / 8 - 2.5);
    insert += StringPrintf(", %.6f)", static_cast<double>((r * 11) % 32) / 8 - 2);
  }
  return insert;
}

// A global aggregate is the vector hash aggregate's zero-key group.
// One statement mixes an n,L,Q call on column spans (BIGINT widening,
// skip-row NULL compaction), expression-argument builtins and
// COUNT(*) under one scan-pushed and one compiled WHERE conjunct. Rows
// sit in insertion order within each partition, so the pushed
// `i >= 600` empties every partition's leading morsels whole. Bit for
// bit against the interpreted row path at threads {1, 2, 4}, with
// views off and on; with views on, the view-shaped statement (pushed
// conjunct, bare columns) is served from the registry before and
// after an append and must equal the rescan.
TEST(DifferentialQueryTest, ZeroKeyGroupMixMatchesInterpretedAcrossThreads) {
  const std::string kMixed =
      "SELECT nlq_list('triang', x1, x2, b), sum(x1 * x2), sum(b * 2), "
      "count(*), min(x2), max(b) FROM F WHERE i >= 600 AND x1 + x3 > -1.5";
  const std::string kViewShape =
      "SELECT nlq_list('triang', x1, x2, b), sum(b), count(*), min(x2) "
      "FROM F WHERE i >= 600";
  std::string baseline;
  for (const size_t threads : {1, 2, 4}) {
    for (const bool views : {false, true}) {
      SCOPED_TRACE(StringPrintf("threads=%zu views=%d", threads, views));
      DatabaseOptions options;
      options.num_partitions = 3;
      options.num_threads = threads;
      options.morsel_rows = 32;
      options.enable_view_maintenance = views;
      Database db(options);
      NLQ_ASSERT_OK(stats::RegisterAllStatsUdfs(&db.udfs()));
      NLQ_ASSERT_OK(db.ExecuteCommand(
          "CREATE TABLE F (i BIGINT, b BIGINT, x1 DOUBLE, x2 DOUBLE, "
          "x3 DOUBLE)"));
      for (size_t first = 0; first < 1000; first += 250) {
        NLQ_ASSERT_OK(db.ExecuteCommand(MixedRows(first, 250)));
      }

      NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, db.Explain(kMixed));
      EXPECT_NE(plan.find("VectorHashAggregate (0 group key(s)"),
                std::string::npos)
          << plan;
      EXPECT_NE(plan.find("(1 on column spans)"), std::string::npos) << plan;
      EXPECT_NE(plan.find("VectorFilter (((x1 + x3) > -(1.5))"),
                std::string::npos)
          << plan;
      EXPECT_NE(plan.find("filter: (i >= 600)"), std::string::npos) << plan;

      std::string sig;
      for (const std::string& sql : {kMixed, kViewShape}) {
        sig += ResultSignature(ExpectPathsAgree(&db, sql));
      }
      if (views) {
        // The run above seeded the view; now it serves, then refreshes
        // over an append.
        NLQ_ASSERT_OK_AND_ASSIGN(plan, db.Explain(kViewShape));
        EXPECT_NE(plan.find("VectorHashAggregate (0 group key(s)"),
                  std::string::npos)
            << plan;
        EXPECT_NE(plan.find("view=fresh delta=0"), std::string::npos) << plan;
      }
      NLQ_ASSERT_OK(db.ExecuteCommand(MixedRows(1000, 100)));
      if (views) {
        NLQ_ASSERT_OK_AND_ASSIGN(plan, db.Explain(kViewShape));
        EXPECT_NE(plan.find("view=fresh delta=100"), std::string::npos)
            << plan;
      }
      for (const std::string& sql : {kMixed, kViewShape}) {
        sig += ResultSignature(ExpectPathsAgree(&db, sql));
      }
      if (baseline.empty()) {
        baseline = sig;
      } else {
        EXPECT_EQ(sig, baseline);
      }
    }
  }
}

}  // namespace
}  // namespace nlq::engine
