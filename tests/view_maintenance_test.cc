// Maintained sufficient-statistic views (DESIGN.md §13): an eligible
// global n,L,Q aggregate keeps per-morsel partials registered across
// statements, so a model rebuild after appending k rows accumulates
// only those k rows (O(delta)) instead of rescanning all n. These
// tests pin the three contracts the feature stands on:
//   1. bit-identity — the view-backed result equals the plain
//      columnar rescan exactly, across worker-thread counts {1,2,4}
//      and partition layouts {1,2,4,7}, through repeated append +
//      refresh rounds that extend tail morsels mid-stream;
//   2. O(delta) work — a refresh after k appended rows accumulates k
//      rows (view_delta_rows) and decodes a small suffix of pages,
//      not the whole table;
//   3. safe degradation — staleness (Clear/spill/DROP), memory
//      pressure, and eviction all fall back to a full rescan with the
//      registry state dropped, never a wrong or missing result;
//   4. concurrent serves — SELECTs that serve and refresh one view at
//      the same time through Database::Execute each return the
//      rescan's bits.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "engine/database.h"
#include "engine/exec/view_registry.h"
#include "stats/sqlgen.h"
#include "storage/partitioned_table.h"
#include "tests/test_util.h"

namespace nlq::engine {
namespace {

using storage::Datum;
using storage::Row;

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

std::unique_ptr<Database> MakeViewDb(size_t partitions, size_t threads,
                                     bool views, uint64_t morsel_rows = 256) {
  DatabaseOptions options;
  options.num_partitions = partitions;
  options.num_threads = threads;
  options.morsel_rows = morsel_rows;
  options.enable_view_maintenance = views;
  auto db = std::make_unique<Database>(options);
  EXPECT_TRUE(stats::RegisterAllStatsUdfs(&db->udfs()).ok());
  return db;
}

/// Deterministic dyadic cell: a pure function of (row, column), so
/// paired databases filled over different statement sequences still
/// hold identical rows.
double CellValue(size_t r, size_t c) {
  const int64_t k = static_cast<int64_t>((r * 37 + c * 131 + 7) % 4096) - 2048;
  return static_cast<double>(k) / 256.0;
}

/// Appends rows [begin, end) of the deterministic stream to T(i, X1, X2).
void AppendRows(Database* db, size_t begin, size_t end) {
  std::string insert;
  for (size_t r = begin; r < end; ++r) {
    if (insert.empty()) insert = "INSERT INTO T VALUES ";
    insert += StringPrintf("(%zu, %.8f, %.8f)", r, CellValue(r, 1),
                           CellValue(r, 2));
    if ((r + 1 - begin) % 128 == 0 || r + 1 == end) {
      NLQ_ASSERT_OK(db->ExecuteCommand(insert));
      insert.clear();
    } else {
      insert += ", ";
    }
  }
}

void CreateT(Database* db) {
  NLQ_ASSERT_OK(
      db->ExecuteCommand("CREATE TABLE T (i BIGINT, X1 DOUBLE, X2 DOUBLE)"));
}

const char* kQueries[] = {
    "SELECT nlq_list('triang', X1, X2) FROM T",
    "SELECT nlq_list('full', X1, X2) FROM T WHERE X1 > -4.0",
    "SELECT nlq_list('diag', X2) FROM T WHERE i < 700",
    "SELECT count(*), sum(X1), min(X1), max(X2) FROM T",
};

// ---------------------------------------------------------------------------
// 1. Bit-identity across threads and partitions, through append rounds
// ---------------------------------------------------------------------------

TEST(ViewMaintenanceTest, BitIdenticalToRescanAcrossThreadsAndPartitions) {
  const size_t kPartitions[] = {1, 2, 4, 7};
  const size_t kThreads[] = {1, 2, 4};
  // Append bursts chosen to extend tail morsels mid-stream (morsel
  // size 256, initial fill not a multiple of it) and to cross morsel
  // boundaries on the second round.
  const size_t kInitial = 777;
  const size_t kBurst1 = 123;
  const size_t kBurst2 = 300;
  for (const size_t parts : kPartitions) {
    // Per-query signatures of the first thread count; later thread
    // counts must reproduce them bit for bit.
    std::vector<std::vector<std::string>> baseline;
    for (const size_t threads : kThreads) {
      SCOPED_TRACE(StringPrintf("partitions=%zu threads=%zu", parts, threads));
      auto vdb = MakeViewDb(parts, threads, /*views=*/true);
      auto pdb = MakeViewDb(parts, threads, /*views=*/false);
      CreateT(vdb.get());
      CreateT(pdb.get());
      AppendRows(vdb.get(), 0, kInitial);
      AppendRows(pdb.get(), 0, kInitial);

      std::vector<std::vector<std::string>> sigs;
      const size_t bounds[] = {kInitial, kInitial + kBurst1,
                               kInitial + kBurst1 + kBurst2};
      size_t filled = kInitial;
      for (const size_t bound : bounds) {
        AppendRows(vdb.get(), filled, bound);
        AppendRows(pdb.get(), filled, bound);
        filled = bound;
        std::vector<std::string> round;
        for (const char* sql : kQueries) {
          auto viewed = vdb->Execute(sql);
          auto rescan = pdb->Execute(sql);
          NLQ_ASSERT_OK(viewed.status());
          NLQ_ASSERT_OK(rescan.status());
          EXPECT_EQ(ResultSignature(*viewed), ResultSignature(*rescan))
              << sql;
          round.push_back(ResultSignature(*viewed));
        }
        sigs.push_back(std::move(round));
      }

      // The statements really served the registry: every query shape
      // is registered and the refresh rounds were hits.
      ASSERT_NE(vdb->view_registry(), nullptr);
      EXPECT_EQ(vdb->view_registry()->num_views(),
                sizeof(kQueries) / sizeof(kQueries[0]));
      ASSERT_TRUE(vdb->last_query_stats().has_value());
      EXPECT_EQ(vdb->last_query_stats()->view_hits, 1u);

      if (baseline.empty()) {
        baseline = sigs;
      } else {
        // Thread count must not change one bit of any round.
        EXPECT_EQ(sigs, baseline);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 2. O(delta) refresh work
// ---------------------------------------------------------------------------

TEST(ViewMaintenanceTest, RefreshAfterAppendDoesDeltaWorkOnly) {
  auto db = MakeViewDb(/*partitions=*/4, /*threads=*/4, /*views=*/true,
                       /*morsel_rows=*/1024);
  CreateT(db.get());
  const size_t kN = 20000;
  const size_t kDelta = 64;
  AppendRows(db.get(), 0, kN);
  const char* kSql = "SELECT nlq_list('triang', X1, X2) FROM T";

  // Seeding statement: a full accumulate, counted as a miss/rebuild.
  NLQ_ASSERT_OK(db->Execute(kSql).status());
  ASSERT_TRUE(db->last_query_stats().has_value());
  const auto seed_stats = *db->last_query_stats();
  EXPECT_EQ(seed_stats.view_misses, 1u);
  EXPECT_EQ(seed_stats.view_rebuilds, 1u);
  EXPECT_EQ(seed_stats.view_hits, 0u);
  ASSERT_GT(seed_stats.pages_decoded, 0u);
  EXPECT_GT(db->view_registry()->state_bytes(), 0u);

  // Refresh after k appended rows: the accumulate visits exactly the
  // k new rows and decodes a small page suffix, not the table.
  AppendRows(db.get(), kN, kN + kDelta);
  NLQ_ASSERT_OK(db->Execute(kSql).status());
  const auto delta_stats = *db->last_query_stats();
  EXPECT_EQ(delta_stats.view_hits, 1u);
  EXPECT_EQ(delta_stats.view_misses, 0u);
  EXPECT_EQ(delta_stats.view_rebuilds, 0u);
  EXPECT_EQ(delta_stats.view_delta_rows, kDelta);
  EXPECT_LT(delta_stats.pages_decoded, seed_stats.pages_decoded / 4)
      << "refresh decoded " << delta_stats.pages_decoded << " of "
      << seed_stats.pages_decoded << " pages";
  // The delta is read through the plan's ColumnarScan streams, so
  // EXPLAIN ANALYZE counts it on that operator like any scan.
  bool saw_scan = false;
  for (const auto& op : delta_stats.operators) {
    if (op.name != "ColumnarScan") continue;
    saw_scan = true;
    EXPECT_EQ(op.rows_out, kDelta);
  }
  EXPECT_TRUE(saw_scan);

  // A second refresh with nothing appended is pure merge: zero rows,
  // zero pages.
  NLQ_ASSERT_OK(db->Execute(kSql).status());
  const auto idle_stats = *db->last_query_stats();
  EXPECT_EQ(idle_stats.view_hits, 1u);
  EXPECT_EQ(idle_stats.view_delta_rows, 0u);
  EXPECT_EQ(idle_stats.pages_decoded, 0u);
}

// ---------------------------------------------------------------------------
// 3. EXPLAIN annotations and staleness transitions
// ---------------------------------------------------------------------------

TEST(ViewMaintenanceTest, ExplainTracksFreshStaleIneligible) {
  auto db = MakeViewDb(/*partitions=*/2, /*threads=*/2, /*views=*/true);
  CreateT(db.get());
  AppendRows(db.get(), 0, 500);
  const char* kSql = "SELECT nlq_list('triang', X1, X2) FROM T";

  // Unregistered: the plan seeds. A view-served aggregate plans the
  // same zero-key VectorHashAggregate over a ColumnarScan as with views
  // off; only its annotation says the view serves it.
  NLQ_ASSERT_OK_AND_ASSIGN(std::string plan, db->Explain(kSql));
  EXPECT_NE(plan.find("VectorHashAggregate (0 group key(s)"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("ColumnarScan"), std::string::npos) << plan;
  EXPECT_NE(plan.find("view=stale (seeding 500 row(s))"), std::string::npos)
      << plan;

  // Seeded: fresh with zero delta, then with the appended delta.
  NLQ_ASSERT_OK(db->Execute(kSql).status());
  NLQ_ASSERT_OK_AND_ASSIGN(plan, db->Explain(kSql));
  EXPECT_NE(plan.find("view=fresh delta=0 of 500 row(s)"), std::string::npos)
      << plan;
  AppendRows(db.get(), 500, 505);
  NLQ_ASSERT_OK_AND_ASSIGN(plan, db->Explain(kSql));
  EXPECT_NE(plan.find("view=fresh delta=5 of 505 row(s)"), std::string::npos)
      << plan;

  // A destructive mutation (Clear bumps the partition's epoch): the
  // first probe observes staleness, drops the entry and plans the
  // normal pipeline; the next statement reseeds.
  NLQ_ASSERT_OK_AND_ASSIGN(storage::PartitionedTable * table,
                           db->catalog().GetTable("T"));
  table->partition(0).Clear();
  NLQ_ASSERT_OK_AND_ASSIGN(plan, db->Explain(kSql));
  EXPECT_NE(plan.find("VectorHashAggregate"), std::string::npos) << plan;
  EXPECT_NE(plan.find("ColumnarScan"), std::string::npos) << plan;
  EXPECT_NE(plan.find("view=stale)"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("view=stale (seeding"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("view=fresh"), std::string::npos) << plan;
  NLQ_ASSERT_OK_AND_ASSIGN(plan, db->Explain(kSql));
  EXPECT_NE(plan.find("view=stale (seeding"), std::string::npos) << plan;

  // Spilled tables are ineligible (their scans stream through the
  // buffer pool; there is no append path to maintain).
  NLQ_ASSERT_OK(db->SpillTable("T"));
  NLQ_ASSERT_OK_AND_ASSIGN(plan, db->Explain(kSql));
  EXPECT_NE(plan.find("view=ineligible (spilled)"), std::string::npos) << plan;
  EXPECT_EQ(db->view_registry()->num_views(), 0u);

  // Grouped n,L,Q aggregates are recognized but not maintained.
  const std::string grouped = stats::NlqUdfQueryGrouped(
      "T", {"X1", "X2"}, stats::MatrixKind::kLowerTriangular,
      stats::ParamStyle::kList, "i % 3");
  NLQ_ASSERT_OK_AND_ASSIGN(plan, db->Explain(grouped));
  EXPECT_NE(plan.find("view=ineligible (group-by)"), std::string::npos)
      << plan;
}

TEST(ViewMaintenanceTest, DropTableInvalidatesEagerly) {
  auto db = MakeViewDb(/*partitions=*/4, /*threads=*/2, /*views=*/true);
  CreateT(db.get());
  AppendRows(db.get(), 0, 300);
  const char* kSql = "SELECT nlq_list('diag', X1) FROM T";
  NLQ_ASSERT_OK(db->Execute(kSql).status());
  EXPECT_EQ(db->view_registry()->num_views(), 1u);

  // DROP must drop the view too: a recreated table with different
  // rows can never alias the old entry.
  NLQ_ASSERT_OK(db->ExecuteCommand("DROP TABLE T"));
  EXPECT_EQ(db->view_registry()->num_views(), 0u);
  CreateT(db.get());
  AppendRows(db.get(), 1000, 1200);  // different rows under the same name

  auto pdb = MakeViewDb(/*partitions=*/4, /*threads=*/2, /*views=*/false);
  CreateT(pdb.get());
  AppendRows(pdb.get(), 1000, 1200);
  auto viewed = db->Execute(kSql);
  auto rescan = pdb->Execute(kSql);
  NLQ_ASSERT_OK(viewed.status());
  NLQ_ASSERT_OK(rescan.status());
  EXPECT_EQ(ResultSignature(*viewed), ResultSignature(*rescan));
}

// ---------------------------------------------------------------------------
// 4. Degradation under memory pressure, and the view cap
// ---------------------------------------------------------------------------

TEST(ViewMaintenanceTest, TinyViewMemoryBudgetDegradesToRescan) {
  DatabaseOptions options;
  options.num_partitions = 4;
  options.num_threads = 2;
  options.enable_view_maintenance = true;
  options.view_memory_limit = 1024;  // far below one UDF heap segment
  auto db = std::make_unique<Database>(options);
  NLQ_ASSERT_OK(stats::RegisterAllStatsUdfs(&db->udfs()));
  CreateT(db.get());
  AppendRows(db.get(), 0, 400);

  auto pdb = MakeViewDb(/*partitions=*/4, /*threads=*/2, /*views=*/false);
  CreateT(pdb.get());
  AppendRows(pdb.get(), 0, 400);

  // Seeding cannot fit the budget: the statement must still succeed —
  // degraded to a plain rescan — with the poisoned entry dropped.
  const char* kSql = "SELECT nlq_list('full', X1, X2) FROM T";
  auto viewed = db->Execute(kSql);
  auto rescan = pdb->Execute(kSql);
  NLQ_ASSERT_OK(viewed.status());
  NLQ_ASSERT_OK(rescan.status());
  EXPECT_EQ(ResultSignature(*viewed), ResultSignature(*rescan));
  EXPECT_EQ(db->view_registry()->num_views(), 0u);
  EXPECT_EQ(db->view_registry()->state_bytes(), 0u);
  ASSERT_TRUE(db->last_query_stats().has_value());
  EXPECT_EQ(db->last_query_stats()->view_rebuilds, 1u);
}

TEST(ViewMaintenanceTest, ViewCapEvictsLeastRecentlyServed) {
  DatabaseOptions options;
  options.num_partitions = 2;
  options.num_threads = 2;
  options.enable_view_maintenance = true;
  options.max_maintained_views = 2;
  auto db = std::make_unique<Database>(options);
  NLQ_ASSERT_OK(stats::RegisterAllStatsUdfs(&db->udfs()));
  CreateT(db.get());
  AppendRows(db.get(), 0, 200);

  NLQ_ASSERT_OK(db->Execute("SELECT nlq_list('diag', X1) FROM T").status());
  NLQ_ASSERT_OK(db->Execute("SELECT nlq_list('diag', X2) FROM T").status());
  NLQ_ASSERT_OK(
      db->Execute("SELECT nlq_list('triang', X1, X2) FROM T").status());
  EXPECT_EQ(db->view_registry()->num_views(), 2u);

  // The survivor entries still serve fresh hits.
  NLQ_ASSERT_OK(
      db->Execute("SELECT nlq_list('triang', X1, X2) FROM T").status());
  EXPECT_EQ(db->last_query_stats()->view_hits, 1u);
}

// ---------------------------------------------------------------------------
// 5. Concurrent serves of one view
// ---------------------------------------------------------------------------

uint64_t CounterValue(const MetricsSnapshot& snapshot, const char* name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

TEST(ViewMaintenanceTest, ConcurrentServesOfOneViewMatchRescan) {
  // Database::Execute runs SELECTs concurrently under the shared
  // statement gate, so several statements serve — and refresh — the
  // same view at once, while INSERT batches between rounds take the
  // gate exclusively. Every served result must carry the bits of the
  // views-off rescan at the same row count.
  constexpr size_t kClients = 4;
  constexpr size_t kServesPerClient = 3;
  constexpr size_t kRounds = 4;
  const char* kSql = "SELECT nlq_list('triang', X1, X2) FROM T";
  auto vdb = MakeViewDb(/*partitions=*/4, /*threads=*/2, /*views=*/true);
  auto pdb = MakeViewDb(/*partitions=*/4, /*threads=*/2, /*views=*/false);
  CreateT(vdb.get());
  CreateT(pdb.get());
  const MetricsSnapshot before = Database::GetMetricsSnapshot();

  size_t filled = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(StringPrintf("round=%zu", round));
    // Bursts that leave tail morsels (256 rows) partly filled.
    const size_t bound = filled + 333 + 100 * round;
    AppendRows(vdb.get(), filled, bound);
    AppendRows(pdb.get(), filled, bound);
    filled = bound;
    auto rescan = pdb->Execute(kSql);
    NLQ_ASSERT_OK(rescan.status());
    const std::string expected = ResultSignature(*rescan);

    std::vector<Status> errors(kClients * kServesPerClient);
    std::vector<std::string> sigs(kClients * kServesPerClient);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t k = 0; k < kServesPerClient; ++k) {
          const size_t i = c * kServesPerClient + k;
          auto served = vdb->Execute(kSql);
          if (served.ok()) {
            sigs[i] = ResultSignature(*served);
          } else {
            errors[i] = served.status();
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (size_t i = 0; i < sigs.size(); ++i) {
      NLQ_EXPECT_OK(errors[i]);
      EXPECT_EQ(sigs[i], expected) << "serve " << i;
    }
  }

  // One entry served every statement: seeded once, a hit ever after.
  EXPECT_EQ(vdb->view_registry()->num_views(), 1u);
  const MetricsSnapshot after = Database::GetMetricsSnapshot();
  EXPECT_EQ(CounterValue(after, "view.misses") -
                CounterValue(before, "view.misses"),
            1u);
  EXPECT_EQ(CounterValue(after, "view.hits") -
                CounterValue(before, "view.hits"),
            kRounds * kClients * kServesPerClient - 1);
}

// ---------------------------------------------------------------------------
// 6. Views off by default
// ---------------------------------------------------------------------------

TEST(ViewMaintenanceTest, DisabledByDefault) {
  auto db = nlq::testing::MakeTestDatabase(2);
  EXPECT_EQ(db->view_registry(), nullptr);
  NLQ_ASSERT_OK(
      db->ExecuteCommand("CREATE TABLE T (i BIGINT, X1 DOUBLE, X2 DOUBLE)"));
  NLQ_ASSERT_OK(db->ExecuteCommand("INSERT INTO T VALUES (1, 1.0, 2.0)"));
  NLQ_ASSERT_OK_AND_ASSIGN(
      std::string plan, db->Explain("SELECT nlq_list('diag', X1) FROM T"));
  EXPECT_EQ(plan.find("view="), std::string::npos) << plan;
  EXPECT_NE(plan.find("VectorHashAggregate (0 group key(s)"),
            std::string::npos)
      << plan;
}

}  // namespace
}  // namespace nlq::engine
