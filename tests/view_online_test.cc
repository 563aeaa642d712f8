// The online scenario maintained views exist for (ISSUE 8): concurrent
// writers streaming appends into disjoint partitions, a periodic model
// refresh served from the maintained view (O(delta) per refresh), and
// scoring readers consuming the latest model snapshot — all while the
// final model stays bit-identical to a from-scratch rescan of the same
// rows on a views-free database.
//
// Synchronization contract: writers append through
// PartitionedTable::AppendRowToPartition, each owning one partition,
// under a shared lock — concurrent with each other (different Table
// objects), excluded from statements; the refresher takes the lock
// exclusively around each Database::Execute. The lock is needed because
// these appends bypass Execute and its statement gate (Execute runs
// SELECTs concurrently and an INSERT exclusively; view_maintenance_test
// covers concurrent serves through it).
// Scoring readers never touch the database: they decode the latest
// published model snapshot under its own mutex. Run under TSan, this
// is the race check for the whole append + view-refresh + scoring
// stack; run anywhere, the bit-exactness assertions hold.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "engine/database.h"
#include "engine/exec/view_registry.h"
#include "stats/sufstats.h"
#include "storage/partitioned_table.h"
#include "tests/test_util.h"

namespace nlq::engine {
namespace {

using storage::Datum;
using storage::Row;

constexpr size_t kPartitions = 4;
constexpr size_t kInitialPerPartition = 300;
constexpr size_t kStreamPerPartition = 900;  // appended by the writers
constexpr const char* kModelSql = "SELECT nlq_list('triang', X1, X2) FROM T";

/// Deterministic dyadic cell, a pure function of (partition, row,
/// column): the writer streams and the oracle replay generate the
/// exact same rows without any shared state.
double CellValue(size_t p, size_t r, size_t c) {
  const int64_t k =
      static_cast<int64_t>((p * 7919 + r * 37 + c * 131 + 3) % 4096) - 2048;
  return static_cast<double>(k) / 256.0;
}

Row MakeRow(size_t p, size_t r) {
  return {Datum::Int64(static_cast<int64_t>(p * 1000000 + r)),
          Datum::Double(CellValue(p, r, 1)), Datum::Double(CellValue(p, r, 2))};
}

std::unique_ptr<Database> MakeDb(size_t threads, bool views) {
  DatabaseOptions options;
  options.num_partitions = kPartitions;
  options.num_threads = threads;
  options.morsel_rows = 256;
  options.enable_view_maintenance = views;
  auto db = std::make_unique<Database>(options);
  EXPECT_TRUE(stats::RegisterAllStatsUdfs(&db->udfs()).ok());
  return db;
}

void CreateT(Database* db) {
  NLQ_ASSERT_OK(
      db->ExecuteCommand("CREATE TABLE T (i BIGINT, X1 DOUBLE, X2 DOUBLE)"));
}

/// Appends rows [begin, end) of partition `p`'s stream.
void AppendStream(storage::PartitionedTable* table, size_t p, size_t begin,
                  size_t end) {
  for (size_t r = begin; r < end; ++r) {
    NLQ_ASSERT_OK(table->AppendRowToPartition(p, MakeRow(p, r)));
  }
}

TEST(ViewOnlineTest, ConcurrentAppendRefreshScoreStaysBitExact) {
  const size_t kThreads[] = {1, 2, 4};
  std::string baseline;
  for (const size_t threads : kThreads) {
    SCOPED_TRACE(StringPrintf("threads=%zu", threads));
    auto db = MakeDb(threads, /*views=*/true);
    CreateT(db.get());
    NLQ_ASSERT_OK_AND_ASSIGN(storage::PartitionedTable * table,
                             db->catalog().GetTable("T"));
    for (size_t p = 0; p < kPartitions; ++p) {
      AppendStream(table, p, 0, kInitialPerPartition);
    }

    std::shared_mutex db_mu;       // writers shared, statements exclusive
    std::mutex model_mu;           // guards the published snapshot
    std::string latest_model;      // packed SufStats of the last refresh
    std::atomic<bool> writers_done{false};
    std::atomic<uint64_t> refreshes{0};
    std::atomic<uint64_t> view_hits{0};
    std::atomic<uint64_t> models_scored{0};

    // One writer per partition, appending its stream in chunks.
    std::vector<std::thread> workers;
    for (size_t p = 0; p < kPartitions; ++p) {
      workers.emplace_back([&, p] {
        constexpr size_t kChunk = 64;
        for (size_t r = kInitialPerPartition; r < kStreamPerPartition;
             r += kChunk) {
          const size_t end = std::min(r + kChunk, kStreamPerPartition);
          std::shared_lock<std::shared_mutex> lock(db_mu);
          AppendStream(table, p, r, end);
        }
      });
    }

    // Periodic model refresh: every statement runs exclusively; the
    // maintained view turns each one into an O(delta) accumulate. At
    // least one refresh always runs (the seeding one), however fast
    // the writers drain.
    auto refresh_once = [&] {
      std::unique_lock<std::shared_mutex> lock(db_mu);
      auto result = db->Execute(kModelSql);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_TRUE(db->last_query_stats().has_value());
      view_hits.fetch_add(db->last_query_stats()->view_hits,
                          std::memory_order_relaxed);
      std::lock_guard<std::mutex> model_lock(model_mu);
      latest_model = result->At(0, 0).string_value();
    };
    workers.emplace_back([&] {
      do {
        refresh_once();
        refreshes.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      } while (!writers_done.load(std::memory_order_acquire));
    });

    // Scoring readers: consume whatever model is current. They touch
    // only the published snapshot, never the database. The stop flag
    // is raised only after a final model is published, so every reader
    // scores at least once before exiting.
    std::atomic<bool> stop_readers{false};
    std::vector<std::thread> readers;
    for (size_t i = 0; i < 2; ++i) {
      readers.emplace_back([&] {
        while (true) {
          const bool stopping = stop_readers.load(std::memory_order_acquire);
          std::string model;
          {
            std::lock_guard<std::mutex> lock(model_mu);
            model = latest_model;
          }
          if (!model.empty()) {
            auto decoded = stats::SufStats::FromPackedString(model);
            ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
            ASSERT_GT(decoded->n(), 0.0);
            models_scored.fetch_add(1, std::memory_order_relaxed);
          }
          if (stopping) break;
          std::this_thread::yield();
        }
      });
    }

    for (size_t p = 0; p < kPartitions; ++p) workers[p].join();
    writers_done.store(true, std::memory_order_release);
    workers.back().join();

    // The authoritative final refresh: a guaranteed view hit (the
    // refresher seeded the entry and nothing invalidated it since).
    refresh_once();
    stop_readers.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();

    EXPECT_GE(refreshes.load(), 1u);
    EXPECT_GE(view_hits.load(), 1u);
    EXPECT_GE(models_scored.load(), 2u);

    // The final refresh saw every appended row.
    std::string final_model;
    {
      std::lock_guard<std::mutex> lock(model_mu);
      final_model = latest_model;
    }
    NLQ_ASSERT_OK_AND_ASSIGN(stats::SufStats final_stats,
                             stats::SufStats::FromPackedString(final_model));
    EXPECT_EQ(final_stats.n(),
              static_cast<double>(kPartitions * kStreamPerPartition));

    // Bit-exact against a from-scratch, views-free replay of the same
    // per-partition streams.
    auto oracle_db = MakeDb(threads, /*views=*/false);
    CreateT(oracle_db.get());
    NLQ_ASSERT_OK_AND_ASSIGN(storage::PartitionedTable * oracle_table,
                             oracle_db->catalog().GetTable("T"));
    for (size_t p = 0; p < kPartitions; ++p) {
      AppendStream(oracle_table, p, 0, kStreamPerPartition);
    }
    auto oracle = oracle_db->Execute(kModelSql);
    NLQ_ASSERT_OK(oracle.status());
    EXPECT_EQ(final_model, oracle->At(0, 0).string_value());

    // And across worker-thread counts: the same bytes every time.
    if (baseline.empty()) {
      baseline = final_model;
    } else {
      EXPECT_EQ(final_model, baseline);
    }
  }
}

// A spill landing in the middle of the online scenario (ISSUE 10):
// writers stream appends, a refresher serves the model from the
// maintained view, and then the table is spilled out from under both.
// From that point every refresh must either carry the explicit
// `view=ineligible (spilled)` plan note or be a correct full rescan —
// a stale pre-spill view answer is never acceptable. Run under TSan
// this interleaves append + view refresh + spill; run anywhere the
// bit-exactness assertions hold.
TEST(ViewOnlineTest, SpillMidStreamDegradesViewToRescanNeverStale) {
  auto db = MakeDb(/*threads=*/4, /*views=*/true);
  CreateT(db.get());
  NLQ_ASSERT_OK_AND_ASSIGN(storage::PartitionedTable * table,
                           db->catalog().GetTable("T"));
  for (size_t p = 0; p < kPartitions; ++p) {
    AppendStream(table, p, 0, kInitialPerPartition);
  }

  std::shared_mutex db_mu;  // writers shared, statements + spill exclusive
  std::atomic<bool> spilled{false};
  std::atomic<size_t> applied[kPartitions];
  for (auto& a : applied) a.store(kInitialPerPartition);

  // Writers stop at the first chunk boundary where they observe the
  // spill (checked under the shared lock, so a chunk can never be
  // mid-append while SpillTable holds the lock exclusively).
  std::vector<std::thread> writers;
  for (size_t p = 0; p < kPartitions; ++p) {
    writers.emplace_back([&, p] {
      constexpr size_t kChunk = 64;
      for (size_t r = kInitialPerPartition; r < kStreamPerPartition;
           r += kChunk) {
        const size_t end = std::min(r + kChunk, kStreamPerPartition);
        std::shared_lock<std::shared_mutex> lock(db_mu);
        if (spilled.load(std::memory_order_acquire)) return;
        AppendStream(table, p, r, end);
        applied[p].store(end, std::memory_order_release);
      }
    });
  }

  // Refresher: keeps serving the model across the spill. Post-spill
  // results are collected for the never-stale check; post-spill plans
  // must carry the ineligibility note.
  std::atomic<uint64_t> pre_spill_refreshes{0};
  std::vector<std::string> post_spill_models;
  std::thread refresher([&] {
    while (true) {
      bool was_spilled;
      std::string model;
      {
        std::unique_lock<std::shared_mutex> lock(db_mu);
        was_spilled = spilled.load(std::memory_order_acquire);
        auto result = db->Execute(kModelSql);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        model = result->At(0, 0).string_value();
        if (was_spilled) {
          auto plan = db->Explain(kModelSql);
          ASSERT_TRUE(plan.ok()) << plan.status().ToString();
          EXPECT_NE(plan->find("view=ineligible (spilled)"),
                    std::string::npos)
              << *plan;
        }
      }
      if (was_spilled) {
        post_spill_models.push_back(std::move(model));
        if (post_spill_models.size() >= 3) return;
      } else {
        pre_spill_refreshes.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });

  // The spiller strikes mid-stream (or, on a fast machine, after the
  // writers drained — the post-spill assertions hold either way).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::unique_lock<std::shared_mutex> lock(db_mu);
    NLQ_ASSERT_OK(db->SpillTable("T"));
    spilled.store(true, std::memory_order_release);
  }

  for (auto& w : writers) w.join();
  refresher.join();

  // Frozen table: all post-spill refreshes returned identical bytes.
  ASSERT_GE(post_spill_models.size(), 3u);
  for (const std::string& m : post_spill_models) {
    EXPECT_EQ(m, post_spill_models.front());
  }

  // Never stale: the post-spill model is bit-exact against a resident
  // views-free replay of exactly the rows that landed before the
  // spill (spilled == resident, PR-7's guarantee, carried through the
  // view layer's degrade path).
  auto oracle_db = MakeDb(/*threads=*/1, /*views=*/false);
  CreateT(oracle_db.get());
  NLQ_ASSERT_OK_AND_ASSIGN(storage::PartitionedTable * oracle_table,
                           oracle_db->catalog().GetTable("T"));
  size_t total_rows = 0;
  for (size_t p = 0; p < kPartitions; ++p) {
    const size_t rows = applied[p].load(std::memory_order_acquire);
    AppendStream(oracle_table, p, 0, rows);
    total_rows += rows;
  }
  auto oracle = oracle_db->Execute(kModelSql);
  NLQ_ASSERT_OK(oracle.status());
  EXPECT_EQ(post_spill_models.front(), oracle->At(0, 0).string_value());

  NLQ_ASSERT_OK_AND_ASSIGN(
      stats::SufStats frozen,
      stats::SufStats::FromPackedString(post_spill_models.front()));
  EXPECT_EQ(frozen.n(), static_cast<double>(total_rows));
}

}  // namespace
}  // namespace nlq::engine
