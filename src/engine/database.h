#ifndef NLQ_ENGINE_DATABASE_H_
#define NLQ_ENGINE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/metrics.h"
#include "common/query_context.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "engine/result_set.h"
#include "storage/catalog.h"
#include "udf/udf.h"

namespace nlq::engine {

namespace exec {
class BytecodeCache;
class Planner;
class ViewRegistry;
}  // namespace exec

struct SelectStatement;
struct Statement;

/// Engine configuration.
struct DatabaseOptions {
  /// Horizontal partitions per table — the "parallel processing
  /// threads" of the paper's Teradata deployment (it used 20).
  size_t num_partitions = 8;

  /// Worker threads executing scan/aggregate morsels. 0 = hardware
  /// concurrency. Morsel-driven scheduling decouples this from
  /// `num_partitions`: any thread count drains any partition layout,
  /// and results do not depend on the choice.
  size_t num_threads = 0;

  /// Rows per scan morsel — the unit of work parallel scans hand to
  /// pool workers. Morsel boundaries depend only on (partition,
  /// offset), never on thread count, keeping query results
  /// bit-identical whatever `num_threads` is. 0 = one morsel per
  /// partition (the pre-morsel partition-granular behavior).
  uint64_t morsel_rows = 16384;

  /// Keep per-partition decoded column arrays cached between columnar
  /// fast-path scans (iterative model building re-scans the same table
  /// many times). Appends invalidate the cache; disable to bound
  /// memory at one decode per scan instead.
  bool enable_column_cache = true;

  /// Default per-statement timeout in milliseconds; 0 = none. A
  /// statement that runs past its deadline unwinds with
  /// kDeadlineExceeded within one morsel/batch of latency instead of
  /// running to completion. Overridable per query (QueryOptions).
  int64_t default_timeout_ms = 0;

  /// Default per-query memory budget in bytes for execution-time state
  /// (UDF heap segments, hash-aggregate tables, sort/gather buffers,
  /// decoded-column cache fills); 0 = unlimited. A query that would
  /// exceed it fails with kResourceExhausted — except the column
  /// cache, which falls back to streaming decode. Overridable per
  /// query (QueryOptions).
  uint64_t query_memory_limit = 0;

  /// Collect per-query observability stats (operator actuals, storage
  /// counters, per-worker morsel claims; see common/metrics.h). On by
  /// default — instrumentation is batch-granular and bit-invisible —
  /// and forced on for EXPLAIN ANALYZE regardless of this flag.
  bool collect_query_stats = true;

  /// Frame budget of the buffer pool backing spilled tables (see
  /// storage/buffer_pool.h); the pool is created lazily on the first
  /// SpillTable call, so databases that never spill pay nothing. The
  /// pool's MemoryTracker peak proves the storage-layer RSS bound:
  /// scans of arbitrarily large spilled tables stay within this many
  /// bytes (rounded up to whole frames, floor BufferPool::kMinFrames).
  uint64_t buffer_pool_bytes = 64ull << 20;

  /// Directory for spill scratch files. Files are unlinked the moment
  /// they are opened (the fd keeps the data alive), so nothing is left
  /// behind however the process exits.
  std::string spill_directory = "/tmp";

  /// Maintain materialized sufficient-statistic views: eligible global
  /// n,L,Q aggregates keep per-morsel partials registered across
  /// statements, so a model rebuild after k appended rows accumulates
  /// only those k rows (O(delta)) instead of rescanning the table.
  /// Results are bit-identical to a full rescan (DESIGN.md §13); any
  /// non-append mutation invalidates the view and falls back to the
  /// normal columnar pipeline.
  bool enable_view_maintenance = false;

  /// Byte budget for stored view partial state across all maintained
  /// views (0 = unlimited, still tracked). Exceeding it fails that
  /// view's accumulate, which degrades the statement to a plain rescan
  /// and drops the view.
  uint64_t view_memory_limit = 256ull << 20;

  /// Maximum number of maintained views kept; registering past the cap
  /// evicts the least-recently-served entry.
  size_t max_maintained_views = 16;
};

/// Per-statement execution overrides for Database::Execute.
struct QueryOptions {
  /// -1 = inherit DatabaseOptions::default_timeout_ms; 0 = no
  /// timeout; > 0 = deadline this many milliseconds after Execute
  /// starts.
  int64_t timeout_ms = -1;

  /// -1 = inherit DatabaseOptions::query_memory_limit; 0 = unlimited;
  /// > 0 = budget in bytes.
  int64_t memory_limit = -1;

  /// Plan this statement on the interpreted row path: no bytecode, no
  /// columnar pipeline, no maintained views, every cross join kept
  /// (see DESIGN.md §11). The one oracle switch: the differential tests
  /// and the ablation bench compare the compiled and interpreted paths
  /// on one database instance. Results are bit-identical either way.
  bool force_interpreted = false;

  /// Externally owned cancel token for this statement; null = the
  /// engine creates its own (cancellable via Database::Cancel only).
  /// The server threads one per session statement so cancel-by-session
  /// reaches a statement whether it is queued in admission, between
  /// registration and its first poll, or mid-execution. Flipping the
  /// token to true cancels the statement within one morsel/batch.
  std::shared_ptr<std::atomic<bool>> cancel_token;
};

/// Embedded relational engine: catalog + SQL executor + UDF registry.
///
/// Statements execute their partition scans in parallel internally,
/// and Execute itself may be called from several threads at once: an
/// internal statement gate runs read-only statements (SELECT/EXPLAIN)
/// concurrently and serializes catalog-mutating ones (CREATE/INSERT/
/// DROP, SpillTable) exclusively against everything else, like a
/// database-level S/X lock. Concurrent SELECTs share the thread pool
/// (sections queue), the bytecode cache, and the decoded-column cache
/// (per-table fill lock) — results stay bit-identical to running the
/// same statements one at a time. This is what the server front end
/// (src/server) builds on; embedded single-threaded use pays one
/// uncontended shared_mutex acquisition per statement.
///
/// last_query_stats() and last_query_id() are "most recent" notions
/// that only make sense to read when no other thread is mid-Execute.
///
/// This is the DBMS substrate standing in for Teradata V2R6: tables
/// are hash-partitioned across AMP-style partitions, scans and
/// aggregations run one task per partition on a thread pool, and
/// aggregate UDFs follow the Init/Accumulate/Merge/Finalize protocol
/// with per-group bounded heap segments.
class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();  // out-of-line: owns a forward-declared BytecodeCache

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const DatabaseOptions& options() const { return options_; }
  storage::Catalog& catalog() { return catalog_; }
  const storage::Catalog& catalog() const { return catalog_; }
  udf::UdfRegistry& udfs() { return registry_; }
  const udf::UdfRegistry& udfs() const { return registry_; }
  ThreadPool& pool() { return *pool_; }

  /// Parses and executes one SQL statement. SELECT returns rows;
  /// CREATE/INSERT/DROP return an empty result set.
  ///
  /// Every statement runs under a fresh QueryContext: it gets a new
  /// query id (see last_query_id), the configured timeout arms its
  /// deadline, and — when a memory limit applies — a MemoryTracker
  /// scoped to the statement. Cancellation, deadline expiry, or budget
  /// exhaustion unwind with kCancelled / kDeadlineExceeded /
  /// kResourceExhausted; the engine stays usable and the next
  /// statement starts clean.
  StatusOr<ResultSet> Execute(std::string_view sql) {
    return Execute(sql, QueryOptions());
  }

  /// Execute with per-statement overrides of the database-level
  /// timeout and memory budget.
  StatusOr<ResultSet> Execute(std::string_view sql,
                              const QueryOptions& query_options);

  /// Requests cancellation of the in-flight statement with id
  /// `query_id`. Safe to call from any thread; returns NotFound when
  /// no such statement is running (already finished, or never
  /// existed). The cancelled statement returns kCancelled within one
  /// morsel/batch of latency.
  ///
  /// Ordering guarantee: a statement's cancel token is registered
  /// BEFORE its id is published through last_query_id(), so a
  /// canceller that observed the id via last_query_id() never gets
  /// NotFound while that statement is still running — even if the
  /// statement has not reached its first cancellation poll yet (the
  /// flipped token fires at the first poll).
  Status Cancel(uint64_t query_id);

  /// Id assigned to the most recently started statement (0 before the
  /// first one). With one application thread issuing statements, this
  /// is the id a concurrent canceller passes to Cancel.
  uint64_t last_query_id() const {
    return last_query_id_.load(std::memory_order_acquire);
  }

  /// Executes a statement expected to return no rows; convenience for
  /// DDL in tests and examples.
  Status ExecuteCommand(std::string_view sql);

  /// Scalar convenience: runs a query that must return exactly one
  /// row / one column and coerces it to double.
  StatusOr<double> QueryDouble(std::string_view sql);

  /// Plans a SELECT without executing it and returns the physical
  /// operator tree, one node per line (root first): the parallel
  /// partition scan, materialized cross-join sides with their
  /// pushed-down predicates (the §3.6 join-optimization decisions),
  /// residual filter, aggregation/projection, sort and limit.
  StatusOr<std::string> Explain(std::string_view sql) {
    return Explain(sql, QueryOptions());
  }

  /// Explain with per-statement overrides; `force_interpreted` shows
  /// the plan the interpreted oracle would run.
  StatusOr<std::string> Explain(std::string_view sql,
                                const QueryOptions& query_options);

  /// Runs `sql` (a SELECT) and returns the EXPLAIN ANALYZE rendering:
  /// the executed plan with actual rows/batches/time per operator and
  /// a statement totals footer. Equivalent to executing
  /// `EXPLAIN ANALYZE <sql>` and joining the result rows.
  StatusOr<std::string> ExplainAnalyze(std::string_view sql);

  /// Spills table `name` to compressed on-disk segments (one scratch
  /// file per partition under options().spill_directory, unlinked
  /// immediately) and re-points its scans at the database buffer pool.
  /// The in-memory pages and the decoded-column cache are released;
  /// subsequent scans stream chunks through the pool, bit-identical to
  /// the resident table. The table becomes read-only: INSERT fails
  /// with NotSupported until DROP/CREATE. Idempotent per partition.
  Status SpillTable(std::string_view name);

  /// The buffer pool backing spilled tables, or nullptr before the
  /// first SpillTable call.
  storage::BufferPool* buffer_pool() { return buffer_pool_.get(); }

  /// The maintained-view registry, or nullptr when
  /// options().enable_view_maintenance is off. Exposed for tests and
  /// observability (state_bytes / num_views).
  exec::ViewRegistry* view_registry() { return view_registry_.get(); }

  /// Stats of the most recently completed statement, or nullopt before
  /// the first one (or when collection was off). The snapshot survives
  /// subsequent statements until the next one completes.
  const std::optional<QueryStatsSnapshot>& last_query_stats() const {
    return last_query_stats_;
  }

  /// Point-in-time copy of the process-wide metrics registry
  /// (statement outcomes, latency histogram, storage counters,
  /// failpoint/retry events). Shared across Database instances.
  static MetricsSnapshot GetMetricsSnapshot() {
    return MetricsRegistry::Global().GetSnapshot();
  }

 private:
  /// The planner of every SELECT and EXPLAIN: this database's catalog,
  /// UDFs, pool, options, bytecode cache and view registry, planning
  /// under `ctx` (may be null: plan only) on the interpreted row path
  /// when `force_interpreted`.
  exec::Planner MakePlanner(const QueryContext* ctx, bool force_interpreted);

  /// Plans a bound SELECT (parse already done) and runs the plan
  /// under `ctx` (may be null: internal sub-selects of DDL run
  /// without lifecycle control when no context is supplied).
  StatusOr<ResultSet> ExecuteSelect(const SelectStatement& select,
                                    const QueryContext* ctx,
                                    bool force_interpreted);

  /// Dispatches a parsed statement under `ctx`.
  StatusOr<ResultSet> ExecuteStatement(Statement& stmt,
                                       const QueryContext* ctx,
                                       bool force_interpreted);

  DatabaseOptions options_;

  /// The statement gate: SELECT/EXPLAIN hold it shared, catalog- or
  /// data-mutating statements (CREATE/INSERT/DROP, SpillTable) hold it
  /// exclusive. What makes shared mode safe is that every structure a
  /// read-only statement touches is internally synchronized — pool
  /// sections, bytecode cache, per-table column-cache fills, view
  /// registry, live-query map, metrics.
  mutable std::shared_mutex statement_mu_;

  /// Lazily created by SpillTable. Declared before catalog_ so it is
  /// destroyed after it: spilled segments owned by catalog tables
  /// unregister from the pool in their destructors.
  std::unique_ptr<storage::BufferPool> buffer_pool_;

  storage::Catalog catalog_;
  udf::UdfRegistry registry_;
  std::unique_ptr<ThreadPool> pool_;

  /// Compiled-program cache shared by every statement this database
  /// executes (see exec/bytecode.h). Owned here so repeated model
  /// builds reuse their programs.
  std::unique_ptr<exec::BytecodeCache> bytecode_cache_;

  /// Maintained-view registry (see exec/view_registry.h), created only
  /// when options_.enable_view_maintenance is set. Declared after
  /// catalog_ so entries never outlive the tables they reference
  /// observationally (entries hold table pointers but only compare
  /// them; DROP TABLE and SpillTable invalidate eagerly).
  std::unique_ptr<exec::ViewRegistry> view_registry_;

  /// Cancel tokens of in-flight statements, keyed by query id. The
  /// map (not the Database) is what Cancel may touch from another
  /// thread, so it has its own mutex.
  std::mutex live_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<std::atomic<bool>>>
      live_queries_;
  std::atomic<uint64_t> next_query_id_{1};
  std::atomic<uint64_t> last_query_id_{0};

  /// Guards writes to last_query_stats_ (concurrent statements both
  /// finish "last"); reads via the accessor are only meaningful when
  /// no statement is in flight.
  std::mutex last_stats_mu_;
  std::optional<QueryStatsSnapshot> last_query_stats_;
};

}  // namespace nlq::engine

#endif  // NLQ_ENGINE_DATABASE_H_
