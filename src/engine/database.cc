#include "engine/database.h"

#include <algorithm>
#include <thread>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "engine/exec/bytecode.h"
#include "engine/exec/executor.h"
#include "engine/exec/planner.h"
#include "engine/exec/view_registry.h"
#include "engine/expr.h"
#include "engine/parser.h"
#include "storage/partitioned_table.h"

namespace nlq::engine {
namespace {

using storage::DataType;
using storage::Datum;
using storage::PartitionedTable;
using storage::Row;
using storage::Schema;

StatusOr<Row> CoerceRowToSchema(const Row& row, const Schema& schema) {
  if (row.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        StringPrintf("expected %zu values, got %zu", schema.num_columns(),
                     row.size()));
  }
  Row out(row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    const DataType want = schema.column(i).type;
    const Datum& v = row[i];
    if (v.is_null()) {
      out[i] = Datum::Null(want);
      continue;
    }
    if (v.type() == want) {
      out[i] = v;
      continue;
    }
    if (want == DataType::kDouble && v.type() != DataType::kVarchar) {
      out[i] = Datum::Double(v.AsDouble());
      continue;
    }
    if (want == DataType::kInt64 && v.type() != DataType::kVarchar) {
      out[i] = Datum::Int64(static_cast<int64_t>(v.AsDouble()));
      continue;
    }
    return Status::InvalidArgument(
        StringPrintf("cannot coerce %s to %s for column '%s'",
                     DataTypeName(v.type()), DataTypeName(want),
                     schema.column(i).name.c_str()));
  }
  return out;
}

/// Rewrites the bare kNotSupported a spilled table returns on append
/// into an actionable INSERT error: name the table and point at the
/// resident path (spilling is one-way; appends need a resident table).
Status WrapAppendError(Status status, const std::string& table_name) {
  if (status.ok() || status.code() != StatusCode::kNotSupported) {
    return status;
  }
  return Status::NotSupported(StringPrintf(
      "cannot INSERT into '%s': the table is spilled to disk and "
      "read-only; DROP TABLE %s and re-CREATE it resident (then reload "
      "and re-append) to continue inserting",
      table_name.c_str(), table_name.c_str()));
}

Status AppendResultToTable(const ResultSet& result, PartitionedTable* table,
                           const std::string& table_name) {
  for (const Row& row : result.rows()) {
    NLQ_ASSIGN_OR_RETURN(Row coerced, CoerceRowToSchema(row, table->schema()));
    NLQ_RETURN_IF_ERROR(WrapAppendError(table->AppendRow(coerced),
                                        table_name));
  }
  return Status::OK();
}

/// Shapes EXPLAIN [ANALYZE] text into a one-VARCHAR-column result set,
/// one row per rendered line.
ResultSet PlanTextToResultSet(const std::string& rendered) {
  std::vector<Row> rows;
  for (std::string_view line : SplitString(rendered, '\n')) {
    if (line.empty()) continue;  // trailing newline
    Row row(1);
    row[0] = Datum::Varchar(std::string(line));
    rows.push_back(std::move(row));
  }
  return ResultSet(Schema({{"plan", DataType::kVarchar}}), std::move(rows));
}

/// Registry counter name for a finished statement's outcome.
const char* OutcomeCounterName(const Status& status) {
  switch (status.code()) {
    case StatusCode::kCancelled:
      return "queries.cancelled";
    case StatusCode::kDeadlineExceeded:
      return "queries.deadline_exceeded";
    case StatusCode::kResourceExhausted:
      return "queries.resource_exhausted";
    default:
      return status.ok() ? "queries.ok" : "queries.error";
  }
}

}  // namespace

Database::Database(DatabaseOptions options)
    : options_(options), catalog_(options.num_partitions) {
  size_t threads = options_.num_threads;
  if (threads == 0) {
    // Morsel scheduling decouples worker count from partition count:
    // default to the hardware, not min(partitions, hardware).
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  pool_ = std::make_unique<ThreadPool>(threads);
  bytecode_cache_ = std::make_unique<exec::BytecodeCache>();
  if (options_.enable_view_maintenance) {
    view_registry_ = std::make_unique<exec::ViewRegistry>(
        options_.max_maintained_views, options_.view_memory_limit);
  }
}

Database::~Database() = default;

Status Database::SpillTable(std::string_view name) {
  // Spilling rewrites a table's storage out from under scans: take the
  // statement gate exclusively like any other mutation.
  std::unique_lock<std::shared_mutex> gate(statement_mu_);
  NLQ_ASSIGN_OR_RETURN(storage::PartitionedTable * table,
                       catalog_.GetTable(std::string(name)));
  if (buffer_pool_ == nullptr) {
    buffer_pool_ =
        std::make_unique<storage::BufferPool>(options_.buffer_pool_bytes);
  }
  // Scratch name: directory + table + this database's address keeps
  // concurrent databases apart; the file is unlinked on open anyway.
  const std::string path =
      options_.spill_directory + "/nlq_spill_" + std::string(name) + "_" +
      std::to_string(reinterpret_cast<uintptr_t>(this));
  // Spilling is a destructive mutation for view purposes: drop any
  // maintained views before the partitions change underneath them.
  if (view_registry_ != nullptr) {
    view_registry_->InvalidateTable(std::string(name));
  }
  return table->SpillToDisk(path, buffer_pool_.get(),
                            storage::SpillSegment::kDefaultChunkRows);
}

exec::Planner Database::MakePlanner(const QueryContext* ctx,
                                    bool force_interpreted) {
  return exec::Planner(&catalog_, &registry_, pool_.get(),
                       options_.enable_column_cache, options_.morsel_rows,
                       ctx, /*enable_expr_compile=*/!force_interpreted,
                       bytecode_cache_.get(), view_registry_.get());
}

StatusOr<ResultSet> Database::ExecuteSelect(const SelectStatement& select,
                                            const QueryContext* ctx,
                                            bool force_interpreted) {
  NLQ_ASSIGN_OR_RETURN(exec::PhysicalPlan plan,
                       MakePlanner(ctx, force_interpreted).Plan(select));
  if (ctx != nullptr && ctx->stats() != nullptr) {
    exec::AttachQueryStats(plan.root.get(), ctx->stats());
  }
  return exec::ExecutePlan(plan, ctx);
}

StatusOr<ResultSet> Database::Execute(std::string_view sql,
                                      const QueryOptions& query_options) {
  NLQ_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));

  // One QueryContext per statement: id, deadline, memory budget. The
  // caller may supply the cancel token (server sessions do) so a
  // cancel that raced the statement's start still lands.
  QueryContext ctx;
  ctx.set_cancel_token(query_options.cancel_token);
  ctx.set_query_id(next_query_id_.fetch_add(1, std::memory_order_relaxed));
  const int64_t timeout_ms = query_options.timeout_ms >= 0
                                 ? query_options.timeout_ms
                                 : options_.default_timeout_ms;
  if (timeout_ms > 0) ctx.SetTimeout(timeout_ms);
  const uint64_t memory_limit =
      query_options.memory_limit >= 0
          ? static_cast<uint64_t>(query_options.memory_limit)
          : options_.query_memory_limit;
  MemoryTracker tracker(memory_limit);
  if (memory_limit > 0) ctx.set_memory(&tracker);

  // Observability: a QueryStats tree for the statement (EXPLAIN
  // ANALYZE needs one even when collection is off) plus process-wide
  // registry accounting of outcome and latency.
  std::unique_ptr<QueryStats> stats;
  if (options_.collect_query_stats ||
      (stmt.kind == StatementKind::kExplain && stmt.explain_analyze)) {
    stats = std::make_unique<QueryStats>();
    stats->query_id = ctx.query_id();
    stats->SetWorkerCount(pool_->num_workers());
    ctx.set_stats(stats.get());
  }
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.counter("queries.started").Increment();
  Stopwatch timer;

  // Publish the cancel token for the duration of the statement so
  // Cancel(query_id) from another thread can reach it; the token
  // itself is shared, so a Cancel racing this frame's teardown flips
  // a token nobody reads — harmless. Registration happens BEFORE the
  // id is announced through last_query_id_: a canceller acting on the
  // published id must never fall into a registered-but-unfindable
  // window and get NotFound while the statement runs (the token it
  // flips here is polled from the first morsel claim on).
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    live_queries_[ctx.query_id()] = ctx.cancel_token();
  }
  last_query_id_.store(ctx.query_id(), std::memory_order_release);

  // The statement gate: read-only statements execute concurrently,
  // mutating ones exclusively (see the class comment).
  const bool read_only = stmt.kind == StatementKind::kSelect ||
                         stmt.kind == StatementKind::kExplain;
  StatusOr<ResultSet> result = Status::Internal("statement did not run");
  if (read_only) {
    std::shared_lock<std::shared_mutex> gate(statement_mu_);
    result = ExecuteStatement(stmt, &ctx, query_options.force_interpreted);
  } else {
    std::unique_lock<std::shared_mutex> gate(statement_mu_);
    result = ExecuteStatement(stmt, &ctx, query_options.force_interpreted);
  }
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    live_queries_.erase(ctx.query_id());
  }

  const auto wall_ns =
      static_cast<uint64_t>(timer.ElapsedSeconds() * 1e9);
  metrics.counter(OutcomeCounterName(result.status())).Increment();
  metrics.histogram("query.latency").Observe(wall_ns);
  if (stats != nullptr) {
    // EXPLAIN ANALYZE already stamped the inner statement's wall time
    // for its rendering; keep that tighter number.
    if (stats->wall_time_ns == 0) stats->wall_time_ns = wall_ns;
    if (memory_limit > 0) stats->memory_peak_bytes = tracker.peak();
    metrics.counter("query.rows_returned")
        .Add(stats->rows_returned.load(std::memory_order_relaxed));
    metrics.counter("storage.pages_decoded")
        .Add(stats->pages_decoded.load(std::memory_order_relaxed));
    metrics.counter("storage.column_cache.hits")
        .Add(stats->column_cache_hits.load(std::memory_order_relaxed));
    metrics.counter("storage.column_cache.misses")
        .Add(stats->column_cache_misses.load(std::memory_order_relaxed));
    metrics.counter("storage.column_cache.fallbacks")
        .Add(stats->column_cache_fallbacks.load(std::memory_order_relaxed));
    uint64_t claims = 0;
    for (const uint64_t c : stats->WorkerMorselClaims()) claims += c;
    metrics.counter("exec.morsels_claimed").Add(claims);
    metrics.counter("exec.rows_vectorized")
        .Add(stats->rows_vectorized.load(std::memory_order_relaxed));
    metrics.counter("view.hits")
        .Add(stats->view_hits.load(std::memory_order_relaxed));
    metrics.counter("view.misses")
        .Add(stats->view_misses.load(std::memory_order_relaxed));
    metrics.counter("view.delta_rows")
        .Add(stats->view_delta_rows.load(std::memory_order_relaxed));
    metrics.counter("view.rebuilds")
        .Add(stats->view_rebuilds.load(std::memory_order_relaxed));
    if (view_registry_ != nullptr) {
      metrics.gauge("view.state_bytes")
          .Set(static_cast<int64_t>(view_registry_->state_bytes()));
    }
    std::lock_guard<std::mutex> stats_lock(last_stats_mu_);
    last_query_stats_ = SnapshotQueryStats(*stats);
  }
  return result;
}

Status Database::Cancel(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(live_mu_);
  auto it = live_queries_.find(query_id);
  if (it == live_queries_.end()) {
    return Status::NotFound(
        StringPrintf("no running query with id %llu",
                     static_cast<unsigned long long>(query_id)));
  }
  it->second->store(true, std::memory_order_release);
  return Status::OK();
}

StatusOr<ResultSet> Database::ExecuteStatement(Statement& stmt,
                                               const QueryContext* ctx,
                                               bool force_interpreted) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return ExecuteSelect(*stmt.select, ctx, force_interpreted);

    case StatementKind::kCreateTable: {
      CreateTableStatement& create = *stmt.create_table;
      if (create.as_select != nullptr) {
        NLQ_ASSIGN_OR_RETURN(
            ResultSet result,
            ExecuteSelect(*create.as_select, ctx, force_interpreted));
        NLQ_ASSIGN_OR_RETURN(
            PartitionedTable * table,
            catalog_.CreateTable(create.table_name, result.schema()));
        NLQ_RETURN_IF_ERROR(
            AppendResultToTable(result, table, create.table_name));
        return ResultSet();
      }
      NLQ_RETURN_IF_ERROR(
          catalog_.CreateTable(create.table_name, create.schema).status());
      return ResultSet();
    }

    case StatementKind::kInsert: {
      InsertStatement& insert = *stmt.insert;
      NLQ_ASSIGN_OR_RETURN(PartitionedTable * table,
                           catalog_.GetTable(insert.table_name));
      if (insert.select != nullptr) {
        NLQ_ASSIGN_OR_RETURN(
            ResultSet result,
            ExecuteSelect(*insert.select, ctx, force_interpreted));
        NLQ_RETURN_IF_ERROR(
            AppendResultToTable(result, table, insert.table_name));
        return ResultSet();
      }
      // VALUES rows: constant expressions bound against an empty scope.
      BindingScope empty_scope;
      for (const auto& value_row : insert.value_rows) {
        Row row(value_row.size());
        Status error;
        Row empty_input;
        EvalContext ctx;
        ctx.input = &empty_input;
        ctx.error = &error;
        for (size_t c = 0; c < value_row.size(); ++c) {
          NLQ_ASSIGN_OR_RETURN(
              BoundExprPtr bound,
              BindRowExpr(*value_row[c], empty_scope, &registry_));
          row[c] = bound->Eval(ctx);
        }
        NLQ_RETURN_IF_ERROR(error);
        NLQ_ASSIGN_OR_RETURN(Row coerced,
                             CoerceRowToSchema(row, table->schema()));
        NLQ_RETURN_IF_ERROR(WrapAppendError(table->AppendRow(coerced),
                                            insert.table_name));
      }
      return ResultSet();
    }

    case StatementKind::kDropTable:
      NLQ_RETURN_IF_ERROR(catalog_.DropTable(stmt.drop_table->table_name));
      // A later CREATE TABLE with the same name must never alias a
      // stale entry's epochs; drop its views eagerly.
      if (view_registry_ != nullptr) {
        view_registry_->InvalidateTable(stmt.drop_table->table_name);
      }
      return ResultSet();

    case StatementKind::kExplain: {
      if (!stmt.explain_analyze) {
        // Plain EXPLAIN: plan only, never execute.
        NLQ_ASSIGN_OR_RETURN(
            exec::PhysicalPlan plan,
            MakePlanner(ctx, force_interpreted).Plan(*stmt.select));
        return PlanTextToResultSet(exec::ExplainPlan(*plan.root));
      }
      QueryStats* stats = ctx != nullptr ? ctx->stats() : nullptr;
      if (stats == nullptr) {
        return Status::Internal(
            "EXPLAIN ANALYZE requires a stats-collecting query context");
      }
      Stopwatch timer;
      NLQ_RETURN_IF_ERROR(
          ExecuteSelect(*stmt.select, ctx, force_interpreted).status());
      stats->wall_time_ns =
          static_cast<uint64_t>(timer.ElapsedSeconds() * 1e9);
      return PlanTextToResultSet(
          exec::RenderAnalyzedPlan(SnapshotQueryStats(*stats)));
    }
  }
  return Status::Internal("unhandled statement kind");
}

Status Database::ExecuteCommand(std::string_view sql) {
  return Execute(sql).status();
}

StatusOr<std::string> Database::Explain(std::string_view sql,
                                        const QueryOptions& query_options) {
  NLQ_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != StatementKind::kSelect) {
    return Status::InvalidArgument("EXPLAIN supports SELECT statements only");
  }
  // Planning reads the catalog; exclude concurrent DDL.
  std::shared_lock<std::shared_mutex> gate(statement_mu_);
  NLQ_ASSIGN_OR_RETURN(
      exec::PhysicalPlan plan,
      MakePlanner(/*ctx=*/nullptr, query_options.force_interpreted)
          .Plan(*stmt.select));
  return exec::ExplainPlan(*plan.root);
}

StatusOr<std::string> Database::ExplainAnalyze(std::string_view sql) {
  std::string stmt_sql = "EXPLAIN ANALYZE ";
  stmt_sql += sql;
  NLQ_ASSIGN_OR_RETURN(ResultSet result, Execute(stmt_sql));
  std::string out;
  for (const Row& row : result.rows()) {
    out += row[0].string_value();
    out += "\n";
  }
  return out;
}

StatusOr<double> Database::QueryDouble(std::string_view sql) {
  NLQ_ASSIGN_OR_RETURN(ResultSet result, Execute(sql));
  if (result.num_rows() != 1 || result.num_columns() != 1) {
    return Status::InvalidArgument(
        StringPrintf("expected 1x1 result, got %zux%zu", result.num_rows(),
                     result.num_columns()));
  }
  return result.GetDouble(0, 0);
}

}  // namespace nlq::engine
