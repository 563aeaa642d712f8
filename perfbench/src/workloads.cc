// The four workloads. Sizes are chosen so that a 20-second run on a
// 4-vCPU host completes well over 1,000 mix requests (p99 then has at
// least ten samples beyond it) while each still does the work its
// layer claim is about; README.md states why each workload exists.

#include <algorithm>
#include <mutex>

#include "common/strings.h"
#include "gen/datagen.h"
#include "harness.h"
#include "stats/linreg.h"
#include "stats/miner.h"
#include "stats/model_tables.h"
#include "stats/pca.h"
#include "stats/scoring.h"
#include "stats/sqlgen.h"

namespace nlq::perfbench {
namespace {

constexpr stats::MatrixKind kTriangular = stats::MatrixKind::kLowerTriangular;

gen::MixtureOptions Mixture(const RunConfig& config, uint64_t rows, size_t d,
                            bool with_y) {
  gen::MixtureOptions m;
  m.n = rows;
  m.d = d;
  m.with_y = with_y;
  m.seed = config.seed + 1;  // the generator's seed must not be 0
  return m;
}

/// The single-threaded, views-off replica the build oracle replays on,
/// with the serving database's partition and morsel layout.
std::unique_ptr<engine::Database> MakeReplica(
    const engine::DatabaseOptions& serving) {
  engine::DatabaseOptions o;
  o.num_partitions = serving.num_partitions;
  o.morsel_rows = serving.morsel_rows;
  o.num_threads = 1;
  o.enable_view_maintenance = false;
  auto db = std::make_unique<engine::Database>(o);
  if (!stats::RegisterAllStatsUdfs(&db->udfs()).ok()) return nullptr;
  return db;
}

/// A build statement of the mix.
struct BuildStatement {
  std::string sql;
  BuildShape shape;
};

/// Runs one build over the wire, records it for the oracle and
/// returns its decoded statistics (nullopt on failure).
std::optional<stats::SufStats> RunBuild(const BuildStatement& b, size_t d,
                                        Session* s, Verifier* v) {
  StatusOr<engine::ResultSet> r = s->Query(b.sql);
  if (!r.ok()) return std::nullopt;
  StatusOr<stats::SufStats> st = [&] {
    ScopedSpan span(s->tracer(), "client.decode", s->root(), s->request());
    return DecodeBuild(b.shape, *r, d);
  }();
  if (!st.ok()) {
    s->Fail("undecodable build reply: " + st.status().ToString());
    return std::nullopt;
  }
  ScopedSpan span(s->tracer(), "bench.gate_record", s->root(), s->request());
  v->RecordBuild(b.sql, static_cast<uint64_t>(st->n()), std::move(r).value());
  return std::move(st).value();
}

uint64_t Replies(const Verifier::DigestCounts& digests) {
  uint64_t n = 0;
  for (const auto& [digest, replies] : digests) n += replies.count;
  return n;
}

/// Replays every recorded build of a table that never changes.
Status VerifyStaticBuilds(engine::Database* replica, uint64_t rows,
                          Verifier* v) {
  for (const auto& [key, digests] : v->builds()) {
    if (key.rows != rows) {
      v->Mismatch(StringPrintf("build saw %llu rows of a %llu-row table",
                               static_cast<unsigned long long>(key.rows),
                               static_cast<unsigned long long>(rows)),
                  Replies(digests));
      continue;
    }
    NLQ_ASSIGN_OR_RETURN(engine::ResultSet expected,
                         replica->Execute(key.sql));
    v->CheckBuild(key, expected);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// model_build: the paper's Tables 1-3 path on a resident table.

class ModelBuild : public Workload {
 public:
  static constexpr uint64_t kRows = 8000;
  static constexpr size_t kDims = 32;

  explicit ModelBuild(const RunConfig& config) : Workload(config) {
    const auto cols = stats::DimensionColumns(kDims);
    builds_ = {
        {stats::NlqUdfQuery("X", cols, kTriangular, stats::ParamStyle::kList),
         BuildShape::kUdf},
        {stats::NlqSqlQuery("X", cols, kTriangular), BuildShape::kSql},
        {stats::NlqUdfQueryGrouped("X", cols, kTriangular,
                                   stats::ParamStyle::kList, "i % 16"),
         BuildShape::kGroupedUdf},
    };
    classes_ = {{"udf_build", 1.0 / 3, 40},
                {"sql_build", 1.0 / 3, 80},
                {"grouped_build", 1.0 / 3, 60}};
  }

  Status Setup() override {
    db_ = std::make_unique<engine::Database>(EngineOptions());
    NLQ_RETURN_IF_ERROR(stats::RegisterAllStatsUdfs(&db_->udfs()));
    NLQ_RETURN_IF_ERROR(
        gen::GenerateDataSetTable(db_.get(), "X",
                                  Mixture(config_, kRows, kDims, false))
            .status());
    NLQ_RETURN_IF_ERROR(CreatePointTable("M1"));
    return StartServer(4);
  }

  uint64_t Run(size_t cls, Session* s) override {
    std::optional<stats::SufStats> st =
        RunBuild(builds_[cls], kDims, s, verifier_);
    if (!st) return 0;
    // The analyst's client-side model math: regress the last dimension
    // on the others, and a 4-component PCA.
    ScopedSpan solve(s->tracer(), "linalg.solve", s->root(), s->request());
    auto reg = stats::FitLinearRegression(*st);
    auto pca = stats::FitPca(*st, 4);
    if (!reg.ok() || !pca.ok()) {
      s->Fail("client-side solve failed");
      return 0;
    }
    return static_cast<uint64_t>(st->n());
  }

  std::vector<RefStatement> References() const override {
    return {{"udf_build", builds_[0].sql, 1.0 / 3, true},
            {"sql_build", builds_[1].sql, 1.0 / 3, false},
            {"grouped_build", builds_[2].sql, 1.0 / 3, false},
            {"point", point_sql_, 0, false}};
  }
  std::string ProbeTable() const override { return "X"; }
  size_t ProbeDims() const override { return kDims; }

  Status Verify(Verifier* v) override {
    auto replica = MakeReplica(db_->options());
    if (replica == nullptr) return Status::Internal("replica set-up failed");
    NLQ_RETURN_IF_ERROR(
        gen::GenerateDataSetTable(replica.get(), "X",
                                  Mixture(config_, kRows, kDims, false))
            .status());
    return VerifyStaticBuilds(replica.get(), kRows, v);
  }

 private:
  std::vector<BuildStatement> builds_;
};

// ---------------------------------------------------------------------------
// scoring: the paper's Table 4 / Figure 6 path, materialized.

class Scoring : public Workload {
 public:
  static constexpr uint64_t kRows = 1000;
  static constexpr size_t kDims = 32;
  static constexpr size_t kComponents = 4;
  static constexpr size_t kClusters = 8;

  /// One CREATE TABLE ... AS step of a scoring request.
  struct Step {
    std::string table;
    std::string select;
  };

  explicit Scoring(const RunConfig& config) : Workload(config) {
    const std::string dist = "OUT_KM_SQL_D";
    requests_ = {
        {{"OUT_LR_UDF", stats::LinRegScoreUdfQuery("X", "X_BETA", kDims)}},
        {{"OUT_LR_SQL", stats::LinRegScoreSqlQuery("X", "X_BETA", kDims)}},
        {{"OUT_PCA_UDF", stats::PcaScoreUdfQuery("X", "X_MU", "X_LAMBDA",
                                                 kDims, kComponents)}},
        {{"OUT_PCA_SQL", stats::PcaScoreSqlQuery("X", "X_MU", "X_LAMBDA",
                                                 kDims, kComponents)}},
        {{"OUT_KM_UDF",
          stats::KMeansScoreUdfQuery("X", "X_C", kDims, kClusters)}},
        {{dist, stats::KMeansDistancesSqlQuery("X", "X_C", kDims, kClusters)},
         {"OUT_KM_SQL", stats::KMeansAssignSqlQuery(dist, kClusters)}},
    };
    classes_ = {{"linreg_udf", 1.0 / 6, 30}, {"linreg_sql", 1.0 / 6, 30},
                {"pca_udf", 1.0 / 6, 60},    {"pca_sql", 1.0 / 6, 120},
                {"kmeans_udf", 1.0 / 6, 60}, {"kmeans_sql", 1.0 / 6, 150}};
  }

  Status Setup() override {
    db_ = std::make_unique<engine::Database>(EngineOptions());
    NLQ_RETURN_IF_ERROR(stats::RegisterAllStatsUdfs(&db_->udfs()));
    NLQ_RETURN_IF_ERROR(
        gen::GenerateDataSetTable(db_.get(), "X",
                                  Mixture(config_, kRows, kDims, true))
            .status());
    stats::WarehouseMiner miner(db_.get());
    const auto cols = stats::DimensionColumns(kDims);
    NLQ_ASSIGN_OR_RETURN(
        auto reg, miner.BuildLinearRegression("X", cols, "Y",
                                              stats::ComputeVia::kUdfList));
    NLQ_ASSIGN_OR_RETURN(auto pca, miner.BuildPca("X", kDims, kComponents,
                                                  stats::ComputeVia::kUdfList));
    stats::KMeansOptions km_options;
    km_options.k = kClusters;
    km_options.max_iterations = 2;
    km_options.seed = config_.seed + 1;
    NLQ_ASSIGN_OR_RETURN(auto km,
                         miner.BuildKMeansInDbms("X", kDims, km_options));
    NLQ_RETURN_IF_ERROR(stats::StoreBetaTable(db_.get(), "X_BETA", reg));
    NLQ_RETURN_IF_ERROR(
        stats::StorePcaTables(db_.get(), "X_MU", "X_LAMBDA", pca));
    NLQ_RETURN_IF_ERROR(
        stats::StoreClusterTables(db_.get(), "X_C", "X_R", "X_W", km));
    // Every output table exists from the start, so a request's DROP
    // always has a target.
    for (const auto& steps : requests_) {
      for (const Step& step : steps) {
        NLQ_RETURN_IF_ERROR(db_->ExecuteCommand("CREATE TABLE " + step.table +
                                                " AS " + step.select));
      }
    }
    NLQ_RETURN_IF_ERROR(CreatePointTable("X_BETA"));
    return StartServer(4);
  }

  uint64_t Run(size_t cls, Session* s) override {
    uint64_t rows = 0;
    for (const Step& step : requests_[cls]) {
      if (!s->Query("DROP TABLE " + step.table).ok()) return 0;
      if (!s->Query("CREATE TABLE " + step.table + " AS " + step.select)
               .ok()) {
        return 0;
      }
      rows += kRows;
    }
    return rows;
  }

  std::vector<RefStatement> References() const override {
    std::vector<RefStatement> refs;
    for (size_t c = 0; c < requests_.size(); ++c) {
      const auto& steps = requests_[c];
      for (size_t k = 0; k < steps.size(); ++k) {
        refs.push_back({classes_[c].name + (steps.size() > 1
                                                ? "_step" + std::to_string(k)
                                                : std::string()),
                        steps[k].select,
                        classes_[c].weight / static_cast<double>(steps.size()),
                        false});
      }
    }
    refs.push_back({"point", point_sql_, 0, false});
    return refs;
  }
  std::string ProbeTable() const override { return "X"; }
  size_t ProbeDims() const override { return kDims; }

  /// The table each request left behind is compared with a
  /// force_interpreted replay of its SELECT over the same inputs.
  Status Verify(Verifier* v) override {
    engine::QueryOptions interpreted;
    interpreted.force_interpreted = true;
    for (size_t c = 0; c < requests_.size(); ++c) {
      for (const Step& step : requests_[c]) {
        NLQ_ASSIGN_OR_RETURN(engine::ResultSet stored,
                             db_->Execute("SELECT * FROM " + step.table));
        NLQ_ASSIGN_OR_RETURN(engine::ResultSet replay,
                             db_->Execute(step.select, interpreted));
        SortById(&stored);
        SortById(&replay);
        v->Check(classes_[c].name + " table " + step.table, replay,
                 std::move(stored));
      }
    }
    return Status::OK();
  }

 private:
  std::vector<std::vector<Step>> requests_;
};

// ---------------------------------------------------------------------------
// mixed_serve: contention between concurrent reads and appends. Appends
// grow T, which only the O(delta) view refresh reads; builds and scoring
// read S, generated like T's starting rows and never changed, so the
// load stays the same from the first second of a run to the last.

class MixedServe : public Workload {
 public:
  static constexpr uint64_t kRows = 8000;  // S, and T before any append
  static constexpr size_t kDims = 8;
  static constexpr uint64_t kBatchRows = 16;
  static constexpr size_t kLimit = 512;  // the soak's scoring_limit
  static constexpr size_t kSamplesKept = 16;  // scoring replies checked

  explicit MixedServe(const RunConfig& config)
      : Workload(config), appender_(AppendMixture(config)) {
    const auto cols = stats::DimensionColumns(kDims);
    refresh_ = {
        stats::NlqUdfQuery("T", cols, kTriangular, stats::ParamStyle::kList),
        BuildShape::kUdf};
    grouped_ = {stats::NlqUdfQueryGrouped("S", cols, kTriangular,
                                          stats::ParamStyle::kList, "i % 16"),
                BuildShape::kGroupedUdf};
    score_full_[0] = stats::LinRegScoreUdfQuery("S", "T_BETA", kDims);
    score_full_[1] = stats::LinRegScoreSqlQuery("S", "T_BETA", kDims);
    for (int k = 0; k < 2; ++k) {
      score_limit_[k] = score_full_[k] + " LIMIT " + std::to_string(kLimit);
    }
    // Weights and SLOs are the soak's (bench/soak/soak.h), renormalized
    // over the classes kept: its ungrouped build is the refresh, and the
    // point query takes the share and SLO of its cancel class, the other
    // cheap control statement (cancels stay off here). The iterative
    // rescans are left out.
    classes_ = {{"point", 0.12, 100},
                {"refresh", 0.22, 250},
                {"append", 0.24, 250},
                {"grouped_build", 0.14, 400},
                {"score", 0.18, 400}};
    const double total = 0.90;
    for (ClassSpec& c : classes_) c.weight /= total;
  }

  size_t clients() const override { return config_.threads; }

  Status Setup() override {
    engine::DatabaseOptions o = EngineOptions();
    o.enable_view_maintenance = true;
    db_ = std::make_unique<engine::Database>(o);
    NLQ_RETURN_IF_ERROR(stats::RegisterAllStatsUdfs(&db_->udfs()));
    NLQ_RETURN_IF_ERROR(LoadTables(db_.get()));
    stats::WarehouseMiner miner(db_.get());
    NLQ_ASSIGN_OR_RETURN(
        auto reg,
        miner.BuildLinearRegression("T", stats::DimensionColumns(kDims), "Y",
                                    stats::ComputeVia::kUdfList));
    NLQ_RETURN_IF_ERROR(stats::StoreBetaTable(db_.get(), "T_BETA", reg));
    // Seed the maintained view, so refreshes accumulate only appends.
    NLQ_RETURN_IF_ERROR(db_->Execute(refresh_.sql).status());
    NLQ_RETURN_IF_ERROR(CreatePointTable("T_BETA"));
    // Fewer admission slots than clients: statements queue.
    return StartServer(std::max<size_t>(1, clients() / 2));
  }

  uint64_t Run(size_t cls, Session* s) override {
    switch (cls) {
      case 0:
        return RunPoint(s);
      case 1: {
        // A refresh reads only the rows appended since the view was last
        // served; count those, not T's growing size.
        auto st = RunBuild(refresh_, kDims, s, verifier_);
        if (!st) return 0;
        const uint64_t n = static_cast<uint64_t>(st->n());
        std::lock_guard<std::mutex> lock(mu_);
        const uint64_t delta = n > refreshed_rows_ ? n - refreshed_rows_ : 0;
        refreshed_rows_ = std::max(refreshed_rows_, n);
        return delta;
      }
      case 2:
        return Append(s);
      case 3: {
        auto st = RunBuild(grouped_, kDims, s, verifier_);
        return st ? static_cast<uint64_t>(st->n()) : 0;
      }
      default: {
        const int style = static_cast<int>(s->rng().NextUint64(2));
        StatusOr<engine::ResultSet> r = s->Query(score_limit_[style]);
        if (!r.ok()) return 0;
        const uint64_t rows = r->num_rows();
        std::lock_guard<std::mutex> lock(mu_);
        if (score_samples_[style].size() < kSamplesKept) {
          score_samples_[style].push_back(std::move(r).value());
        }
        return rows;
      }
    }
  }

  std::vector<RefStatement> References() const override {
    return {{"point", point_sql_, classes_[0].weight, false},
            {"refresh", refresh_.sql, classes_[1].weight, false},
            {"grouped_build", grouped_.sql, classes_[3].weight, true},
            {"score_udf", score_limit_[0], classes_[4].weight / 2, false},
            {"score_sql", score_limit_[1], classes_[4].weight / 2, false}};
  }
  std::string ProbeTable() const override { return "S"; }
  size_t ProbeDims() const override { return kDims; }

  Status Verify(Verifier* v) override {
    std::vector<std::string> batches;
    {
      std::lock_guard<std::mutex> lock(mu_);
      batches = batches_;
    }
    const uint64_t final_rows = kRows + kBatchRows * batches.size();
    NLQ_ASSIGN_OR_RETURN(double count,
                         db_->QueryDouble("SELECT count(*) FROM T"));
    if (static_cast<uint64_t>(count) != final_rows) {
      v->Mismatch(StringPrintf("T holds %.0f rows after %zu appends, want %llu",
                               count, batches.size(),
                               static_cast<unsigned long long>(final_rows)));
    }

    // Builds: advance the replica batch by batch to each observed state.
    auto replica = MakeReplica(db_->options());
    if (replica == nullptr) return Status::Internal("replica set-up failed");
    NLQ_RETURN_IF_ERROR(LoadTables(replica.get()));
    size_t applied = 0;
    for (const auto& [key, digests] : v->builds()) {
      const bool on_s = key.sql == grouped_.sql;
      if (on_s ? key.rows != kRows
               : key.rows < kRows || (key.rows - kRows) % kBatchRows != 0 ||
          (key.rows - kRows) / kBatchRows > batches.size()) {
        v->Mismatch(StringPrintf("build saw %llu rows: not a state its table "
                                 "went through",
                                 static_cast<unsigned long long>(key.rows)),
                    Replies(digests));
        continue;
      }
      const size_t want = on_s ? applied : (key.rows - kRows) / kBatchRows;
      for (; applied < want; ++applied) {
        NLQ_RETURN_IF_ERROR(replica->ExecuteCommand(batches[applied]));
      }
      NLQ_ASSIGN_OR_RETURN(engine::ResultSet expected,
                           replica->Execute(key.sql));
      v->CheckBuild(key, expected);
    }

    // Scoring: each returned row must equal the force_interpreted score
    // of its id.
    engine::QueryOptions interpreted;
    interpreted.force_interpreted = true;
    for (int style = 0; style < 2; ++style) {
      NLQ_ASSIGN_OR_RETURN(engine::ResultSet full,
                           db_->Execute(score_full_[style], interpreted));
      SortById(&full);
      for (const engine::ResultSet& reply : score_samples_[style]) {
        engine::ResultSet expected(full.schema(), {});
        for (const storage::Row& row : reply.rows()) {
          const int64_t id = row[0].int_value();
          auto it = std::lower_bound(
              full.rows().begin(), full.rows().end(), id,
              [](const storage::Row& r, int64_t v) {
                return r[0].int_value() < v;
              });
          if (it == full.rows().end() || (*it)[0].int_value() != id) break;
          expected.mutable_rows().push_back(*it);
        }
        v->Check(style == 0 ? "score_udf reply" : "score_sql reply", expected,
                 reply);
      }
    }
    return Status::OK();
  }

 private:
  /// S and T start as the same generated rows.
  Status LoadTables(engine::Database* db) const {
    for (const char* table : {"S", "T"}) {
      NLQ_RETURN_IF_ERROR(
          gen::GenerateDataSetTable(db, table,
                                    Mixture(config_, kRows, kDims, true))
              .status());
    }
    return Status::OK();
  }

  static gen::MixtureOptions AppendMixture(const RunConfig& config) {
    // Same population as T (structure seed), a different stream.
    gen::MixtureOptions m = Mixture(config, 0, kDims, true);
    m.structure_seed = m.seed;
    m.seed = m.seed + 7919;
    return m;
  }

  /// Appends one batch. Batches are serialized so the table only ever
  /// moves through the logged batch boundaries the oracle replays.
  uint64_t Append(Session* s) {
    std::unique_lock<std::mutex> append_lock(append_mu_, std::defer_lock);
    {
      ScopedSpan wait(s->tracer(), "bench.append_order_wait", s->root(),
                      s->request());
      append_lock.lock();
    }
    std::string sql = "INSERT INTO T VALUES ";
    {
      ScopedSpan text(s->tracer(), "bench.append_text", s->root(),
                      s->request());
      const int64_t first_id =
          static_cast<int64_t>(kRows + kBatchRows * batches_.size()) + 1;
      double x[kDims];
      double y = 0;
      for (uint64_t j = 0; j < kBatchRows; ++j) {
        appender_.NextPoint(x, &y);
        if (j > 0) sql += ", ";
        sql += StringPrintf("(%lld", static_cast<long long>(first_id + j));
        for (size_t a = 0; a < kDims; ++a) sql += StringPrintf(", %.17g", x[a]);
        sql += StringPrintf(", %.17g)", y);
      }
    }
    if (!s->Query(sql).ok()) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    batches_.push_back(std::move(sql));
    return kBatchRows;
  }

  BuildStatement refresh_;
  BuildStatement grouped_;
  std::string score_full_[2];
  std::string score_limit_[2];

  std::mutex append_mu_;  // serializes appends, guards appender_
  gen::MixtureGenerator appender_;

  std::mutex mu_;
  std::vector<std::string> batches_;  // applied INSERTs, in order
  uint64_t refreshed_rows_ = kRows;   // largest n a refresh returned
  std::vector<engine::ResultSet> score_samples_[2];
};

// ---------------------------------------------------------------------------
// spilled_build: builds bound by the buffer pool and column decode.

class SpilledBuild : public Workload {
 public:
  static constexpr uint64_t kRows = 16000;
  static constexpr size_t kDims = 32;
  static constexpr uint64_t kPoolBytes = 1ull << 20;  // ~4x below the table

  explicit SpilledBuild(const RunConfig& config) : Workload(config) {
    const auto cols = stats::DimensionColumns(kDims);
    builds_ = {
        {stats::NlqUdfQuery("X", cols, kTriangular, stats::ParamStyle::kList),
         BuildShape::kUdf},
        {stats::NlqUdfQueryGrouped("X", cols, kTriangular,
                                   stats::ParamStyle::kList, "i % 16"),
         BuildShape::kGroupedUdf},
    };
    classes_ = {{"udf_build", 0.6, 30}, {"grouped_build", 0.4, 60}};
  }

  Status Setup() override {
    engine::DatabaseOptions o = EngineOptions();
    o.buffer_pool_bytes = kPoolBytes;
    db_ = std::make_unique<engine::Database>(o);
    NLQ_RETURN_IF_ERROR(stats::RegisterAllStatsUdfs(&db_->udfs()));
    NLQ_RETURN_IF_ERROR(
        gen::GenerateDataSetTable(db_.get(), "X",
                                  Mixture(config_, kRows, kDims, false))
            .status());
    NLQ_RETURN_IF_ERROR(db_->SpillTable("X"));
    NLQ_RETURN_IF_ERROR(CreatePointTable("M1"));
    return StartServer(4);
  }

  uint64_t Run(size_t cls, Session* s) override {
    auto st = RunBuild(builds_[cls], kDims, s, verifier_);
    return st ? static_cast<uint64_t>(st->n()) : 0;
  }

  std::vector<RefStatement> References() const override {
    return {{"udf_build", builds_[0].sql, 0.6, true},
            {"grouped_build", builds_[1].sql, 0.4, false},
            {"point", point_sql_, 0, false}};
  }
  std::string ProbeTable() const override { return "X"; }
  size_t ProbeDims() const override { return kDims; }

  /// The replica stays resident: spilled scans are bit-identical to
  /// resident ones, which is part of what this checks.
  Status Verify(Verifier* v) override {
    auto replica = MakeReplica(db_->options());
    if (replica == nullptr) return Status::Internal("replica set-up failed");
    NLQ_RETURN_IF_ERROR(
        gen::GenerateDataSetTable(replica.get(), "X",
                                  Mixture(config_, kRows, kDims, false))
            .status());
    return VerifyStaticBuilds(replica.get(), kRows, v);
  }

 private:
  std::vector<BuildStatement> builds_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"model_build", "scoring",
                                                 "mixed_serve",
                                                 "spilled_build"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config) {
  if (config.workload == "model_build") {
    return std::make_unique<ModelBuild>(config);
  }
  if (config.workload == "scoring") return std::make_unique<Scoring>(config);
  if (config.workload == "mixed_serve") {
    return std::make_unique<MixedServe>(config);
  }
  if (config.workload == "spilled_build") {
    return std::make_unique<SpilledBuild>(config);
  }
  return nullptr;
}

}  // namespace nlq::perfbench
