#include "harness.h"

#include <algorithm>
#include <cstring>

#include "bench/soak/soak.h"
#include "common/strings.h"
#include "stats/sqlgen.h"

namespace nlq::perfbench {

// ---------------------------------------------------------------------------
// Session

void Session::BeginRequest(Tracer* tracer, uint64_t request, uint64_t root) {
  tracer_ = tracer;
  request_ = request;
  root_ = root;
  wire_ms_ = 0;
  statements_ = 0;
  failed_ = false;
}

StatusOr<engine::ResultSet> Session::Query(const std::string& sql) {
  ScopedSpan span(tracer_, "server.wire", root_, request_);
  const Clock::time_point t0 = Clock::now();
  StatusOr<engine::ResultSet> r = client_.Query(sql);
  wire_ms_ +=
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (r.ok()) {
    ++statements_;
  } else {
    Fail(r.status().ToString() + " for [" + sql.substr(0, 120) + "]");
  }
  return r;
}

void Session::Fail(const std::string& why) {
  failed_ = true;
  if (first_error_.empty()) first_error_ = why;
}

// ---------------------------------------------------------------------------
// Result helpers

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

void Mix(const void* p, size_t n, uint64_t* h) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) {
    *h ^= b[i];
    *h *= 1099511628211ull;
  }
}

void MixRow(const storage::Row& row, uint64_t* h) {
  for (const storage::Datum& d : row) {
    const int tag = d.is_null() ? -1 : static_cast<int>(d.type());
    Mix(&tag, sizeof(tag), h);
    if (d.is_null()) continue;
    switch (d.type()) {
      case storage::DataType::kInt64: {
        const int64_t v = d.int_value();
        Mix(&v, sizeof(v), h);
        break;
      }
      case storage::DataType::kDouble: {
        const double v = d.double_value();
        Mix(&v, sizeof(v), h);
        break;
      }
      case storage::DataType::kVarchar:
        Mix(d.string_value().data(), d.string_value().size(), h);
        break;
    }
  }
}

}  // namespace

uint64_t DigestOf(const engine::ResultSet& r) {
  uint64_t h = kFnvOffset;
  const uint64_t shape[2] = {r.num_rows(), r.num_columns()};
  Mix(shape, sizeof(shape), &h);
  for (const storage::Row& row : r.rows()) MixRow(row, &h);
  return h;
}

void SortById(engine::ResultSet* r) {
  std::sort(r->mutable_rows().begin(), r->mutable_rows().end(),
            [](const storage::Row& a, const storage::Row& b) {
              return a[0].int_value() < b[0].int_value();
            });
}

StatusOr<stats::SufStats> DecodeBuild(BuildShape shape,
                                      const engine::ResultSet& r, size_t d) {
  switch (shape) {
    case BuildShape::kUdf:
      return stats::SufStatsFromUdfResult(r);
    case BuildShape::kSql:
      return stats::SufStatsFromWideRow(r, 0, d,
                                        stats::MatrixKind::kLowerTriangular);
    case BuildShape::kGroupedUdf: {
      if (r.num_rows() == 0) return Status::Internal("grouped build: no rows");
      NLQ_ASSIGN_OR_RETURN(stats::SufStats merged,
                           stats::SufStatsFromUdfResult(r, 0, 1));
      for (size_t g = 1; g < r.num_rows(); ++g) {
        NLQ_ASSIGN_OR_RETURN(stats::SufStats s,
                             stats::SufStatsFromUdfResult(r, g, 1));
        NLQ_RETURN_IF_ERROR(merged.Merge(s));
      }
      return merged;
    }
  }
  return Status::Internal("unknown build shape");
}

// ---------------------------------------------------------------------------
// Verifier

void Verifier::MaybeTamper(engine::ResultSet* r) {
  if (!tamper_ || tampered_) return;
  for (storage::Row& row : r->mutable_rows()) {
    for (storage::Datum& d : row) {
      if (d.is_null()) continue;
      if (d.type() == storage::DataType::kDouble) {
        uint64_t bits;
        const double v = d.double_value();
        std::memcpy(&bits, &v, sizeof(v));
        bits ^= 1;  // the last bit of the mantissa
        double flipped;
        std::memcpy(&flipped, &bits, sizeof(bits));
        d = storage::Datum::Double(flipped);
        tampered_ = true;
        return;
      }
      if (d.type() == storage::DataType::kVarchar &&
          !d.string_value().empty()) {
        std::string s = d.string_value();
        s.back() = s.back() == '1' ? '2' : '1';
        d = storage::Datum::Varchar(std::move(s));
        tampered_ = true;
        return;
      }
    }
  }
}

void Verifier::MismatchLocked(const std::string& what, uint64_t replies) {
  mismatches_ += replies;
  if (errors_.size() < 8) errors_.push_back(what);
}

void Verifier::Mismatch(const std::string& what, uint64_t replies) {
  std::lock_guard<std::mutex> lock(mu_);
  checks_ += replies;
  MismatchLocked(what, replies);
}

void Verifier::RecordBuild(const std::string& sql, uint64_t observed_rows,
                           engine::ResultSet reply) {
  std::lock_guard<std::mutex> lock(mu_);
  MaybeTamper(&reply);
  Replies& r = builds_[BuildKey{sql, observed_rows}][DigestOf(reply)];
  if (r.count++ == 0) r.reply = std::move(reply);
}

void Verifier::Check(const std::string& what,
                     const engine::ResultSet& expected,
                     engine::ResultSet actual) {
  std::lock_guard<std::mutex> lock(mu_);
  MaybeTamper(&actual);
  ++checks_;
  const Status same = soak::ExpectBitIdentical(expected, actual);
  if (!same.ok()) MismatchLocked(what + ": " + same.message(), 1);
}

std::map<Verifier::BuildKey, Verifier::DigestCounts> Verifier::builds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return builds_;
}

void Verifier::CheckBuild(const BuildKey& key,
                          const engine::ResultSet& expected) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [digest, replies] : builds_[key]) {
    checks_ += replies.count;
    const Status same = soak::ExpectBitIdentical(expected, replies.reply);
    if (same.ok()) continue;
    MismatchLocked(
        StringPrintf("%llu build replies at %llu rows differ from the "
                     "single-threaded views-off replay of [%s]: %s",
                     static_cast<unsigned long long>(replies.count),
                     static_cast<unsigned long long>(key.rows),
                     key.sql.substr(0, 80).c_str(), same.message().c_str()),
        replies.count);
  }
}

uint64_t Verifier::checks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checks_;
}

uint64_t Verifier::mismatches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mismatches_;
}

std::vector<std::string> Verifier::errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return errors_;
}

// ---------------------------------------------------------------------------
// Workload

Workload::~Workload() {
  if (server_ != nullptr) server_->Shutdown();
}

engine::DatabaseOptions Workload::EngineOptions() const {
  engine::DatabaseOptions o;
  o.num_partitions = kPartitions;
  o.num_threads = config_.threads;
  o.morsel_rows = kMorselRows;
  o.spill_directory = config_.out_dir;
  return o;
}

Status Workload::StartServer(size_t max_concurrent_statements) {
  server::ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  options.admission.max_concurrent_statements = max_concurrent_statements;
  // Every client fits in the queue and no wait times out: a refusal is
  // a failure of the run, never part of the load shape.
  options.admission.max_queue_depth = 64;
  options.admission.max_queue_wait_ms = 30'000;
  options.max_sessions = 16;
  server_ = std::make_unique<server::Server>(db_.get(), options);
  return server_->Start();
}

Status Workload::CreatePointTable(const std::string& table) {
  if (!db_->catalog().HasTable(table)) {
    NLQ_RETURN_IF_ERROR(
        db_->ExecuteCommand("CREATE TABLE " + table + " (b0 DOUBLE)"));
    NLQ_RETURN_IF_ERROR(db_->ExecuteCommand(
        StringPrintf("INSERT INTO %s VALUES (%.17g)", table.c_str(),
                     0.5 + static_cast<double>(config_.seed % 97) / 64.0)));
  }
  point_sql_ = "SELECT b0 FROM " + table;
  NLQ_ASSIGN_OR_RETURN(point_expected_, db_->Execute(point_sql_));
  if (point_expected_.num_rows() != 1) {
    return Status::Internal("point table must hold exactly one row");
  }
  return Status::OK();
}

uint64_t Workload::RunPoint(Session* s) {
  StatusOr<engine::ResultSet> r = s->Query(point_sql_);
  if (!r.ok()) return 0;
  const Status same = soak::ExpectBitIdentical(point_expected_, *r);
  if (!same.ok()) {
    s->Fail("point query returned a wrong value: " + same.message());
    return 0;
  }
  return 1;
}

}  // namespace nlq::perfbench
