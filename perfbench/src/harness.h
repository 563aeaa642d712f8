#ifndef NLQ_PERFBENCH_HARNESS_H_
#define NLQ_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "engine/database.h"
#include "engine/result_set.h"
#include "server/client.h"
#include "server/server.h"
#include "stats/sufstats.h"
#include "trace.h"

namespace nlq::perfbench {

/// Engine layout of every workload (and of the oracle's replicas).
inline constexpr size_t kPartitions = 8;
inline constexpr uint64_t kMorselRows = 2048;

/// What one invocation of the benchmark runs.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Corrupt the first reply the correctness gate checks, to prove the
  /// gate rejects a wrong answer (the run must then fail).
  bool tamper = false;
  /// Engine worker threads and concurrent clients: min(4, nproc), never
  /// 0, so the engine never sizes itself from the host.
  size_t threads = 1;
  std::string out_dir;
  std::string source_id;
};

/// One request class of a workload's mix. A request is one statement,
/// except a scoring materialization (DROP + CREATE TABLE AS, and the
/// two-scan k-means chain), which the paper times as one unit.
struct ClassSpec {
  std::string name;
  double weight = 0;  // share of the mix
  double slo_ms = 0;
};

/// One request as the client saw it.
struct Sample {
  uint32_t cls = 0;
  bool ok = false;
  bool traced = false;
  uint32_t statements = 0;  // statements completed
  uint64_t rows = 0;        // table rows the request covered
  double latency_ms = 0;    // wire time of the request's statements
  double wall_ms = 0;       // the whole request, client-side work included
  double start_s = 0;       // since the measured window opened
  uint64_t request = 0;     // trace request id (0 when untraced)
  uint64_t root = 0;        // id of the request's root span
};

/// A statement the per-layer probes time at every altitude. Always a
/// SELECT, so it can be parsed, explained and executed alike.
struct RefStatement {
  std::string label;
  std::string sql;
  double weight = 0;         // mix weight, for aggregating per statement
  bool kernel_ref = false;   // denominator of kernel.share
};

/// One client thread's connection. Times every statement, records its
/// wire span under the current request, and counts outcomes.
class Session {
 public:
  explicit Session(uint64_t seed) : rng_(seed) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Status Connect(uint16_t port) { return client_.Connect("127.0.0.1", port); }

  /// Starts a request: resets the per-request counters. `tracer` is
  /// null for untraced requests.
  void BeginRequest(Tracer* tracer, uint64_t request, uint64_t root);

  /// Runs one statement over the wire.
  StatusOr<engine::ResultSet> Query(const std::string& sql);

  /// Where client-side work inside the current request records its
  /// spans (null when the request is untraced).
  Tracer* tracer() const { return tracer_; }
  uint64_t request() const { return request_; }
  uint64_t root() const { return root_; }

  double wire_ms() const { return wire_ms_; }
  uint32_t statements() const { return statements_; }
  bool failed() const { return failed_; }
  /// Marks the request failed (a wrong or unusable reply).
  void Fail(const std::string& why);
  const std::string& first_error() const { return first_error_; }

  Random& rng() { return rng_; }
  server::NlqClient& client() { return client_; }

 private:
  server::NlqClient client_;
  Random rng_;
  Tracer* tracer_ = nullptr;
  uint64_t request_ = 0;
  uint64_t root_ = 0;
  double wire_ms_ = 0;
  uint32_t statements_ = 0;
  bool failed_ = false;
  std::string first_error_;
};

/// FNV-1a over a result's shape and every datum's bits. It only groups
/// identical build replies so each distinct one is compared once; the
/// comparison itself is the soak's ExpectBitIdentical, datum by datum.
uint64_t DigestOf(const engine::ResultSet& r);

/// Sorts rows by the BIGINT id in column 0 (scored tables carry the
/// input's unique id; their physical order depends on the plan).
void SortById(engine::ResultSet* r);

/// Shapes of the n,L,Q build statements, and their decoding into
/// (merged) sufficient statistics.
enum class BuildShape { kUdf, kSql, kGroupedUdf };
StatusOr<stats::SufStats> DecodeBuild(BuildShape shape,
                                      const engine::ResultSet& r, size_t d);

/// The correctness gate. Build replies are recorded by (statement,
/// observed row count) and replayed after the run on a single-threaded,
/// views-off database holding exactly that table state; scored tables
/// are compared with a force_interpreted replay. Thread-safe.
class Verifier {
 public:
  explicit Verifier(bool tamper) : tamper_(tamper) {}

  /// Records a build reply, keyed by its statement and the row count
  /// it reports (n).
  void RecordBuild(const std::string& sql, uint64_t observed_rows,
                   engine::ResultSet reply);

  /// Compares a reply with its replay, counting a mismatch.
  void Check(const std::string& what, const engine::ResultSet& expected,
             engine::ResultSet actual);

  /// Counts `replies` wrong answers found elsewhere.
  void Mismatch(const std::string& what, uint64_t replies = 1);

  struct BuildKey {
    std::string sql;
    uint64_t rows = 0;
    bool operator<(const BuildKey& o) const {
      return rows != o.rows ? rows < o.rows : sql < o.sql;
    }
  };
  /// The replies recorded with one digest: how many, and the first.
  struct Replies {
    uint64_t count = 0;
    engine::ResultSet reply;
  };
  /// Digest of a reply -> the replies with that digest.
  using DigestCounts = std::map<uint64_t, Replies>;

  /// Recorded builds, ordered by observed row count (replay order).
  std::map<BuildKey, DigestCounts> builds() const;

  /// Compares every distinct reply recorded under `key` with
  /// `expected`; each reply that differs is one wrong answer.
  void CheckBuild(const BuildKey& key, const engine::ResultSet& expected);

  uint64_t checks() const;
  uint64_t mismatches() const;
  std::vector<std::string> errors() const;

 private:
  void MaybeTamper(engine::ResultSet* r);  // mu_ held
  void MismatchLocked(const std::string& what, uint64_t replies);

  const bool tamper_;
  mutable std::mutex mu_;
  bool tampered_ = false;
  std::map<BuildKey, DigestCounts> builds_;
  uint64_t checks_ = 0;
  uint64_t mismatches_ = 0;
  std::vector<std::string> errors_;  // first few
};

/// A workload: the database and server it sets up, its request mix,
/// its reference statements and its correctness gate.
class Workload {
 public:
  explicit Workload(const RunConfig& config) : config_(config) {}
  virtual ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Everything setup_s counts: generation, load, spill, model tables,
  /// view seeding and server start.
  virtual Status Setup() = 0;

  virtual size_t clients() const { return 1; }

  /// Runs one request of class `cls`; returns the table rows it
  /// covered. Statement errors are counted by the session.
  virtual uint64_t Run(size_t cls, Session* s) = 0;

  virtual std::vector<RefStatement> References() const = 0;

  /// Table and dimension columns the kernel and scoring-UDF probes
  /// read.
  virtual std::string ProbeTable() const = 0;
  virtual size_t ProbeDims() const = 0;

  /// The post-run correctness gate. The load has stopped.
  virtual Status Verify(Verifier* v) = 0;

  const std::vector<ClassSpec>& classes() const { return classes_; }
  engine::Database* db() { return db_.get(); }
  uint16_t port() const { return server_->port(); }

  /// Where build replies go for the post-run oracle. Set before the
  /// first request.
  void set_verifier(Verifier* v) { verifier_ = v; }

 protected:
  /// Runs the point query and checks its reply bit-exactly.
  uint64_t RunPoint(Session* s);

  engine::DatabaseOptions EngineOptions() const;
  Status StartServer(size_t max_concurrent_statements);
  /// Creates the one-row model table the point query reads, and
  /// remembers its value.
  Status CreatePointTable(const std::string& table);

  const RunConfig config_;
  std::vector<ClassSpec> classes_;
  std::string point_sql_;
  engine::ResultSet point_expected_;
  Verifier* verifier_ = nullptr;
  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<server::Server> server_;  // declared after db_: stops first
};

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config);
const std::vector<std::string>& WorkloadNames();

/// Runs the benchmark; prints the report and the result line. Returns
/// the process exit code.
int RunBenchmark(const RunConfig& config);

/// JSON object describing the host and build, with a short
/// single-thread calibration probe (main.cc).
std::string MachineBlock(const RunConfig& config, size_t clients);

}  // namespace nlq::perfbench

#endif  // NLQ_PERFBENCH_HARNESS_H_
