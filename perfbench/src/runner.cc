// The load loop, the per-layer probes and the report.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/metrics.h"
#include "common/strings.h"
#include "engine/exec/view_registry.h"
#include "engine/parser.h"
#include "harness.h"
#include "stats/linreg.h"
#include "stats/nlq_kernel.h"
#include "stats/pca.h"
#include "storage/buffer_pool.h"

namespace nlq::perfbench {
namespace {

/// Untraced runs set up this many times and report the median.
constexpr int kSetups = 15;
/// Traced runs alternate untraced and traced windows of this length, so
/// the tracing overhead is measured within one run, free of drift.
/// Untraced runs are one window.
constexpr double kTraceWindowS = 0.5;
/// Stated bound on the share of traced requests' wall latency that no
/// child span of the request covers.
constexpr double kUnattributedBound = 0.05;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Exact nearest-rank percentile of the samples themselves: with n
/// samples, p99 has n - ceil(0.99 n) samples beyond it.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::max<size_t>(rank, 1) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// End-to-end metrics from a set of samples.

struct EndToEnd {
  double stmts_per_s = 0;
  double rows_per_s = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  double goodput_per_s = 0;
  double cpu_ms_per_stmt = 0;
  size_t samples = 0;  // samples behind the latency percentiles
};

/// One window of the measured load.
struct Window {
  double duration_s = 0;
  double cpu_s = 0;  // whole-process CPU
  bool traced = false;
};

struct LoadResult {
  std::vector<Sample> samples;
  std::vector<Window> windows;
  double window_s = 0;
  std::string first_error;

  size_t WindowOf(const Sample& s) const {
    return std::min(windows.size() - 1,
                    static_cast<size_t>(s.start_s / window_s));
  }
};

/// End-to-end metrics over every window whose traced flag is `traced`
/// (every window when `traced` is null): totals over the whole time of
/// those windows, and percentiles over every sample that started in
/// them. Nothing is trimmed, so a stall of any length shows.
EndToEnd ComputeEndToEnd(const LoadResult& load, const Workload& w,
                         const bool* traced) {
  auto selected = [&](size_t k) {
    return traced == nullptr || load.windows[k].traced == *traced;
  };
  double seconds = 0, cpu_s = 0;
  for (size_t k = 0; k < load.windows.size(); ++k) {
    if (!selected(k)) continue;
    seconds += load.windows[k].duration_s;
    cpu_s += load.windows[k].cpu_s;
  }
  uint64_t statements = 0, rows = 0, good = 0;
  std::vector<double> latency;
  for (const Sample& s : load.samples) {
    if (!s.ok || !selected(load.WindowOf(s))) continue;
    latency.push_back(s.latency_ms);
    statements += s.statements;
    rows += s.rows;
    if (s.latency_ms <= w.classes()[s.cls].slo_ms) ++good;
  }
  EndToEnd e;
  e.stmts_per_s = Ratio(static_cast<double>(statements), seconds);
  e.rows_per_s = Ratio(static_cast<double>(rows), seconds);
  e.goodput_per_s = Ratio(static_cast<double>(good), seconds);
  e.cpu_ms_per_stmt = Ratio(cpu_s * 1e3, static_cast<double>(statements));
  e.latency_p50_ms = Percentile(latency, 0.5);
  e.latency_p99_ms = Percentile(latency, 0.99);
  e.samples = latency.size();
  return e;
}

/// The bounded end-to-end metrics of the load. The p99 is not among
/// them: on a shared host it moves with other tenants' load far more
/// than any bound allows (README.md), so it is only reported.
std::vector<Metric> EndToEndMetrics(const EndToEnd& e) {
  return {{"stmts_per_s", e.stmts_per_s, "1/s"},
          {"rows_per_s", e.rows_per_s, "1/s"},
          {"latency_p50_ms", e.latency_p50_ms, "ms"},
          {"goodput_per_s", e.goodput_per_s, "1/s"},
          {"cpu_ms_per_stmt", e.cpu_ms_per_stmt, "ms"}};
}

// ---------------------------------------------------------------------------
// The closed-loop load.

/// Runs one request and returns its sample.
Sample RunRequest(Workload* w, size_t cls, Session* s, Tracer* tracer) {
  Sample smp;
  smp.cls = static_cast<uint32_t>(cls);
  smp.traced = tracer != nullptr;
  smp.request = tracer != nullptr ? tracer->NewId() : 0;
  const Clock::time_point t0 = Clock::now();
  {
    const std::string name =
        tracer != nullptr ? "request." + w->classes()[cls].name : "";
    ScopedSpan root(tracer, name.c_str(), 0, smp.request);
    smp.root = root.id();
    s->BeginRequest(tracer, smp.request, root.id());
    smp.rows = w->Run(cls, s);
  }
  smp.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  smp.ok = !s->failed();
  smp.statements = s->statements();
  smp.latency_ms = s->wire_ms();
  return smp;
}

size_t PickMixClass(const Workload& w, Random* rng) {
  double total = 0;
  for (const ClassSpec& c : w.classes()) total += c.weight;
  double x = rng->NextDouble() * total;
  for (size_t c = 0; c < w.classes().size(); ++c) {
    if (w.classes()[c].weight <= 0) continue;
    if (x < w.classes()[c].weight) return c;
    x -= w.classes()[c].weight;
  }
  for (size_t c = w.classes().size(); c-- > 0;) {
    if (w.classes()[c].weight > 0) return c;
  }
  return 0;
}

/// Every client issues its next request only after the previous reply
/// (a closed loop).
LoadResult RunLoad(Workload* w, std::vector<std::unique_ptr<Session>>* sessions,
                   double seconds, Tracer* tracer) {
  const double slice_s = tracer != nullptr ? kTraceWindowS : seconds;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::vector<Sample>> per_client(sessions->size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < sessions->size(); ++i) {
    threads.emplace_back([&, i] {
      Session* s = (*sessions)[i].get();
      while (true) {
        const Clock::time_point now = Clock::now();
        if (now >= end) break;
        const bool traced =
            tracer != nullptr &&
            static_cast<int64_t>(Seconds(now - start) / slice_s) % 2 == 1;
        Tracer* t = traced ? tracer : nullptr;
        per_client[i].push_back(
            RunRequest(w, PickMixClass(*w, &s->rng()), s, t));
        per_client[i].back().start_s = Seconds(now - start);
      }
    });
  }
  // Sample process CPU at every window boundary. The last window also
  // holds the requests still running when the load stops.
  LoadResult out;
  out.window_s = slice_s;
  double cpu_prev = CpuSeconds();
  for (int64_t k = 1;; ++k) {
    const Clock::time_point boundary =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(slice_s * k));
    const bool last = boundary + std::chrono::milliseconds(1) >= end;
    if (last) {
      for (std::thread& t : threads) t.join();
    } else {
      std::this_thread::sleep_until(boundary);
    }
    const double cpu_now = CpuSeconds();
    const Clock::time_point window_end = last ? Clock::now() : boundary;
    Window win;
    win.duration_s =
        Seconds(window_end - start) - slice_s * static_cast<double>(k - 1);
    win.cpu_s = cpu_now - cpu_prev;
    win.traced = tracer != nullptr && (k - 1) % 2 == 1;
    out.windows.push_back(win);
    cpu_prev = cpu_now;
    if (last) break;
  }
  for (size_t i = 0; i < per_client.size(); ++i) {
    out.samples.insert(out.samples.end(), per_client[i].begin(),
                       per_client[i].end());
    if (out.first_error.empty()) {
      out.first_error = (*sessions)[i]->first_error();
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer probes: each layer's public entry point, timed from outside
// for every reference statement, with the server idle.

struct StatementProbe {
  RefStatement ref;
  std::vector<double> parse_us, explain_us, execute_ms, wire_ms;
  std::map<std::string, double> self_ns_by_op;
  double self_ns_total = 0;
  uint64_t rows_vectorized = 0;
  uint64_t leaf_rows = 0;
  std::vector<double> imbalance;
};

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

Status ProbeStatement(engine::Database* db, Session* s, Tracer* tracer,
                      StatementProbe* p) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(300);
  for (int rep = 0; rep < 20 && (rep < 3 || Clock::now() < deadline); ++rep) {
    const uint64_t req = tracer->NewId();
    const std::string root_name = "probe." + p->ref.label;
    ScopedSpan root(tracer, root_name.c_str(), 0, req);
    auto timed = [&](const char* name, auto&& fn) {
      ScopedSpan span(tracer, name, root.id(), req);
      const Clock::time_point t0 = Clock::now();
      Status st = fn();
      return std::make_pair(
          st, std::chrono::duration<double, std::micro>(Clock::now() - t0)
                  .count());
    };
    auto [parsed, parse_us] = timed("engine.parser", [&] {
      return engine::ParseStatement(p->ref.sql).status();
    });
    NLQ_RETURN_IF_ERROR(parsed);
    auto [explained, explain_us] = timed("engine.explain", [&] {
      return db->Explain(p->ref.sql).status();
    });
    NLQ_RETURN_IF_ERROR(explained);
    auto [executed, execute_us] = timed("engine.execute", [&] {
      return db->Execute(p->ref.sql).status();
    });
    NLQ_RETURN_IF_ERROR(executed);
    const std::optional<QueryStatsSnapshot> stats = db->last_query_stats();
    auto [wired, wire_us] = timed("server.wire", [&] {
      return s->client().Query(p->ref.sql).status();
    });
    NLQ_RETURN_IF_ERROR(wired);

    p->parse_us.push_back(parse_us);
    p->explain_us.push_back(explain_us);
    p->execute_ms.push_back(execute_us / 1e3);
    p->wire_ms.push_back(wire_us / 1e3);
    if (!stats) continue;
    // Operator self time, as EXPLAIN ANALYZE derives it: plans are
    // linear chains, so operators[i + 1] is operator i's only input.
    const auto& ops = stats->operators;
    for (size_t i = 0; i < ops.size(); ++i) {
      const uint64_t child = i + 1 < ops.size() ? ops[i + 1].time_ns : 0;
      const double self =
          static_cast<double>(ops[i].time_ns > child ? ops[i].time_ns - child
                                                     : 0);
      p->self_ns_by_op[ops[i].name] += self;
      p->self_ns_total += self;
    }
    p->rows_vectorized += stats->rows_vectorized;
    if (!ops.empty()) p->leaf_rows += ops.back().rows_out;
    const auto& claims = stats->worker_morsel_claims;
    uint64_t sum = 0, max = 0;
    for (uint64_t c : claims) {
      sum += c;
      max = std::max(max, c);
    }
    if (sum > 0) {
      p->imbalance.push_back(static_cast<double>(max) /
                             (static_cast<double>(sum) / claims.size()));
    }
  }
  return Status::OK();
}

/// Dimension columns of the probe table, column-major.
StatusOr<std::vector<std::vector<double>>> ReadColumns(engine::Database* db,
                                                       const std::string& table,
                                                       size_t d) {
  std::string sql = "SELECT ";
  for (size_t a = 1; a <= d; ++a) {
    sql += StringPrintf("%sX%zu", a > 1 ? ", " : "", a);
  }
  NLQ_ASSIGN_OR_RETURN(engine::ResultSet r, db->Execute(sql + " FROM " + table));
  std::vector<std::vector<double>> cols(d, std::vector<double>(r.num_rows()));
  for (size_t i = 0; i < r.num_rows(); ++i) {
    for (size_t a = 0; a < d; ++a) cols[a][i] = r.At(i, a).double_value();
  }
  return cols;
}

struct KernelProbe {
  double ns_per_row = 0;
  double gb_per_s = 0;
  double merge_ns = 0;
  double table_ms = 0;  // one accumulate over the whole table
};

KernelProbe ProbeKernel(const std::vector<std::vector<double>>& cols,
                        Tracer* tracer) {
  KernelProbe k;
  const size_t d = cols.size();
  const size_t rows = d == 0 ? 0 : cols[0].size();
  if (rows == 0) return k;
  std::vector<const double*> ptrs;
  for (const auto& c : cols) ptrs.push_back(c.data());
  auto state = std::make_unique<stats::NlqState>();
  auto other = std::make_unique<stats::NlqState>();
  std::vector<double> ns;
  const uint64_t req = tracer->NewId();
  for (int rep = 0; rep < 9; ++rep) {
    stats::ResetNlqState(state.get());
    if (!stats::SetNlqShape(state.get(), d, stats::MatrixKind::kLowerTriangular)
             .ok()) {
      return k;
    }
    ScopedSpan span(tracer, "stats.nlq_kernel", 0, req);
    const Clock::time_point t0 = Clock::now();
    stats::NlqAccumulateSpans(state.get(), ptrs.data(), rows);
    ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count()));
  }
  const double med = Median(ns);
  k.table_ms = med / 1e6;
  k.ns_per_row = med / static_cast<double>(rows);
  k.gb_per_s = static_cast<double>(rows * d * sizeof(double)) / med;
  *other = *state;
  constexpr int kMerges = 2000;
  {
    ScopedSpan span(tracer, "stats.nlq_merge", 0, req);
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kMerges; ++i) {
      if (!stats::NlqMergeStates(state.get(), other.get()).ok()) return k;
    }
    k.merge_ns = static_cast<double>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - t0)
                         .count()) /
                 kMerges;
  }
  return k;
}

/// ns per call of each scoring UDF, invoked directly through the
/// registry on the probe table's rows.
std::vector<Metric> ProbeScoringUdfs(const udf::UdfRegistry& registry,
                                     const std::vector<std::vector<double>>& cols,
                                     Tracer* tracer) {
  const size_t d = cols.size();
  const size_t rows = std::min<size_t>(d == 0 ? 0 : cols[0].size(), 1000);
  constexpr size_t kClusters = 8;
  struct Udf {
    const char* name;
    std::vector<std::vector<storage::Datum>> args;
  };
  std::vector<Udf> udfs = {{"linearregscore", {}},
                           {"fascore", {}},
                           {"kmeansdistance", {}},
                           {"clusterscore", {}}};
  for (size_t r = 0; r < rows; ++r) {
    std::vector<storage::Datum> x;
    for (size_t a = 0; a < d; ++a) {
      x.push_back(storage::Datum::Double(cols[a][r]));
    }
    auto with = [&](auto coef) {
      std::vector<storage::Datum> v = x;
      for (size_t a = 0; a < d; ++a) v.push_back(storage::Datum::Double(coef(a)));
      return v;
    };
    auto lr = with([](size_t a) { return 1.0 / static_cast<double>(a + 2); });
    lr.insert(lr.begin() + static_cast<std::ptrdiff_t>(d),
              storage::Datum::Double(0.5));  // b0 precedes b1..bd
    udfs[0].args.push_back(std::move(lr));
    auto fa = with([](size_t a) { return static_cast<double>(a) * 0.5; });
    for (size_t a = 0; a < d; ++a) {
      fa.push_back(storage::Datum::Double(1.0 / static_cast<double>(a + 3)));
    }
    udfs[1].args.push_back(std::move(fa));
    udfs[2].args.push_back(with([](size_t a) { return static_cast<double>(a); }));
    std::vector<storage::Datum> dist;
    for (size_t j = 0; j < kClusters; ++j) {
      dist.push_back(storage::Datum::Double(cols[j % d][r]));
    }
    udfs[3].args.push_back(std::move(dist));
  }
  std::vector<Metric> out;
  const uint64_t req = tracer->NewId();
  for (const Udf& u : udfs) {
    const udf::ScalarUdf* fn = registry.FindScalar(u.name);
    double value = 0;  // stays 0 if the UDF is missing or fails
    bool ok = fn != nullptr && rows > 0;
    std::vector<double> ns;
    for (int rep = 0; ok && rep < 5; ++rep) {
      const std::string span_name = std::string("stats.scoring.") + u.name;
      ScopedSpan span(tracer, span_name.c_str(), 0, req);
      const Clock::time_point t0 = Clock::now();
      for (const auto& a : u.args) ok = ok && fn->Invoke(a).ok();
      ns.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count()));
    }
    if (ok) value = Median(ns) / static_cast<double>(rows);
    out.push_back({std::string("scoring_udf.") + u.name + "_ns", value, "ns"});
  }
  return out;
}

/// Client-side model math at the probe table's dimensionality: linear
/// regression of the last column on the others plus a 4-component PCA.
double ProbeSolveUs(const std::vector<std::vector<double>>& cols,
                    Tracer* tracer) {
  const size_t d = cols.size();
  if (d < 2 || cols[0].empty()) return 0;
  stats::SufStats st(d, stats::MatrixKind::kLowerTriangular);
  std::vector<double> x(d);
  for (size_t r = 0; r < cols[0].size(); ++r) {
    for (size_t a = 0; a < d; ++a) x[a] = cols[a][r];
    st.Update(x);
  }
  std::vector<double> us;
  const uint64_t req = tracer->NewId();
  for (int rep = 0; rep < 9; ++rep) {
    ScopedSpan span(tracer, "linalg.solve", 0, req);
    const Clock::time_point t0 = Clock::now();
    if (!stats::FitLinearRegression(st).ok()) return 0;
    if (!stats::FitPca(st, std::min<size_t>(4, d)).ok()) return 0;
    us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return Median(us);
}

uint64_t Delta(const MetricsSnapshot& a, const MetricsSnapshot& b,
               const std::string& name) {
  auto get = [&](const MetricsSnapshot& s) -> uint64_t {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return get(b) - get(a);
}

server::HistogramSummary QueueWait(Session* s) {
  StatusOr<server::HistogramSummary> h =
      s->client().MetricsHistogram("server.queue_wait");
  return h.ok() ? *h : server::HistogramSummary{};
}

std::string Json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    out += StringPrintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i > 0 ? ", " : "", metrics[i].name.c_str(), v,
                        metrics[i].unit.c_str());
  }
  return out + "}";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out;
}

}  // namespace

int RunBenchmark(const RunConfig& config) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);

  // Set-up, repeated (and torn down) so setup_s is a median.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < (config.trace ? 1 : kSetups); ++i) {
    w.reset();
    w = MakeWorkload(config);
    const Clock::time_point t0 = Clock::now();
    const Status st = w->Setup();
    setup_s.push_back(Seconds(Clock::now() - t0));
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  Verifier verifier(config.tamper);
  w->set_verifier(&verifier);
  std::vector<std::unique_ptr<Session>> sessions;
  for (size_t c = 0; c < w->clients(); ++c) {
    sessions.push_back(std::make_unique<Session>(config.seed * 1000 + c + 1));
    const Status st = sessions.back()->Connect(w->port());
    if (!st.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // Warm-up: every class once per client, so caches, compiled
  // programs and the view are in place before timing.
  uint64_t failed = 0;
  std::string first_error;
  uint64_t attempted = 0;
  for (auto& s : sessions) {
    for (size_t c = 0; c < w->classes().size(); ++c) {
      ++attempted;
      if (!RunRequest(w.get(), c, s.get(), nullptr).ok) {
        ++failed;
        if (first_error.empty()) first_error = s->first_error();
      }
    }
  }

  Tracer tracer;
  storage::BufferPool* pool = w->db()->buffer_pool();
  const storage::BufferPoolStats pool0 =
      pool != nullptr ? pool->GetStats() : storage::BufferPoolStats{};
  const MetricsSnapshot m0 = engine::Database::GetMetricsSnapshot();
  const server::HistogramSummary q0 = QueueWait(sessions[0].get());
  LoadResult load = RunLoad(w.get(), &sessions, config.seconds,
                            config.trace ? &tracer : nullptr);
  const server::HistogramSummary q1 = QueueWait(sessions[0].get());
  const MetricsSnapshot m1 = engine::Database::GetMetricsSnapshot();
  const storage::BufferPoolStats pool1 =
      pool != nullptr ? pool->GetStats() : storage::BufferPoolStats{};
  const double peak_rss_mb = PeakRssMb();
  // The calibration probe allocates 32 MiB: run it only once the peak
  // RSS of the measured run has been read.
  const std::string machine = MachineBlock(config, w->clients());
  std::printf("machine %s\n", machine.c_str());
  if (first_error.empty()) first_error = load.first_error;

  attempted += load.samples.size();
  uint64_t statements = 0;
  double wire_ms = 0;
  for (const Sample& s : load.samples) {
    if (!s.ok) ++failed;
    statements += s.statements;
    wire_ms += s.latency_ms;
  }
  double elapsed = 0, cpu = 0;
  for (const Window& win : load.windows) {
    elapsed += win.duration_s;
    cpu += win.cpu_s;
  }
  const EndToEnd e2e = ComputeEndToEnd(load, *w, nullptr);

  // Per-layer numbers (traced runs).
  std::vector<Metric> layers;
  std::string probe_json = "[]";
  double unattributed_share = 0;
  if (config.trace) {
    Session* s = sessions[0].get();
    engine::Database* db = w->db();
    std::vector<StatementProbe> probes;
    for (const RefStatement& ref : w->References()) {
      probes.push_back({});
      probes.back().ref = ref;
      const Status st = ProbeStatement(db, s, &tracer, &probes.back());
      if (!st.ok()) {
        ++failed;
        if (first_error.empty()) first_error = "probe: " + st.ToString();
      }
    }
    auto cols = ReadColumns(db, w->ProbeTable(), w->ProbeDims());
    if (!cols.ok()) {
      ++failed;
      if (first_error.empty()) first_error = "probe: " + cols.status().ToString();
      cols = std::vector<std::vector<double>>{};
    }
    const KernelProbe kernel = ProbeKernel(*cols, &tracer);
    const std::vector<Metric> udfs =
        ProbeScoringUdfs(db->udfs(), *cols, &tracer);
    const double solve_us = ProbeSolveUs(*cols, &tracer);

    // Mix-weighted aggregates over the reference statements.
    double wsum = 0, parse = 0, plan = 0, exec = 0, wire_over = 0, imb = 0,
           imb_w = 0, kernel_exec_ms = 0, point_wire_us = 0;
    double self_total = 0;
    uint64_t vectorized = 0, leaf = 0;
    std::map<std::string, double> self_by_op;
    probe_json = "[";
    for (const StatementProbe& p : probes) {
      if (p.parse_us.empty()) continue;
      const double wt = p.ref.weight;
      const double pu = Median(p.parse_us), eu = Median(p.explain_us),
                   xm = Median(p.execute_ms), wm = Median(p.wire_ms);
      wsum += wt;
      parse += wt * pu;
      plan += wt * (eu - pu);
      exec += wt * xm;
      wire_over += wt * (wm - xm) * 1e3;
      if (!p.imbalance.empty()) {
        imb += wt * Median(p.imbalance);
        imb_w += wt;
      }
      if (p.ref.kernel_ref) kernel_exec_ms = xm;
      if (p.ref.label == "point") point_wire_us = wm * 1e3;
      const double reps = static_cast<double>(p.parse_us.size());
      for (const auto& [op, ns] : p.self_ns_by_op) {
        self_by_op[op] += wt * ns / reps;
      }
      self_total += wt * p.self_ns_total / reps;
      vectorized += p.rows_vectorized;
      leaf += p.leaf_rows;
      probe_json += StringPrintf(
          "%s{\"label\": \"%s\", \"weight\": %.4f, \"parse_us\": %.3f, "
          "\"plan_us\": %.3f, \"execute_ms\": %.4f, \"wire_ms\": %.4f, "
          "\"reps\": %zu}",
          probe_json.size() > 1 ? ", " : "", p.ref.label.c_str(), wt, pu,
          eu - pu, xm, wm, p.parse_us.size());
    }
    probe_json += "]";

    const uint64_t cache_hits = Delta(m0, m1, "storage.column_cache.hits");
    const uint64_t cache_misses = Delta(m0, m1, "storage.column_cache.misses");
    const uint64_t compiles = Delta(m0, m1, "bytecode.compiles");
    const uint64_t code_hits = Delta(m0, m1, "bytecode.cache_hits");
    const uint64_t view_hits = Delta(m0, m1, "view.hits");
    const uint64_t view_misses = Delta(m0, m1, "view.misses");
    uint64_t rejected = 0;
    for (const char* r : {"server.admission.rejected_queue",
                          "server.admission.rejected_timeout",
                          "server.admission.rejected_cancelled",
                          "server.admission.rejected_shutdown"}) {
      rejected += Delta(m0, m1, r);
    }
    const uint64_t admitted = Delta(m0, m1, "server.admission.admitted");
    const double stmts = static_cast<double>(statements);
    engine::exec::ViewRegistry* views = db->view_registry();

    std::vector<double> refresh, append, point;
    for (const Sample& smp : load.samples) {
      if (!smp.ok) continue;
      const std::string& name = w->classes()[smp.cls].name;
      if (name == "refresh") refresh.push_back(smp.latency_ms);
      if (name == "append") append.push_back(smp.latency_ms);
      if (name == "point") point.push_back(smp.latency_ms);
    }

    // Unattributed time: the part of each traced request's wall latency,
    // as the loop measured it, that none of its root span's children
    // (wire calls, decode, solve, gate bookkeeping) covers.
    const std::map<uint64_t, double> covered = tracer.ChildMsByParent();
    double traced_wall = 0, unattributed = 0;
    for (const Sample& smp : load.samples) {
      if (!smp.traced) continue;
      auto it = covered.find(smp.root);
      traced_wall += smp.wall_ms;
      unattributed += smp.wall_ms - (it == covered.end() ? 0 : it->second);
    }

    layers = {
        {"server.wire_overhead_us", Ratio(wire_over, wsum), "us"},
        // The point query over the wire with the server idle: the fixed
        // cost every statement pays.
        {"server.point_wire_us", point_wire_us, "us"},
        {"admission.queue_wait_p50_ms",
         static_cast<double>(q1.p50_nanos) / 1e6, "ms_pow2"},
        {"admission.queue_wait_p99_ms",
         static_cast<double>(q1.p99_nanos) / 1e6, "ms_pow2"},
        {"admission.queue_wait_share",
         Ratio(static_cast<double>(q1.sum_nanos - q0.sum_nanos) / 1e6,
               wire_ms),
         "ratio"},
        {"admission.rejected_ratio",
         Ratio(static_cast<double>(rejected),
               static_cast<double>(admitted + rejected)),
         "ratio"},
        {"parser.parse_us", Ratio(parse, wsum), "us"},
        {"planner.plan_us", Ratio(plan, wsum), "us"},
        {"exec.execute_ms", Ratio(exec, wsum), "ms"},
    };
    for (const char* op :
         {"ColumnarScan", "ColumnarAggregate", "VectorHashAggregate",
          "HashAggregate", "MaintainedViewScan", "CrossJoin", "Project",
          "VectorProject", "Filter", "VectorFilter", "ParallelScan",
          "Gather"}) {
      auto it = self_by_op.find(op);
      layers.push_back(
          {std::string("exec.self_share.") + op,
           Ratio(it == self_by_op.end() ? 0 : it->second, self_total),
           "ratio"});
    }
    layers.insert(
        layers.end(),
        {
            {"exec.rows_vectorized_ratio",
             Ratio(static_cast<double>(vectorized), static_cast<double>(leaf)),
             "ratio"},
            {"exec.morsel_claim_imbalance", Ratio(imb, imb_w), "ratio"},
            {"bytecode.compiles_per_stmt",
             Ratio(static_cast<double>(compiles), stmts), "count"},
            {"bytecode.cache_hit_ratio",
             Ratio(static_cast<double>(code_hits),
                   static_cast<double>(code_hits + compiles)),
             "ratio"},
            {"view.hit_ratio",
             Ratio(static_cast<double>(view_hits),
                   static_cast<double>(view_hits + view_misses)),
             "ratio"},
            {"view.delta_rows_per_refresh",
             Ratio(static_cast<double>(Delta(m0, m1, "view.delta_rows")),
                   static_cast<double>(view_hits)),
             "count"},
            {"view.rebuilds", static_cast<double>(Delta(m0, m1, "view.rebuilds")),
             "count"},
            {"view.state_bytes",
             views != nullptr ? static_cast<double>(views->state_bytes()) : 0,
             "bytes"},
            {"kernel.ns_per_row", kernel.ns_per_row, "ns"},
            {"kernel.computed_gb_per_s", kernel.gb_per_s, "GB/s"},
            // Kernel-only time over the CPU time the statement had
            // (Execute wall x engine threads): the kernel runs on every
            // worker at once.
            {"kernel.share",
             Ratio(kernel.table_ms,
                   kernel_exec_ms * static_cast<double>(config.threads)),
             "ratio"},
            {"kernel.variant",
             std::string(stats::NlqKernelVariant()) == "scalar" ? 0.0 : 1.0,
             "code"},
            {"kernel.merge_ns", kernel.merge_ns, "ns"},
        });
    layers.insert(layers.end(), udfs.begin(), udfs.end());
    layers.insert(
        layers.end(),
        {
            {"column_cache.hit_ratio",
             Ratio(static_cast<double>(cache_hits),
                   static_cast<double>(cache_hits + cache_misses)),
             "ratio"},
            {"storage.pages_decoded_per_stmt",
             Ratio(static_cast<double>(
                       Delta(m0, m1, "storage.pages_decoded")),
                   stmts),
             "count"},
            {"buffer_pool.hit_ratio",
             Ratio(static_cast<double>(pool1.hits - pool0.hits),
                   static_cast<double>(pool1.hits - pool0.hits + pool1.misses -
                                       pool0.misses)),
             "ratio"},
            {"buffer_pool.evictions_per_stmt",
             Ratio(static_cast<double>(pool1.evictions - pool0.evictions),
                   stmts),
             "count"},
            {"buffer_pool.readahead_hit_ratio",
             Ratio(static_cast<double>(pool1.readahead_hits -
                                       pool0.readahead_hits),
                   static_cast<double>(pool1.hits - pool0.hits + pool1.misses -
                                       pool0.misses)),
             "ratio"},
            {"threadpool.busy_ratio",
             Ratio(cpu, elapsed * static_cast<double>(config.threads)),
             "ratio"},
            {"linalg.solve_us", solve_us, "us"},
            {"mixed.refresh_p50_ms", Percentile(refresh, 0.5), "ms"},
            {"mixed.append_p99_ms", Percentile(append, 0.99), "ms"},
            {"mixed.point_p99_ms", Percentile(point, 0.99), "ms"},
        });
    // Tracing overhead: traced slices against untraced slices.
    const bool kOff = false, kOn = true;
    const std::vector<Metric> off =
        EndToEndMetrics(ComputeEndToEnd(load, *w, &kOff));
    const std::vector<Metric> on =
        EndToEndMetrics(ComputeEndToEnd(load, *w, &kOn));
    for (size_t i = 0; i < off.size(); ++i) {
      layers.push_back({"trace.overhead." + off[i].name,
                        off[i].value > 0 ? on[i].value / off[i].value - 1 : 0,
                        "ratio"});
    }
    unattributed_share = Ratio(unattributed, traced_wall);
    layers.push_back(
        {"trace.unattributed_share", unattributed_share, "ratio"});
    layers.push_back(
        {"trace.spans", static_cast<double>(tracer.size()), "count"});
  }

  // The correctness gate, after the load (and the probes) stopped.
  const Status verified = w->Verify(&verifier);
  if (!verified.ok()) {
    ++failed;
    if (first_error.empty()) first_error = "verify: " + verified.ToString();
  }
  failed += verifier.mismatches();
  const bool correct = failed == 0 && verified.ok() && verifier.checks() > 0;

  const std::vector<Metric> e2e_metrics = [&] {
    std::vector<Metric> m = {{"setup_s", Percentile(setup_s, 0.5), "s"}};
    const std::vector<Metric> rest = EndToEndMetrics(e2e);
    m.insert(m.end(), rest.begin(), rest.end());
    m.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
    return m;
  }();

  // Human-readable report.
  for (const Metric& m : e2e_metrics) {
    std::printf("metric %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  {
    // Mix requests started in each second of the window: tells a stall
    // or drift apart from a uniform slowdown.
    std::vector<int> per_second(static_cast<size_t>(config.seconds) + 1, 0);
    for (const Sample& s : load.samples) {
      if (w->classes()[s.cls].weight > 0) {
        ++per_second[std::min(per_second.size() - 1,
                              static_cast<size_t>(s.start_s))];
      }
    }
    std::printf("timeline mix requests per second:");
    for (int n : per_second) std::printf(" %d", n);
    std::printf("\n");
  }
  std::printf("report latency_p99_ms %.4f ms from %zu samples (not bounded)\n",
              e2e.latency_p99_ms, e2e.samples);
  if (e2e.samples < 1000) {
    std::printf("WARNING: fewer than 1000 samples behind a p99\n");
  }
  std::string classes_json = "{";
  for (size_t c = 0; c < w->classes().size(); ++c) {
    std::vector<double> lat;
    uint64_t n = 0, ok = 0, good = 0;
    for (const Sample& s : load.samples) {
      if (s.cls != c) continue;
      ++n;
      if (!s.ok) continue;
      ++ok;
      lat.push_back(s.latency_ms);
      if (s.latency_ms <= w->classes()[c].slo_ms) ++good;
    }
    const ClassSpec& spec = w->classes()[c];
    std::printf(
        "class %-14s n=%-6llu ok=%-6llu p50=%.3fms p90=%.3fms p99=%.3fms "
        "slo=%.0fms within=%.4f\n",
        spec.name.c_str(), static_cast<unsigned long long>(n),
        static_cast<unsigned long long>(ok), Percentile(lat, 0.5),
        Percentile(lat, 0.9), Percentile(lat, 0.99), spec.slo_ms,
        Ratio(static_cast<double>(good), static_cast<double>(ok)));
    classes_json += StringPrintf(
        "%s\"%s\": {\"weight\": %.4f, \"slo_ms\": %.1f, \"attempted\": %llu, "
        "\"ok\": %llu, \"p50_ms\": %.4f, \"p99_ms\": %.4f}",
        c > 0 ? ", " : "", spec.name.c_str(), spec.weight, spec.slo_ms,
        static_cast<unsigned long long>(n), static_cast<unsigned long long>(ok),
        Percentile(lat, 0.5), Percentile(lat, 0.99));
  }
  classes_json += "}";
  std::printf("error_rate %.6f (failed %llu of %llu attempted)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("gate checks=%llu mismatches=%llu\n",
              static_cast<unsigned long long>(verifier.checks()),
              static_cast<unsigned long long>(verifier.mismatches()));
  for (const std::string& e : verifier.errors()) {
    std::printf("gate: %s\n", e.c_str());
  }
  if (!first_error.empty()) std::printf("first error: %s\n", first_error.c_str());
  for (const Metric& m : layers) {
    std::printf("layer %-40s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (config.trace) {
    for (const auto& [name, t] : tracer.TotalsByName()) {
      std::printf("span %-40s count=%-7llu total=%.3fms self=%.3fms\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_ms, t.self_ms);
    }
    std::printf(
        "unattributed share of traced wall latency: %.4f (stated bound "
        "%.2f)\n",
        unattributed_share, kUnattributedBound);
    if (unattributed_share > kUnattributedBound) {
      std::printf(
          "WARNING: the spans leave more than %.0f%% of the traced wall "
          "latency unattributed\n",
          kUnattributedBound * 100);
      std::fprintf(stderr,
                   "perfbench: unattributed share %.4f exceeds the stated "
                   "bound %.2f\n",
                   unattributed_share, kUnattributedBound);
    }
  }

  // Report and span files.
  const std::string stem = StringPrintf(
      "%s/%s-seed%llu-trace%d", config.out_dir.c_str(), config.workload.c_str(),
      static_cast<unsigned long long>(config.seed), config.trace ? 1 : 0);
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::string setups = "[";
    for (size_t i = 0; i < setup_s.size(); ++i) {
      setups += StringPrintf("%s%.6f", i > 0 ? ", " : "", setup_s[i]);
    }
    setups += "]";
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                 "\"trace\": %d,\n \"machine\": %s,\n \"setup_s\": %s,\n "
                 "\"end_to_end\": %s,\n \"latency_p99_ms\": %.6f,\n "
                 "\"per_layer\": %s,\n \"classes\": %s,\n "
                 "\"probes\": %s,\n \"correct\": %s, \"attempted\": %llu, "
                 "\"failed\": %llu, \"first_error\": \"%s\"}\n",
                 config.workload.c_str(),
                 static_cast<unsigned long long>(config.seed), config.seconds,
                 config.trace ? 1 : 0, machine.c_str(), setups.c_str(),
                 Json(e2e_metrics).c_str(), e2e.latency_p99_ms,
                 Json(layers).c_str(),
                 classes_json.c_str(), probe_json.c_str(),
                 correct ? "true" : "false",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed),
                 JsonEscape(first_error).c_str());
    std::fclose(f);
  }
  if (config.trace && !tracer.Dump(stem + ".spans.jsonl")) {
    std::fprintf(stderr, "could not write %s.spans.jsonl\n", stem.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              Json(config.trace ? layers : e2e_metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace nlq::perfbench
