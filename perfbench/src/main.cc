// nlq_perfbench: the repository benchmark. See ../README.md.
//
//   nlq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--tamper <0|1>] [--out-dir <dir>] [--source-id <id>]
//
// Prints a human-readable report, then as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Exits 0 only
// when every reply passed the correctness gate.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/strings.h"
#include "harness.h"
#include "stats/nlq_kernel.h"

#ifndef NLQ_PERFBENCH_BUILD_TYPE
#define NLQ_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace nlq::perfbench {
namespace {

size_t Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

/// Single-thread memory read bandwidth over a buffer larger than the
/// last-level cache, best of three passes.
double StreamGbPerS() {
  std::vector<double> buf(4u << 20, 1.0);  // 32 MiB
  double best = 0;
  volatile double sink = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    double a0 = 0, a1 = 0, a2 = 0, a3 = 0;
    for (size_t i = 0; i + 3 < buf.size(); i += 4) {
      a0 += buf[i];
      a1 += buf[i + 1];
      a2 += buf[i + 2];
      a3 += buf[i + 3];
    }
    sink = sink + a0 + a1 + a2 + a3;
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    best = std::max(best, static_cast<double>(buf.size() * sizeof(double)) /
                              s / 1e9);
  }
  return best;
}

/// Single-thread double-precision adds per second over eight
/// independent chains, best of three.
double FpAddsPerS() {
  constexpr int64_t kIters = 20'000'000;
  double best = 0;
  volatile double seed = 1e-9;
  volatile double sink = 0;
  for (int pass = 0; pass < 3; ++pass) {
    double a[8];
    for (int j = 0; j < 8; ++j) a[j] = j;
    const double inc = seed;
    const auto t0 = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < kIters; ++i) {
      for (int j = 0; j < 8; ++j) a[j] += inc;
    }
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    for (int j = 0; j < 8; ++j) sink = sink + a[j];
    best = std::max(best, 8.0 * kIters / s);
  }
  return best;
}

int Usage() {
  std::fprintf(stderr,
               "usage: nlq_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tamper <0|1>] "
               "[--out-dir <dir>] [--source-id <id>]\nworkloads:");
  for (const std::string& w : WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

std::string MachineBlock(const RunConfig& config, size_t clients) {
  return StringPrintf(
      "{\"nproc\": %zu, \"engine_threads\": %zu, \"clients\": %zu, "
      "\"num_partitions\": %zu, \"morsel_rows\": %llu, "
      "\"kernel_variant\": \"%s\", \"build_type\": \"%s\", "
      "\"source_id\": \"%s\", \"calibration\": {\"stream_gb_per_s\": %.3f, "
      "\"fp_adds_per_s\": %.4g}}",
      Nproc(), config.threads, clients, kPartitions,
      static_cast<unsigned long long>(kMorselRows), stats::NlqKernelVariant(), NLQ_PERFBENCH_BUILD_TYPE,
      config.source_id.c_str(), StreamGbPerS(), FpAddsPerS());
}

}  // namespace nlq::perfbench

int main(int argc, char** argv) {
  // Pin glibc's mmap and trim thresholds. Left adaptive, they depend on
  // the order of earlier frees, and identical runs then differ up to 4x
  // in page faults (and ~20% in throughput) for reasons outside the code
  // under test.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  using nlq::perfbench::RunConfig;
  RunConfig config;
  config.out_dir = ".";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && config.seconds > 0 &&
                     config.seconds <= 120;
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = config.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--tamper") {
      config.tamper = std::strcmp(value, "1") == 0;
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--source-id") {
      config.source_id = value;
    } else {
      return nlq::perfbench::Usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace ||
      std::find(nlq::perfbench::WorkloadNames().begin(),
                nlq::perfbench::WorkloadNames().end(),
                config.workload) == nlq::perfbench::WorkloadNames().end()) {
    return nlq::perfbench::Usage();
  }
  config.threads = std::min<size_t>(4, nlq::perfbench::Nproc());
  return nlq::perfbench::RunBenchmark(config);
}
