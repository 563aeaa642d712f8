#include "stats/nlq_kernel.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <string>

#include "common/strings.h"

#if defined(__x86_64__) || defined(__amd64__)
#include <immintrin.h>
#define NLQ_KERNEL_X86 1
#endif

namespace nlq::stats {
namespace {

/// Rows per block: one block of a 64-dim scan is ~512 KB of column
/// data, so the Q passes re-read it from cache instead of RAM.
constexpr size_t kRowBlock = 1024;

/// Accumulator chains per inner loop. Each q[a][b] (and l[a]) is a
/// strict sequential FP reduction — required for bit-identity with the
/// row path — so a single chain is add-latency-bound; kTile parallel
/// chains over *different* accumulators restore throughput.
constexpr size_t kTile = 8;

/// L + min/max for columns [a0, a0+an) over one row block.
void AccumulateLMinMax(NlqState* s, const double* const* cols, size_t a0,
                       size_t an, size_t rows) {
  double lacc[kTile], mn[kTile], mx[kTile];
  const double* x[kTile];
  for (size_t j = 0; j < an; ++j) {
    lacc[j] = s->l[a0 + j];
    mn[j] = s->mn[a0 + j];
    mx[j] = s->mx[a0 + j];
    x[j] = cols[a0 + j];
  }
  if (an == kTile) {
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < kTile; ++j) {
        const double v = x[j][r];
        lacc[j] += v;
        if (v < mn[j]) mn[j] = v;
        if (v > mx[j]) mx[j] = v;
      }
    }
  } else {
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < an; ++j) {
        const double v = x[j][r];
        lacc[j] += v;
        if (v < mn[j]) mn[j] = v;
        if (v > mx[j]) mx[j] = v;
      }
    }
  }
  for (size_t j = 0; j < an; ++j) {
    s->l[a0 + j] = lacc[j];
    s->mn[a0 + j] = mn[j];
    s->mx[a0 + j] = mx[j];
  }
}

/// One Q row tile: qrow[b0..b0+bn) += xa . x_b over the row block.
void AccumulateQTile(double* qrow, const double* xa, const double* const* cols,
                     size_t b0, size_t bn, size_t rows) {
  double acc[kTile];
  const double* xb[kTile];
  for (size_t j = 0; j < bn; ++j) {
    acc[j] = qrow[b0 + j];
    xb[j] = cols[b0 + j];
  }
  if (bn == kTile) {
    for (size_t r = 0; r < rows; ++r) {
      const double v = xa[r];
      for (size_t j = 0; j < kTile; ++j) acc[j] += v * xb[j][r];
    }
  } else {
    for (size_t r = 0; r < rows; ++r) {
      const double v = xa[r];
      for (size_t j = 0; j < bn; ++j) acc[j] += v * xb[j][r];
    }
  }
  for (size_t j = 0; j < bn; ++j) qrow[b0 + j] = acc[j];
}

/// Diagonal kind: L, Q diagonal, and min/max fused in one pass per
/// column tile.
void AccumulateDiagTile(NlqState* s, const double* const* cols, size_t a0,
                        size_t an, size_t rows) {
  double lacc[kTile], qacc[kTile], mn[kTile], mx[kTile];
  const double* x[kTile];
  for (size_t j = 0; j < an; ++j) {
    lacc[j] = s->l[a0 + j];
    qacc[j] = s->q[a0 + j][a0 + j];
    mn[j] = s->mn[a0 + j];
    mx[j] = s->mx[a0 + j];
    x[j] = cols[a0 + j];
  }
  if (an == kTile) {
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < kTile; ++j) {
        const double v = x[j][r];
        lacc[j] += v;
        qacc[j] += v * v;
        if (v < mn[j]) mn[j] = v;
        if (v > mx[j]) mx[j] = v;
      }
    }
  } else {
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < an; ++j) {
        const double v = x[j][r];
        lacc[j] += v;
        qacc[j] += v * v;
        if (v < mn[j]) mn[j] = v;
        if (v > mx[j]) mx[j] = v;
      }
    }
  }
  for (size_t j = 0; j < an; ++j) {
    s->l[a0 + j] = lacc[j];
    s->q[a0 + j][a0 + j] = qacc[j];
    s->mn[a0 + j] = mn[j];
    s->mx[a0 + j] = mx[j];
  }
}

/// The blocked + tiled scalar implementation — the bit-exactness
/// oracle the AVX2 path is verified against.
void AccumulateSpansScalar(NlqState* s, const double* const* cols,
                           size_t rows) {
  const size_t d = static_cast<size_t>(s->d);
  const MatrixKind kind = static_cast<MatrixKind>(s->kind);
  const double* shifted[kMaxUdfDims];
  for (size_t r0 = 0; r0 < rows; r0 += kRowBlock) {
    const size_t rn = std::min(kRowBlock, rows - r0);
    for (size_t a = 0; a < d; ++a) shifted[a] = cols[a] + r0;
    if (kind == MatrixKind::kDiagonal) {
      for (size_t a0 = 0; a0 < d; a0 += kTile) {
        AccumulateDiagTile(s, shifted, a0, std::min(kTile, d - a0), rn);
      }
      continue;
    }
    for (size_t a0 = 0; a0 < d; a0 += kTile) {
      AccumulateLMinMax(s, shifted, a0, std::min(kTile, d - a0), rn);
    }
    for (size_t a = 0; a < d; ++a) {
      const size_t bmax = kind == MatrixKind::kLowerTriangular ? a + 1 : d;
      for (size_t b0 = 0; b0 < bmax; b0 += kTile) {
        AccumulateQTile(s->q[a], shifted[a], shifted, b0,
                        std::min(kTile, bmax - b0), rn);
      }
    }
  }
}

std::atomic<NlqKernelMode> g_kernel_mode{NlqKernelMode::kAuto};

bool CpuHasAvx2() {
#if defined(NLQ_KERNEL_X86)
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

bool SimdSelected() {
  switch (g_kernel_mode.load(std::memory_order_relaxed)) {
    case NlqKernelMode::kScalar:
      return false;
    case NlqKernelMode::kSimd:
    case NlqKernelMode::kAuto:
      return CpuHasAvx2();
  }
  return false;
}

#if defined(NLQ_KERNEL_X86)

/// Rows transposed per AVX2 block: 64 rows x 64 dims = 32 KB of
/// row-major scratch, small enough to stay L1/L2-resident together
/// with the Q matrix rows the per-row updates stream over.
constexpr size_t kSimdRowBlock = 64;

/// AVX2 span accumulation for the lower-triangular and full kinds.
///
/// Strategy: transpose the block to row-major scratch, then fold one
/// row at a time exactly like NlqAccumulatePoint, vectorizing each
/// row's rank-1 update across *accumulators* (4 adjacent l/mn/mx slots
/// or 4 adjacent q[a][b..b+3] slots per lane group). Every accumulator
/// therefore still sees its contributions as one sequential FP chain
/// in row order — bit-identical to the scalar paths. Multiplies and
/// adds stay separate intrinsics (this TU enables AVX2 but not FMA, so
/// the compiler cannot contract them), and MINPD/MAXPD with the new
/// value as the *first* operand reproduces `(v < mn) ? v : mn`
/// exactly, signed zeros and NaNs included.
__attribute__((target("avx2"))) void AccumulateSpansAvx2(
    NlqState* s, const double* const* cols, size_t rows) {
  const size_t d = static_cast<size_t>(s->d);
  const bool lower =
      static_cast<MatrixKind>(s->kind) == MatrixKind::kLowerTriangular;
  alignas(32) double xrow[kSimdRowBlock * kMaxUdfDims];
  for (size_t r0 = 0; r0 < rows; r0 += kSimdRowBlock) {
    const size_t rn = std::min(kSimdRowBlock, rows - r0);
    for (size_t a = 0; a < d; ++a) {
      const double* col = cols[a] + r0;
      for (size_t i = 0; i < rn; ++i) xrow[i * d + a] = col[i];
    }
    for (size_t i = 0; i < rn; ++i) {
      const double* x = xrow + i * d;
      size_t a = 0;
      for (; a + 4 <= d; a += 4) {
        const __m256d xv = _mm256_loadu_pd(x + a);
        const __m256d lv = _mm256_loadu_pd(s->l + a);
        _mm256_storeu_pd(s->l + a, _mm256_add_pd(lv, xv));
        const __m256d mnv = _mm256_loadu_pd(s->mn + a);
        _mm256_storeu_pd(s->mn + a, _mm256_min_pd(xv, mnv));
        const __m256d mxv = _mm256_loadu_pd(s->mx + a);
        _mm256_storeu_pd(s->mx + a, _mm256_max_pd(xv, mxv));
      }
      for (; a < d; ++a) {
        const double v = x[a];
        s->l[a] += v;
        if (v < s->mn[a]) s->mn[a] = v;
        if (v > s->mx[a]) s->mx[a] = v;
      }
      for (a = 0; a < d; ++a) {
        const __m256d xav = _mm256_set1_pd(x[a]);
        double* qrow = s->q[a];
        const size_t bmax = lower ? a + 1 : d;
        size_t b = 0;
        for (; b + 4 <= bmax; b += 4) {
          const __m256d xbv = _mm256_loadu_pd(x + b);
          const __m256d qv = _mm256_loadu_pd(qrow + b);
          _mm256_storeu_pd(qrow + b,
                           _mm256_add_pd(qv, _mm256_mul_pd(xav, xbv)));
        }
        for (; b < bmax; ++b) qrow[b] += x[a] * x[b];
      }
    }
  }
}

#endif  // NLQ_KERNEL_X86

}  // namespace

void ResetNlqState(NlqState* s) {
  // Only the header: the [0,d) arrays are initialized by SetNlqShape
  // once d is known, so an empty state touches no array memory.
  s->d = -1;
  s->kind = static_cast<int32_t>(MatrixKind::kLowerTriangular);
  s->n = 0.0;
}

Status SetNlqShape(NlqState* s, size_t d, MatrixKind kind) {
  if (d == 0 || d > kMaxUdfDims) {
    return Status::InvalidArgument(StringPrintf(
        "nlq: d=%zu out of range 1..%zu (use nlq_block for higher d)", d,
        kMaxUdfDims));
  }
  s->d = static_cast<int32_t>(d);
  s->kind = static_cast<int32_t>(kind);
  for (size_t a = 0; a < d; ++a) {
    s->l[a] = 0.0;
    s->mn[a] = std::numeric_limits<double>::infinity();
    s->mx[a] = -std::numeric_limits<double>::infinity();
    std::fill_n(s->q[a], d, 0.0);
  }
  return Status::OK();
}

namespace {

/// Copies a shaped `src` into `dst`, header and [0,d) parts only — a
/// state holds about d*d doubles of meaning however large kMaxUdfDims
/// is.
void CopyNlqState(NlqState* dst, const NlqState* src) {
  dst->d = src->d;
  dst->kind = src->kind;
  dst->n = src->n;
  const size_t d = static_cast<size_t>(src->d);
  std::copy_n(src->l, d, dst->l);
  std::copy_n(src->mn, d, dst->mn);
  std::copy_n(src->mx, d, dst->mx);
  for (size_t a = 0; a < d; ++a) std::copy_n(src->q[a], d, dst->q[a]);
}

}  // namespace

void NlqAccumulatePoint(NlqState* s, const double* x) {
  const size_t d = static_cast<size_t>(s->d);
  s->n += 1.0;
  switch (static_cast<MatrixKind>(s->kind)) {
    case MatrixKind::kDiagonal:
      for (size_t a = 0; a < d; ++a) {
        const double xa = x[a];
        s->l[a] += xa;
        s->q[a][a] += xa * xa;
      }
      break;
    case MatrixKind::kLowerTriangular:
      for (size_t a = 0; a < d; ++a) {
        const double xa = x[a];
        s->l[a] += xa;
        double* row = s->q[a];
        for (size_t b = 0; b <= a; ++b) row[b] += xa * x[b];
      }
      break;
    case MatrixKind::kFull:
      for (size_t a = 0; a < d; ++a) {
        const double xa = x[a];
        s->l[a] += xa;
        double* row = s->q[a];
        for (size_t b = 0; b < d; ++b) row[b] += xa * x[b];
      }
      break;
  }
  for (size_t a = 0; a < d; ++a) {
    if (x[a] < s->mn[a]) s->mn[a] = x[a];
    if (x[a] > s->mx[a]) s->mx[a] = x[a];
  }
}

void SetNlqKernelMode(NlqKernelMode mode) {
  g_kernel_mode.store(mode, std::memory_order_relaxed);
}

const char* NlqKernelVariant() { return SimdSelected() ? "avx2" : "scalar"; }

void NlqAccumulateSpans(NlqState* s, const double* const* cols, size_t rows) {
  // n counts whole rows: doubles hold integers exactly here, so one
  // bulk add equals `rows` sequential `+= 1.0`s bit-for-bit.
  s->n += static_cast<double>(rows);
#if defined(NLQ_KERNEL_X86)
  // The AVX2 path covers the dense kinds where the Q update dominates;
  // the diagonal kind and tiny d stay on the (already cheap) scalar
  // path rather than paying the transpose.
  if (static_cast<MatrixKind>(s->kind) != MatrixKind::kDiagonal &&
      static_cast<size_t>(s->d) >= 4 && SimdSelected()) {
    AccumulateSpansAvx2(s, cols, rows);
    return;
  }
#endif
  AccumulateSpansScalar(s, cols, rows);
}

Status NlqMergeStates(NlqState* dst, const NlqState* src) {
  if (src->d < 0) return Status::OK();  // src saw no rows
  if (dst->d < 0) {
    CopyNlqState(dst, src);
    return Status::OK();
  }
  if (dst->d != src->d || dst->kind != src->kind) {
    return Status::Internal("nlq: partial states disagree on d or kind");
  }
  const size_t d = static_cast<size_t>(dst->d);
  dst->n += src->n;
  for (size_t a = 0; a < d; ++a) {
    dst->l[a] += src->l[a];
    if (src->mn[a] < dst->mn[a]) dst->mn[a] = src->mn[a];
    if (src->mx[a] > dst->mx[a]) dst->mx[a] = src->mx[a];
    for (size_t b = 0; b < d; ++b) dst->q[a][b] += src->q[a][b];
  }
  return Status::OK();
}

StatusOr<storage::Datum> NlqFinalizeState(const NlqState* s) {
  if (s->d < 0) {
    // No rows: empty statistics.
    return storage::Datum::Varchar(
        SufStats(0, MatrixKind::kLowerTriangular).ToPackedString());
  }
  const size_t d = static_cast<size_t>(s->d);
  // Emit the same packed layout as SufStats::ToPackedString so
  // SufStats::FromPackedString decodes UDF results directly.
  const SufStats shape(d, static_cast<MatrixKind>(s->kind));
  std::string packed;
  packed.reserve(64 + (3 * d + shape.NumQEntries()) * 18);
  packed += std::to_string(d);
  packed += '|';
  packed += std::to_string(s->kind);
  packed += '|';
  AppendDouble(&packed, s->n);
  packed += '|';
  for (size_t a = 0; a < d; ++a) {
    if (a > 0) packed += ';';
    AppendDouble(&packed, s->l[a]);
  }
  packed += '|';
  for (size_t a = 0; a < d; ++a) {
    if (a > 0) packed += ';';
    AppendDouble(&packed, s->n > 0 ? s->mn[a] : 0.0);
  }
  packed += '|';
  for (size_t a = 0; a < d; ++a) {
    if (a > 0) packed += ';';
    AppendDouble(&packed, s->n > 0 ? s->mx[a] : 0.0);
  }
  packed += '|';
  bool first = true;
  for (size_t a = 0; a < d; ++a) {
    switch (static_cast<MatrixKind>(s->kind)) {
      case MatrixKind::kDiagonal:
        if (!first) packed += ';';
        AppendDouble(&packed, s->q[a][a]);
        first = false;
        break;
      case MatrixKind::kLowerTriangular:
        for (size_t b = 0; b <= a; ++b) {
          if (!first) packed += ';';
          AppendDouble(&packed, s->q[a][b]);
          first = false;
        }
        break;
      case MatrixKind::kFull:
        for (size_t b = 0; b < d; ++b) {
          if (!first) packed += ';';
          AppendDouble(&packed, s->q[a][b]);
          first = false;
        }
        break;
    }
  }
  return storage::Datum::Varchar(std::move(packed));
}

}  // namespace nlq::stats
