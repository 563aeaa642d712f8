#include "engine/exec/columnar_scan_node.h"

#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "storage/column_batch.h"

namespace nlq::engine::exec {

using storage::ColumnVector;
using storage::DataType;
using storage::NullBitGet;
using storage::NullBitmapWords;
using storage::NullBitSet;

namespace {

/// ANDs one pushed-down comparison into `keep`. Values are widened to
/// double exactly like Datum::AsDouble, so the verdict matches the
/// row-path interpreter bit for bit; NULL operands fail every
/// comparison (UNKNOWN drops the row, as in FilterNode).
void ApplyColumnFilter(const ColumnFilter& f, const ColumnSpanBatch& in,
                       uint8_t* keep) {
  const double* dv = in.doubles[f.col];
  const int64_t* iv = in.ints[f.col];
  const uint64_t* nb = in.null_bits[f.col];
  const double lit = f.value;
  for (size_t r = 0; r < in.rows; ++r) {
    if (!keep[r]) continue;
    if (nb != nullptr && NullBitGet(nb, r)) {
      keep[r] = 0;
      continue;
    }
    const double v = dv != nullptr ? dv[r] : static_cast<double>(iv[r]);
    bool pass = false;
    switch (f.op) {
      case BinaryOp::kEq: pass = v == lit; break;
      case BinaryOp::kNe: pass = v != lit; break;
      case BinaryOp::kLt: pass = v < lit; break;
      case BinaryOp::kLe: pass = v <= lit; break;
      case BinaryOp::kGt: pass = v > lit; break;
      case BinaryOp::kGe: pass = v >= lit; break;
      default: break;
    }
    if (!pass) keep[r] = 0;
  }
}

/// Stream over one morsel — rows [begin, end) of one partition. In
/// streaming mode batches are decoded page-by-page through a
/// range-restricted ColumnBatchScanner into stream-owned buffers; in
/// cache mode the morsel is served as one batch of span slices
/// aliasing the table's decoded-column cache. Filtered batches are
/// compacted (order-preserving) into stream-owned scratch columns.
class ColumnarScanStream : public ColumnStream {
 public:
  ColumnarScanStream(const storage::Table* partition, uint64_t begin_row,
                     uint64_t end_row, const std::vector<size_t>& slots,
                     const std::vector<ColumnFilter>& filters, bool use_cache,
                     size_t batch_capacity, const QueryContext* ctx)
      : partition_(partition),
        begin_row_(begin_row),
        end_row_(end_row),
        slots_(slots),
        filters_(filters),
        use_cache_(use_cache),
        ctx_(ctx),
        scanner_(use_cache ? nullptr
                           : std::make_unique<storage::ColumnBatchScanner>(
                                 partition->ScanColumnBatchRange(
                                     slots, begin_row, end_row,
                                     batch_capacity))),
        scratch_(slots.size()) {}

  StatusOr<bool> Next(ColumnSpanBatch* out) override {
    if (ctx_ != nullptr) NLQ_RETURN_IF_ERROR(ctx_->CheckAlive());
    NLQ_FAILPOINT("partition_scan");
    return use_cache_ ? NextCached(out) : NextStreaming(out);
  }

 private:
  StatusOr<bool> NextStreaming(ColumnSpanBatch* out) {
    for (;;) {
      const bool more = scanner_->Next(&batch_);
      if (ctx_ != nullptr && ctx_->stats() != nullptr) {
        const size_t decoded = scanner_->pages_decoded();
        ctx_->stats()->pages_decoded.fetch_add(decoded - pages_reported_,
                                               std::memory_order_relaxed);
        pages_reported_ = decoded;
      }
      if (!scanner_->status().ok()) return scanner_->status();
      if (!more) return false;
      out->rows = batch_.size();
      Point(out, [this](size_t c) -> const ColumnVector& {
        return batch_.column(c);
      });
      if (Filter(out)) return true;
    }
  }

  StatusOr<bool> NextCached(ColumnSpanBatch* out) {
    if (served_) return false;
    served_ = true;
    if (end_row_ <= begin_row_) return false;
    NLQ_RETURN_IF_ERROR(partition_->EnsureDecodedColumns(slots_));
    const size_t begin = static_cast<size_t>(begin_row_);
    const size_t rows = static_cast<size_t>(end_row_ - begin_row_);
    out->rows = rows;
    const size_t ncols = slots_.size();
    out->doubles.assign(ncols, nullptr);
    out->ints.assign(ncols, nullptr);
    out->null_bits.assign(ncols, nullptr);
    if (slice_bits_.size() < ncols) slice_bits_.resize(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      const ColumnVector& col = *partition_->decoded_column(slots_[c]);
      if (col.type == DataType::kDouble) {
        out->doubles[c] = col.double_data() + begin;
      } else {
        out->ints[c] = col.int_data() + begin;
      }
      if (!col.has_nulls()) continue;
      if (begin % 64 == 0) {
        // Word-aligned slice: alias the cached bitmap directly (bits
        // past `rows` in the last word are never read).
        out->null_bits[c] = col.null_bits.data() + begin / 64;
      } else {
        // Misaligned morsel boundary: repack the slice's bits to start
        // at bit 0 of stream-owned scratch words.
        std::vector<uint64_t>& dst = slice_bits_[c];
        dst.assign(NullBitmapWords(rows), 0);
        for (size_t r = 0; r < rows; ++r) {
          if (NullBitGet(col.null_bits.data(), begin + r)) {
            NullBitSet(dst.data(), r);
          }
        }
        out->null_bits[c] = dst.data();
      }
    }
    return Filter(out);
  }

  /// Points `out`'s spans at the ColumnVectors returned by `source`.
  template <typename Source>
  void Point(ColumnSpanBatch* out, Source source) {
    const size_t ncols = slots_.size();
    out->doubles.assign(ncols, nullptr);
    out->ints.assign(ncols, nullptr);
    out->null_bits.assign(ncols, nullptr);
    for (size_t c = 0; c < ncols; ++c) {
      const ColumnVector& col = source(c);
      if (col.type == DataType::kDouble) {
        out->doubles[c] = col.double_data();
      } else {
        out->ints[c] = col.int_data();
      }
      if (col.has_nulls()) out->null_bits[c] = col.null_bits.data();
    }
  }

  /// Applies the pushed-down comparisons to `out` in place, compacting
  /// survivors into scratch columns when any row is dropped. Returns
  /// false when no row survives (the caller skips the batch).
  bool Filter(ColumnSpanBatch* out) {
    if (filters_.empty()) return true;
    keep_.assign(out->rows, 1);
    for (const ColumnFilter& f : filters_) {
      ApplyColumnFilter(f, *out, keep_.data());
    }
    return CompactColumnSpans(out, keep_.data(), &scratch_) > 0;
  }

  const storage::Table* partition_;
  uint64_t begin_row_;
  uint64_t end_row_;
  const std::vector<size_t>& slots_;
  const std::vector<ColumnFilter>& filters_;
  bool use_cache_;
  const QueryContext* ctx_;
  bool served_ = false;
  size_t pages_reported_ = 0;
  std::unique_ptr<storage::ColumnBatchScanner> scanner_;
  storage::ColumnBatch batch_;
  std::vector<uint8_t> keep_;
  std::vector<ScratchColumn> scratch_;
  std::vector<std::vector<uint64_t>> slice_bits_;  // per column, cache mode
};

}  // namespace

ColumnarScanNode::ColumnarScanNode(const storage::PartitionedTable* table,
                                   std::string table_name,
                                   std::vector<size_t> slots,
                                   std::vector<ColumnFilter> filters,
                                   bool use_cache, size_t batch_capacity,
                                   uint64_t morsel_rows,
                                   const QueryContext* ctx)
    : PlanNode(nullptr),
      table_(table),
      table_name_(std::move(table_name)),
      slots_(std::move(slots)),
      filters_(std::move(filters)),
      use_cache_(use_cache),
      batch_capacity_(batch_capacity),
      morsel_rows_(morsel_rows),
      ctx_(ctx),
      grid_(BuildMorselGrid(*table, morsel_rows)) {
  for (size_t p = 0; p < table_->num_partitions(); ++p) {
    if (table_->partition(p).is_spilled()) {
      spilled_ = true;
      break;
    }
  }
}

std::string ColumnarScanNode::annotation() const {
  std::string out = StringPrintf(
      "%s: %llu rows, %zu partitions, %zu of %zu column(s), batch %zu, "
      "morsel %llu (%zu morsel(s)), cache %s",
      table_name_.c_str(), static_cast<unsigned long long>(table_->num_rows()),
      table_->num_partitions(), slots_.size(),
      table_->schema().num_columns(), batch_capacity_,
      static_cast<unsigned long long>(morsel_rows_), grid_.size(),
      spilled_ ? "spilled" : (use_cache_ ? "on" : "off"));
  if (!filters_.empty()) {
    out += ", filter: ";
    for (size_t i = 0; i < filters_.size(); ++i) {
      if (i > 0) out += " AND ";
      out += filters_[i].text;
    }
  }
  if (!constants_note_.empty()) out += ", constants: " + constants_note_;
  return out;
}

StatusOr<ExecStreamPtr> ColumnarScanNode::OpenStreamImpl(size_t) const {
  return Status::Internal(
      "ColumnarScan produces column spans, not rows");
}

StatusOr<ColumnStreamPtr> ColumnarScanNode::OpenColumnStreamImpl(
    size_t s) const {
  const Morsel& m = grid_[s];
  return NewStream(m.partition, m.begin, m.end,
                   use_cache_ && !cache_suppressed_ && !spilled_);
}

ColumnStreamPtr ColumnarScanNode::OpenRangeStream(size_t partition,
                                                  uint64_t begin,
                                                  uint64_t end) const {
  return InstrumentColumnStream(
      NewStream(partition, begin, end, /*use_cache=*/false));
}

ColumnStreamPtr ColumnarScanNode::NewStream(size_t partition, uint64_t begin,
                                            uint64_t end,
                                            bool use_cache) const {
  return ColumnStreamPtr(new ColumnarScanStream(
      &table_->partition(partition), begin, end, slots_, filters_, use_cache,
      batch_capacity_, ctx_));
}

Status ColumnarScanNode::WarmCache(ThreadPool* pool) const {
  if (!use_cache_ || cache_suppressed_) return Status::OK();
  QueryStats* qstats = ctx_ != nullptr ? ctx_->stats() : nullptr;

  // A spilled table streams through the buffer pool by design; letting
  // the cache re-materialize every decoded column in RAM would undo
  // the spill. Suppress the cache (one fallback event) and say why.
  if (spilled_) {
    cache_suppressed_ = true;
    if (qstats != nullptr) {
      qstats->column_cache_fallbacks.fetch_add(1, std::memory_order_relaxed);
      qstats->AddCacheNote(StringPrintf(
          "decoded-column cache bypassed for table %s: table is spilled, "
          "streaming through the buffer pool instead",
          table_name_.c_str()));
    }
    return Status::OK();
  }

  // Budget check: estimate what filling the cache would ADD (columns a
  // previous statement already decoded are free) and skip the cache —
  // not the query — when it does not fit.
  MemoryTracker* memory = ctx_ != nullptr ? ctx_->memory() : nullptr;
  if (memory != nullptr) {
    uint64_t fill_bytes = 0;
    for (size_t p = 0; p < table_->num_partitions(); ++p) {
      const storage::Table& part = table_->partition(p);
      const uint64_t rows = part.num_rows();
      if (rows == 0) continue;
      for (size_t slot : slots_) {
        if (part.decoded_column(slot) != nullptr) continue;
        // 8 bytes per value plus the worst-case null bitmap word span.
        fill_bytes += rows * sizeof(double) +
                      storage::NullBitmapWords(rows) * sizeof(uint64_t);
      }
    }
    if (fill_bytes > 0 && !memory->TryCharge(fill_bytes)) {
      cache_suppressed_ = true;
      if (qstats != nullptr) {
        qstats->column_cache_fallbacks.fetch_add(1,
                                                 std::memory_order_relaxed);
        // Name the consumer that exhausted the budget and show the
        // arithmetic: what the fill would have added on top of what the
        // query had already charged against its limit.
        qstats->AddCacheNote(StringPrintf(
            "decoded-column cache for table %s needs %llu more bytes; "
            "query memory budget %llu has %llu in use",
            table_name_.c_str(),
            static_cast<unsigned long long>(fill_bytes),
            static_cast<unsigned long long>(memory->limit()),
            static_cast<unsigned long long>(memory->used())));
      }
      return Status::OK();
    }
  }

  if (qstats != nullptr) {
    // Cache accounting is per (partition, slot): a slot some earlier
    // statement already decoded is a hit, one this warm-up must decode
    // is a miss. Misses cost one full decode pass over the partition's
    // pages (EnsureDecodedColumns fills all missing slots in one pass).
    // Counted only once the budget check passed — a suppressed cache
    // decodes nothing here and streams instead (one fallback event).
    for (size_t p = 0; p < table_->num_partitions(); ++p) {
      const storage::Table& part = table_->partition(p);
      if (part.num_rows() == 0) continue;
      bool any_missing = false;
      for (const size_t slot : slots_) {
        if (part.decoded_column(slot) != nullptr) {
          qstats->column_cache_hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          qstats->column_cache_misses.fetch_add(1, std::memory_order_relaxed);
          any_missing = true;
        }
      }
      if (any_missing) {
        qstats->pages_decoded.fetch_add(part.num_pages(),
                                        std::memory_order_relaxed);
      }
    }
  }

  const size_t parts = table_->num_partitions();
  auto warm_one = [&](size_t p) -> Status {
    if (table_->partition(p).num_rows() == 0) return Status::OK();
    return table_->partition(p).EnsureDecodedColumns(slots_);
  };
  if (parts == 1 || pool == nullptr) {
    for (size_t p = 0; p < parts; ++p) NLQ_RETURN_IF_ERROR(warm_one(p));
    return Status::OK();
  }
  return pool->ParallelFor(parts, warm_one, ctx_);
}

}  // namespace nlq::engine::exec
