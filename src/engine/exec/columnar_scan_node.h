#ifndef NLQ_ENGINE_EXEC_COLUMNAR_SCAN_NODE_H_
#define NLQ_ENGINE_EXEC_COLUMNAR_SCAN_NODE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "engine/ast.h"
#include "engine/exec/morsel.h"
#include "engine/exec/plan.h"
#include "storage/column_batch.h"
#include "storage/partitioned_table.h"

namespace nlq::engine::exec {

/// One pushed-down simple comparison (`column <op> literal`) evaluated
/// directly on column spans. The literal is widened to double exactly
/// like Datum::AsDouble, which is also how the row-path interpreter
/// compares numeric operands — both paths keep or drop the same rows.
/// A NULL column value makes the comparison UNKNOWN and drops the row,
/// matching FilterNode.
struct ColumnFilter {
  size_t col = 0;               // index into the scan's projected columns
  BinaryOp op = BinaryOp::kEq;  // comparison op only (kEq..kGe)
  double value = 0.0;           // the literal operand
  std::string text;             // display form for EXPLAIN
};

/// Leaf of the columnar pipeline: scans a partitioned table's pages
/// straight into typed column arrays (no Datum boxing) and applies
/// pushed-down simple comparisons by span compaction. Driven through
/// OpenColumnStream by the columnar consumers (VectorFilter,
/// VectorProject, VectorHashAggregate, CrossJoin over spans); the
/// row-oriented OpenStream is deliberately unimplemented.
///
/// Streams are morsels from the same grid ParallelScanNode uses (same
/// `morsel_rows`), so the row and columnar paths have identical stream
/// structure and their stream-order merges stay mutually
/// byte-identical (see tests/columnar_equivalence_test.cc).
///
/// With `use_cache` the scan decodes each partition's columns once
/// into the table's decoded-column cache and serves morsel-sized span
/// slices of it on every subsequent scan (iterative model building
/// re-scans the same table many times); the cache is invalidated by
/// appends. Without it each stream decodes its row range through a
/// ColumnBatchScanner.
class ColumnarScanNode : public PlanNode {
 public:
  ColumnarScanNode(const storage::PartitionedTable* table,
                   std::string table_name, std::vector<size_t> slots,
                   std::vector<ColumnFilter> filters, bool use_cache,
                   size_t batch_capacity,
                   uint64_t morsel_rows = kDefaultMorselRows,
                   const QueryContext* ctx = nullptr);

  const char* name() const override { return "ColumnarScan"; }
  std::string annotation() const override;
  size_t output_width() const override { return slots_.size(); }
  size_t num_streams() const override { return grid_.size(); }

  /// The columnar scan feeds its consumers spans, not rows.
  StatusOr<ExecStreamPtr> OpenStreamImpl(size_t s) const override;

  StatusOr<ColumnStreamPtr> OpenColumnStreamImpl(size_t s) const override;

  /// Column stream over rows [begin, end) of partition `partition`,
  /// decoded page by page with this scan's projection and pushed-down
  /// filters — the stream a morsel opens without the cache — and
  /// counted in this node's stats. The maintained-view registry reads
  /// its seed and delta ranges through it.
  ColumnStreamPtr OpenRangeStream(size_t partition, uint64_t begin,
                                  uint64_t end) const;

  /// Fills each partition's decoded-column cache, one partition per
  /// pool task (Table::EnsureDecodedColumns is not safe against
  /// concurrent fills of the SAME partition, which morsel streams
  /// would otherwise do). No-op when the cache is disabled. Callers
  /// draining column streams on a pool must call this first.
  ///
  /// When the query carries a memory budget, the bytes the fill would
  /// add (not-yet-cached columns only) are estimated first; if they
  /// do not fit, the cache is skipped for this statement and every
  /// stream falls back to streaming page decode — the query still
  /// succeeds, trading the re-scan speedup for bounded memory.
  Status WarmCache(ThreadPool* pool) const;

  /// Schema slot indices of the projected columns, in span order.
  const std::vector<size_t>& slots() const { return slots_; }
  const storage::Schema& schema() const { return table_->schema(); }
  const storage::PartitionedTable* table() const { return table_; }
  const std::string& table_name() const { return table_name_; }
  const std::vector<ColumnFilter>& filters() const { return filters_; }
  uint64_t morsel_rows() const { return morsel_rows_; }

  /// EXPLAIN note naming the one-row tables bound as constants into
  /// this scan's statement (empty: none).
  void set_constants_note(std::string note) {
    constants_note_ = std::move(note);
  }

 private:
  const storage::PartitionedTable* table_;
  std::string table_name_;
  std::string constants_note_;
  std::vector<size_t> slots_;
  std::vector<ColumnFilter> filters_;
  bool use_cache_;
  size_t batch_capacity_;
  uint64_t morsel_rows_;
  const QueryContext* ctx_;
  /// Any partition spilled at plan time: the decoded-column cache is
  /// never used (re-materializing a spilled table in RAM would undo
  /// the spill); streams decode chunks through the buffer pool.
  bool spilled_ = false;
  /// Set by WarmCache when the fill would bust the query's memory
  /// budget; streams opened afterwards decode in streaming mode.
  mutable bool cache_suppressed_ = false;
  std::vector<Morsel> grid_;

  /// The one stream factory: rows [begin, end) of `partition`, served
  /// from the decoded-column cache or decoded page by page.
  ColumnStreamPtr NewStream(size_t partition, uint64_t begin, uint64_t end,
                            bool use_cache) const;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_COLUMNAR_SCAN_NODE_H_
