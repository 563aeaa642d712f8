#ifndef NLQ_ENGINE_EXEC_VIEW_REGISTRY_H_
#define NLQ_ENGINE_EXEC_VIEW_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "common/query_context.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "engine/exec/aggregate_state.h"
#include "engine/exec/columnar_scan_node.h"
#include "storage/partitioned_table.h"

namespace nlq::engine::exec {

/// One maintainable aggregate query shape, as the zero-key
/// VectorHashAggregateNode planned over `scan` holds it: the scan gives
/// the table, projected column slots, pushed-down WHERE conjuncts and
/// morsel grid; the node gives the aggregate specs, their span
/// arguments, the program of their SQL builtin arguments and the
/// slot -> span-column map. Nothing is owned; the
/// node and its scan outlive every call. Every argument is a leading
/// constant or a bare column (`VectorAggArg::col`), and every
/// aggregate UDF call is `on_spans`.
struct ViewDescriptor {
  const ColumnarScanNode* scan = nullptr;
  const std::vector<AggregateSpec>* specs = nullptr;
  const std::vector<VectorAggSpec>* args = nullptr;  // parallel to specs
  const CompiledExpr* builtins = nullptr;  // SQL builtin arguments, or null
  const std::vector<int>* slot_to_col = nullptr;
};

/// Plan-time freshness probe result.
struct ViewProbe {
  bool registered = false;  // a live, current entry exists
  bool invalidated = false; // an entry existed but was stale (now dropped)
  uint64_t delta_rows = 0;  // rows past the watermark a Serve would accumulate
  uint64_t total_rows = 0;  // current table row count
};

/// Registry of materialized sufficient-statistic views: per-morsel
/// zero-key group states (aggregate_state.h GroupState) kept across
/// statements, keyed by query shape. VectorHashAggregateNode asks it
/// to serve its zero-key group before draining its scan; the states
/// accumulate rows read through the scan's own column streams and
/// merge and finalize through the same aggregate_state code as the
/// node. A Serve() accumulates only the rows appended past each
/// partition's watermark — O(delta) — then merges a *clone* of the
/// stored partials in morsel-index order, so the result is
/// bit-identical to a full rescan by the engine's merge-order contract
/// (DESIGN.md section 13 gives the argument).
///
/// Staleness: each entry captures every partition's mutation epoch at
/// registration. Appends do not bump epochs (they only move num_rows
/// past the watermark); Clear/SpillToDisk/LoadFromFile do. An epoch
/// mismatch, a table-pointer change (DROP + CREATE), or a shrunken row
/// space invalidates the entry — Probe drops it and the node runs
/// without a view binding for that statement.
///
/// Thread-safety: all public methods take one internal mutex, held for
/// the whole of a Serve: concurrent SELECTs share the database's
/// statement gate, so two of them may serve the same view at once.
class ViewRegistry {
 public:
  /// `max_views` bounds memoization: registering past the cap evicts
  /// the least-recently-served entry. `memory_limit_bytes` bounds the
  /// total bytes of stored partial state (0 = unlimited, tracked);
  /// exceeding it fails the accumulate, which drops the entry and
  /// degrades that statement to the node's own rescan.
  explicit ViewRegistry(size_t max_views = 16,
                        uint64_t memory_limit_bytes = 0);

  ViewRegistry(const ViewRegistry&) = delete;
  ViewRegistry& operator=(const ViewRegistry&) = delete;

  /// Plan-time freshness check. Side effect: a stale entry is dropped
  /// (its state can never be reused — any future statement would have
  /// to reseed anyway).
  ViewProbe Probe(const ViewDescriptor& d);

  /// Serves the descriptor's merged zero-key group: seeds the view (full
  /// accumulate, one partial per grid morsel) when no entry exists,
  /// delta-accumulates rows past each partition watermark otherwise,
  /// then clones + merges the stored partials in morsel-index order.
  /// On any failure the entry is dropped and the status returned;
  /// unless it is a cancellation or deadline, the caller degrades to
  /// its own full rescan (counted as `view.rebuilds`) — never a wrong
  /// result.
  StatusOr<GroupState> Serve(const ViewDescriptor& d, ThreadPool* pool,
                             const QueryContext* ctx);

  /// Drops every view registered against `table_name` (DROP TABLE and
  /// SpillTable hook: a recreated table must never alias a stale
  /// entry's epochs).
  void InvalidateTable(const std::string& table_name);

  /// Bytes of partial state currently held (all views).
  uint64_t state_bytes() const { return memory_.used(); }

  size_t num_views() const;

 private:
  struct Entry {
    const storage::PartitionedTable* table = nullptr;
    std::string table_name;
    std::vector<uint64_t> epochs;      // per partition, at registration
    std::vector<uint64_t> watermarks;  // rows accumulated per partition
    /// partials[p][m]: state of morsel m of partition p, in the same
    /// (partition, morsel-index) order BuildMorselGrid emits.
    std::vector<std::vector<GroupState>> partials;
    uint64_t last_served = 0;  // LRU tick for eviction
  };

  /// Canonical map key of a descriptor (table name + slots + filter
  /// conjuncts with literal bit patterns + aggregate specs + morsel
  /// size).
  static std::string KeyOf(const ViewDescriptor& d);

  /// True when `e` may serve `d` against the current table state.
  static bool EntryCurrent(const Entry& e, const ViewDescriptor& d);

  /// Accumulates rows [wm, rows) of every partition into `e`'s
  /// partials, extending the tail morsel and appending new ones.
  Status AccumulateDeltas(Entry* e, const ViewDescriptor& d, ThreadPool* pool,
                          const QueryContext* ctx, uint64_t* delta_rows);

  /// Clones `e`'s stored partials and folds them in morsel-index
  /// order.
  StatusOr<GroupState> MergeClone(const Entry& e, const ViewDescriptor& d);

  void EvictIfNeeded();

  mutable std::mutex mu_;
  size_t max_views_;
  MemoryTracker memory_;
  uint64_t lru_tick_ = 0;
  std::map<std::string, std::unique_ptr<Entry>> views_;
};

}  // namespace nlq::engine::exec

#endif  // NLQ_ENGINE_EXEC_VIEW_REGISTRY_H_
