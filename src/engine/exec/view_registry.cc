#include "engine/exec/view_registry.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"

namespace nlq::engine::exec {
namespace {

using storage::DataType;
using storage::Datum;
using storage::Row;

void AppendDoubleBits(double v, std::string* out) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  *out += StringPrintf("%llx", static_cast<unsigned long long>(bits));
}

void AppendDatumKey(const Datum& v, std::string* out) {
  if (v.is_null()) {
    *out += "null";
    return;
  }
  switch (v.type()) {
    case DataType::kDouble:
      AppendDoubleBits(v.double_value(), out);
      break;
    case DataType::kInt64:
      *out += StringPrintf("%lld", static_cast<long long>(v.int_value()));
      break;
    case DataType::kVarchar:
      *out += v.string_value();
      break;
  }
}

}  // namespace

ViewRegistry::ViewRegistry(size_t max_views, uint64_t memory_limit_bytes)
    : max_views_(max_views), memory_(memory_limit_bytes) {}

std::string ViewRegistry::KeyOf(const ViewDescriptor& d) {
  std::string key = d.scan->table_name();
  key += "|s:";
  for (const size_t slot : d.scan->slots()) key += StringPrintf("%zu,", slot);
  key += "|f:";
  for (const ColumnFilter& f : d.scan->filters()) {
    key += StringPrintf("%zu~%d~", f.col, static_cast<int>(f.op));
    AppendDoubleBits(f.value, &key);
    key += ";";
  }
  key += "|a:";
  for (size_t i = 0; i < d.specs->size(); ++i) {
    const AggregateSpec& spec = (*d.specs)[i];
    key += StringPrintf("%d:", static_cast<int>(spec.kind));
    if (spec.udaf != nullptr) key += spec.udaf->name();
    key += "(";
    for (const VectorAggArg& arg : (*d.args)[i].args) {
      if (arg.is_constant) {
        AppendDatumKey(arg.constant, &key);
      } else {
        key += StringPrintf("#%d", arg.col);
      }
      key += ",";
    }
    key += ")";
    key += StringPrintf("%d;", static_cast<int>(spec.result_type));
  }
  key += StringPrintf("|m:%llu",
                      static_cast<unsigned long long>(d.scan->morsel_rows()));
  return key;
}

bool ViewRegistry::EntryCurrent(const Entry& e, const ViewDescriptor& d) {
  const storage::PartitionedTable* table = d.scan->table();
  if (e.table != table) return false;  // DROP + CREATE reused the name
  const size_t parts = table->num_partitions();
  if (e.epochs.size() != parts) return false;
  for (size_t p = 0; p < parts; ++p) {
    const storage::Table& part = table->partition(p);
    if (part.is_spilled()) return false;
    if (part.mutation_epoch() != e.epochs[p]) return false;
    if (part.num_rows() < e.watermarks[p]) return false;
  }
  return true;
}

ViewProbe ViewRegistry::Probe(const ViewDescriptor& d) {
  std::lock_guard<std::mutex> lock(mu_);
  const storage::PartitionedTable* table = d.scan->table();
  ViewProbe probe;
  probe.total_rows = table->num_rows();
  auto it = views_.find(KeyOf(d));
  if (it == views_.end()) return probe;
  if (!EntryCurrent(*it->second, d)) {
    // Stale state can never be reused; drop it now so the next
    // statement re-seeds instead of re-probing a corpse.
    views_.erase(it);
    probe.invalidated = true;
    return probe;
  }
  probe.registered = true;
  for (size_t p = 0; p < table->num_partitions(); ++p) {
    probe.delta_rows +=
        table->partition(p).num_rows() - it->second->watermarks[p];
  }
  return probe;
}

Status ViewRegistry::AccumulateDeltas(Entry* e, const ViewDescriptor& d,
                                      ThreadPool* pool,
                                      const QueryContext* ctx,
                                      uint64_t* delta_rows) {
  const storage::PartitionedTable* table = d.scan->table();
  const size_t parts = table->num_partitions();
  uint64_t delta = 0;
  for (size_t p = 0; p < parts; ++p) {
    delta += table->partition(p).num_rows() - e->watermarks[p];
  }
  *delta_rows = delta;

  auto refresh_one = [&](size_t p) -> Status {
    const uint64_t cur = table->partition(p).num_rows();
    uint64_t wm = e->watermarks[p];
    if (cur == wm) return Status::OK();
    const uint64_t mr = d.scan->morsel_rows();
    auto& plist = e->partials[p];
    SpanAccumulator acc(*d.specs, *d.args, d.builtins, *d.slot_to_col, ctx);
    ColumnSpanBatch batch;
    while (wm < cur) {
      // The morsel the watermark sits in: extend its partial from the
      // watermark to the morsel end (or table end). Morsel boundaries
      // come from the fixed (partition, offset) grid, so the stored
      // partials line up one-to-one with the full-rescan grid; the
      // kernel's strictly sequential per-accumulator chains make
      // resuming mid-morsel bit-identical to one uninterrupted pass.
      const size_t mi = mr == 0 ? 0 : static_cast<size_t>(wm / mr);
      const uint64_t mend =
          mr == 0 ? cur
                  : std::min(cur, (static_cast<uint64_t>(mi) + 1) * mr);
      if (mi >= plist.size()) {
        NLQ_ASSIGN_OR_RETURN(GroupState fresh,
                             InitGroupState(*d.specs, Row{}, &memory_));
        plist.push_back(std::move(fresh));
      }
      // The rows come through the scan's own stream (streaming decode,
      // pushed-down filters, compaction) and feed the node's zero-key
      // ROW phase: the batches and the FP operation sequence a rescan
      // runs over the same rows.
      NLQ_FAILPOINT("view_maintenance");
      ColumnStreamPtr rows = d.scan->OpenRangeStream(p, wm, mend);
      for (;;) {
        NLQ_ASSIGN_OR_RETURN(const bool more, rows->Next(&batch));
        if (!more) break;
        NLQ_RETURN_IF_ERROR(acc.Accumulate(batch, &plist[mi], nullptr));
      }
      wm = mend;
    }
    e->watermarks[p] = cur;
    return Status::OK();
  };

  if (parts == 1 || pool == nullptr) {
    for (size_t p = 0; p < parts; ++p) NLQ_RETURN_IF_ERROR(refresh_one(p));
    return Status::OK();
  }
  return pool->ParallelFor(parts, refresh_one, ctx);
}

StatusOr<GroupState> ViewRegistry::MergeClone(const Entry& e,
                                              const ViewDescriptor& d) {
  // Fold a CLONE of the stored partials (never the stored state
  // itself: merging mutates the destination, and the registered
  // partials must survive for the next refresh). Clone-then-merge
  // replays the rescan's fold arithmetic exactly: the accumulator
  // starts as a copy of the first grid morsel's state — builtins by
  // assignment, UDF states by a Merge into the fresh state, which
  // copies a relocatable state — then the remaining morsels fold in
  // morsel-index order. An empty table's rescan grid has one empty
  // morsel whose partial is the fresh state itself.
  const std::vector<AggregateSpec>& specs = *d.specs;
  NLQ_ASSIGN_OR_RETURN(GroupState acc,
                       InitGroupState(specs, Row{}, /*memory=*/nullptr));
  bool have_first = false;
  for (const auto& plist : e.partials) {
    for (const GroupState& pm : plist) {
      if (have_first) {
        NLQ_RETURN_IF_ERROR(MergeGroup(specs, &acc, &pm));
        continue;
      }
      have_first = true;
      acc.builtin = pm.builtin;
      for (size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].kind != AggregateSpec::Kind::kUdf) continue;
        NLQ_RETURN_IF_ERROR(
            specs[i].udaf->Merge(acc.udf_states[i], pm.udf_states[i]));
      }
    }
  }
  return acc;
}

StatusOr<GroupState> ViewRegistry::Serve(const ViewDescriptor& d,
                                         ThreadPool* pool,
                                         const QueryContext* ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  QueryStats* stats = ctx != nullptr ? ctx->stats() : nullptr;
  const std::string key = KeyOf(d);

  auto it = views_.find(key);
  if (it != views_.end() && !EntryCurrent(*it->second, d)) {
    views_.erase(it);
    it = views_.end();
  }
  const bool seeded = it == views_.end();
  if (seeded) {
    const storage::PartitionedTable* table = d.scan->table();
    auto entry = std::make_unique<Entry>();
    entry->table = table;
    entry->table_name = d.scan->table_name();
    const size_t parts = table->num_partitions();
    entry->epochs.resize(parts);
    entry->watermarks.assign(parts, 0);
    entry->partials.resize(parts);
    for (size_t p = 0; p < parts; ++p) {
      entry->epochs[p] = table->partition(p).mutation_epoch();
    }
    it = views_.emplace(key, std::move(entry)).first;
  }
  it->second->last_served = ++lru_tick_;

  uint64_t delta_rows = 0;
  Status status =
      AccumulateDeltas(it->second.get(), d, pool, ctx, &delta_rows);
  StatusOr<GroupState> merged = status.ok() ? MergeClone(*it->second, d)
                                            : StatusOr<GroupState>(status);
  if (!merged.ok()) {
    // A half-applied delta leaves the stored partials unusable either
    // way: drop the entry. Cancellation/deadline unwind the statement;
    // anything else (injected view_maintenance fault, exhausted view
    // memory, decode error) degrades to the caller's own full rescan —
    // a slower statement, never a wrong one.
    views_.erase(it);
    const StatusCode code = merged.status().code();
    if (stats != nullptr && code != StatusCode::kCancelled &&
        code != StatusCode::kDeadlineExceeded) {
      stats->view_misses.fetch_add(1, std::memory_order_relaxed);
      stats->view_rebuilds.fetch_add(1, std::memory_order_relaxed);
    }
    return merged.status();
  }

  if (stats != nullptr) {
    if (seeded) {
      stats->view_misses.fetch_add(1, std::memory_order_relaxed);
      stats->view_rebuilds.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats->view_hits.fetch_add(1, std::memory_order_relaxed);
      stats->view_delta_rows.fetch_add(delta_rows,
                                       std::memory_order_relaxed);
    }
  }
  if (seeded) EvictIfNeeded();
  return merged;
}

void ViewRegistry::InvalidateTable(const std::string& table_name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = views_.begin(); it != views_.end();) {
    if (it->second->table_name == table_name) {
      it = views_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t ViewRegistry::num_views() const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.size();
}

void ViewRegistry::EvictIfNeeded() {
  while (views_.size() > max_views_) {
    auto victim = views_.begin();
    for (auto it = views_.begin(); it != views_.end(); ++it) {
      if (it->second->last_served < victim->second->last_served) victim = it;
    }
    views_.erase(victim);
  }
}

}  // namespace nlq::engine::exec
