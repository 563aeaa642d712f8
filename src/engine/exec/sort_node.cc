#include "engine/exec/sort_node.h"

#include <algorithm>

#include "common/strings.h"
#include "engine/exec/gather_node.h"

namespace nlq::engine::exec {
namespace {

using storage::DataType;
using storage::Datum;
using storage::Row;

class SortStream : public ExecStream {
 public:
  SortStream(const SortNode* node, const PlanNode* child,
             size_t batch_capacity, const QueryContext* ctx)
      : node_(node), child_(child), batch_capacity_(batch_capacity),
        ctx_(ctx) {}

  StatusOr<bool> Next(RowBatch* out) override {
    if (!materialized_) {
      NLQ_ASSIGN_OR_RETURN(
          std::vector<Row> rows,
          DrainAllStreams(*child_, /*pool=*/nullptr, batch_capacity_, ctx_));
      NLQ_RETURN_IF_ERROR(node_->SortRows(&rows));
      replay_ = std::make_unique<VectorStream>(std::move(rows));
      materialized_ = true;
    }
    return replay_->Next(out);
  }

 private:
  const SortNode* node_;
  const PlanNode* child_;
  size_t batch_capacity_;
  const QueryContext* ctx_;
  bool materialized_ = false;
  std::unique_ptr<VectorStream> replay_;
};

/// Applies permutation `order` (order[i] = source index of the row
/// that belongs at position i) to `rows` in place by walking its
/// cycles with row moves — no second row vector, no row copies.
void ApplyPermutationInPlace(std::vector<Row>* rows,
                             std::vector<size_t>* order) {
  std::vector<size_t>& ord = *order;
  const size_t n = ord.size();
  for (size_t i = 0; i < n; ++i) {
    if (ord[i] == i) continue;
    Row displaced = std::move((*rows)[i]);
    size_t hole = i;
    while (ord[hole] != i) {
      const size_t src = ord[hole];
      (*rows)[hole] = std::move((*rows)[src]);
      ord[hole] = hole;
      hole = src;
    }
    (*rows)[hole] = std::move(displaced);
    ord[hole] = hole;
  }
}

}  // namespace

int CompareDatum(const Datum& a, const Datum& b) {
  if (a.is_null() || b.is_null()) {
    if (a.is_null() && b.is_null()) return 0;
    return a.is_null() ? -1 : 1;
  }
  if (a.type() == DataType::kVarchar && b.type() == DataType::kVarchar) {
    const int c = a.string_value().compare(b.string_value());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Two BIGINT keys compare exactly: values above 2^53 would collide
  // after a double round-trip.
  if (a.type() == DataType::kInt64 && b.type() == DataType::kInt64) {
    const int64_t x = a.int_value();
    const int64_t y = b.int_value();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  const double x = a.AsDouble();
  const double y = b.AsDouble();
  return x < y ? -1 : (x > y ? 1 : 0);
}

SortNode::SortNode(PlanNodePtr child, std::vector<BoundExprPtr> key_exprs,
                   std::vector<bool> descending, int64_t limit,
                   const QueryContext* ctx)
    : PlanNode(std::move(child)),
      key_exprs_(std::move(key_exprs)),
      descending_(std::move(descending)),
      limit_(limit),
      ctx_(ctx) {}

std::string SortNode::annotation() const {
  std::string out = StringPrintf("%zu key(s)", key_exprs_.size());
  if (limit_ >= 0) {
    out += StringPrintf(", partial top %lld", static_cast<long long>(limit_));
  }
  return out;
}

StatusOr<ExecStreamPtr> SortNode::OpenStreamImpl(size_t) const {
  return ExecStreamPtr(
      new SortStream(this, child_.get(), RowBatch::kDefaultCapacity, ctx_));
}

Status SortNode::SortRows(std::vector<Row>* rows) const {
  const size_t n = rows->size();
  const size_t num_keys = key_exprs_.size();

  // The sort's own buffers — the key table plus the index permutation
  // — count against the query budget (the input rows were already
  // charged as they materialized).
  if (ctx_ != nullptr && ctx_->memory() != nullptr) {
    NLQ_RETURN_IF_ERROR(ctx_->memory()->Charge(
        n * (num_keys * sizeof(Datum) + sizeof(size_t)), "sort buffers"));
  }

  // Evaluate each ORDER BY key once per row, column-at-a-time over
  // the materialized (contiguous) rows.
  std::vector<std::vector<Datum>> keys(num_keys);
  Status error;
  EvalContext eval;
  eval.error = &error;
  eval.query = ctx_;
  for (size_t k = 0; k < num_keys; ++k) {
    keys[k].resize(n);
    key_exprs_[k]->EvalBatch(rows->data(), n, eval, keys[k].data());
  }
  NLQ_RETURN_IF_ERROR(error);

  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  // Breaking key ties by input position makes the comparator a strict
  // weak order equal to a stable sort, even under partial_sort.
  const auto less = [&](size_t a, size_t b) {
    for (size_t k = 0; k < num_keys; ++k) {
      int c = CompareDatum(keys[k][a], keys[k][b]);
      if (descending_[k]) c = -c;
      if (c != 0) return c < 0;
    }
    return a < b;
  };
  if (limit_ >= 0 && static_cast<size_t>(limit_) < n) {
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<ptrdiff_t>(limit_),
                      order.end(), less);
    order.resize(static_cast<size_t>(limit_));
    // Move the top rows into place; the tail is dropped wholesale.
    std::vector<Row> top(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      top[i] = std::move((*rows)[order[i]]);
    }
    *rows = std::move(top);
    return Status::OK();
  }
  std::sort(order.begin(), order.end(), less);
  ApplyPermutationInPlace(rows, &order);
  return Status::OK();
}

}  // namespace nlq::engine::exec
