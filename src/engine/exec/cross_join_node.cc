#include "engine/exec/cross_join_node.h"

#include <algorithm>

#include "common/strings.h"
#include "storage/column_batch.h"

namespace nlq::engine::exec {
namespace {

using storage::NullBitGet;
using storage::NullBitmapWords;
using storage::NullBitSet;
using storage::Row;

class CrossJoinStream : public ExecStream {
 public:
  CrossJoinStream(ExecStreamPtr input, const std::vector<Row>* build,
                  size_t out_width)
      : input_(std::move(input)), build_(build), out_width_(out_width) {}

  StatusOr<bool> Next(RowBatch* out) override {
    out->Clear();
    if (build_->empty()) return false;  // empty build side: empty product
    while (!out->full()) {
      if (input_pos_ >= input_.batch().size()) {
        NLQ_ASSIGN_OR_RETURN(const bool more, input_.Pull(out->capacity()));
        if (!more) break;
        input_pos_ = 0;
        build_pos_ = 0;
      }
      const Row& probe = input_.batch().row(input_pos_);
      while (build_pos_ < build_->size() && !out->full()) {
        const Row& build_row = (*build_)[build_pos_++];
        Row& joined = out->AppendRow();
        joined.resize(out_width_);
        std::copy(probe.begin(), probe.end(), joined.begin());
        std::copy(build_row.begin(), build_row.end(),
                  joined.begin() + static_cast<ptrdiff_t>(probe.size()));
      }
      if (build_pos_ >= build_->size()) {
        build_pos_ = 0;
        ++input_pos_;
      }
    }
    return !out->empty();
  }

 private:
  /// Child stream plus its current batch, pulled lazily so the batch
  /// capacity can mirror the output batch the caller drives us with.
  class Input {
   public:
    explicit Input(ExecStreamPtr stream) : stream_(std::move(stream)) {}
    const RowBatch& batch() const { return batch_; }
    StatusOr<bool> Pull(size_t capacity) {
      if (batch_.capacity() == 0 && capacity > 0) batch_ = RowBatch(capacity);
      return stream_->Next(&batch_);
    }

   private:
    ExecStreamPtr stream_;
    RowBatch batch_{0};
  };

  Input input_;
  const std::vector<Row>* build_;
  size_t out_width_;
  size_t input_pos_ = 0;  // past-the-end forces an initial Pull
  size_t build_pos_ = 0;
};

/// Span form: joins each child span batch with the columnar build
/// side, probe-major, `capacity` rows per output batch.
class CrossJoinSpanStream : public ColumnStream {
 public:
  CrossJoinSpanStream(ColumnStreamPtr input,
                      const std::vector<ScratchColumn>* build,
                      size_t build_rows, size_t capacity,
                      const QueryContext* ctx)
      : input_(std::move(input)),
        build_(build),
        build_rows_(build_rows),
        capacity_(capacity),
        ctx_(ctx) {}

  StatusOr<bool> Next(ColumnSpanBatch* out) override {
    const size_t k = build_rows_;
    if (k == 0) return false;  // empty build side: empty product
    if (probe_ >= in_.rows) {
      NLQ_ASSIGN_OR_RETURN(const bool more, input_->Next(&in_));
      if (!more) return false;
      probe_ = 0;
    }
    if (ctx_ != nullptr) NLQ_RETURN_IF_ERROR(ctx_->CheckAlive());
    const size_t take =
        std::min(capacity_, (in_.rows - probe_) * k - build_pos_);
    const size_t in_cols = in_.doubles.size();
    const size_t ncols = in_cols + build_->size();
    cols_.resize(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      const bool is_double = c < in_cols
                                 ? in_.doubles[c] != nullptr
                                 : !(*build_)[c - in_cols].doubles.empty();
      ScratchColumn& dst = cols_[c];
      if (is_double) {
        dst.doubles.resize(take);
      } else {
        dst.ints.resize(take);
      }
      dst.null_bits.assign(NullBitmapWords(take), 0);
      dst.has_nulls = false;
    }
    // Runs of consecutive build rows for one probe row at a time.
    size_t w = 0;
    while (w < take) {
      const size_t run = std::min(k - build_pos_, take - w);
      for (size_t c = 0; c < in_cols; ++c) {
        ScratchColumn& dst = cols_[c];
        if (in_.doubles[c] != nullptr) {
          std::fill_n(dst.doubles.data() + w, run, in_.doubles[c][probe_]);
        } else {
          std::fill_n(dst.ints.data() + w, run, in_.ints[c][probe_]);
        }
        if (in_.null_bits[c] != nullptr &&
            NullBitGet(in_.null_bits[c], probe_)) {
          for (size_t j = 0; j < run; ++j) {
            NullBitSet(dst.null_bits.data(), w + j);
          }
          dst.has_nulls = true;
        }
      }
      for (size_t c = in_cols; c < ncols; ++c) {
        const ScratchColumn& src = (*build_)[c - in_cols];
        ScratchColumn& dst = cols_[c];
        if (!src.doubles.empty()) {
          std::copy_n(src.doubles.data() + build_pos_, run,
                      dst.doubles.data() + w);
        } else {
          std::copy_n(src.ints.data() + build_pos_, run, dst.ints.data() + w);
        }
        if (!src.has_nulls) continue;
        for (size_t j = 0; j < run; ++j) {
          if (NullBitGet(src.null_bits.data(), build_pos_ + j)) {
            NullBitSet(dst.null_bits.data(), w + j);
            dst.has_nulls = true;
          }
        }
      }
      w += run;
      build_pos_ += run;
      if (build_pos_ == k) {
        build_pos_ = 0;
        ++probe_;
      }
    }
    out->rows = take;
    out->doubles.resize(ncols);
    out->ints.resize(ncols);
    out->null_bits.resize(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      const ScratchColumn& col = cols_[c];
      const bool is_double = !col.doubles.empty();
      out->doubles[c] = is_double ? col.doubles.data() : nullptr;
      out->ints[c] = is_double ? nullptr : col.ints.data();
      out->null_bits[c] = col.has_nulls ? col.null_bits.data() : nullptr;
    }
    return true;
  }

 private:
  ColumnStreamPtr input_;
  const std::vector<ScratchColumn>* build_;
  size_t build_rows_;
  size_t capacity_;
  const QueryContext* ctx_;
  ColumnSpanBatch in_;
  size_t probe_ = 0;      // current probe row of `in_`
  size_t build_pos_ = 0;  // next build row for that probe row
  std::vector<ScratchColumn> cols_;
};

}  // namespace

CrossJoinNode::CrossJoinNode(PlanNodePtr child,
                             std::vector<storage::Row> build_rows,
                             size_t build_width, std::string display_name,
                             std::vector<std::string> pushed_text)
    : PlanNode(std::move(child)),
      build_rows_(std::move(build_rows)),
      build_width_(build_width),
      display_name_(std::move(display_name)),
      pushed_text_(std::move(pushed_text)) {}

std::string CrossJoinNode::annotation() const {
  std::string out = StringPrintf("%s: materialized, %zu rows",
                                 display_name_.c_str(), build_rows_.size());
  for (size_t i = 0; i < pushed_text_.size(); ++i) {
    out += i == 0 ? " after pushdown: " : " AND ";
    out += pushed_text_[i];
  }
  return out;
}

void CrossJoinNode::EnableSpans(
    const std::vector<std::pair<size_t, storage::DataType>>& cols,
    size_t batch_capacity, const QueryContext* ctx) {
  spans_ = true;
  batch_capacity_ = batch_capacity;
  ctx_ = ctx;
  const size_t k = build_rows_.size();
  build_cols_.assign(cols.size(), ScratchColumn());
  for (size_t j = 0; j < cols.size(); ++j) {
    const auto [index, type] = cols[j];
    ScratchColumn& col = build_cols_[j];
    if (type == storage::DataType::kDouble) {
      col.doubles.resize(k);
    } else {
      col.ints.resize(k);
    }
    col.null_bits.assign(NullBitmapWords(k), 0);
    for (size_t r = 0; r < k; ++r) {
      const storage::Datum& v = build_rows_[r][index];
      if (v.is_null()) {
        NullBitSet(col.null_bits.data(), r);
        col.has_nulls = true;
      }
      // NULL slots hold 0/0.0, like every span.
      if (type == storage::DataType::kDouble) {
        col.doubles[r] = v.AsDouble();
      } else {
        col.ints[r] = v.is_null() ? 0 : v.int_value();
      }
    }
  }
}

size_t CrossJoinNode::output_width() const {
  return child_->output_width() + (spans_ ? build_cols_.size() : build_width_);
}

StatusOr<ExecStreamPtr> CrossJoinNode::OpenStreamImpl(size_t s) const {
  if (spans_) {
    return Status::Internal("CrossJoin was planned for column spans");
  }
  NLQ_ASSIGN_OR_RETURN(ExecStreamPtr input, child_->OpenStream(s));
  return ExecStreamPtr(
      new CrossJoinStream(std::move(input), &build_rows_, output_width()));
}

StatusOr<ColumnStreamPtr> CrossJoinNode::OpenColumnStreamImpl(
    size_t s) const {
  if (!spans_) return PlanNode::OpenColumnStreamImpl(s);
  NLQ_ASSIGN_OR_RETURN(ColumnStreamPtr input, child_->OpenColumnStream(s));
  return ColumnStreamPtr(new CrossJoinSpanStream(
      std::move(input), &build_cols_, build_rows_.size(), batch_capacity_,
      ctx_));
}

}  // namespace nlq::engine::exec
