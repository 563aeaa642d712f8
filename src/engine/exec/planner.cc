#include "engine/exec/planner.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "engine/exec/bytecode.h"
#include "engine/exec/columnar_scan_node.h"
#include "engine/exec/cross_join_node.h"
#include "engine/exec/filter_node.h"
#include "engine/exec/gather_node.h"
#include "engine/exec/hash_aggregate_node.h"
#include "engine/exec/limit_node.h"
#include "engine/exec/maintained_view_node.h"
#include "engine/exec/project_node.h"
#include "engine/exec/scan_node.h"
#include "engine/exec/sort_node.h"
#include "engine/exec/vector_filter_node.h"
#include "engine/exec/vector_hash_aggregate_node.h"
#include "engine/exec/vector_project_node.h"
#include "engine/expr.h"
#include "storage/partitioned_table.h"

namespace nlq::engine::exec {
namespace {

using storage::DataType;
using storage::Datum;
using storage::PartitionedTable;
using storage::Row;
using storage::Schema;

/// One materialized small (model) table of the FROM list.
struct SmallTable {
  std::vector<Row> rows;
  const Schema* schema = nullptr;
  std::string alias;
  std::string display;                    // "TABLE AS alias"
  std::vector<std::string> pushed_texts;  // conjuncts pushed down here
};

/// FROM-clause resolution: the first table drives the parallel scan;
/// the remaining (small model) tables are materialized, pre-filtered
/// by WHERE pushdown, and then either bound as constants (one row
/// left) or cross-joined.
struct FromInputs {
  PartitionedTable* driver = nullptr;
  // Materialized small tables in FROM order; after BindFromScope only
  // the cross-joined ones remain.
  std::vector<SmallTable> small;

  BindingScope scope;
  std::vector<const Expr*> residual;  // WHERE conjuncts not pushed down
  std::vector<std::string> residual_texts;
  BoundExprPtr residual_where;        // residual, bound (may be null)

  // EXPLAIN notes: tables bound as constants, and (when set) the table
  // whose pushdown left no rows, which empties the whole join.
  std::string constants_note;
  std::string empty_join_note;
};

StatusOr<FromInputs> PrepareFrom(const SelectStatement& select,
                                 storage::Catalog& catalog) {
  FromInputs inputs;
  for (size_t t = 0; t < select.from.size(); ++t) {
    NLQ_ASSIGN_OR_RETURN(PartitionedTable * table,
                         catalog.GetTable(select.from[t].table_name));
    if (t == 0) {
      inputs.driver = table;
    } else {
      SmallTable small;
      NLQ_ASSIGN_OR_RETURN(small.rows, table->ReadAllRows());
      small.schema = &table->schema();
      small.alias = select.from[t].alias;
      small.display = select.from[t].table_name + " AS " + small.alias;
      inputs.small.push_back(std::move(small));
    }
  }
  return inputs;
}

void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    SplitConjuncts(e->left.get(), out);
    SplitConjuncts(e->right.get(), out);
    return;
  }
  out->push_back(e);
}

/// Pushes WHERE conjuncts that reference only one materialized small
/// table down to that table (pre-filtering its rows before the cross
/// product). Without this, the paper's scoring pattern — X
/// cross-joined with a k-row model table k times under `Lj.j = j`
/// predicates — would enumerate k^k combinations per X row. This is
/// the cross-join analogue of the paper's Section 3.6 join
/// optimizations. The remaining conjuncts are collected in
/// `inputs->residual`.
Status ApplyWherePushdown(const SelectStatement& select,
                          const udf::UdfRegistry* registry,
                          FromInputs* inputs) {
  if (!select.where) return Status::OK();
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(select.where.get(), &conjuncts);

  for (const Expr* conjunct : conjuncts) {
    if (ContainsAggregate(*conjunct, registry)) {
      return Status::InvalidArgument("aggregates are not allowed in WHERE");
    }
    bool pushed = false;
    for (size_t s = 0; s < inputs->small.size() && !pushed; ++s) {
      SmallTable& small = inputs->small[s];
      BindingScope single;
      single.AddTable(small.alias, small.schema);
      StatusOr<BoundExprPtr> bound = BindRowExpr(*conjunct, single, registry);
      if (!bound.ok()) continue;  // references other tables; try next
      // Pre-filter the materialized rows.
      std::vector<Row> kept;
      Status error;
      EvalContext ctx;
      ctx.error = &error;
      for (Row& row : small.rows) {
        ctx.input = &row;
        const Datum cond = bound.value()->Eval(ctx);
        if (!cond.is_null() && cond.AsDouble() != 0.0) {
          kept.push_back(std::move(row));
        }
      }
      NLQ_RETURN_IF_ERROR(error);
      small.rows = std::move(kept);
      small.pushed_texts.push_back(conjunct->ToString());
      pushed = true;
    }
    if (!pushed) {
      inputs->residual.push_back(conjunct);
      inputs->residual_texts.push_back(conjunct->ToString());
    }
  }
  return Status::OK();
}

/// "TABLE AS alias: N rows[ after pushdown: p1 AND p2]".
std::string SmallTableNote(const SmallTable& small) {
  const size_t rows = small.rows.size();
  std::string out = StringPrintf("%s: %zu %s", small.display.c_str(), rows,
                                 rows == 1 ? "row" : "rows");
  for (size_t i = 0; i < small.pushed_texts.size(); ++i) {
    out += i == 0 ? " after pushdown: " : " AND ";
    out += small.pushed_texts[i];
  }
  return out;
}

/// Builds the binding scope once pushdown has filtered the small
/// tables, then binds the residual WHERE against it. With
/// `bind_constants`, a small table left with exactly one row joins as
/// constants: its columns bind to that row's values, NULLs included,
/// and it leaves the cross-join list, so a statement over one driver
/// table and one-row model tables plans like a single-table statement.
/// A table left with no rows empties the join (`empty_join_note`).
/// Tables with two or more rows stay cross-joined.
Status BindFromScope(const SelectStatement& select, bool bind_constants,
                     const udf::UdfRegistry* registry, FromInputs* inputs) {
  if (inputs->driver != nullptr) {
    inputs->scope.AddTable(select.from[0].alias, &inputs->driver->schema());
  }
  std::vector<SmallTable> joined;
  for (SmallTable& small : inputs->small) {
    if (bind_constants && small.rows.size() == 1) {
      if (!inputs->constants_note.empty()) inputs->constants_note += ", ";
      inputs->constants_note += SmallTableNote(small);
      inputs->scope.AddConstantTable(small.alias, small.schema,
                                     std::move(small.rows[0]));
      continue;
    }
    if (bind_constants && small.rows.empty() &&
        inputs->empty_join_note.empty()) {
      inputs->empty_join_note = SmallTableNote(small);
    }
    inputs->scope.AddTable(small.alias, small.schema);
    joined.push_back(std::move(small));
  }
  inputs->small = std::move(joined);

  if (inputs->residual.empty()) return Status::OK();
  // Re-AND the residual conjuncts and bind against the full scope.
  ExprPtr combined = inputs->residual[0]->Clone();
  for (size_t i = 1; i < inputs->residual.size(); ++i) {
    combined = MakeBinary(BinaryOp::kAnd, std::move(combined),
                          inputs->residual[i]->Clone());
  }
  NLQ_ASSIGN_OR_RETURN(inputs->residual_where,
                       BindRowExpr(*combined, inputs->scope, registry));
  return Status::OK();
}

std::string ResultColumnName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr != nullptr) {
    std::string name = item.expr->ToString();
    if (name.size() <= 64) return name;
  }
  return "col" + std::to_string(index + 1);
}

bool IsAggregateSelect(const SelectStatement& select,
                       const udf::UdfRegistry* registry) {
  if (!select.group_by.empty() || select.having != nullptr) return true;
  for (const auto& item : select.items) {
    if (item.expr != nullptr && ContainsAggregate(*item.expr, registry)) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Columnar pipeline (compiled bytecode over span batches)
// ---------------------------------------------------------------------------

/// Projection index of `slot`, appending it on first use.
size_t ProjectSlot(std::vector<size_t>* slots, size_t slot) {
  for (size_t i = 0; i < slots->size(); ++i) {
    if ((*slots)[i] == slot) return i;
  }
  slots->push_back(slot);
  return slots->size() - 1;
}

/// Maps `lit <op> col` to the equivalent `col <op'> lit`; false for
/// non-comparison operators. The identity case doubles as the
/// is-a-comparison check.
bool MirrorComparison(BinaryOp op, bool swapped, BinaryOp* out) {
  switch (op) {
    case BinaryOp::kEq: *out = BinaryOp::kEq; return true;
    case BinaryOp::kNe: *out = BinaryOp::kNe; return true;
    case BinaryOp::kLt: *out = swapped ? BinaryOp::kGt : BinaryOp::kLt;
      return true;
    case BinaryOp::kLe: *out = swapped ? BinaryOp::kGe : BinaryOp::kLe;
      return true;
    case BinaryOp::kGt: *out = swapped ? BinaryOp::kLt : BinaryOp::kGt;
      return true;
    case BinaryOp::kGe: *out = swapped ? BinaryOp::kLe : BinaryOp::kGe;
      return true;
    default: return false;
  }
}

/// Extracts a non-NULL numeric literal, folding a leading unary minus
/// (the parser produces `-2` as kUnary(kNegate, kLiteral)).
bool NumericLiteral(const Expr& e, double* v) {
  if (e.kind == ExprKind::kUnary && e.unary_op == UnaryOp::kNegate &&
      e.left != nullptr) {
    if (!NumericLiteral(*e.left, v)) return false;
    *v = -*v;
    return true;
  }
  if (e.kind != ExprKind::kLiteral || e.literal.is_null() ||
      e.literal.type() == DataType::kVarchar) {
    return false;
  }
  *v = e.literal.AsDouble();
  return true;
}

/// Extracts one WHERE conjunct as a scan-pushable simple comparison
/// (`driver-column <op> numeric-literal`, either operand order)
/// against the projected slot list. No slot is appended on failure.
bool TrySimpleSpanFilter(const Expr& conj, const FromInputs& inputs,
                         std::vector<size_t>* slots, ColumnFilter* f) {
  if (conj.kind != ExprKind::kBinary) return false;
  const Expr* colref = conj.left.get();
  const Expr* lit = conj.right.get();
  bool swapped = false;
  if (colref->kind != ExprKind::kColumnRef) {
    std::swap(colref, lit);
    swapped = true;
  }
  if (colref->kind != ExprKind::kColumnRef ||
      !NumericLiteral(*lit, &f->value) ||
      !MirrorComparison(conj.binary_op, swapped, &f->op)) {
    return false;
  }
  StatusOr<ResolvedColumn> resolved =
      inputs.scope.Resolve(colref->table, colref->column);
  if (!resolved.ok() || resolved->constant != nullptr ||
      resolved->slot >= inputs.driver->schema().num_columns() ||
      resolved->type == DataType::kVarchar) {
    return false;
  }
  f->col = ProjectSlot(slots, resolved->slot);
  f->text = conj.ToString();
  return true;
}

/// Plan fragment for the general columnar pipeline, assembled by
/// TryVectorAggregate / TryVectorProjection. `slots` lists the driver
/// schema slots the scan decodes and `cross_cols` the columns each
/// cross-joined table appends after them; `slot_to_col` maps every
/// joined-row slot to its span column (-1 for unread slots), shared
/// by every program in the fragment.
struct VectorPipeline {
  bool eligible = false;
  std::vector<size_t> slots;
  std::vector<std::vector<std::pair<size_t, DataType>>> cross_cols;
  std::vector<ColumnFilter> scan_filters;  // cols index into `slots`
  CompiledExprPtr where_prog;  // non-pushable conjuncts, ANDed; or null
  std::vector<std::string> where_texts;
  std::vector<int> slot_to_col;
  // Aggregate form.
  std::vector<CompiledExprPtr> key_progs;
  std::vector<VectorAggSpec> spec_args;
  // Projection form.
  std::vector<CompiledExprPtr> proj_progs;
};

/// True when `e` calls a registered scalar UDF (a call that may fail).
bool CallsScalarUdf(const Expr& e, const udf::UdfRegistry* registry) {
  if (e.kind == ExprKind::kFunction && registry != nullptr &&
      registry->FindScalar(e.function_name) != nullptr) {
    return true;
  }
  if (e.left && CallsScalarUdf(*e.left, registry)) return true;
  if (e.right && CallsScalarUdf(*e.right, registry)) return true;
  for (const auto& a : e.args) {
    if (CallsScalarUdf(*a, registry)) return true;
  }
  for (const auto& b : e.branches) {
    if (CallsScalarUdf(*b.condition, registry) ||
        CallsScalarUdf(*b.result, registry)) {
      return true;
    }
  }
  return e.else_expr && CallsScalarUdf(*e.else_expr, registry);
}

/// Splits the residual WHERE conjuncts for the pipeline: simple
/// comparisons become scan-pushed span filters, everything else is
/// re-ANDed, bound and compiled into one VectorFilter program. Returns
/// false when a remaining conjunct does not compile (pipeline
/// ineligible). The row path runs each conjunct only on rows the ones
/// before it leave undecided, so when a conjunct calls a UDF nothing is
/// hoisted into the scan (that would change which rows reach the call)
/// and the builder compiles the call only in the first conjunct.
bool SplitWhereForPipeline(const FromInputs& inputs,
                           const udf::UdfRegistry* registry,
                           BytecodeCache* cache, VectorPipeline* p) {
  bool calls_udf = false;
  for (const Expr* conj : inputs.residual) {
    calls_udf = calls_udf || CallsScalarUdf(*conj, registry);
  }
  std::vector<const Expr*> residual;
  for (const Expr* conj : inputs.residual) {
    ColumnFilter f;
    if (!calls_udf && TrySimpleSpanFilter(*conj, inputs, &p->slots, &f)) {
      p->scan_filters.push_back(std::move(f));
    } else {
      residual.push_back(conj);
    }
  }
  if (residual.empty()) return true;
  ExprPtr combined = residual[0]->Clone();
  p->where_texts.push_back(residual[0]->ToString());
  for (size_t i = 1; i < residual.size(); ++i) {
    combined = MakeBinary(BinaryOp::kAnd, std::move(combined),
                          residual[i]->Clone());
    p->where_texts.push_back(residual[i]->ToString());
  }
  StatusOr<BoundExprPtr> bound =
      BindRowExpr(*combined, inputs.scope, registry);
  if (!bound.ok()) return false;
  p->where_prog = CompileExpr(*bound.value(), cache);
  return p->where_prog != nullptr;
}

/// Seals the fragment: collects every program's referenced slots into
/// the scan projection and builds the slot -> span-column map. A
/// fragment that reads no driver column at all (pure COUNT(*), constant
/// projections) stays on the row path, which decodes nothing either.
bool FinishPipeline(const FromInputs& inputs, VectorPipeline* p) {
  std::vector<size_t> referenced;
  auto collect = [&](const CompiledExprPtr& prog) {
    if (prog == nullptr) return;
    for (const size_t slot : prog->referenced_slots()) {
      referenced.push_back(slot);
    }
  };
  collect(p->where_prog);
  for (const auto& prog : p->key_progs) collect(prog);
  for (const auto& spec : p->spec_args) {
    for (const auto& arg : spec.args) collect(arg.prog);
  }
  for (const auto& prog : p->proj_progs) collect(prog);

  // Driver slots go to the scan; a cross-joined table's slots to the
  // columns its span join appends.
  const size_t driver_slots = inputs.driver->schema().num_columns();
  p->cross_cols.assign(inputs.small.size(), {});
  std::vector<std::pair<size_t, size_t>> cross_slots;  // (table, column)
  for (const size_t slot : referenced) {
    if (slot < driver_slots) {
      ProjectSlot(&p->slots, slot);
      continue;
    }
    size_t t = 0;
    size_t offset = driver_slots;
    while (slot >= offset + inputs.small[t].schema->num_columns()) {
      offset += inputs.small[t++].schema->num_columns();
    }
    const size_t col = slot - offset;
    auto& cols = p->cross_cols[t];
    const std::pair<size_t, DataType> entry{
        col, inputs.small[t].schema->column(col).type};
    if (std::find(cols.begin(), cols.end(), entry) == cols.end()) {
      cols.push_back(entry);
    }
  }
  if (p->slots.empty()) return false;
  p->slot_to_col.assign(inputs.scope.total_slots(), -1);
  int next = 0;
  for (const size_t slot : p->slots) p->slot_to_col[slot] = next++;
  size_t offset = driver_slots;
  for (size_t t = 0; t < inputs.small.size(); ++t) {
    for (const auto& [col, type] : p->cross_cols[t]) {
      p->slot_to_col[offset + col] = next++;
    }
    offset += inputs.small[t].schema->num_columns();
  }
  p->eligible = true;
  return true;
}

/// Vector-pipeline plan of an aggregate: GROUP BY keys and aggregate
/// arguments compile to bytecode and run over span batches (aggregate
/// UDFs keep leading literal arguments as constants). Bare column
/// arguments also record their span column, and a zero-key UDF call
/// whose non-constant arguments are all bare columns is marked
/// `on_spans` (AccumulateSpans over the scan's spans). HAVING and the
/// SELECT projections operate per group on (keys, aggs) rows and stay
/// interpreted.
VectorPipeline TryVectorAggregate(const FromInputs& inputs,
                                  const BoundAggregation& agg,
                                  const udf::UdfRegistry* registry,
                                  BytecodeCache* cache) {
  VectorPipeline p;
  if (inputs.driver == nullptr) return p;
  if (!SplitWhereForPipeline(inputs, registry, cache, &p)) {
    return VectorPipeline{};
  }
  for (const BoundExprPtr& key : agg.key_exprs) {
    CompiledExprPtr prog = CompileExpr(*key, cache);
    if (prog == nullptr) return VectorPipeline{};
    p.key_progs.push_back(std::move(prog));
  }
  for (const AggregateSpec& spec : agg.specs) {
    VectorAggSpec vs;
    if (spec.kind == AggregateSpec::Kind::kUdf) {
      size_t a = 0;
      storage::Datum lit;
      while (a < spec.args.size() && spec.args[a]->AsLiteralValue(&lit)) {
        VectorAggArg arg;
        arg.constant = std::move(lit);
        vs.args.push_back(std::move(arg));
        ++a;
      }
      for (; a < spec.args.size(); ++a) {
        VectorAggArg arg;
        arg.prog = CompileExpr(*spec.args[a], cache);
        if (arg.prog == nullptr) return VectorPipeline{};
        vs.args.push_back(std::move(arg));
      }
    } else if (spec.kind != AggregateSpec::Kind::kCountStar) {
      VectorAggArg arg;
      arg.prog = spec.args.size() == 1 ? CompileExpr(*spec.args[0], cache)
                                       : nullptr;
      if (arg.prog == nullptr) return VectorPipeline{};
      vs.args.push_back(std::move(arg));
    }
    p.spec_args.push_back(std::move(vs));
  }
  if (!FinishPipeline(inputs, &p)) return VectorPipeline{};
  for (size_t i = 0; i < agg.specs.size(); ++i) {
    const AggregateSpec& spec = agg.specs[i];
    VectorAggSpec& vs = p.spec_args[i];
    bool all_cols = true;
    for (size_t a = 0; a < vs.args.size(); ++a) {
      if (vs.args[a].prog == nullptr) continue;
      size_t slot = 0;
      if (spec.args[a]->AsInputRef(&slot) &&
          spec.args[a]->result_type() != DataType::kVarchar) {
        vs.args[a].col = p.slot_to_col[slot];
      } else {
        all_cols = false;
      }
    }
    vs.on_spans = agg.key_exprs.empty() &&
                  spec.kind == AggregateSpec::Kind::kUdf &&
                  spec.udaf != nullptr && spec.udaf->SupportsColumnarSpans() &&
                  all_cols && !vs.args.empty() &&
                  vs.args.back().prog != nullptr;
  }
  return p;
}

/// True when a planned aggregate has the maintained-view shape: a
/// global aggregate over the driver table alone, every WHERE conjunct
/// pushed into the scan, every argument a leading constant or a bare
/// column, and every aggregate UDF call `on_spans`.
bool ViewShape(const FromInputs& inputs, const BoundAggregation& agg,
               bool has_having, const VectorPipeline& vp) {
  if (!agg.key_exprs.empty() || has_having || !inputs.small.empty() ||
      vp.where_prog != nullptr) {
    return false;
  }
  for (size_t i = 0; i < agg.specs.size(); ++i) {
    const VectorAggSpec& vs = vp.spec_args[i];
    switch (agg.specs[i].kind) {
      case AggregateSpec::Kind::kCountStar:
        break;
      case AggregateSpec::Kind::kUdf:
        if (!vs.on_spans) return false;
        break;
      default:
        if (vs.args[0].col < 0) return false;
    }
  }
  return true;
}

/// Pipeline form for plain projections: every SELECT item's bound
/// expression must compile.
VectorPipeline TryVectorProjection(const FromInputs& inputs,
                                   const std::vector<BoundExprPtr>& bound,
                                   const udf::UdfRegistry* registry,
                                   BytecodeCache* cache) {
  VectorPipeline p;
  if (inputs.driver == nullptr) return p;
  if (!SplitWhereForPipeline(inputs, registry, cache, &p)) {
    return VectorPipeline{};
  }
  for (const BoundExprPtr& expr : bound) {
    CompiledExprPtr prog = CompileExpr(*expr, cache);
    if (prog == nullptr) return VectorPipeline{};
    p.proj_progs.push_back(std::move(prog));
  }
  if (!FinishPipeline(inputs, &p)) return VectorPipeline{};
  return p;
}

}  // namespace

Planner::Planner(storage::Catalog* catalog, const udf::UdfRegistry* registry,
                 ThreadPool* pool, size_t batch_capacity,
                 bool enable_column_cache, uint64_t morsel_rows,
                 const QueryContext* ctx, bool enable_expr_compile,
                 BytecodeCache* bytecode_cache, ViewRegistry* views)
    : catalog_(catalog),
      registry_(registry),
      pool_(pool),
      batch_capacity_(batch_capacity),
      enable_column_cache_(enable_column_cache),
      morsel_rows_(morsel_rows),
      ctx_(ctx),
      enable_expr_compile_(enable_expr_compile),
      bytecode_cache_(bytecode_cache),
      views_(views) {}

StatusOr<PhysicalPlan> Planner::Plan(const SelectStatement& select) const {
  NLQ_ASSIGN_OR_RETURN(FromInputs inputs, PrepareFrom(select, *catalog_));
  NLQ_RETURN_IF_ERROR(ApplyWherePushdown(select, registry_, &inputs));
  const bool is_aggregate = IsAggregateSelect(select, registry_);
  bool has_star = false;
  for (const auto& item : select.items) has_star |= item.expr == nullptr;
  // Constant binding is a vectorized-plan choice: the interpreted
  // oracle keeps every cross join. SELECT * copies the joined row, so
  // it keeps them too.
  NLQ_RETURN_IF_ERROR(BindFromScope(
      select, enable_expr_compile_ && !has_star, registry_, &inputs));
  const bool empty_join = !inputs.empty_join_note.empty();
  const bool vectorize = enable_expr_compile_ && !empty_join;

  // Input chain of the row path, built only when a row-path plan is
  // chosen: parallel partition scan, or the constant input of a
  // FROM-less query (one empty row; none under aggregation, where an
  // empty input still finalizes one global group), or no rows at all
  // when pushdown emptied a joined table; then the cross joins against
  // the small tables not bound as constants, in FROM order, and the
  // residual WHERE.
  auto row_input = [&]() -> PlanNodePtr {
    if (empty_join) {
      return std::make_unique<ConstantInputNode>(0, inputs.empty_join_note);
    }
    PlanNodePtr node;
    if (inputs.driver != nullptr) {
      auto scan = std::make_unique<ParallelScanNode>(
          inputs.driver, select.from[0].table_name, batch_capacity_,
          morsel_rows_, ctx_);
      scan->set_constants_note(inputs.constants_note);
      node = std::move(scan);
    } else {
      node = std::make_unique<ConstantInputNode>(is_aggregate ? 0 : 1);
    }
    for (SmallTable& small : inputs.small) {
      node = std::make_unique<CrossJoinNode>(
          std::move(node), std::move(small.rows), small.schema->num_columns(),
          std::move(small.display), std::move(small.pushed_texts));
    }
    if (inputs.residual_where != nullptr) {
      node = std::make_unique<FilterNode>(
          std::move(node), std::move(inputs.residual_where),
          std::move(inputs.residual_texts), ctx_);
    }
    return node;
  };

  // Builds the columnar leaf of a vectorized plan.
  auto columnar_scan = [&](std::vector<size_t> slots,
                           std::vector<ColumnFilter> filters, bool use_cache) {
    auto scan = std::make_unique<ColumnarScanNode>(
        inputs.driver, select.from[0].table_name, std::move(slots),
        std::move(filters), use_cache, batch_capacity_, morsel_rows_, ctx_);
    scan->set_constants_note(inputs.constants_note);
    return scan;
  };

  // Input chain of the vector pipeline: the columnar scan, the
  // cross-joined tables as span joins, then the compiled residual
  // filter. `scan_out` receives the scan (for cache warming).
  auto vector_input = [&](VectorPipeline* vp, bool use_cache,
                          const ColumnarScanNode** scan_out) -> PlanNodePtr {
    auto scan = columnar_scan(std::move(vp->slots),
                              std::move(vp->scan_filters), use_cache);
    if (scan_out != nullptr) *scan_out = scan.get();
    PlanNodePtr chain = std::move(scan);
    for (size_t t = 0; t < inputs.small.size(); ++t) {
      SmallTable& small = inputs.small[t];
      auto join = std::make_unique<CrossJoinNode>(
          std::move(chain), std::move(small.rows),
          small.schema->num_columns(), std::move(small.display),
          std::move(small.pushed_texts));
      join->EnableSpans(vp->cross_cols[t], batch_capacity_, ctx_);
      chain = std::move(join);
    }
    if (vp->where_prog != nullptr) {
      chain = std::make_unique<VectorFilterNode>(
          std::move(chain), std::move(vp->where_prog), vp->slot_to_col,
          std::move(vp->where_texts), ctx_);
    }
    return chain;
  };

  PlanNodePtr node;

  std::vector<storage::Column> out_cols;
  if (is_aggregate) {
    std::vector<const Expr*> select_exprs;
    for (const auto& item : select.items) {
      if (item.expr == nullptr) {
        return Status::InvalidArgument("'*' requires COUNT(*) in aggregates");
      }
      select_exprs.push_back(item.expr.get());
    }
    // HAVING is bound like one more (hidden) select item so it can mix
    // aggregates and group keys; its value filters groups.
    const bool has_having = select.having != nullptr;
    if (has_having) select_exprs.push_back(select.having.get());
    std::vector<const Expr*> group_by;
    for (const auto& g : select.group_by) group_by.push_back(g.get());

    NLQ_ASSIGN_OR_RETURN(
        BoundAggregation agg,
        BindAggregation(select_exprs, group_by, inputs.scope, registry_));
    for (size_t i = 0; i < select.items.size(); ++i) {
      out_cols.push_back({ResultColumnName(select.items[i], i),
                          agg.projections[i]->result_type()});
    }
    VectorPipeline vp;
    if (vectorize) {
      vp = TryVectorAggregate(inputs, agg, registry_, bytecode_cache_);
    }
    if (vp.eligible) {
      // Maintained-view decision: a global aggregate of the view shape
      // whose states are relocatable can be served from (and
      // incrementally maintain) registered per-morsel partials. A
      // spilled or unmaintainable statement, and the one statement that
      // observes a just-invalidated entry, runs the vector pipeline with
      // an explanatory EXPLAIN note instead. Grouped n,L,Q aggregates
      // stay unmaintained: hash-table output ordering is not replayable
      // bit-identically (DESIGN.md §13).
      std::string view_note;
      if (views_ != nullptr && !agg.key_exprs.empty()) {
        for (const AggregateSpec& spec : agg.specs) {
          if (spec.kind == AggregateSpec::Kind::kUdf) {
            view_note = "view=ineligible (group-by)";
          }
        }
      } else if (views_ != nullptr && ViewShape(inputs, agg, has_having, vp)) {
        bool relocatable = true;
        for (const AggregateSpec& spec : agg.specs) {
          relocatable &= spec.kind != AggregateSpec::Kind::kUdf ||
                         spec.udaf->RelocatableStateSize() > 0;
        }
        if (inputs.driver->is_spilled()) {
          view_note = "view=ineligible (spilled)";
        } else if (!relocatable) {
          view_note = "view=ineligible (non-relocatable aggregate state)";
        } else {
          ViewDescriptor d;
          d.table = inputs.driver;
          d.table_name = select.from[0].table_name;
          d.slots = vp.slots;
          d.filters = vp.scan_filters;
          d.specs = &agg.specs;
          d.args = &vp.spec_args;
          d.slot_to_col = &vp.slot_to_col;
          d.morsel_rows = morsel_rows_;
          d.batch_capacity = batch_capacity_;
          const ViewProbe probe = views_->Probe(d);
          if (probe.invalidated) {
            // The entry was dropped; this statement rescans normally
            // and the next eligible one reseeds the view.
            view_note = "view=stale";
          } else {
            std::string state =
                probe.registered
                    ? StringPrintf(
                          "view=fresh delta=%llu of %llu row(s)",
                          static_cast<unsigned long long>(probe.delta_rows),
                          static_cast<unsigned long long>(probe.total_rows))
                    : StringPrintf(
                          "view=stale (seeding %llu row(s))",
                          static_cast<unsigned long long>(probe.total_rows));
            node = std::make_unique<MaintainedViewNode>(
                views_, std::move(d), std::move(agg), std::move(vp.spec_args),
                std::move(vp.slot_to_col), select.items.size(),
                std::move(state), pool_, ctx_);
          }
        }
      }
      if (node == nullptr) {
        // Keys and aggregate arguments run compiled over span batches;
        // non-pushable WHERE conjuncts run as one compiled VectorFilter
        // program.
        const ColumnarScanNode* scan_ptr = nullptr;
        PlanNodePtr chain =
            vector_input(&vp, enable_column_cache_, &scan_ptr);
        auto vagg = std::make_unique<VectorHashAggregateNode>(
            std::move(chain), scan_ptr, std::move(agg),
            std::move(vp.key_progs), std::move(vp.spec_args),
            std::move(vp.slot_to_col), has_having,
            has_having ? select.having->ToString() : std::string(),
            select.items.size(), pool_, ctx_);
        if (!view_note.empty()) vagg->set_view_note(std::move(view_note));
        node = std::move(vagg);
      }
    } else {
      node = std::make_unique<HashAggregateNode>(
          row_input(), std::move(agg), has_having,
          has_having ? select.having->ToString() : std::string(),
          select.items.size(), pool_, batch_capacity_, ctx_);
    }
  } else {
    // Expand the select list (handling bare `*`).
    std::vector<BoundExprPtr> projections;
    for (size_t i = 0; i < select.items.size(); ++i) {
      const SelectItem& item = select.items[i];
      if (item.expr == nullptr) {  // bare *
        for (const auto& col : inputs.scope.AllColumns()) {
          out_cols.push_back(col);
        }
        continue;
      }
      NLQ_ASSIGN_OR_RETURN(BoundExprPtr bound,
                           BindRowExpr(*item.expr, inputs.scope, registry_));
      out_cols.push_back({ResultColumnName(item, i), bound->result_type()});
      projections.push_back(std::move(bound));
    }
    VectorPipeline vp;
    if (vectorize && !has_star) {
      vp = TryVectorProjection(inputs, projections, registry_,
                               bytecode_cache_);
    }
    if (vp.eligible) {
      // General columnar pipeline: projections (and non-pushable WHERE
      // conjuncts) run compiled over span batches. The scan skips the
      // decoded-column cache — Gather drains the streams in parallel
      // and there is no safe single-threaded warm point here.
      node = std::make_unique<VectorProjectNode>(
          vector_input(&vp, /*use_cache=*/false, nullptr),
          std::move(vp.proj_progs), std::move(vp.slot_to_col), ctx_);
    } else if (has_star) {
      // SELECT * forwards the joined row (star mixed with expressions
      // is not supported: star copies the joined row).
      node = std::make_unique<ProjectNode>(row_input());
    } else {
      // Row path: the interpreted oracle, and the fallback for what the
      // pipeline cannot compile (VARCHAR expressions).
      node = std::make_unique<ProjectNode>(row_input(),
                                           std::move(projections), ctx_);
    }
    if (node->num_streams() > 1) {
      node = std::make_unique<GatherNode>(std::move(node), pool_,
                                          batch_capacity_, ctx_);
    }
  }

  Schema output_schema{std::move(out_cols)};

  // ORDER BY binds against the result schema (so aliases and
  // positions resolve), exactly like the previous post-materialization
  // sort.
  if (!select.order_by.empty()) {
    BindingScope result_scope;
    result_scope.AddTable("", &output_schema);
    std::vector<BoundExprPtr> key_exprs;
    std::vector<bool> descending;
    for (const auto& item : select.order_by) {
      descending.push_back(item.descending);
      // Positional form: ORDER BY 2.
      if (item.expr->kind == ExprKind::kLiteral &&
          item.expr->literal.type() == DataType::kInt64 &&
          !item.expr->literal.is_null()) {
        const int64_t pos = item.expr->literal.int_value();
        if (pos < 1 || pos > static_cast<int64_t>(output_schema.num_columns())) {
          return Status::InvalidArgument("ORDER BY position out of range");
        }
        const auto& col = output_schema.column(static_cast<size_t>(pos - 1));
        key_exprs.push_back(
            MakeBoundInputRef(static_cast<size_t>(pos - 1), col.type));
        continue;
      }
      NLQ_ASSIGN_OR_RETURN(BoundExprPtr bound,
                           BindRowExpr(*item.expr, result_scope, registry_));
      key_exprs.push_back(std::move(bound));
    }
    node = std::make_unique<SortNode>(std::move(node), std::move(key_exprs),
                                      std::move(descending), select.limit,
                                      ctx_);
  }

  if (select.limit >= 0) {
    node = std::make_unique<LimitNode>(std::move(node), select.limit);
  }

  PhysicalPlan plan;
  plan.root = std::move(node);
  plan.output_schema = std::move(output_schema);
  return plan;
}

}  // namespace nlq::engine::exec
