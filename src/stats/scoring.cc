#include "stats/scoring.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/strings.h"
#include "stats/histogram.h"
#include "stats/naive_bayes.h"
#include "stats/nlq_udaf.h"
#include "udf/packing.h"

namespace nlq::stats {

using storage::DataType;
using storage::Datum;

namespace {

class PackPointUdf : public udf::ScalarUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "pack_point";
    return kName;
  }
  DataType return_type() const override { return DataType::kVarchar; }

  Status CheckArity(size_t num_args) const override {
    if (num_args == 0) {
      return Status::InvalidArgument("pack_point needs at least one argument");
    }
    return Status::OK();
  }

  StatusOr<Datum> Invoke(const std::vector<Datum>& args) const override {
    // A NULL component makes the whole packed point NULL, so the
    // consuming aggregate applies the same skip-row policy as the
    // list style — coercing to 0.0 here would silently bias L and Q
    // (caught by differential_query_test's list-vs-string sweep).
    for (const Datum& arg : args) {
      if (arg.is_null()) return Datum::Null(DataType::kVarchar);
    }
    // The run-time cast of floating point numbers to text the paper
    // identifies as the string-style overhead.
    std::string packed;
    packed.reserve(args.size() * 12);
    for (size_t i = 0; i < args.size(); ++i) {
      if (i > 0) packed.push_back(udf::kPackSeparator);
      AppendDouble(&packed, args[i].AsDouble());
    }
    return Datum::Varchar(std::move(packed));
  }
};

class LinearRegScoreUdf : public udf::ScalarUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "linearregscore";
    return kName;
  }
  DataType return_type() const override { return DataType::kDouble; }

  Status CheckArity(size_t num_args) const override {
    // d x-values + (d + 1) coefficients.
    if (num_args < 3 || num_args % 2 == 0) {
      return Status::InvalidArgument(
          "linearregscore(X1..Xd, b0, b1..bd) needs 2d+1 arguments");
    }
    return Status::OK();
  }

  StatusOr<Datum> Invoke(const std::vector<Datum>& args) const override {
    const size_t d = (args.size() - 1) / 2;
    double yhat = args[d].AsDouble();  // b0
    for (size_t a = 0; a < d; ++a) {
      yhat += args[d + 1 + a].AsDouble() * args[a].AsDouble();
    }
    return Datum::Double(yhat);
  }

  /// Column-at-a-time form of Invoke: each row's sum still adds b0,
  /// then b_a * x_a in order a = 1..d, so the result is bit-identical.
  Status InvokeSpans(const udf::ArgSpan* args, size_t num_args, size_t rows,
                     const QueryContext* ctx,
                     udf::ResultSpan* out) const override {
    if (!udf::AllDenseDoubles(args, num_args)) {
      return ScalarUdf::InvokeSpans(args, num_args, rows, ctx, out);
    }
    const size_t d = (num_args - 1) / 2;
    double* yhat = out->d;
    std::copy_n(args[d].d, rows, yhat);
    for (size_t a = 0; a < d; ++a) {
      const double* b = args[d + 1 + a].d;
      const double* x = args[a].d;
      for (size_t r = 0; r < rows; ++r) yhat[r] += b[r] * x[r];
    }
    return Status::OK();
  }
};

class FaScoreUdf : public udf::ScalarUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "fascore";
    return kName;
  }
  DataType return_type() const override { return DataType::kDouble; }

  Status CheckArity(size_t num_args) const override {
    if (num_args < 3 || num_args % 3 != 0) {
      return Status::InvalidArgument(
          "fascore(X1..Xd, mu1..mud, l1..ld) needs 3d arguments");
    }
    return Status::OK();
  }

  StatusOr<Datum> Invoke(const std::vector<Datum>& args) const override {
    const size_t d = args.size() / 3;
    double score = 0.0;
    for (size_t a = 0; a < d; ++a) {
      score += (args[a].AsDouble() - args[d + a].AsDouble()) *
               args[2 * d + a].AsDouble();
    }
    return Datum::Double(score);
  }

  /// Column-at-a-time form of Invoke, bit-identical: each row's score
  /// starts at 0.0 and adds the d terms in order.
  Status InvokeSpans(const udf::ArgSpan* args, size_t num_args, size_t rows,
                     const QueryContext* ctx,
                     udf::ResultSpan* out) const override {
    if (!udf::AllDenseDoubles(args, num_args)) {
      return ScalarUdf::InvokeSpans(args, num_args, rows, ctx, out);
    }
    const size_t d = num_args / 3;
    double* score = out->d;
    std::fill_n(score, rows, 0.0);
    for (size_t a = 0; a < d; ++a) {
      const double* x = args[a].d;
      const double* mu = args[d + a].d;
      const double* l = args[2 * d + a].d;
      for (size_t r = 0; r < rows; ++r) score[r] += (x[r] - mu[r]) * l[r];
    }
    return Status::OK();
  }
};

class KMeansDistanceUdf : public udf::ScalarUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "kmeansdistance";
    return kName;
  }
  DataType return_type() const override { return DataType::kDouble; }

  Status CheckArity(size_t num_args) const override {
    if (num_args < 2 || num_args % 2 != 0) {
      return Status::InvalidArgument(
          "kmeansdistance(X1..Xd, c1..cd) needs 2d arguments");
    }
    return Status::OK();
  }

  StatusOr<Datum> Invoke(const std::vector<Datum>& args) const override {
    const size_t d = args.size() / 2;
    double dist = 0.0;
    for (size_t a = 0; a < d; ++a) {
      const double diff = args[a].AsDouble() - args[d + a].AsDouble();
      dist += diff * diff;
    }
    return Datum::Double(dist);
  }

  /// Column-at-a-time form of Invoke, bit-identical: each row's sum
  /// starts at 0.0 and adds the d squared differences in order.
  Status InvokeSpans(const udf::ArgSpan* args, size_t num_args, size_t rows,
                     const QueryContext* ctx,
                     udf::ResultSpan* out) const override {
    if (!udf::AllDenseDoubles(args, num_args)) {
      return ScalarUdf::InvokeSpans(args, num_args, rows, ctx, out);
    }
    const size_t d = num_args / 2;
    double* dist = out->d;
    std::fill_n(dist, rows, 0.0);
    for (size_t a = 0; a < d; ++a) {
      const double* x = args[a].d;
      const double* c = args[d + a].d;
      for (size_t r = 0; r < rows; ++r) {
        const double diff = x[r] - c[r];
        dist[r] += diff * diff;
      }
    }
    return Status::OK();
  }
};

class ClusterScoreUdf : public udf::ScalarUdf {
 public:
  const std::string& name() const override {
    static const std::string kName = "clusterscore";
    return kName;
  }
  DataType return_type() const override { return DataType::kInt64; }

  Status CheckArity(size_t num_args) const override {
    if (num_args == 0) {
      return Status::InvalidArgument(
          "clusterscore(d1, ..., dk) needs at least one distance");
    }
    return Status::OK();
  }

  StatusOr<Datum> Invoke(const std::vector<Datum>& args) const override {
    size_t best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < args.size(); ++j) {
      if (args[j].is_null()) continue;
      const double dist = args[j].AsDouble();
      if (dist < best_dist) {
        best_dist = dist;
        best = j + 1;  // the paper's J subscript is 1-based
      }
    }
    if (best == 0) return Datum::Null(DataType::kInt64);
    return Datum::Int64(static_cast<int64_t>(best));
  }

  /// Column-at-a-time form of Invoke, bit-identical: per row, the
  /// distances are scanned j = 1..k with the same strict-win rule and
  /// NULLs skipped.
  Status InvokeSpans(const udf::ArgSpan* args, size_t num_args, size_t rows,
                     const QueryContext* ctx,
                     udf::ResultSpan* out) const override {
    for (size_t j = 0; j < num_args; ++j) {
      if (args[j].type != DataType::kDouble) {
        return ScalarUdf::InvokeSpans(args, num_args, rows, ctx, out);
      }
    }
    std::vector<double> best_dist(rows,
                                  std::numeric_limits<double>::infinity());
    int64_t* best = out->i;
    std::fill_n(best, rows, 0);
    for (size_t j = 0; j < num_args; ++j) {
      const udf::ArgSpan& dist = args[j];
      const int64_t label = static_cast<int64_t>(j + 1);
      for (size_t r = 0; r < rows; ++r) {
        if (dist.IsNull(r)) continue;
        if (dist.d[r] < best_dist[r]) {
          best_dist[r] = dist.d[r];
          best[r] = label;
        }
      }
    }
    for (size_t r = 0; r < rows; ++r) {
      if (best[r] == 0) out->SetNull(r);
    }
    return Status::OK();
  }
};

std::string ColumnList(const std::string& prefix, size_t d,
                       const char* base = "X") {
  std::string out;
  for (size_t a = 1; a <= d; ++a) {
    if (a > 1) out += ", ";
    if (!prefix.empty()) {
      out += prefix;
      out += '.';
    }
    out += base + std::to_string(a);
  }
  return out;
}

/// "T1.j = 1 AND T2.j = 2 AND ..." predicates for aliased model-table
/// copies (the paper's "cross-joined k times (with aliasing)").
std::string AliasPredicates(const std::string& alias_base, size_t k) {
  std::string out;
  for (size_t j = 1; j <= k; ++j) {
    if (j > 1) out += " AND ";
    out += StringPrintf("%s%zu.j = %zu", alias_base.c_str(), j, j);
  }
  return out;
}

std::string AliasedFromList(const std::string& table,
                            const std::string& alias_base, size_t k) {
  std::string out;
  for (size_t j = 1; j <= k; ++j) {
    out += StringPrintf(", %s %s%zu", table.c_str(), alias_base.c_str(), j);
  }
  return out;
}

}  // namespace

Status RegisterScoringUdfs(udf::UdfRegistry* registry) {
  NLQ_RETURN_IF_ERROR(registry->RegisterScalar(std::make_unique<PackPointUdf>()));
  NLQ_RETURN_IF_ERROR(
      registry->RegisterScalar(std::make_unique<LinearRegScoreUdf>()));
  NLQ_RETURN_IF_ERROR(registry->RegisterScalar(std::make_unique<FaScoreUdf>()));
  NLQ_RETURN_IF_ERROR(
      registry->RegisterScalar(std::make_unique<KMeansDistanceUdf>()));
  return registry->RegisterScalar(std::make_unique<ClusterScoreUdf>());
}

Status RegisterAllStatsUdfs(udf::UdfRegistry* registry) {
  NLQ_RETURN_IF_ERROR(RegisterNlqUdfs(registry));
  NLQ_RETURN_IF_ERROR(RegisterHistogramUdfs(registry));
  NLQ_RETURN_IF_ERROR(RegisterNaiveBayesUdfs(registry));
  return RegisterScoringUdfs(registry);
}

std::string LinRegScoreUdfQuery(const std::string& x_table,
                                const std::string& beta_table, size_t d,
                                const std::string& id_column) {
  std::string sql = "SELECT " + id_column + ", linearregscore(";
  sql += ColumnList(x_table, d);
  sql += ", b0";
  for (size_t a = 1; a <= d; ++a) sql += StringPrintf(", b%zu", a);
  sql += ") AS yhat FROM " + x_table + ", " + beta_table;
  return sql;
}

std::string LinRegScoreSqlQuery(const std::string& x_table,
                                const std::string& beta_table, size_t d,
                                const std::string& id_column) {
  std::string sql = "SELECT " + id_column + ", b0";
  for (size_t a = 1; a <= d; ++a) {
    sql += StringPrintf(" + b%zu * X%zu", a, a);
  }
  sql += " AS yhat FROM " + x_table + ", " + beta_table;
  return sql;
}

std::string PcaScoreUdfQuery(const std::string& x_table,
                             const std::string& mu_table,
                             const std::string& lambda_table, size_t d,
                             size_t k, const std::string& id_column) {
  std::string sql = "SELECT " + id_column;
  for (size_t j = 1; j <= k; ++j) {
    sql += StringPrintf(", fascore(%s, %s, %s) AS f%zu",
                        ColumnList(x_table, d).c_str(),
                        ColumnList("M", d).c_str(),
                        ColumnList("L" + std::to_string(j), d).c_str(), j);
  }
  sql += " FROM " + x_table + ", " + mu_table + " M" +
         AliasedFromList(lambda_table, "L", k);
  sql += " WHERE " + AliasPredicates("L", k);
  return sql;
}

std::string PcaScoreSqlQuery(const std::string& x_table,
                             const std::string& mu_table,
                             const std::string& lambda_table, size_t d,
                             size_t k, const std::string& id_column) {
  std::string sql = "SELECT " + id_column;
  for (size_t j = 1; j <= k; ++j) {
    sql += ", ";
    for (size_t a = 1; a <= d; ++a) {
      if (a > 1) sql += " + ";
      sql += StringPrintf("(%s.X%zu - M.X%zu) * L%zu.X%zu",
                          x_table.c_str(), a, a, j, a);
    }
    sql += StringPrintf(" AS f%zu", j);
  }
  sql += " FROM " + x_table + ", " + mu_table + " M" +
         AliasedFromList(lambda_table, "L", k);
  sql += " WHERE " + AliasPredicates("L", k);
  return sql;
}

std::string KMeansScoreUdfQuery(const std::string& x_table,
                                const std::string& c_table, size_t d, size_t k,
                                const std::string& id_column) {
  std::string sql = "SELECT " + id_column + ", clusterscore(";
  for (size_t j = 1; j <= k; ++j) {
    if (j > 1) sql += ", ";
    sql += StringPrintf("kmeansdistance(%s, %s)",
                        ColumnList(x_table, d).c_str(),
                        ColumnList("C" + std::to_string(j), d).c_str());
  }
  sql += ") AS j FROM " + x_table + AliasedFromList(c_table, "C", k);
  sql += " WHERE " + AliasPredicates("C", k);
  return sql;
}

std::string KMeansDistancesSqlQuery(const std::string& x_table,
                                    const std::string& c_table, size_t d,
                                    size_t k, const std::string& id_column) {
  std::string sql = "SELECT " + id_column;
  for (size_t j = 1; j <= k; ++j) {
    sql += ", ";
    for (size_t a = 1; a <= d; ++a) {
      if (a > 1) sql += " + ";
      sql += StringPrintf("(%s.X%zu - C%zu.X%zu) * (%s.X%zu - C%zu.X%zu)",
                          x_table.c_str(), a, j, a, x_table.c_str(), a, j, a);
    }
    sql += StringPrintf(" AS d%zu", j);
  }
  sql += " FROM " + x_table + AliasedFromList(c_table, "C", k);
  sql += " WHERE " + AliasPredicates("C", k);
  return sql;
}

std::string KMeansAssignSqlQuery(const std::string& distances_table, size_t k,
                                 const std::string& id_column) {
  std::string sql = "SELECT " + id_column + ", CASE";
  for (size_t j = 1; j < k; ++j) {
    sql += " WHEN ";
    bool first = true;
    for (size_t other = 1; other <= k; ++other) {
      if (other == j) continue;
      if (!first) sql += " AND ";
      first = false;
      sql += StringPrintf("d%zu <= d%zu", j, other);
    }
    sql += StringPrintf(" THEN %zu", j);
  }
  sql += StringPrintf(" ELSE %zu END AS j FROM %s", k,
                      distances_table.c_str());
  return sql;
}

}  // namespace nlq::stats
