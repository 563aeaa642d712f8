#include "udf/udf.h"

#include "common/strings.h"

namespace nlq::udf {

using storage::DataType;
using storage::Datum;

Datum ArgSpan::At(size_t r) const {
  if (IsNull(r)) return Datum::Null(type);
  return type == DataType::kDouble ? Datum::Double(d[r]) : Datum::Int64(i[r]);
}

Status ScalarUdf::InvokeSpans(const ArgSpan* args, size_t num_args,
                              size_t rows, const QueryContext* ctx,
                              ResultSpan* out) const {
  const bool as_double = return_type() == DataType::kDouble;
  std::vector<Datum> values(num_args);
  for (size_t r = 0; r < rows; ++r) {
    if (ctx != nullptr) NLQ_RETURN_IF_ERROR(ctx->CheckAlive());
    for (size_t a = 0; a < num_args; ++a) values[a] = args[a].At(r);
    NLQ_ASSIGN_OR_RETURN(const Datum v, Invoke(values));
    if (as_double) {
      out->d[r] = v.AsDouble();
    } else {
      out->i[r] = v.is_null() ? 0 : v.int_value();
    }
    if (v.is_null()) out->SetNull(r);
  }
  return Status::OK();
}

bool AllDenseDoubles(const ArgSpan* args, size_t num_args) {
  for (size_t a = 0; a < num_args; ++a) {
    if (args[a].type != DataType::kDouble || args[a].nulls != nullptr) {
      return false;
    }
  }
  return true;
}

Status UdfRegistry::RegisterScalar(std::unique_ptr<ScalarUdf> udf) {
  const std::string key = AsciiToLower(udf->name());
  if (scalars_.count(key) > 0) {
    return Status::AlreadyExists("scalar UDF '" + key + "' already registered");
  }
  scalars_[key] = std::move(udf);
  return Status::OK();
}

Status UdfRegistry::RegisterAggregate(std::unique_ptr<AggregateUdf> udf) {
  const std::string key = AsciiToLower(udf->name());
  if (aggregates_.count(key) > 0) {
    return Status::AlreadyExists("aggregate UDF '" + key +
                                 "' already registered");
  }
  aggregates_[key] = std::move(udf);
  return Status::OK();
}

const ScalarUdf* UdfRegistry::FindScalar(const std::string& name) const {
  const auto it = scalars_.find(AsciiToLower(name));
  return it == scalars_.end() ? nullptr : it->second.get();
}

const AggregateUdf* UdfRegistry::FindAggregate(const std::string& name) const {
  const auto it = aggregates_.find(AsciiToLower(name));
  return it == aggregates_.end() ? nullptr : it->second.get();
}

std::vector<std::string> UdfRegistry::ScalarNames() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : scalars_) names.push_back(name);
  return names;
}

std::vector<std::string> UdfRegistry::AggregateNames() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : aggregates_) names.push_back(name);
  return names;
}

}  // namespace nlq::udf
