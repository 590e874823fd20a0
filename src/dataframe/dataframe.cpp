#include "dataframe/dataframe.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <numeric>

namespace stellar::df {

std::string toString(const Value& v) {
  if (std::holds_alternative<std::monostate>(v)) {
    return "null";
  }
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return std::to_string(*i);
  }
  if (const auto* d = std::get_if<double>(&v)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", *d);
    return buf;
  }
  return std::get<std::string>(v);
}

bool isNull(const Value& v) noexcept {
  return std::holds_alternative<std::monostate>(v);
}

std::optional<double> asNumber(const Value& v) noexcept {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  if (const auto* d = std::get_if<double>(&v)) {
    return *d;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------- Column --

Column::Column(ColumnType type) : type_(type) {}

std::size_t Column::size() const noexcept {
  switch (type_) {
    case ColumnType::Int64: return ints_.size();
    case ColumnType::Double: return doubles_.size();
    case ColumnType::String: return strings_.size();
  }
  return 0;
}

void Column::append(Value v) {
  switch (type_) {
    case ColumnType::Int64: {
      if (const auto* i = std::get_if<std::int64_t>(&v)) {
        ints_.push_back(*i);
        return;
      }
      throw DataFrameError("type mismatch appending to int64 column");
    }
    case ColumnType::Double: {
      if (const auto n = asNumber(v)) {
        doubles_.push_back(*n);
        return;
      }
      throw DataFrameError("type mismatch appending to double column");
    }
    case ColumnType::String: {
      if (auto* s = std::get_if<std::string>(&v)) {
        strings_.push_back(std::move(*s));
        return;
      }
      throw DataFrameError("type mismatch appending to string column");
    }
  }
}

Value Column::at(std::size_t row) const {
  if (row >= size()) {
    throw DataFrameError("row index out of range");
  }
  switch (type_) {
    case ColumnType::Int64: return ints_[row];
    case ColumnType::Double: return doubles_[row];
    case ColumnType::String: return strings_[row];
  }
  return std::monostate{};
}

const std::vector<std::int64_t>& Column::ints() const {
  if (type_ != ColumnType::Int64) {
    throw DataFrameError("not an int64 column");
  }
  return ints_;
}

const std::vector<double>& Column::doubles() const {
  if (type_ != ColumnType::Double) {
    throw DataFrameError("not a double column");
  }
  return doubles_;
}

// ------------------------------------------------------------- DataFrame --

void DataFrame::addColumn(std::string name, ColumnType type) {
  if (hasColumn(name)) {
    throw DataFrameError("duplicate column: " + name);
  }
  if (rows_ != 0) {
    throw DataFrameError("cannot add a column to a non-empty frame");
  }
  names_.push_back(std::move(name));
  columns_.emplace_back(type);
}

void DataFrame::appendRow(const std::vector<Value>& row) {
  if (row.size() != columns_.size()) {
    throw DataFrameError("row width mismatch");
  }
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].append(row[c]);
  }
  ++rows_;
}

bool DataFrame::hasColumn(std::string_view name) const noexcept {
  for (const auto& n : names_) {
    if (n == name) {
      return true;
    }
  }
  return false;
}

std::size_t DataFrame::columnIndex(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return i;
    }
  }
  throw DataFrameError("no such column: " + std::string{name});
}

const Column& DataFrame::column(std::string_view name) const {
  return columns_[columnIndex(name)];
}

Value DataFrame::at(std::string_view column, std::size_t row) const {
  return columns_[columnIndex(column)].at(row);
}

DataFrame DataFrame::filter(
    const std::function<bool(const DataFrame&, std::size_t)>& keep) const {
  DataFrame out;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    out.addColumn(names_[c], columns_[c].type());
  }
  std::vector<Value> row(columns_.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    if (!keep(*this, r)) {
      continue;
    }
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      row[c] = columns_[c].at(r);
    }
    out.appendRow(row);
  }
  return out;
}

DataFrame DataFrame::select(const std::vector<std::string>& columns) const {
  DataFrame out;
  std::vector<std::size_t> idx;
  for (const auto& name : columns) {
    idx.push_back(columnIndex(name));
    out.addColumn(name, columns_[idx.back()].type());
  }
  std::vector<Value> row(idx.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < idx.size(); ++c) {
      row[c] = columns_[idx[c]].at(r);
    }
    out.appendRow(row);
  }
  return out;
}

DataFrame DataFrame::sortBy(std::string_view columnName, bool descending) const {
  const Column& key = column(columnName);
  std::vector<std::size_t> order(rows_);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Value va = key.at(a);
    const Value vb = key.at(b);
    if (key.type() == ColumnType::String) {
      const auto& sa = std::get<std::string>(va);
      const auto& sb = std::get<std::string>(vb);
      return descending ? sb < sa : sa < sb;
    }
    const double na = asNumber(va).value_or(std::numeric_limits<double>::infinity());
    const double nb = asNumber(vb).value_or(std::numeric_limits<double>::infinity());
    return descending ? nb < na : na < nb;
  });

  DataFrame out;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    out.addColumn(names_[c], columns_[c].type());
  }
  std::vector<Value> row(columns_.size());
  for (const std::size_t r : order) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      row[c] = columns_[c].at(r);
    }
    out.appendRow(row);
  }
  return out;
}

DataFrame DataFrame::head(std::size_t n) const {
  DataFrame out;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    out.addColumn(names_[c], columns_[c].type());
  }
  std::vector<Value> row(columns_.size());
  for (std::size_t r = 0; r < std::min(n, rows_); ++r) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      row[c] = columns_[c].at(r);
    }
    out.appendRow(row);
  }
  return out;
}

namespace {

struct AggState {
  double sum = 0.0;
  double minV = std::numeric_limits<double>::infinity();
  double maxV = -std::numeric_limits<double>::infinity();
  std::size_t n = 0;

  void feed(double v) {
    sum += v;
    minV = std::min(minV, v);
    maxV = std::max(maxV, v);
    ++n;
  }

  [[nodiscard]] double result(DataFrame::Agg agg) const {
    switch (agg) {
      case DataFrame::Agg::Sum: return sum;
      case DataFrame::Agg::Mean: return n == 0 ? 0.0 : sum / static_cast<double>(n);
      case DataFrame::Agg::Min: return n == 0 ? 0.0 : minV;
      case DataFrame::Agg::Max: return n == 0 ? 0.0 : maxV;
      case DataFrame::Agg::Count: return static_cast<double>(n);
    }
    return 0.0;
  }
};

}  // namespace

double DataFrame::sum(std::string_view columnName) const {
  AggState s;
  const Column& col = column(columnName);
  for (std::size_t r = 0; r < rows_; ++r) {
    if (const auto v = asNumber(col.at(r))) {
      s.feed(*v);
    }
  }
  return s.result(Agg::Sum);
}

double DataFrame::mean(std::string_view columnName) const {
  AggState s;
  const Column& col = column(columnName);
  for (std::size_t r = 0; r < rows_; ++r) {
    if (const auto v = asNumber(col.at(r))) {
      s.feed(*v);
    }
  }
  return s.result(Agg::Mean);
}

double DataFrame::minValue(std::string_view columnName) const {
  AggState s;
  const Column& col = column(columnName);
  for (std::size_t r = 0; r < rows_; ++r) {
    if (const auto v = asNumber(col.at(r))) {
      s.feed(*v);
    }
  }
  return s.result(Agg::Min);
}

double DataFrame::maxValue(std::string_view columnName) const {
  AggState s;
  const Column& col = column(columnName);
  for (std::size_t r = 0; r < rows_; ++r) {
    if (const auto v = asNumber(col.at(r))) {
      s.feed(*v);
    }
  }
  return s.result(Agg::Max);
}

std::size_t DataFrame::count(std::string_view columnName) const {
  const Column& col = column(columnName);
  std::size_t n = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    if (!df::isNull(col.at(r))) {
      ++n;
    }
  }
  return n;
}

const char* aggName(DataFrame::Agg agg) noexcept {
  switch (agg) {
    case DataFrame::Agg::Sum: return "sum";
    case DataFrame::Agg::Mean: return "mean";
    case DataFrame::Agg::Min: return "min";
    case DataFrame::Agg::Max: return "max";
    case DataFrame::Agg::Count: return "count";
  }
  return "?";
}

DataFrame DataFrame::groupBy(std::string_view key,
                             const std::vector<std::pair<Agg, std::string>>& aggs) const {
  const Column& keyCol = column(key);
  // Group keys rendered as strings keep the implementation simple and the
  // output deterministic (std::map ordering).
  std::map<std::string, std::pair<Value, std::vector<AggState>>> groups;
  for (std::size_t r = 0; r < rows_; ++r) {
    const Value kv = keyCol.at(r);
    auto& entry = groups[toString(kv)];
    if (entry.second.empty()) {
      entry.first = kv;
      entry.second.resize(aggs.size());
    }
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      if (const auto v = asNumber(column(aggs[a].second).at(r))) {
        entry.second[a].feed(*v);
      }
    }
  }

  DataFrame out;
  out.addColumn(std::string{key}, keyCol.type());
  for (const auto& [agg, colName] : aggs) {
    out.addColumn(std::string{aggName(agg)} + "_" + colName, ColumnType::Double);
  }
  for (const auto& [keyText, entry] : groups) {
    (void)keyText;
    std::vector<Value> row;
    row.push_back(entry.first);
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      row.emplace_back(entry.second[a].result(aggs[a].first));
    }
    out.appendRow(row);
  }
  return out;
}

std::string DataFrame::toText(std::size_t maxRows) const {
  std::vector<std::size_t> widths(names_.size());
  const std::size_t shown = std::min(maxRows, rows_);
  std::vector<std::vector<std::string>> cells(shown, std::vector<std::string>(names_.size()));
  for (std::size_t c = 0; c < names_.size(); ++c) {
    widths[c] = names_[c].size();
    for (std::size_t r = 0; r < shown; ++r) {
      cells[r][c] = df::toString(columns_[c].at(r));
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  std::string out;
  for (std::size_t c = 0; c < names_.size(); ++c) {
    out += names_[c] + std::string(widths[c] - names_[c].size() + 2, ' ');
  }
  out += "\n";
  for (std::size_t r = 0; r < shown; ++r) {
    for (std::size_t c = 0; c < names_.size(); ++c) {
      out += cells[r][c] + std::string(widths[c] - cells[r][c].size() + 2, ' ');
    }
    out += "\n";
  }
  if (rows_ > shown) {
    out += "... (" + std::to_string(rows_ - shown) + " more rows)\n";
  }
  return out;
}

}  // namespace stellar::df
