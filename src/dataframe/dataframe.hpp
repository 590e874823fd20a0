// Columnar in-memory dataframe.
//
// Plays the role of the Pandas DataFrames the paper's preprocessing builds
// from Darshan logs (§4.1): the Analysis Agent operates on these tables
// through the dfquery language instead of raw logs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace stellar::df {

class DataFrameError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One cell: monostate = null.
using Value = std::variant<std::monostate, std::int64_t, double, std::string>;

[[nodiscard]] std::string toString(const Value& v);
[[nodiscard]] bool isNull(const Value& v) noexcept;
/// Numeric view of a cell; nullopt for nulls/strings.
[[nodiscard]] std::optional<double> asNumber(const Value& v) noexcept;

enum class ColumnType { Int64, Double, String };

/// Typed column storage.
class Column {
 public:
  explicit Column(ColumnType type);

  [[nodiscard]] ColumnType type() const noexcept { return type_; }
  [[nodiscard]] std::size_t size() const noexcept;

  void append(Value v);  ///< must match the column type (int promotes to double)
  [[nodiscard]] Value at(std::size_t row) const;

  [[nodiscard]] const std::vector<std::int64_t>& ints() const;
  [[nodiscard]] const std::vector<double>& doubles() const;

 private:
  ColumnType type_;
  std::vector<std::int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

class DataFrame {
 public:
  DataFrame() = default;

  /// Adds an empty column; throws on duplicate names.
  void addColumn(std::string name, ColumnType type);

  /// Appends a row given as values in column order.
  void appendRow(const std::vector<Value>& row);

  [[nodiscard]] std::size_t rowCount() const noexcept { return rows_; }
  [[nodiscard]] std::size_t columnCount() const noexcept { return columns_.size(); }
  [[nodiscard]] const std::vector<std::string>& columnNames() const noexcept {
    return names_;
  }
  [[nodiscard]] bool hasColumn(std::string_view name) const noexcept;
  [[nodiscard]] const Column& column(std::string_view name) const;
  [[nodiscard]] Value at(std::string_view column, std::size_t row) const;

  /// Row subset by predicate.
  [[nodiscard]] DataFrame filter(
      const std::function<bool(const DataFrame&, std::size_t)>& keep) const;

  /// Column subset (order preserved as given).
  [[nodiscard]] DataFrame select(const std::vector<std::string>& columns) const;

  /// Sorts by one column; nulls last.
  [[nodiscard]] DataFrame sortBy(std::string_view column, bool descending = false) const;

  /// First n rows.
  [[nodiscard]] DataFrame head(std::size_t n) const;

  // Aggregations over a column (nulls skipped; strings invalid).
  [[nodiscard]] double sum(std::string_view column) const;
  [[nodiscard]] double mean(std::string_view column) const;
  [[nodiscard]] double minValue(std::string_view column) const;
  [[nodiscard]] double maxValue(std::string_view column) const;
  [[nodiscard]] std::size_t count(std::string_view column) const;  ///< non-null cells

  /// group-by one key column with (aggregate, column) pairs; result has
  /// the key column plus one column per aggregate named "agg_column".
  enum class Agg { Sum, Mean, Min, Max, Count };
  [[nodiscard]] DataFrame groupBy(std::string_view key,
                                  const std::vector<std::pair<Agg, std::string>>& aggs) const;

  /// Fixed-width text rendering (used in agent transcripts); at most
  /// maxRows rows, with a truncation note.
  [[nodiscard]] std::string toText(std::size_t maxRows = 20) const;

 private:
  [[nodiscard]] std::size_t columnIndex(std::string_view name) const;

  std::vector<std::string> names_;
  std::vector<Column> columns_;
  std::size_t rows_ = 0;
};

[[nodiscard]] const char* aggName(DataFrame::Agg agg) noexcept;

}  // namespace stellar::df
