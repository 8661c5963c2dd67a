// Column-oriented relation instances.
//
// The EFES detectors only ever run read-heavy analytical passes (distinct
// counts, null counts, per-value group cardinalities), so the storage is
// column-major. This stands in for the PostgreSQL instance the original
// prototype queried: the same statistics are computed, just in-process.

#ifndef EFES_RELATIONAL_TABLE_H_
#define EFES_RELATIONAL_TABLE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "efes/common/csv.h"
#include "efes/common/result.h"
#include "efes/relational/schema.h"
#include "efes/relational/value.h"

namespace efes {

class Table {
 public:
  explicit Table(RelationDef def);

  const RelationDef& def() const { return def_; }
  const std::string& name() const { return def_.name(); }
  size_t row_count() const { return row_count_; }
  size_t column_count() const { return columns_.size(); }

  /// Appends one row. The row must have one value per attribute; each
  /// non-null value must be castable to the attribute type and is stored
  /// in canonical (cast) form.
  Status AppendRow(std::vector<Value> row);

  /// Appends the rows of a CSV chunk, each cell parsed once into its
  /// attribute's type (an empty cell is NULL): the same values and errors
  /// as AppendRow over Value::Text cells. Rows before the first failing
  /// row stay; that row and the later ones are not appended, and the
  /// error is the cast error of the row's lowest failing column.
  Status AppendCsvRows(const CsvChunk& chunk);

  /// Reserves room for `rows` rows in every column.
  void Reserve(size_t rows);

  /// Removes the rows at the given indices (out-of-range entries are
  /// ignored; duplicates are fine). Used by the integration executor's
  /// repair operations.
  void RemoveRows(const std::vector<size_t>& rows);

  /// Cell accessors; bounds are the caller's responsibility.
  const Value& at(size_t row, size_t column) const {
    return columns_[column][row];
  }
  Value& at(size_t row, size_t column) { return columns_[column][row]; }

  /// The full column vector for attribute index `column`.
  const std::vector<Value>& column(size_t column) const {
    return columns_[column];
  }

  /// Column by attribute name; kNotFound when no such attribute.
  Result<const std::vector<Value>*> ColumnByName(
      std::string_view attribute) const;

  /// Materializes one row (by copy).
  std::vector<Value> Row(size_t row) const;

  // --- Analytics used by the detectors -----------------------------------

  /// Number of NULLs in the column.
  size_t NullCount(size_t column) const;

  /// Number of distinct non-null values in the column.
  size_t DistinctCount(size_t column) const;

  /// The distinct non-null values of the column (unspecified order).
  std::vector<Value> DistinctValues(size_t column) const;

  /// Number of non-null values castable to `target`.
  size_t CountCastableTo(size_t column, DataType target) const;

  /// For every distinct non-null value of `column`: how many rows carry
  /// it. This is the "actual cardinality" primitive of the CSG instance
  /// analysis (how many tuples does each attribute value link to?).
  std::unordered_map<Value, size_t, ValueHash> ValueFrequencies(
      size_t column) const;

  /// Number of rows whose projection onto `columns` (ignoring rows with
  /// any NULL among them) occurs more than once — i.e. uniqueness
  /// violations under SQL semantics.
  size_t CountDuplicateProjections(const std::vector<size_t>& columns) const;

  /// Number of rows in determinant groups (rows with equal projections
  /// onto `determinant`, rows with a NULL there exempt) that carry more
  /// than one distinct projection onto `dependent` — the violations of
  /// the functional dependency determinant -> dependent. Projections
  /// compare under Value equality, NULL equal to NULL.
  size_t CountFunctionalDependencyViolations(
      const std::vector<size_t>& determinant,
      const std::vector<size_t>& dependent) const;

  /// True when the projection onto `columns` is duplicate-free (NULL rows
  /// exempt).
  bool IsUnique(const std::vector<size_t>& columns) const;

  /// Number of rows whose projection onto `columns` (rows with any NULL
  /// among them exempt) equals no projection of `referenced` onto
  /// `referenced_columns` — the dangling references of a foreign key.
  /// Projections compare under Value equality, as in the checks above.
  size_t CountDanglingReferences(
      const std::vector<size_t>& columns, const Table& referenced,
      const std::vector<size_t>& referenced_columns) const;

 private:
  Status ArityMismatch(size_t arity) const;

  RelationDef def_;
  size_t row_count_ = 0;
  // columns_[c][r] is the value of attribute c in row r.
  std::vector<std::vector<Value>> columns_;
};

}  // namespace efes

#endif  // EFES_RELATIONAL_TABLE_H_
