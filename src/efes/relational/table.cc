#include "efes/relational/table.h"

#include <sstream>
#include <unordered_set>

namespace efes {

Table::Table(RelationDef def) : def_(std::move(def)) {
  columns_.resize(def_.attribute_count());
}

Status Table::ArityMismatch(size_t arity) const {
  std::ostringstream oss;
  oss << "row arity " << arity << " does not match relation '" << def_.name()
      << "' with " << def_.attribute_count() << " attributes";
  return Status::InvalidArgument(oss.str());
}

Status Table::AppendRow(std::vector<Value> row) {
  if (row.size() != def_.attribute_count()) return ArityMismatch(row.size());
  // Cast every cell first so a failed append leaves the table unchanged.
  // NULLs and cells already of the attribute type are kept as they are.
  for (size_t c = 0; c < row.size(); ++c) {
    DataType target = def_.attributes()[c].type;
    if (row[c].is_null() || row[c].type() == target) continue;
    EFES_ASSIGN_OR_RETURN(row[c], row[c].CastTo(target));
  }
  for (size_t c = 0; c < row.size(); ++c) {
    columns_[c].push_back(std::move(row[c]));
  }
  ++row_count_;
  return Status::OK();
}

Status Table::AppendCsvRows(const CsvChunk& chunk) {
  const std::vector<AttributeDef>& attributes = def_.attributes();
  for (size_t r = 0; r < chunk.rows(); ++r) {
    if (chunk.width(r) != attributes.size()) {
      return ArityMismatch(chunk.width(r));
    }
    for (size_t c = 0; c < attributes.size(); ++c) {
      const std::string_view cell = chunk.cell(r, c);
      if (cell.empty()) {
        columns_[c].emplace_back();
        continue;
      }
      std::optional<Value> value = Value::ParseAs(cell, attributes[c].type);
      if (!value.has_value()) {
        // Take the partial row back out, and report the error the boxed
        // cast reports.
        for (size_t done = 0; done < c; ++done) columns_[done].pop_back();
        return Value::Text(std::string(cell))
            .CastTo(attributes[c].type)
            .status();
      }
      columns_[c].push_back(*std::move(value));
    }
    ++row_count_;
  }
  return Status::OK();
}

void Table::Reserve(size_t rows) {
  for (std::vector<Value>& column : columns_) column.reserve(rows);
}

void Table::RemoveRows(const std::vector<size_t>& rows) {
  if (rows.empty()) return;
  std::vector<bool> remove(row_count_, false);
  for (size_t row : rows) {
    if (row < row_count_) remove[row] = true;
  }
  for (auto& column : columns_) {
    size_t write = 0;
    for (size_t read = 0; read < row_count_; ++read) {
      if (!remove[read]) {
        if (write != read) column[write] = std::move(column[read]);
        ++write;
      }
    }
    column.resize(write);
  }
  size_t removed = 0;
  for (bool flag : remove) {
    if (flag) ++removed;
  }
  row_count_ -= removed;
}

Result<const std::vector<Value>*> Table::ColumnByName(
    std::string_view attribute) const {
  std::optional<size_t> index = def_.AttributeIndex(attribute);
  if (!index.has_value()) {
    return Status::NotFound("no attribute '" + std::string(attribute) +
                            "' in table '" + def_.name() + "'");
  }
  return &columns_[*index];
}

std::vector<Value> Table::Row(size_t row) const {
  std::vector<Value> result;
  result.reserve(columns_.size());
  for (const auto& column : columns_) {
    result.push_back(column[row]);
  }
  return result;
}

size_t Table::NullCount(size_t column) const {
  size_t nulls = 0;
  for (const Value& value : columns_[column]) {
    if (value.is_null()) ++nulls;
  }
  return nulls;
}

size_t Table::DistinctCount(size_t column) const {
  std::unordered_set<Value, ValueHash> distinct;
  for (const Value& value : columns_[column]) {
    if (!value.is_null()) distinct.insert(value);
  }
  return distinct.size();
}

std::vector<Value> Table::DistinctValues(size_t column) const {
  std::unordered_set<Value, ValueHash> distinct;
  for (const Value& value : columns_[column]) {
    if (!value.is_null()) distinct.insert(value);
  }
  return std::vector<Value>(distinct.begin(), distinct.end());
}

size_t Table::CountCastableTo(size_t column, DataType target) const {
  size_t castable = 0;
  for (const Value& value : columns_[column]) {
    if (!value.is_null() && value.CanCastTo(target)) ++castable;
  }
  return castable;
}

std::unordered_map<Value, size_t, ValueHash> Table::ValueFrequencies(
    size_t column) const {
  std::unordered_map<Value, size_t, ValueHash> frequencies;
  for (const Value& value : columns_[column]) {
    if (!value.is_null()) ++frequencies[value];
  }
  return frequencies;
}

namespace {

/// Hash and equality of rows by their projection onto some columns,
/// under Value equality: rows group exactly when every projected pair of
/// values is operator==, so 3 and 3.0 group while 0.3 and 0.1 + 0.2 do
/// not, and no rendering of the values can make two groups collide.
struct Projection {
  const std::vector<std::vector<Value>>* data;
  const std::vector<size_t>* columns;

  size_t operator()(size_t row) const {
    size_t hash = 0;
    for (size_t c : *columns) {
      hash = hash * 1000003 ^ (*data)[c][row].Hash();
    }
    return hash;
  }
  bool operator()(size_t a, size_t b) const {
    for (size_t c : *columns) {
      if ((*data)[c][a] != (*data)[c][b]) return false;
    }
    return true;
  }
  bool HasNull(size_t row) const {
    for (size_t c : *columns) {
      if ((*data)[c][row].is_null()) return true;
    }
    return false;
  }
};

/// Rows keyed by a representative row of their projection group.
template <typename Group>
using ProjectionGroups =
    std::unordered_map<size_t, Group, Projection, Projection>;

}  // namespace

size_t Table::CountDuplicateProjections(
    const std::vector<size_t>& columns) const {
  Projection key{&columns_, &columns};
  ProjectionGroups<size_t> groups(row_count_, key, key);
  for (size_t r = 0; r < row_count_; ++r) {
    if (!key.HasNull(r)) ++groups[r];
  }
  size_t duplicates = 0;
  for (const auto& [row, count] : groups) {
    if (count > 1) duplicates += count;  // all members of the group violate
  }
  return duplicates;
}

size_t Table::CountFunctionalDependencyViolations(
    const std::vector<size_t>& determinant,
    const std::vector<size_t>& dependent) const {
  struct Group {
    size_t first_row;
    size_t rows = 0;
    bool split = false;  // a second distinct dependent projection seen
  };
  Projection lhs{&columns_, &determinant};
  Projection rhs{&columns_, &dependent};
  ProjectionGroups<Group> groups(row_count_, lhs, lhs);
  for (size_t r = 0; r < row_count_; ++r) {
    if (lhs.HasNull(r)) continue;
    Group& group = groups.try_emplace(r, Group{r}).first->second;
    ++group.rows;
    if (!group.split && !rhs(group.first_row, r)) group.split = true;
  }
  size_t violating = 0;
  for (const auto& [row, group] : groups) {
    if (group.split) violating += group.rows;
  }
  return violating;
}

bool Table::IsUnique(const std::vector<size_t>& columns) const {
  return CountDuplicateProjections(columns) == 0;
}

size_t Table::CountDanglingReferences(
    const std::vector<size_t>& columns, const Table& referenced,
    const std::vector<size_t>& referenced_columns) const {
  // Referenced rows are the set's keys; a referencing row probes the set
  // as a ChildRow through the transparent hash and equality, so no
  // projection is ever copied out of either table.
  struct ChildRow {
    size_t row;
  };
  struct Lookup {
    using is_transparent = void;
    Projection parent;
    Projection child;

    size_t operator()(size_t row) const { return parent(row); }
    size_t operator()(ChildRow probe) const { return child(probe.row); }
    bool operator()(size_t a, size_t b) const { return parent(a, b); }
    bool operator()(ChildRow probe, size_t row) const {
      for (size_t i = 0; i < child.columns->size(); ++i) {
        if ((*child.data)[(*child.columns)[i]][probe.row] !=
            (*parent.data)[(*parent.columns)[i]][row]) {
          return false;
        }
      }
      return true;
    }
    bool operator()(size_t row, ChildRow probe) const {
      return (*this)(probe, row);
    }
  };
  Lookup lookup{Projection{&referenced.columns_, &referenced_columns},
                Projection{&columns_, &columns}};
  std::unordered_set<size_t, Lookup, Lookup> keys(referenced.row_count_,
                                                  lookup, lookup);
  for (size_t r = 0; r < referenced.row_count_; ++r) {
    if (!lookup.parent.HasNull(r)) keys.insert(r);
  }
  size_t dangling = 0;
  for (size_t r = 0; r < row_count_; ++r) {
    if (!lookup.child.HasNull(r) && keys.find(ChildRow{r}) == keys.end()) {
      ++dangling;
    }
  }
  return dangling;
}

}  // namespace efes
