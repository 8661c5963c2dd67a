#include "efes/relational/database.h"

#include <sstream>

namespace efes {

std::string ConstraintViolation::ToString() const {
  std::ostringstream oss;
  oss << constraint.ToString() << ": " << violating_rows
      << " violating rows";
  return oss.str();
}

Database::Database(Schema schema) : schema_(std::move(schema)) {
  tables_.reserve(schema_.relations().size());
  for (const RelationDef& rel : schema_.relations()) {
    tables_.emplace_back(rel);
  }
}

Result<Database> Database::Create(Schema schema) {
  EFES_RETURN_IF_ERROR(schema.Validate());
  return Database(std::move(schema));
}

Result<const Table*> Database::table(std::string_view relation) const {
  for (const Table& t : tables_) {
    if (t.name() == relation) return &t;
  }
  return Status::NotFound("no table '" + std::string(relation) +
                          "' in database '" + name() + "'");
}

Result<Table*> Database::mutable_table(std::string_view relation) {
  for (Table& t : tables_) {
    if (t.name() == relation) return &t;
  }
  return Status::NotFound("no table '" + std::string(relation) +
                          "' in database '" + name() + "'");
}

size_t Database::TotalRowCount() const {
  size_t total = 0;
  for (const Table& t : tables_) total += t.row_count();
  return total;
}

namespace {

std::vector<size_t> ResolveColumns(const RelationDef& def,
                                   const std::vector<std::string>& names) {
  std::vector<size_t> columns;
  columns.reserve(names.size());
  for (const std::string& name : names) {
    columns.push_back(*def.AttributeIndex(name));
  }
  return columns;
}

}  // namespace

std::vector<ConstraintViolation> Database::FindConstraintViolations() const {
  std::vector<ConstraintViolation> violations;
  for (const Constraint& c : schema_.constraints()) {
    auto table_result = table(c.relation);
    if (!table_result.ok()) continue;  // Validate() would have caught this
    const Table& child = **table_result;
    std::vector<size_t> columns = ResolveColumns(child.def(), c.attributes);

    size_t violating = 0;
    switch (c.kind) {
      case ConstraintKind::kNotNull:
        violating = child.NullCount(columns[0]);
        break;
      case ConstraintKind::kUnique:
        violating = child.CountDuplicateProjections(columns);
        break;
      case ConstraintKind::kPrimaryKey: {
        violating = child.CountDuplicateProjections(columns);
        // PK also implies NOT NULL on all key columns.
        for (size_t r = 0; r < child.row_count(); ++r) {
          for (size_t col : columns) {
            if (child.at(r, col).is_null()) {
              ++violating;
              break;
            }
          }
        }
        break;
      }
      case ConstraintKind::kFunctionalDependency: {
        // Rows whose determinant group carries more than one distinct
        // dependent projection violate the FD. NULL determinants exempt.
        std::vector<size_t> dependent_columns =
            ResolveColumns(child.def(), c.referenced_attributes);
        violating = child.CountFunctionalDependencyViolations(
            columns, dependent_columns);
        break;
      }
      case ConstraintKind::kForeignKey: {
        auto parent_result = table(c.referenced_relation);
        if (!parent_result.ok()) continue;
        const Table& parent = **parent_result;
        std::vector<size_t> parent_columns =
            ResolveColumns(parent.def(), c.referenced_attributes);
        violating =
            child.CountDanglingReferences(columns, parent, parent_columns);
        break;
      }
    }
    if (violating > 0) {
      violations.push_back(ConstraintViolation{c, violating});
    }
  }
  return violations;
}

bool Database::SatisfiesConstraints() const {
  return FindConstraintViolations().empty();
}

Status Database::CheckCsvHeader(
    std::string_view relation, const std::vector<std::string>& header) const {
  EFES_ASSIGN_OR_RETURN(const Table* target, table(relation));
  const RelationDef& def = target->def();
  if (header.size() != def.attribute_count()) {
    return Status::InvalidArgument(
        "CSV header arity does not match relation '" +
        std::string(relation) + "'");
  }
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] != def.attributes()[i].name) {
      return Status::InvalidArgument("CSV header column '" + header[i] +
                                     "' does not match attribute '" +
                                     def.attributes()[i].name + "'");
    }
  }
  return Status::OK();
}

Status Database::LoadCsv(std::string_view relation,
                         std::vector<std::vector<std::string>> rows) {
  EFES_ASSIGN_OR_RETURN(Table * target, mutable_table(relation));
  for (std::vector<std::string>& csv_row : rows) {
    std::vector<Value> row;
    row.reserve(csv_row.size());
    for (std::string& cell : csv_row) {
      row.push_back(cell.empty() ? Value::Null()
                                 : Value::Text(std::move(cell)));
    }
    EFES_RETURN_IF_ERROR(target->AppendRow(std::move(row)));
  }
  return Status::OK();
}

Result<CsvDocument> Database::ExportCsv(std::string_view relation) const {
  EFES_ASSIGN_OR_RETURN(const Table* source, table(relation));
  CsvDocument doc;
  for (const AttributeDef& attr : source->def().attributes()) {
    doc.header.push_back(attr.name);
  }
  doc.rows.reserve(source->row_count());
  for (size_t r = 0; r < source->row_count(); ++r) {
    std::vector<std::string> row;
    row.reserve(source->column_count());
    for (size_t c = 0; c < source->column_count(); ++c) {
      const Value& value = source->at(r, c);
      row.push_back(value.is_null() ? "" : value.ToString());
    }
    doc.rows.push_back(std::move(row));
  }
  return doc;
}

}  // namespace efes
