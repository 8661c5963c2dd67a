// A database = a schema plus one table instance per relation.
//
// Databases also know how to check their own constraints
// (`FindConstraintViolations`), which the synthetic generators use to
// assert that every *source* instance is valid with respect to its own
// schema — the paper's standing assumption ("we assume that every
// instance is valid wrt. its schema", Section 3.1). Violations only
// emerge when data is moved across schemas.

#ifndef EFES_RELATIONAL_DATABASE_H_
#define EFES_RELATIONAL_DATABASE_H_

#include <string>
#include <string_view>
#include <vector>

#include "efes/common/csv.h"
#include "efes/common/result.h"
#include "efes/relational/schema.h"
#include "efes/relational/table.h"

namespace efes {

/// One detected violation of a schema constraint by the instance.
struct ConstraintViolation {
  Constraint constraint;
  /// Number of offending rows (NOT NULL: null rows; UNIQUE/PK: rows in a
  /// duplicated group; FK: rows with a dangling reference).
  size_t violating_rows = 0;

  std::string ToString() const;
};

class Database {
 public:
  /// Creates a database with empty tables for every relation. The schema
  /// must pass `Schema::Validate()`.
  static Result<Database> Create(Schema schema);

  const Schema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }

  const std::vector<Table>& tables() const { return tables_; }

  /// Looks up the instance of `relation`.
  Result<const Table*> table(std::string_view relation) const;
  Result<Table*> mutable_table(std::string_view relation);

  /// Total number of tuples across all tables.
  size_t TotalRowCount() const;

  /// Evaluates every declared constraint against the instance and returns
  /// the non-empty violations.
  std::vector<ConstraintViolation> FindConstraintViolations() const;

  /// Convenience: true iff FindConstraintViolations() is empty.
  bool SatisfiesConstraints() const;

  /// Checks a CSV header against `relation`: it must name the relation's
  /// attributes, in order.
  Status CheckCsvHeader(std::string_view relation,
                        const std::vector<std::string>& header) const;

  /// Appends CSV data rows, such as one ChunkedCsvReader chunk, to
  /// `relation`, whose header passed CheckCsvHeader. Each cell moves into
  /// a Value: an empty cell becomes NULL, any other is cast to its
  /// attribute's type. Stops at the first row the table rejects; the
  /// rows before it stay loaded.
  Status LoadCsv(std::string_view relation,
                 std::vector<std::vector<std::string>> rows);

  /// Exports the instance of `relation` as CSV (NULL as empty cell).
  Result<CsvDocument> ExportCsv(std::string_view relation) const;

 private:
  explicit Database(Schema schema);

  Schema schema_;
  std::vector<Table> tables_;  // aligned with schema_.relations()
};

}  // namespace efes

#endif  // EFES_RELATIONAL_DATABASE_H_
