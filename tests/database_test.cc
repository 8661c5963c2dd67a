// Tests for Database: constraint checking and CSV import/export.

#include "efes/relational/database.h"

#include <gtest/gtest.h>

namespace efes {
namespace {

Schema MakeSchema() {
  Schema schema("db");
  (void)schema.AddRelation(RelationDef(
      "parent", {{"id", DataType::kInteger}, {"name", DataType::kText}}));
  (void)schema.AddRelation(RelationDef(
      "child", {{"pid", DataType::kInteger}, {"label", DataType::kText}}));
  schema.AddConstraint(Constraint::PrimaryKey("parent", {"id"}));
  schema.AddConstraint(Constraint::NotNull("parent", "name"));
  schema.AddConstraint(
      Constraint::ForeignKey("child", {"pid"}, "parent", {"id"}));
  return schema;
}

TEST(DatabaseTest, CreateValidatesSchema) {
  Schema bad("bad");
  bad.AddConstraint(Constraint::NotNull("ghost", "x"));
  EXPECT_FALSE(Database::Create(std::move(bad)).ok());
  EXPECT_TRUE(Database::Create(MakeSchema()).ok());
}

TEST(DatabaseTest, TableLookup) {
  auto db = Database::Create(MakeSchema());
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->table("parent").ok());
  EXPECT_FALSE(db->table("ghost").ok());
  EXPECT_TRUE(db->mutable_table("child").ok());
}

TEST(DatabaseTest, CleanInstanceSatisfiesConstraints) {
  auto db = Database::Create(MakeSchema());
  ASSERT_TRUE(db.ok());
  Table* parent = *db->mutable_table("parent");
  ASSERT_TRUE(
      parent->AppendRow({Value::Integer(1), Value::Text("p1")}).ok());
  Table* child = *db->mutable_table("child");
  ASSERT_TRUE(
      child->AppendRow({Value::Integer(1), Value::Text("c1")}).ok());
  EXPECT_TRUE(db->SatisfiesConstraints());
  EXPECT_EQ(db->TotalRowCount(), 2u);
}

TEST(DatabaseTest, DetectsNotNullViolation) {
  auto db = Database::Create(MakeSchema());
  Table* parent = *db->mutable_table("parent");
  ASSERT_TRUE(parent->AppendRow({Value::Integer(1), Value::Null()}).ok());
  auto violations = db->FindConstraintViolations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].constraint.kind, ConstraintKind::kNotNull);
  EXPECT_EQ(violations[0].violating_rows, 1u);
}

TEST(DatabaseTest, DetectsPrimaryKeyDuplicates) {
  auto db = Database::Create(MakeSchema());
  Table* parent = *db->mutable_table("parent");
  ASSERT_TRUE(
      parent->AppendRow({Value::Integer(1), Value::Text("a")}).ok());
  ASSERT_TRUE(
      parent->AppendRow({Value::Integer(1), Value::Text("b")}).ok());
  auto violations = db->FindConstraintViolations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].constraint.kind, ConstraintKind::kPrimaryKey);
  EXPECT_EQ(violations[0].violating_rows, 2u);
}

TEST(DatabaseTest, DetectsNullInPrimaryKey) {
  auto db = Database::Create(MakeSchema());
  Table* parent = *db->mutable_table("parent");
  ASSERT_TRUE(parent->AppendRow({Value::Null(), Value::Text("a")}).ok());
  auto violations = db->FindConstraintViolations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].constraint.kind, ConstraintKind::kPrimaryKey);
}

TEST(DatabaseTest, DetectsDanglingForeignKey) {
  auto db = Database::Create(MakeSchema());
  Table* parent = *db->mutable_table("parent");
  ASSERT_TRUE(
      parent->AppendRow({Value::Integer(1), Value::Text("a")}).ok());
  Table* child = *db->mutable_table("child");
  ASSERT_TRUE(
      child->AppendRow({Value::Integer(99), Value::Text("dangling")}).ok());
  ASSERT_TRUE(
      child->AppendRow({Value::Null(), Value::Text("null is fine")}).ok());
  auto violations = db->FindConstraintViolations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].constraint.kind, ConstraintKind::kForeignKey);
  EXPECT_EQ(violations[0].violating_rows, 1u);
}

TEST(DatabaseTest, UniqueConstraintChecked) {
  Schema schema("s");
  (void)schema.AddRelation(RelationDef("r", {{"u", DataType::kText}}));
  schema.AddConstraint(Constraint::Unique("r", {"u"}));
  auto db = Database::Create(std::move(schema));
  Table* table = *db->mutable_table("r");
  ASSERT_TRUE(table->AppendRow({Value::Text("x")}).ok());
  ASSERT_TRUE(table->AppendRow({Value::Text("x")}).ok());
  ASSERT_TRUE(table->AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(table->AppendRow({Value::Null()}).ok());  // nulls exempt
  auto violations = db->FindConstraintViolations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].violating_rows, 2u);
}

TEST(DatabaseTest, ForeignKeyCheckComparesValuesNotRenderings) {
  // 0.1 + 0.2 renders as "0.3" at 15 significant digits but is not equal
  // to 0.3, so the reference dangles. 2 and 2.0 are equal values.
  Schema schema("db");
  (void)schema.AddRelation(RelationDef("parent", {{"key", DataType::kReal}}));
  (void)schema.AddRelation(RelationDef("child", {{"ref", DataType::kReal}}));
  schema.AddConstraint(
      Constraint::ForeignKey("child", {"ref"}, "parent", {"key"}));
  auto db = Database::Create(std::move(schema));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Table* parent = *db->mutable_table("parent");
  ASSERT_TRUE(parent->AppendRow({Value::Real(0.3)}).ok());
  ASSERT_TRUE(parent->AppendRow({Value::Real(2.0)}).ok());
  Table* child = *db->mutable_table("child");
  ASSERT_TRUE(child->AppendRow({Value::Real(0.1 + 0.2)}).ok());
  ASSERT_TRUE(child->AppendRow({Value::Integer(2)}).ok());
  ASSERT_TRUE(child->AppendRow({Value::Null()}).ok());
  ASSERT_EQ(child->at(0, 0).ToString(), parent->at(0, 0).ToString());

  auto violations = db->FindConstraintViolations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].constraint.kind, ConstraintKind::kForeignKey);
  EXPECT_EQ(violations[0].violating_rows, 1u);
}

TEST(DatabaseTest, ViolationToStringMentionsConstraint) {
  auto db = Database::Create(MakeSchema());
  Table* parent = *db->mutable_table("parent");
  ASSERT_TRUE(parent->AppendRow({Value::Integer(1), Value::Null()}).ok());
  auto violations = db->FindConstraintViolations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].ToString().find("NOT NULL parent(name)"),
            std::string::npos);
}

TEST(DatabaseTest, LoadCsvTypedAndNulls) {
  auto db = Database::Create(MakeSchema());
  CsvDocument doc;
  doc.header = {"id", "name"};
  doc.rows = {{"1", "alpha"}, {"2", ""}};
  ASSERT_TRUE(db->CheckCsvHeader("parent", doc.header).ok());
  ASSERT_TRUE(db->LoadCsv("parent", doc.rows).ok());
  const Table* parent = *db->table("parent");
  EXPECT_EQ(parent->row_count(), 2u);
  EXPECT_EQ(parent->at(0, 0).AsInteger(), 1);
  EXPECT_TRUE(parent->at(1, 1).is_null());
}

TEST(DatabaseTest, LoadCsvRejectsHeaderMismatch) {
  auto db = Database::Create(MakeSchema());
  EXPECT_FALSE(db->CheckCsvHeader("parent", {"wrong", "name"}).ok());
  EXPECT_FALSE(db->CheckCsvHeader("parent", {"id"}).ok());
  EXPECT_TRUE(db->CheckCsvHeader("parent", {"id", "name"}).ok());
}

TEST(DatabaseTest, CsvRoundTrip) {
  auto db = Database::Create(MakeSchema());
  Table* parent = *db->mutable_table("parent");
  ASSERT_TRUE(
      parent->AppendRow({Value::Integer(3), Value::Text("x, y")}).ok());
  ASSERT_TRUE(parent->AppendRow({Value::Integer(4), Value::Null()}).ok());

  auto exported = db->ExportCsv("parent");
  ASSERT_TRUE(exported.ok());

  auto db2 = Database::Create(MakeSchema());
  ASSERT_TRUE(db2->CheckCsvHeader("parent", exported->header).ok());
  ASSERT_TRUE(db2->LoadCsv("parent", exported->rows).ok());
  const Table* reloaded = *db2->table("parent");
  EXPECT_EQ(reloaded->at(0, 1).AsText(), "x, y");
  EXPECT_TRUE(reloaded->at(1, 1).is_null());
}

}  // namespace
}  // namespace efes
