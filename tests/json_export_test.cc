// Tests for the JSON writer and the report/study exports.

#include "efes/experiment/json_export.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>
#include <memory>

#include "efes/common/json_writer.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/experiment/study.h"
#include "efes/scenario/paper_example.h"

namespace efes {
namespace {

TEST(JsonWriterTest, ObjectsArraysAndValues) {
  JsonWriter json;
  json.BeginObject()
      .Key("name")
      .String("efes")
      .Key("count")
      .Number(static_cast<int64_t>(42))
      .Key("ratio")
      .Number(0.5)
      .Key("ok")
      .Bool(true)
      .Key("none")
      .Null()
      .Key("items")
      .BeginArray()
      .Number(static_cast<int64_t>(1))
      .Number(static_cast<int64_t>(2))
      .EndArray()
      .EndObject();
  EXPECT_EQ(json.ToString(),
            "{\"name\":\"efes\",\"count\":42,\"ratio\":0.5,\"ok\":true,"
            "\"none\":null,\"items\":[1,2]}");
}

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonWriter::Escape("a\"b\\c\nd\te"),
            "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonWriter::Escape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonWriterTest, NestedStructures) {
  JsonWriter json;
  json.BeginArray()
      .BeginObject()
      .Key("x")
      .BeginArray()
      .EndArray()
      .EndObject()
      .BeginObject()
      .EndObject()
      .EndArray();
  EXPECT_EQ(json.ToString(), "[{\"x\":[]},{}]");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  JsonWriter json;
  json.BeginArray()
      .Number(std::numeric_limits<double>::infinity())
      .Number(std::nan(""))
      .EndArray();
  EXPECT_EQ(json.ToString(), "[null,null]");
}

class JsonExportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto scenario = MakePaperExample();
    ASSERT_TRUE(scenario.ok());
    EfesEngine engine = MakeDefaultEngine();
    auto result =
        engine.Run(*scenario);
    ASSERT_TRUE(result.ok());
    json_ = std::make_unique<std::string>(EstimationResultToJson(*result));
  }
  static void TearDownTestSuite() {
    json_.reset();
  }
  static std::unique_ptr<std::string> json_;
};

std::unique_ptr<std::string> JsonExportTest::json_;

TEST_F(JsonExportTest, ContainsModulesTasksAndTotals) {
  EXPECT_NE(json_->find("\"modules\":["), std::string::npos);
  EXPECT_NE(json_->find("\"name\":\"mapping\""), std::string::npos);
  EXPECT_NE(json_->find("\"name\":\"structure\""), std::string::npos);
  EXPECT_NE(json_->find("\"name\":\"values\""), std::string::npos);
  EXPECT_NE(json_->find("\"tasks\":["), std::string::npos);
  EXPECT_NE(json_->find("\"totals\":{"), std::string::npos);
  EXPECT_NE(json_->find("\"cleaning_structure\":224"), std::string::npos);
}

TEST_F(JsonExportTest, ContainsPaperNumbers) {
  EXPECT_NE(json_->find("\"violations\":503"), std::string::npos);
  EXPECT_NE(json_->find("\"violations\":102"), std::string::npos);
  EXPECT_NE(json_->find("\"type\":\"Merge values\""), std::string::npos);
  EXPECT_NE(json_->find("\"systematic\":true"), std::string::npos);
}

TEST_F(JsonExportTest, BalancedBracesAndQuotes) {
  // A light well-formedness check without a parser: balanced braces and
  // brackets, even number of unescaped quotes.
  int braces = 0;
  int brackets = 0;
  size_t quotes = 0;
  for (size_t i = 0; i < json_->size(); ++i) {
    char c = (*json_)[i];
    bool escaped = i > 0 && (*json_)[i - 1] == '\\';
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    if (c == '"' && !escaped) ++quotes;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(quotes % 2, 0u);
}

TEST(StudyJsonTest, ExportsOutcomesAndRmse) {
  StudyResult study;
  study.domain = "Test";
  study.efes_rmse = 0.25;
  study.counting_rmse = 0.5;
  ScenarioOutcome outcome;
  outcome.scenario = "a-b";
  outcome.quality = ExpectedQuality::kHighQuality;
  outcome.efes_total = 100;
  outcome.measured_total = 90;
  outcome.counting_total = 50;
  study.outcomes.push_back(outcome);
  std::string json = StudyResultToJson(study);
  EXPECT_NE(json.find("\"domain\":\"Test\""), std::string::npos);
  EXPECT_NE(json.find("\"scenario\":\"a-b\""), std::string::npos);
  EXPECT_NE(json.find("\"efes_rmse\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"measured\":{\"total\":90"), std::string::npos);
}

}  // namespace
}  // namespace efes
