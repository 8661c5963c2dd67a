#include "efes/scenario/scenario_io.h"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <sstream>

#include "efes/common/fault.h"
#include "efes/common/file_io.h"
#include "efes/common/metrics.h"
#include "efes/common/string_util.h"
#include "efes/relational/schema_text.h"
#include "efes/telemetry/trace.h"

namespace efes {

namespace fs = std::filesystem;

namespace {

bool IsRecover(const LoadOptions& options) {
  return options.mode == LoadOptions::Mode::kRecover;
}

CsvReadOptions CsvOptionsFor(const LoadOptions& options) {
  CsvReadOptions csv;
  csv.mode = IsRecover(options) ? CsvReadOptions::Mode::kRecover
                                : CsvReadOptions::Mode::kStrict;
  csv.max_field_bytes = options.max_field_bytes;
  csv.max_rows = options.max_rows;
  return csv;
}

void AddIssue(std::vector<DataIssue>* issues, std::string component,
              std::string location, std::string message) {
  if (issues == nullptr) return;
  issues->push_back(DataIssue{std::move(component), std::move(location),
                              std::move(message)});
}

Status SaveDatabase(const Database& database, const fs::path& directory) {
  std::error_code ec;
  fs::create_directories(directory / "data", ec);
  if (ec) {
    return Status::InvalidArgument("cannot create " + directory.string() +
                                   ": " + ec.message());
  }
  EFES_RETURN_IF_ERROR(
      WriteFileAtomic((directory / "schema.sql").string(),
                      WriteSchemaText(database.schema())));
  for (const Table& table : database.tables()) {
    if (table.row_count() == 0) continue;
    EFES_ASSIGN_OR_RETURN(CsvDocument doc,
                          database.ExportCsv(table.name()));
    EFES_RETURN_IF_ERROR(WriteCsvFile(
        doc, (directory / "data" / (table.name() + ".csv")).string()));
  }
  return Status::OK();
}

/// The rows of a `file_bytes` CSV file whose first chunk is `chunk`, so
/// the columns grow once instead of doubling: each row of the chunk
/// stands for its cell bytes plus one delimiter or newline per cell, and
/// 1/16 more is left for later rows that run shorter. An overestimate
/// only reserves address space the columns never touch.
size_t EstimateRows(const CsvChunk& chunk, uintmax_t file_bytes) {
  const size_t chunk_bytes = chunk.bytes.size() + chunk.cell_ends.size();
  if (chunk_bytes == 0) return 0;
  const double rows = static_cast<double>(file_bytes) *
                      static_cast<double>(chunk.rows()) /
                      static_cast<double>(chunk_bytes);
  return static_cast<size_t>(rows + rows / 16);
}

/// Streams one table file into the table of `relation`, chunk by chunk.
/// The reader is drained to the end even after the header or a row was
/// rejected (later rows are then read but not appended), so a CSV error
/// anywhere in the file wins over the relational one. In recover mode a
/// CSV error leaves the table empty with one "table skipped" issue, and
/// a relational error keeps the rows before it and is reported after
/// every CSV repair issue of the file.
Status LoadTable(Database& database, const RelationDef& relation,
                 const std::string& path, const LoadOptions& options,
                 std::vector<DataIssue>* issues) {
  static Counter& rows_loaded =
      MetricsRegistry::Global().GetCounter("scenario.load.rows");
  static Counter& bytes_read =
      MetricsRegistry::Global().GetCounter("scenario.load.bytes");
  TraceSpan span("scenario.load.table");
  Table& table = **database.mutable_table(relation.name());
  const bool recover = IsRecover(options);
  std::vector<DataIssue> csv_issues;
  Status relational;
  Status csv = [&]() -> Status {
    EFES_ASSIGN_OR_RETURN(
        ChunkedCsvReader reader,
        ChunkedCsvReader::Open(path, CsvOptionsFor(options), kLoadChunkRows));
    std::error_code size_error;
    uintmax_t file_bytes = fs::file_size(path, size_error);
    if (size_error) file_bytes = 0;
    bytes_read.Increment(file_bytes);
    relational = database.CheckCsvHeader(relation.name(), reader.header());
    CsvChunk chunk;
    bool first_chunk = true;
    while (!reader.done()) {
      EFES_RETURN_IF_ERROR(reader.ReadChunk(&chunk, &csv_issues));
      if (!relational.ok()) continue;
      if (first_chunk) {
        first_chunk = false;
        table.Reserve(reader.done() ? chunk.rows()
                                    : EstimateRows(chunk, file_bytes));
      }
      relational = database.LoadCsv(relation.name(), chunk);
    }
    return Status::OK();
  }();
  if (!csv.ok()) {
    if (!recover) return csv;
    table = Table(relation);
    AddIssue(issues, "data", path, "table skipped: " + csv.ToString());
    return Status::OK();
  }
  rows_loaded.Increment(table.row_count());
  if (issues != nullptr) {
    issues->insert(issues->end(), std::make_move_iterator(csv_issues.begin()),
                   std::make_move_iterator(csv_issues.end()));
  }
  if (!relational.ok()) {
    if (!recover) return relational;
    AddIssue(issues, "data", path,
             "table partially loaded: " + relational.ToString());
  }
  return Status::OK();
}

/// Loads one database directory. In recover mode, per-table defects
/// (unreadable or malformed CSV, rows the relational layer rejects) are
/// recorded in `issues` and the table is left with what loaded cleanly;
/// only the schema itself remains mandatory and propagates errors.
Result<Database> LoadDatabase(const fs::path& directory,
                              const std::string& name,
                              const LoadOptions& options,
                              std::vector<DataIssue>* issues) {
  EFES_ASSIGN_OR_RETURN(std::string ddl,
                        ReadFileToString((directory / "schema.sql").string()));
  EFES_ASSIGN_OR_RETURN(Schema schema, ParseSchemaText(ddl, name));
  EFES_ASSIGN_OR_RETURN(Database database,
                        Database::Create(std::move(schema)));
  fs::path data_dir = directory / "data";
  if (fs::exists(data_dir)) {
    for (const RelationDef& relation : database.schema().relations()) {
      fs::path csv_path = data_dir / (relation.name() + ".csv");
      if (!fs::exists(csv_path)) continue;
      EFES_RETURN_IF_ERROR(
          LoadTable(database, relation, csv_path.string(), options, issues));
    }
  }
  return database;
}

/// True when `corr` references only relations/attributes that exist in
/// the schemas; recover mode drops the rest instead of failing Validate.
Status ValidateOne(const Correspondence& corr, const Schema& source,
                   const Schema& target) {
  CorrespondenceSet singleton;
  singleton.Add(corr);
  return singleton.Validate(source, target);
}

}  // namespace

Result<Correspondence> ParseCorrespondenceLine(std::string_view line) {
  size_t arrow = line.find("->");
  if (arrow == std::string_view::npos) {
    return Status::ParseError("correspondence line lacks '->': " +
                              std::string(line));
  }
  std::string_view left = Trim(line.substr(0, arrow));
  std::string_view right = Trim(line.substr(arrow + 2));
  if (left.empty() || right.empty()) {
    return Status::ParseError("empty correspondence side: " +
                              std::string(line));
  }
  // Splits "relation" or "relation.attribute", trimming whitespace around
  // the dot so "albums . name" parses as albums.name. An empty relation
  // name, or a dot with nothing after it, is a malformed element — not a
  // silent relation-level correspondence.
  auto split_element =
      [&line](std::string_view element)
      -> Result<std::pair<std::string, std::string>> {
    size_t dot = element.find('.');
    if (dot == std::string_view::npos) {
      return std::pair<std::string, std::string>{std::string(element), ""};
    }
    std::string_view relation = Trim(element.substr(0, dot));
    std::string_view attribute = Trim(element.substr(dot + 1));
    if (relation.empty()) {
      return Status::ParseError("empty relation name in correspondence: " +
                                std::string(line));
    }
    if (attribute.empty()) {
      return Status::ParseError(
          "empty attribute name after '.' in correspondence: " +
          std::string(line));
    }
    return std::pair<std::string, std::string>{std::string(relation),
                                               std::string(attribute)};
  };
  EFES_ASSIGN_OR_RETURN(auto source_element, split_element(left));
  EFES_ASSIGN_OR_RETURN(auto target_element, split_element(right));
  if (source_element.second.empty() != target_element.second.empty()) {
    return Status::ParseError(
        "correspondence mixes relation and attribute granularity: " +
        std::string(line));
  }
  Correspondence corr;
  corr.source_relation = std::move(source_element.first);
  corr.source_attribute = std::move(source_element.second);
  corr.target_relation = std::move(target_element.first);
  corr.target_attribute = std::move(target_element.second);
  return corr;
}

Result<CorrespondenceSet> ParseCorrespondences(std::string_view text) {
  return ParseCorrespondences(text, LoadOptions{}, nullptr);
}

Result<CorrespondenceSet> ParseCorrespondences(
    std::string_view text, const LoadOptions& options,
    std::vector<DataIssue>* issues) {
  CorrespondenceSet set;
  size_t line_number = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_number;
    std::string_view line = Trim(raw_line);
    size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = Trim(line.substr(0, hash));
    if (line.empty()) continue;
    Result<Correspondence> corr = ParseCorrespondenceLine(line);
    if (!corr.ok()) {
      if (!IsRecover(options)) return corr.status();
      std::ostringstream location;
      location << "line " << line_number;
      AddIssue(issues, "correspondences", location.str(),
               "line skipped: " + corr.status().ToString());
      continue;
    }
    set.Add(std::move(*corr));
  }
  return set;
}

std::string WriteCorrespondences(const CorrespondenceSet& correspondences) {
  std::string out;
  for (const Correspondence& corr : correspondences.all()) {
    out += corr.ToString();
    out += '\n';
  }
  return out;
}

Status SaveScenario(const IntegrationScenario& scenario,
                    const std::string& directory) {
  fs::path root(directory);
  EFES_RETURN_IF_ERROR(SaveDatabase(scenario.target, root / "target"));
  for (const SourceBinding& source : scenario.sources) {
    fs::path source_dir = root / "sources" / source.database.name();
    EFES_RETURN_IF_ERROR(SaveDatabase(source.database, source_dir));
    EFES_RETURN_IF_ERROR(
        WriteFileAtomic((source_dir / "correspondences.txt").string(),
                        WriteCorrespondences(source.correspondences)));
  }
  return Status::OK();
}

Result<IntegrationScenario> LoadScenario(const std::string& directory) {
  return LoadScenario(directory, LoadOptions{}, nullptr);
}

Result<IntegrationScenario> LoadScenario(const std::string& directory,
                                         const LoadOptions& options,
                                         ScenarioLoadReport* report) {
  TraceSpan span("scenario.load");
  EFES_RETURN_IF_ERROR(CheckFaultPoint("scenario.load"));
  const bool recover = IsRecover(options);
  std::vector<DataIssue> issues;
  fs::path root(directory);
  if (!fs::exists(root / "target" / "schema.sql")) {
    return Status::NotFound("no target/schema.sql under " + directory);
  }
  // The target is mandatory in every mode: without its schema there is
  // nothing to estimate against.
  EFES_ASSIGN_OR_RETURN(
      Database target,
      LoadDatabase(root / "target", "target", options, &issues));
  EFES_RETURN_IF_ERROR(target.schema().Validate());
  IntegrationScenario scenario(root.filename().string(),
                               std::move(target));

  fs::path sources_dir = root / "sources";
  std::vector<fs::path> source_dirs;
  if (fs::exists(sources_dir)) {
    for (const fs::directory_entry& entry :
         fs::directory_iterator(sources_dir)) {
      if (entry.is_directory()) source_dirs.push_back(entry.path());
    }
  }
  std::sort(source_dirs.begin(), source_dirs.end());
  for (const fs::path& source_dir : source_dirs) {
    const std::string source_name = source_dir.filename().string();
    Result<Database> database =
        LoadDatabase(source_dir, source_name, options, &issues);
    Status source_status =
        database.ok() ? database->schema().Validate() : database.status();
    if (!source_status.ok()) {
      if (!recover) return source_status;
      AddIssue(&issues, "scenario", source_name,
               "source skipped: " + source_status.ToString());
      continue;
    }
    CorrespondenceSet correspondences;
    fs::path corr_path = source_dir / "correspondences.txt";
    if (fs::exists(corr_path)) {
      Result<std::string> text = ReadFileToString(corr_path.string());
      if (!text.ok()) {
        if (!recover) return text.status();
        AddIssue(&issues, "correspondences", corr_path.string(),
                 "file skipped: " + text.status().ToString());
      } else {
        Result<CorrespondenceSet> parsed =
            ParseCorrespondences(*text, options, &issues);
        if (!parsed.ok()) return parsed.status();
        if (recover) {
          // Drop correspondences that reference relations or attributes
          // absent from the loaded schemas; strict mode lets the final
          // Validate reject the whole scenario as before.
          for (const Correspondence& corr : parsed->all()) {
            Status valid = ValidateOne(corr, database->schema(),
                                       scenario.target.schema());
            if (!valid.ok()) {
              AddIssue(&issues, "correspondences", source_name,
                       "correspondence dropped: " + valid.ToString());
              continue;
            }
            correspondences.Add(corr);
          }
        } else {
          correspondences = std::move(*parsed);
        }
      }
    }
    scenario.AddSource(std::move(*database), std::move(correspondences));
  }
  EFES_RETURN_IF_ERROR(scenario.Validate());
  if (!issues.empty()) {
    MetricsRegistry::Global()
        .GetCounter("scenario.load.issues")
        .Increment(issues.size());
  }
  if (report != nullptr) {
    report->degraded = !issues.empty();
    report->issues = std::move(issues);
  }
  return scenario;
}

}  // namespace efes
