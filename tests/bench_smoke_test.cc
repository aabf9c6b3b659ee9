// Bench smoke suite (ctest label: bench_smoke): runs every registered
// experiment at minimum scale and validates both the in-memory rows and
// the emitted JSONL and CSV against the expected schema — experiment name,
// row name, finite metrics, syntactically valid JSON, one CSV record per
// JSONL row — so a new experiment cannot ship with broken emission.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "bench/experiment.h"
#include "common/report.h"

namespace pieces::bench {
namespace {

// Minimal JSON syntax checker for the sink's flat output: an object of
// string keys mapping to strings, numbers, null, or one-level-nested
// objects of the same. Returns false on any syntax violation.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    pos_ = 0;
    if (!Object(/*depth=*/0)) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool String() {
    if (!Consume('"')) return false;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        char esc = s_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
            ++pos_;
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
    }
    return false;  // Unterminated.
  }
  bool Number() {
    SkipWs();
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            std::string(".eE+-").find(s_[pos_]) != std::string::npos)) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Value(int depth) {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '"') return String();
    if (c == '{') return depth < 2 && Object(depth + 1);
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return Number();
  }
  bool Object(int depth) {
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      if (!String()) return false;
      if (!Consume(':')) return false;
      if (!Value(depth)) return false;
      SkipWs();
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// Splits CSV text into records: a newline ends a record unless it sits
// inside a quoted field.
std::vector<std::string> CsvRecords(const std::string& csv) {
  std::vector<std::string> records;
  std::string cur;
  bool quoted = false;
  for (char c : csv) {
    if (c == '"') quoted = !quoted;
    if (c == '\n' && !quoted) {
      records.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) records.push_back(cur);
  return records;
}

class BenchSmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchSmokeTest, RunsAndEmitsValidRows) {
  const Experiment* exp = FindExperiment(GetParam());
  ASSERT_NE(exp, nullptr);
  EXPECT_FALSE(exp->figure.empty());
  EXPECT_FALSE(exp->title.empty());
  EXPECT_FALSE(exp->claim.empty());

  std::ostringstream json, csv;
  ResultSink::Options opts;
  opts.table = false;
  opts.json = true;
  opts.json_out = &json;
  opts.csv = true;
  opts.csv_out = &csv;
  ResultSink sink(opts);

  Context ctx{sink};
  ctx.base_keys = 2048;
  ctx.ops = 1000;
  ctx.max_threads = 2;

  sink.BeginExperiment(exp->name, exp->figure, exp->title, exp->claim);
  exp->run(ctx);
  sink.EndExperiment();

  // Every experiment must produce at least one row, each row a nonempty
  // subject name and finite metric values.
  ASSERT_FALSE(sink.rows().empty())
      << exp->name << " produced no result rows";
  for (const ResultSink::StoredRow& sr : sink.rows()) {
    EXPECT_EQ(sr.experiment, exp->name);
    EXPECT_FALSE(sr.row.name().empty());
    EXPECT_FALSE(sr.row.status().empty());
    for (const auto& [key, value] : sr.row.metrics()) {
      EXPECT_FALSE(key.empty());
      EXPECT_TRUE(std::isfinite(value))
          << exp->name << " row " << sr.row.name() << " metric " << key
          << " is not finite";
    }
  }

  // Pinned durability costs: every put commits under exactly one
  // barrier, so a change that adds one back fails here, not in a doc.
  const std::string pinned = exp->name == "recovery"    ? "persists_per_op"
                             : exp->name == "disk_tier" ? "barriers_per_put"
                                                        : "";
  size_t pinned_rows = 0;
  for (const ResultSink::StoredRow& sr : sink.rows()) {
    for (const auto& [key, value] : sr.row.metrics()) {
      if (key != pinned) continue;
      ++pinned_rows;
      EXPECT_EQ(value, 1.0) << exp->name << " row " << sr.row.name() << " "
                            << key;
    }
  }
  if (!pinned.empty()) EXPECT_GT(pinned_rows, 0u) << exp->name;

  // The JSONL stream: one meta line + one line per row/note, all
  // syntactically valid JSON with the schema's required fields.
  std::istringstream in(json.str());
  std::string line;
  size_t line_no = 0, row_lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(JsonChecker(line).Valid())
        << exp->name << " line " << line_no << " is not valid JSON: "
        << line;
    if (line_no == 0) {
      EXPECT_NE(line.find("\"type\":\"experiment\""), std::string::npos);
      EXPECT_NE(line.find("\"experiment\":\"" + exp->name + "\""),
                std::string::npos);
    }
    if (line.find("\"type\":\"row\"") != std::string::npos) {
      ++row_lines;
      EXPECT_NE(line.find("\"name\":\""), std::string::npos);
      EXPECT_NE(line.find("\"status\":\""), std::string::npos);
      EXPECT_NE(line.find("\"metrics\":{"), std::string::npos);
    }
    ++line_no;
  }
  EXPECT_EQ(row_lines, sink.rows().size());

  // The CSV stream: a header naming the fixed columns, then one record
  // per JSONL row, each led by the experiment name.
  const std::vector<std::string> records = CsvRecords(csv.str());
  ASSERT_FALSE(records.empty()) << exp->name << " emitted no CSV";
  EXPECT_EQ(records[0].rfind("experiment,section,name,status", 0), 0u)
      << exp->name << " CSV header: " << records[0];
  EXPECT_EQ(records.size() - 1, row_lines)
      << exp->name << " CSV data rows differ from JSONL rows";
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].rfind(exp->name + ",", 0), 0u)
        << exp->name << " CSV record " << i << ": " << records[i];
  }
}

INSTANTIATE_TEST_SUITE_P(AllExperiments, BenchSmokeTest,
                         ::testing::ValuesIn(ExperimentNames()),
                         [](const auto& info) { return info.param; });

TEST(BenchRegistryTest, AllExperimentsRegistered) {
  std::vector<std::string> names = ExperimentNames();
  EXPECT_EQ(names.size(), 26u);
  // Names are unique and lookup round-trips.
  for (const std::string& name : names) {
    const Experiment* exp = FindExperiment(name);
    ASSERT_NE(exp, nullptr);
    EXPECT_EQ(exp->name, name);
  }
  EXPECT_EQ(FindExperiment("no_such_experiment"), nullptr);
}

}  // namespace
}  // namespace pieces::bench
