#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "extraction/extractor.h"
#include "extraction/relational.h"
#include "extraction/sinks.h"
#include "template/template.h"
#include "util/file_io.h"
#include "util/rng.h"
#include "util/strings.h"

namespace datamaran {
namespace {

StructureTemplate MustParse(std::string_view canonical) {
  auto r = StructureTemplate::FromCanonical(canonical);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r.value());
}

TEST(ExtractorTest, SingleTemplateWithNoise) {
  Dataset data("a,b\nnoise here\nc,d\n");
  std::vector<StructureTemplate> ts;
  ts.push_back(MustParse("F,F\n"));
  Extractor ex(&ts);
  ExtractionResult out = ex.Extract(data);
  ASSERT_EQ(out.records.size(), 2u);
  ASSERT_EQ(out.noise_lines.size(), 1u);
  EXPECT_EQ(out.noise_lines[0], 1u);
  EXPECT_EQ(out.records[0].first_line, 0u);
  EXPECT_EQ(out.records[1].first_line, 2u);
  EXPECT_GT(out.coverage(), 0.4);
  EXPECT_LT(out.coverage(), 0.6);
}

TEST(ExtractorTest, InterleavedTypesGetDistinctIds) {
  Dataset data("a,b\nx=1;\nc,d\ny=2;\n");
  std::vector<StructureTemplate> ts;
  ts.push_back(MustParse("F,F\n"));
  ts.push_back(MustParse("F=F;\n"));
  Extractor ex(&ts);
  ExtractionResult out = ex.Extract(data);
  ASSERT_EQ(out.records.size(), 4u);
  EXPECT_EQ(out.records[0].template_id, 0);
  EXPECT_EQ(out.records[1].template_id, 1);
  EXPECT_EQ(out.records[2].template_id, 0);
  EXPECT_EQ(out.records[3].template_id, 1);
  EXPECT_TRUE(out.noise_lines.empty());
  EXPECT_DOUBLE_EQ(out.coverage(), 1.0);
}

TEST(ExtractorTest, MultiLineRecordSkipsSpan) {
  Dataset data("k: a\nv: 1\nk: b\nv: 2\n");
  std::vector<StructureTemplate> ts;
  ts.push_back(MustParse("k: F\nv: F\n"));
  Extractor ex(&ts);
  ExtractionResult out = ex.Extract(data);
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[0].line_count, 2);
  EXPECT_EQ(out.records[1].first_line, 2u);
}

TEST(ExtractorTest, PriorityOrderBreaksTies) {
  // Both templates match "1,2"; the first wins.
  Dataset data("1,2\n");
  std::vector<StructureTemplate> ts;
  ts.push_back(MustParse("(F,)*F\n"));
  ts.push_back(MustParse("F,F\n"));
  Extractor ex(&ts);
  ExtractionResult out = ex.Extract(data);
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(out.records[0].template_id, 0);
}

TEST(ExtractorTest, StreamingSinkSeesEverything) {
  class Counter : public EventSink {
   public:
    int records = 0, noise = 0;
    void OnRecord(int, size_t, std::string_view, size_t, size_t,
                  const MatchEvent*, size_t) override {
      ++records;
    }
    void OnNoiseLine(size_t) override { ++noise; }
  };
  Dataset data("a,b\nnoise\nc,d\nmore noise\n");
  std::vector<StructureTemplate> ts;
  ts.push_back(MustParse("F,F\n"));
  Extractor ex(&ts);
  Counter counter;
  const ExtractionResult stats = ex.ExtractEvents(data, &counter);
  EXPECT_EQ(counter.records, 2);
  EXPECT_EQ(counter.noise, 2);
  // The streaming scan collects nothing but still accounts for every line.
  EXPECT_TRUE(stats.records.empty());
  EXPECT_EQ(stats.matched_records, 2u);
  EXPECT_EQ(stats.noise_line_count, 2u);
}

// ------------------------------------------------------------ relational --

TEST(RelationalTest, DenormalizedSimpleStruct) {
  Dataset data("a,1\nb,2\n");
  std::vector<StructureTemplate> ts;
  ts.push_back(MustParse("F,F\n"));
  Extractor ex(&ts);
  ExtractionResult out = ex.Extract(data);
  Table t = DenormalizedTable(ts[0], out.records, data.text(), 0, "T");
  ASSERT_EQ(t.columns.size(), 2u);
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[0][0], "a");
  EXPECT_EQ(t.rows[0][1], "1");
  EXPECT_EQ(t.rows[1][1], "2");
}

TEST(RelationalTest, DenormalizedArrayJoinsWithSeparator) {
  Dataset data("a,b,c\nx\n");
  std::vector<StructureTemplate> ts;
  ts.push_back(MustParse("(F,)*F\n"));
  Extractor ex(&ts);
  ExtractionResult out = ex.Extract(data);
  Table t = DenormalizedTable(ts[0], out.records, data.text(), 0, "T");
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[0][0], "a,b,c");
  EXPECT_EQ(t.rows[1][0], "x");
}

TEST(RelationalTest, NormalizedArrayChildTable) {
  Dataset data("a,b,c\nx,y\n");
  std::vector<StructureTemplate> ts;
  ts.push_back(MustParse("(F,)*F\n"));
  Extractor ex(&ts);
  ExtractionResult out = ex.Extract(data);
  auto tables = NormalizedTables(ts[0], out.records, data.text(), 0, "T");
  ASSERT_EQ(tables.size(), 2u);
  // Root: one row per record, no direct fields.
  EXPECT_EQ(tables[0].rows.size(), 2u);
  ASSERT_EQ(tables[0].columns.size(), 1u);
  // Child: one row per element, FK to parent and position.
  ASSERT_EQ(tables[1].columns.size(), 4u);
  ASSERT_EQ(tables[1].rows.size(), 5u);
  EXPECT_EQ(tables[1].rows[0][1], "0");  // parent_id
  EXPECT_EQ(tables[1].rows[0][2], "0");  // pos
  EXPECT_EQ(tables[1].rows[0][3], "a");
  EXPECT_EQ(tables[1].rows[3][1], "1");
  EXPECT_EQ(tables[1].rows[3][3], "x");
}

TEST(RelationalTest, NormalizedMixedStructAndArray) {
  Dataset data("bob:1,2,3\nann:4\n");
  std::vector<StructureTemplate> ts;
  ts.push_back(MustParse("F:(F,)*F\n"));
  Extractor ex(&ts);
  ExtractionResult out = ex.Extract(data);
  auto tables = NormalizedTables(ts[0], out.records, data.text(), 0, "T");
  ASSERT_EQ(tables.size(), 2u);
  ASSERT_EQ(tables[0].columns.size(), 2u);  // id + name field
  EXPECT_EQ(tables[0].rows[0][1], "bob");
  EXPECT_EQ(tables[0].rows[1][1], "ann");
  ASSERT_EQ(tables[1].rows.size(), 4u);
  EXPECT_EQ(tables[1].rows[3][1], "1");  // ann's single element
  EXPECT_EQ(tables[1].rows[3][3], "4");
}

TEST(RelationalTest, CsvEscaping) {
  Table t;
  t.name = "x";
  t.columns = {"a", "b"};
  t.rows = {{"plain", "has,comma"}, {"has\"quote", "has\nnewline"}};
  std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\nnewline\""), std::string::npos);
}

// ------------------------------------------- writer escaping round trips --

/// Reference RFC-4180 parser for the round-trip property tests: splits one
/// CSV document (as produced by AppendCsvField + '\n' row terminators) back
/// into rows of raw cells. Byte-oriented; no charset assumptions.
std::vector<std::vector<std::string>> ParseCsv(std::string_view csv) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cell;
  size_t i = 0;
  while (i < csv.size()) {
    if (csv[i] == '"') {  // quoted cell
      ++i;
      while (i < csv.size()) {
        if (csv[i] == '"') {
          if (i + 1 < csv.size() && csv[i + 1] == '"') {
            cell.push_back('"');
            i += 2;
          } else {
            ++i;  // closing quote
            break;
          }
        } else {
          cell.push_back(csv[i++]);
        }
      }
    } else {
      while (i < csv.size() && csv[i] != ',' && csv[i] != '\n') {
        cell.push_back(csv[i++]);
      }
    }
    if (i >= csv.size() || csv[i] == '\n') {
      row.push_back(std::move(cell));
      cell.clear();
      rows.push_back(std::move(row));
      row.clear();
      ++i;
    } else {  // ','
      row.push_back(std::move(cell));
      cell.clear();
      ++i;
    }
  }
  return rows;
}

/// Byte-oriented unescape of a JSON string body as AppendJsonEscaped emits
/// it (short escapes + \u00XX; anything else passes through).
std::string JsonUnescape(std::string_view s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out.push_back(s[i]);
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 'r': out.push_back('\r'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'u': {
        const int hi = std::stoi(std::string(s.substr(i + 1, 4)), nullptr, 16);
        out.push_back(static_cast<char>(hi));
        i += 4;
        break;
      }
      default: out.push_back(s[i]);
    }
  }
  return out;
}

/// Random byte string biased toward the CSV/JSON metacharacters, including
/// embedded NUL and non-UTF8 bytes.
std::string RandomNastyString(Rng* rng) {
  static const std::string kNasty = ",\"\n\r\\{}:\t";
  std::string s;
  const int len = static_cast<int>(rng->Uniform(0, 12));
  for (int i = 0; i < len; ++i) {
    const int kind = static_cast<int>(rng->Uniform(0, 3));
    if (kind == 0) {
      s.push_back(kNasty[static_cast<size_t>(
          rng->Uniform(0, static_cast<int64_t>(kNasty.size()) - 1))]);
    } else if (kind == 1) {
      s.push_back(static_cast<char>(rng->Uniform(0, 255)));  // any byte
    } else {
      s.push_back(static_cast<char>(rng->Uniform('a', 'z')));
    }
  }
  return s;
}

TEST(WriterEscapingTest, CsvRoundTripsArbitraryBytes) {
  Rng rng(71);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::vector<std::string>> want;
    std::string csv;
    const int rows = static_cast<int>(rng.Uniform(1, 4));
    const int cols = static_cast<int>(rng.Uniform(1, 5));
    for (int r = 0; r < rows; ++r) {
      std::vector<std::string> row;
      for (int c = 0; c < cols; ++c) {
        row.push_back(RandomNastyString(&rng));
        if (c > 0) csv.push_back(',');
        AppendCsvField(row.back(), &csv);
      }
      csv.push_back('\n');
      want.push_back(std::move(row));
    }
    EXPECT_EQ(ParseCsv(csv), want) << "trial " << trial;
  }
}

TEST(WriterEscapingTest, NdjsonRoundTripsArbitraryBytes) {
  Rng rng(72);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string want = RandomNastyString(&rng);
    std::string escaped;
    AppendJsonEscaped(want, &escaped);
    // The escaped body must not contain raw quotes, backslash-less control
    // bytes, or newlines (it has to live inside one NDJSON line).
    for (size_t i = 0; i < escaped.size(); ++i) {
      EXPECT_NE(escaped[i], '\n');
      EXPECT_GE(static_cast<unsigned char>(escaped[i]), 0x20)
          << "raw control byte in trial " << trial;
    }
    EXPECT_EQ(JsonUnescape(escaped), want) << "trial " << trial;
  }
}

// ----------------------------------- streaming vs collecting sink parity --

/// Generates a corpus of lines matching randomly chosen templates plus
/// noise, returns the text. Shapes cover single-line, array, and multi-line
/// templates so array unfolding and span handling are both exercised.
std::string RandomCorpus(Rng* rng, int lines) {
  std::string text;
  for (int i = 0; i < lines; ++i) {
    const int kind = static_cast<int>(rng->Uniform(0, 3));
    if (kind == 0) {
      const int reps = static_cast<int>(rng->Uniform(1, 4));
      for (int r = 0; r < reps; ++r) {
        text += std::to_string(rng->Uniform(0, 9999));
        text += (r + 1 < reps) ? "," : "";
      }
      text += "\n";
    } else if (kind == 1) {
      text += "k=" + std::to_string(rng->Uniform(0, 99)) + ";v=" +
              std::to_string(rng->Uniform(0, 999)) + ";\n";
    } else if (kind == 2) {
      text += "open " + std::to_string(rng->Uniform(0, 99)) + "\nclose " +
              std::to_string(rng->Uniform(0, 99)) + "\n";
    } else {
      text += "??? unparseable " + std::to_string(rng->Uniform(0, 999)) +
              " ???\n";
    }
  }
  return text;
}

std::string ReadOrDie(const std::string& path) {
  auto r = ReadFileToString(path);
  EXPECT_TRUE(r.ok()) << path;
  return r.ok() ? r.value() : std::string();
}

TEST(StreamingSinkParityTest, CsvRowsEqualTreePathOnRandomDraws) {
  std::vector<StructureTemplate> templates;
  templates.push_back(MustParse("(F,)*F\n"));
  templates.push_back(MustParse("F=F;F=F;\n"));
  templates.push_back(MustParse("F F\nF F\n"));
  for (uint64_t seed : {81u, 82u, 83u, 84u}) {
    Rng rng(seed);
    Dataset data(RandomCorpus(&rng, 400));
    Extractor ex(&templates);

    // Tree path: collect everything, materialize per-type tables.
    ExtractionResult collected = ex.Extract(data);
    ASSERT_GT(collected.records.size(), 0u);

    // Streaming path: flat events straight into the columnar writers.
    const std::string dir =
        ::testing::TempDir() + "dm_parity_" + std::to_string(seed);
    std::filesystem::remove_all(dir);
    DatasetView view(data);
    ColumnarWriteSink sink(&templates, view, dir);
    ExtractionResult streamed = ex.ExtractEvents(view, &sink);
    ASSERT_TRUE(sink.Finish().ok());

    EXPECT_EQ(streamed.covered_chars, collected.covered_chars);
    EXPECT_EQ(streamed.total_chars, collected.total_chars);
    EXPECT_EQ(sink.stats().noise_lines, collected.noise_lines.size());
    for (size_t t = 0; t < templates.size(); ++t) {
      SCOPED_TRACE(StrFormat("seed %zu template %zu", size_t(seed), t));
      const std::string streamed_csv = ReadOrDie(
          dir + "/" + ColumnarWriteSink::FileName(t, OutputFormat::kCsv));
      const Table table =
          DenormalizedTable(templates[t], collected.records, data.text(),
                            static_cast<int>(t), StrFormat("type%zu", t));
      EXPECT_EQ(sink.stats().records_per_template[t], table.row_count());
      EXPECT_EQ(streamed_csv, table.ToCsv());
    }
    // Noise stream holds exactly the unmatched lines, in order.
    std::string want_noise;
    for (size_t li : collected.noise_lines) {
      const auto l = data.line_with_newline(li);
      want_noise.append(l.data(), l.size());
    }
    EXPECT_EQ(ReadOrDie(dir + "/" + ColumnarWriteSink::NoiseFileName()),
              want_noise);
    std::filesystem::remove_all(dir);
  }
}

TEST(StreamingSinkParityTest, NdjsonCellsEqualTreePath) {
  std::vector<StructureTemplate> templates;
  templates.push_back(MustParse("(F,)*F\n"));
  Rng rng(85);
  Dataset data(RandomCorpus(&rng, 300));
  Extractor ex(&templates);
  ExtractionResult collected = ex.Extract(data);
  const Table table = DenormalizedTable(templates[0], collected.records,
                                        data.text(), 0, "t");

  const std::string dir = ::testing::TempDir() + "dm_parity_ndjson";
  std::filesystem::remove_all(dir);
  DatasetView view(data);
  ColumnarWriteSink sink(&templates, view, dir, OutputFormat::kNdjson);
  ex.ExtractEvents(view, &sink);
  ASSERT_TRUE(sink.Finish().ok());

  const std::string ndjson = ReadOrDie(
      dir + "/" + ColumnarWriteSink::FileName(0, OutputFormat::kNdjson));
  const std::vector<std::string_view> lines = SplitLines(ndjson);
  ASSERT_EQ(lines.size(), table.row_count());
  for (size_t r = 0; r < lines.size(); ++r) {
    // Parse {"f0":"...","f1":"..."} structurally: values are everything
    // between unescaped quotes at odd positions.
    std::string_view line = lines[r];
    ASSERT_TRUE(line.size() >= 2 && line.front() == '{' && line.back() == '}');
    std::vector<std::string> values;
    size_t i = 1;
    while (i < line.size() - 1) {
      // key
      ASSERT_EQ(line[i], '"');
      size_t end = line.find('"', i + 1);
      ASSERT_NE(end, std::string_view::npos);
      ASSERT_EQ(line.substr(i + 1, end - i - 1),
                StrFormat("f%zu", values.size()));
      ASSERT_EQ(line[end + 1], ':');
      i = end + 2;
      // value: scan for the closing quote, skipping escape pairs
      ASSERT_EQ(line[i], '"');
      size_t j = i + 1;
      while (j < line.size() && line[j] != '"') {
        j += line[j] == '\\' ? 2 : 1;
      }
      ASSERT_LT(j, line.size());
      values.push_back(JsonUnescape(line.substr(i + 1, j - i - 1)));
      i = j + 1;
      if (i < line.size() - 1 && line[i] == ',') ++i;
    }
    EXPECT_EQ(values, table.rows[r]) << "row " << r;
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------ normalized streaming vs collecting parity --

/// Asserts the streaming normalized output of `sink`'s directory is
/// byte-identical, table by table, to the collecting path's
/// NormalizedTables materialization of `collected`.
void ExpectNormalizedParity(const std::vector<StructureTemplate>& templates,
                            const ExtractionResult& collected,
                            const Dataset& data,
                            const NormalizedWriteSink& sink,
                            const std::string& dir) {
  for (size_t t = 0; t < templates.size(); ++t) {
    const auto tables =
        NormalizedTables(templates[t], collected.records, data.text(),
                         static_cast<int>(t), StrFormat("type%zu", t));
    ASSERT_EQ(sink.table_count(t), tables.size()) << "template " << t;
    for (size_t k = 0; k < tables.size(); ++k) {
      SCOPED_TRACE(StrFormat("template %zu table %zu", t, k));
      EXPECT_EQ(sink.rows_in_table(t, k), tables[k].row_count());
      const std::string streamed_csv =
          ReadOrDie(dir + "/" + NormalizedWriteSink::TableFileName(t, k));
      EXPECT_EQ(streamed_csv, tables[k].ToCsv());
    }
  }
}

TEST(NormalizedStreamingParityTest, TablesEqualTreePathOnRandomDraws) {
  std::vector<StructureTemplate> templates;
  templates.push_back(MustParse("(F,)*F\n"));
  templates.push_back(MustParse("F=F;F=F;\n"));
  templates.push_back(MustParse("F F\nF F\n"));
  for (uint64_t seed : {91u, 92u, 93u, 94u}) {
    SCOPED_TRACE(StrFormat("seed %zu", static_cast<size_t>(seed)));
    Rng rng(seed);
    Dataset data(RandomCorpus(&rng, 400));
    Extractor ex(&templates);

    // Tree path: collect everything, materialize the table trees.
    ExtractionResult collected = ex.Extract(data);
    ASSERT_GT(collected.records.size(), 0u);

    // Streaming path: flat events straight into the normalized writer.
    const std::string dir =
        ::testing::TempDir() + "dm_norm_parity_" + std::to_string(seed);
    std::filesystem::remove_all(dir);
    DatasetView view(data);
    NormalizedWriteSink sink(&templates, view, dir);
    ExtractionResult streamed = ex.ExtractEvents(view, &sink);
    ASSERT_TRUE(sink.Finish().ok());

    EXPECT_EQ(streamed.covered_chars, collected.covered_chars);
    EXPECT_EQ(sink.stats().noise_lines, collected.noise_lines.size());
    EXPECT_EQ(sink.stats().total_records, collected.records.size());
    ExpectNormalizedParity(templates, collected, data, sink, dir);
    // Noise stream holds exactly the unmatched lines, in order.
    std::string want_noise;
    for (size_t li : collected.noise_lines) {
      const auto l = data.line_with_newline(li);
      want_noise.append(l.data(), l.size());
    }
    EXPECT_EQ(ReadOrDie(dir + "/" + NormalizedWriteSink::NoiseFileName()),
              want_noise);
    std::filesystem::remove_all(dir);
  }
}

TEST(NormalizedStreamingParityTest, NestedArraysRebaseAcrossRecords) {
  // Outer array of comma-separated groups, each group an inner array of
  // space-separated fields: three tables (root, outer, inner), and the
  // inner rows' parent_id cells must rebase against the *outer* table's
  // running counter — the cross-table case a per-record id could get
  // wrong.
  std::vector<StructureTemplate> templates;
  templates.push_back(MustParse("((F )*F,)*(F )*F\n"));
  Dataset data("a b,c\nd,e f g\nh\n");
  Extractor ex(&templates);
  ExtractionResult collected = ex.Extract(data);
  ASSERT_EQ(collected.records.size(), 3u);

  const std::string dir = ::testing::TempDir() + "dm_norm_nested";
  std::filesystem::remove_all(dir);
  DatasetView view(data);
  NormalizedWriteSink sink(&templates, view, dir);
  ex.ExtractEvents(view, &sink);
  ASSERT_TRUE(sink.Finish().ok());

  ExpectNormalizedParity(templates, collected, data, sink, dir);
  // Spot-check the inner table's foreign keys by hand: record 1
  // ("d,e f g") owns outer rows 2..3; its inner row "d" (global id 3)
  // hangs off outer row 2, and "e" (global id 4) off outer row 3 at
  // position 0 — both ids only come out right if the rebase used the
  // outer table's counter for parent_id and the inner's for id.
  const std::string inner =
      ReadOrDie(dir + "/" + NormalizedWriteSink::TableFileName(0, 2));
  EXPECT_NE(inner.find("\n3,2,0,d\n"), std::string::npos) << inner;
  EXPECT_NE(inner.find("\n4,3,0,e\n"), std::string::npos) << inner;
  std::filesystem::remove_all(dir);
}

TEST(NormalizedStreamingParityTest, FailedWritesSurfaceInFinish) {
  std::vector<StructureTemplate> templates;
  templates.push_back(MustParse("(F,)*F\n"));
  Dataset data("a,b\n");
  DatasetView view(data);
  // /proc/version is not a writable directory on any platform we run on.
  NormalizedWriteSink sink(&templates, view, "/proc/version/nope");
  EXPECT_FALSE(sink.status().ok());
  Extractor ex(&templates);
  ex.ExtractEvents(view, &sink);
  EXPECT_EQ(sink.stats().total_records, 1u);  // counting no-op still counts
  EXPECT_FALSE(sink.Finish().ok());
}

// --------------------------------------------- streaming noise accounting --

/// The streaming path must report exactly the coverage statistics of the
/// collecting path, for every dataset shape — including a final line with
/// no terminating newline (the Dataset appends one) and datasets with no
/// matches at all.
TEST(StreamingAccountingTest, MatchesCollectingPathOnEdgeCases) {
  std::vector<StructureTemplate> templates;
  templates.push_back(MustParse("F,F\n"));
  const std::vector<std::string> cases = {
      "a,b\nnoise here\nc,d\n",  // regular
      "a,b\nnoise here\nc,d",    // unterminated final record line
      "only noise",              // unterminated noise, no records
      "x,y",                     // single unterminated record
      "\n\n",                    // empty lines are noise
      "noise\nmore noise\n",     // no records at all
  };
  for (const std::string& text : cases) {
    SCOPED_TRACE(EscapeForDisplay(text));
    Dataset data{std::string(text)};
    Extractor ex(&templates);
    ExtractionResult collected = ex.Extract(data);

    const std::string dir = ::testing::TempDir() + "dm_acct";
    std::filesystem::remove_all(dir);
    DatasetView view(data);
    ColumnarWriteSink sink(&templates, view, dir);
    ExtractionResult streamed = ex.ExtractEvents(view, &sink);
    ASSERT_TRUE(sink.Finish().ok());

    EXPECT_EQ(streamed.covered_chars, collected.covered_chars);
    EXPECT_EQ(streamed.total_chars, collected.total_chars);
    EXPECT_DOUBLE_EQ(streamed.coverage(), collected.coverage());
    EXPECT_EQ(sink.stats().noise_lines, collected.noise_lines.size());
    EXPECT_EQ(sink.stats().total_records, collected.records.size());
    std::filesystem::remove_all(dir);
  }
}

TEST(StreamingAccountingTest, FailedWritesSurfaceInFinish) {
  std::vector<StructureTemplate> templates;
  templates.push_back(MustParse("F,F\n"));
  Dataset data("a,b\n");
  DatasetView view(data);
  // /proc/version is not a writable directory on any platform we run on.
  ColumnarWriteSink sink(&templates, view, "/proc/version/nope");
  Extractor ex(&templates);
  ex.ExtractEvents(view, &sink);
  EXPECT_FALSE(sink.Finish().ok());
}

}  // namespace
}  // namespace datamaran
