#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/datamaran.h"
#include "util/file_io.h"
#include "util/rng.h"

namespace datamaran {
namespace {

DatamaranOptions FastOptions() {
  DatamaranOptions opts;
  opts.max_special_chars = 6;
  opts.max_sample_bytes = 64 * 1024;
  return opts;
}

// Simple web-server-style log: ip - time "request" status size.
std::string WebLog(int rows, uint64_t seed) {
  Rng rng(seed);
  std::string text;
  for (int i = 0; i < rows; ++i) {
    text += std::to_string(rng.Uniform(1, 255)) + "." +
            std::to_string(rng.Uniform(0, 255)) + "." +
            std::to_string(rng.Uniform(0, 255)) + "." +
            std::to_string(rng.Uniform(1, 255)) + " " +
            std::to_string(rng.Uniform(10, 23)) + ":" +
            std::to_string(rng.Uniform(10, 59)) + ":" +
            std::to_string(rng.Uniform(10, 59)) + " " +
            std::to_string(rng.Uniform(200, 504)) + "\n";
  }
  return text;
}

TEST(PipelineTest, SingleLineCsv) {
  Rng rng(1);
  std::string text;
  for (int i = 0; i < 400; ++i) {
    text += std::to_string(rng.Uniform(0, 99)) + "," +
            std::to_string(rng.Uniform(100, 999)) + "," +
            std::to_string(rng.Uniform(0, 9)) + "\n";
  }
  Datamaran dm(FastOptions());
  PipelineResult result = dm.ExtractText(std::move(text));
  ASSERT_EQ(result.templates.size(), 1u);
  // Refinement should unfold the fixed-width CSV into a plain struct.
  EXPECT_EQ(result.templates[0].canonical(), "F,F,F\n");
  EXPECT_EQ(result.extraction.records.size(), 400u);
  EXPECT_TRUE(result.extraction.noise_lines.empty());
}

TEST(PipelineTest, WebLogWithNoise) {
  std::string text = WebLog(300, 2);
  // Sprinkle noise lines through the file.
  Rng rng(3);
  std::string noisy;
  size_t pos = 0;
  int line = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    noisy.append(text, pos, nl - pos + 1);
    pos = nl + 1;
    if (++line % 10 == 0) {
      noisy += "### server restarted unexpectedly corrupt"
               + std::to_string(rng.Uniform(0, 999999)) + "\n";
    }
  }
  Datamaran dm(FastOptions());
  PipelineResult result = dm.ExtractText(std::move(noisy));
  ASSERT_GE(result.templates.size(), 1u);
  // All 300 real records extracted by the first template.
  size_t first_template_records = 0;
  for (const auto& r : result.extraction.records) {
    if (r.template_id == 0) ++first_template_records;
  }
  EXPECT_EQ(first_template_records, 300u);
  EXPECT_EQ(result.templates[0].line_span(), 1);
}

TEST(PipelineTest, MultiLineRecords) {
  Rng rng(4);
  std::string text;
  for (int i = 0; i < 150; ++i) {
    text += "{\n";
    text += "  id: " + std::to_string(i) + ",\n";
    text += "  lat: " + std::to_string(rng.Uniform(0, 90)) + "." +
            std::to_string(rng.Uniform(0, 9999)) + ",\n";
    text += "}\n";
  }
  Datamaran dm(FastOptions());
  PipelineResult result = dm.ExtractText(std::move(text));
  ASSERT_EQ(result.templates.size(), 1u);
  EXPECT_EQ(result.templates[0].line_span(), 4);
  EXPECT_EQ(result.extraction.records.size(), 150u);
  EXPECT_TRUE(result.extraction.noise_lines.empty());
}

TEST(PipelineTest, InterleavedRecordTypes) {
  Rng rng(5);
  std::string text;
  int type_a = 0, type_b = 0;
  for (int i = 0; i < 400; ++i) {
    if (rng.Bernoulli(0.5)) {
      text += "GET /idx/" + std::to_string(rng.Uniform(0, 9999)) + " " +
              std::to_string(rng.Uniform(200, 404)) + "\n";
      ++type_a;
    } else {
      text += "user=" + std::to_string(rng.Uniform(0, 999)) + ";action=" +
              std::to_string(rng.Uniform(0, 20)) + ";\n";
      ++type_b;
    }
  }
  Datamaran dm(FastOptions());
  PipelineResult result = dm.ExtractText(std::move(text));
  ASSERT_EQ(result.templates.size(), 2u);
  size_t a = 0, b = 0;
  for (const auto& r : result.extraction.records) {
    (r.template_id == 0 ? a : b)++;
  }
  EXPECT_EQ(a + b, 400u);
  EXPECT_TRUE(result.extraction.noise_lines.empty());
}

TEST(PipelineTest, PureNoiseYieldsNoTemplates) {
  Rng rng(6);
  std::string text;
  for (int i = 0; i < 200; ++i) {
    int len = static_cast<int>(rng.Uniform(5, 60));
    for (int j = 0; j < len; ++j) {
      // Random letters and digits with no repeated delimiter structure.
      text += static_cast<char>('a' + rng.Uniform(0, 25));
    }
    text += "\n";
  }
  Datamaran dm(FastOptions());
  PipelineResult result = dm.ExtractText(std::move(text));
  EXPECT_TRUE(result.templates.empty());
  EXPECT_EQ(result.extraction.records.size(), 0u);
}

TEST(PipelineTest, TimingsAndStatsPopulated) {
  Datamaran dm(FastOptions());
  PipelineResult result = dm.ExtractText(WebLog(200, 7));
  EXPECT_GT(result.stats.charsets_tried, 0u);
  EXPECT_GT(result.stats.candidates_generated, 0u);
  EXPECT_GT(result.stats.sample_bytes, 0u);
  EXPECT_GE(result.timings.generation_s, 0.0);
  EXPECT_GT(result.timings.total_s, 0.0);
  ASSERT_EQ(result.reports.size(), result.templates.size());
  if (!result.reports.empty()) {
    EXPECT_LT(result.reports[0].mdl_bits, result.reports[0].noise_only_bits);
    EXPECT_GT(result.reports[0].sample_records, 0u);
  }
}

TEST(PipelineTest, GreedyAlsoSolvesSimpleCase) {
  DatamaranOptions opts = FastOptions();
  opts.search = CharsetSearch::kGreedy;
  Datamaran dm(opts);
  PipelineResult result = dm.ExtractText(WebLog(300, 8));
  ASSERT_GE(result.templates.size(), 1u);
  EXPECT_GE(result.extraction.coverage(), 0.95);
}

TEST(PipelineTest, ExtractFileRoundTrip) {
  std::string path = testing::TempDir() + "/dm_pipeline_file.log";
  ASSERT_TRUE(WriteStringToFile(path, WebLog(150, 9)).ok());
  Datamaran dm(FastOptions());
  auto result = dm.ExtractFile(path);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->templates.size(), 1u);
  std::remove(path.c_str());
}

// Discover + Extract is the one-scan batch path: with a null sink it must
// account for exactly what the collecting wrapper collects, without
// collecting anything.
TEST(PipelineTest, DiscoverThenExtractMatchesCollectingWrapper) {
  const std::string text = WebLog(300, 10) + "free text\n" + WebLog(50, 11);
  Datamaran dm(FastOptions());
  const PipelineResult collected = dm.ExtractText(text);

  const Dataset data(text);
  PipelineResult result = dm.Discover(data);
  EXPECT_EQ(result.extraction.total_lines, 0u) << "Discover must not scan";
  dm.Extract(data, nullptr, &result);
  ASSERT_EQ(result.templates.size(), collected.templates.size());
  for (size_t t = 0; t < result.templates.size(); ++t) {
    EXPECT_EQ(result.templates[t].canonical(),
              collected.templates[t].canonical());
  }
  const ExtractionResult& got = result.extraction;
  const ExtractionResult& want = collected.extraction;
  EXPECT_TRUE(got.records.empty());
  EXPECT_TRUE(got.noise_lines.empty());
  EXPECT_EQ(got.matched_records, want.records.size());
  EXPECT_EQ(got.noise_line_count, want.noise_lines.size());
  EXPECT_EQ(got.records_per_template, want.records_per_template);
  EXPECT_EQ(got.covered_chars, want.covered_chars);
  EXPECT_EQ(got.total_lines, want.total_lines);
  EXPECT_GT(result.timings.extraction_s, 0);
  EXPECT_GE(result.timings.total_s, result.timings.extraction_s);
  EXPECT_EQ(result.stats.input_bytes, text.size());
}

// A catalog hit hands the entry's persisted compiled programs to the scan.
TEST(PipelineTest, CatalogHitDiscoverCarriesPrograms) {
  const std::string catalog = testing::TempDir() + "/dm_pipeline_cat.txt";
  std::remove(catalog.c_str());
  const std::string text = WebLog(300, 12);
  DatamaranOptions cold_opts = FastOptions();
  cold_opts.catalog_out = catalog;
  const PipelineResult cold = Datamaran(cold_opts).ExtractText(text);
  ASSERT_FALSE(cold.templates.empty());
  EXPECT_TRUE(cold.programs.empty()) << "cold discovery has no programs";

  DatamaranOptions warm_opts = FastOptions();
  warm_opts.catalog_in = catalog;
  const Datamaran warm(warm_opts);
  ASSERT_TRUE(warm.catalog_status().ok());
  const Dataset data(text);
  PipelineResult result = warm.Discover(data);
  ASSERT_TRUE(result.stats.catalog_hit);
  ASSERT_EQ(result.programs.size(), result.templates.size());
  for (const std::string& blob : result.programs) EXPECT_FALSE(blob.empty());
  warm.Extract(data, nullptr, &result);
  EXPECT_EQ(result.extraction.records_per_template,
            cold.extraction.records_per_template);
  EXPECT_EQ(result.extraction.noise_line_count,
            cold.extraction.noise_lines.size());
  std::remove(catalog.c_str());
  std::remove((catalog + ".lock").c_str());
}

TEST(PipelineTest, MissingFileErrors) {
  Datamaran dm(FastOptions());
  auto result = dm.ExtractFile("/no/such/file.log");
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace datamaran
