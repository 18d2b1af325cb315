#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "util/file_io.h"
#include "util/json.h"
#include "util/strings.h"

// End-to-end golden harness for `datamaran_cli --out`: runs the real binary
// (full pipeline: discovery + streaming columnar extraction) on small
// committed corpora and compares the output directory byte-for-byte against
// checked-in goldens, across the full determinism matrix —
// threads {1,4} x match engine {tree,compiled} x mmap {always,never} — for
// CSV, plus both formats at one representative configuration. Any
// divergence in discovery, scan order, stitching, or writer bytes fails
// with the offending file named.
//
// DM_CLI_PATH and DM_SOURCE_DIR are injected by CMake.

namespace datamaran {
namespace {

namespace fs = std::filesystem;

std::string SourcePath(const std::string& rel) {
  return std::string(DM_SOURCE_DIR) + "/" + rel;
}

/// Runs a binary; returns its exit code (-1 when it did not exit normally).
int RunBinary(const char* binary, const std::string& args) {
  const std::string cmd =
      std::string("\"") + binary + "\" " + args + " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
#if defined(__unix__) || defined(__APPLE__)
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
#else
  return rc;
#endif
}

int RunCli(const std::string& args) { return RunBinary(DM_CLI_PATH, args); }
int RunCrawl(const std::string& args) { return RunBinary(DM_CRAWL_PATH, args); }

/// Sorted relative file names under `dir` (empty when dir is missing).
std::vector<std::string> ListFiles(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Asserts `actual_dir` holds exactly the same file set with the same bytes
/// as `golden_dir`.
void ExpectDirsEqual(const std::string& golden_dir,
                     const std::string& actual_dir,
                     const std::string& context) {
  const std::vector<std::string> golden_files = ListFiles(golden_dir);
  const std::vector<std::string> actual_files = ListFiles(actual_dir);
  ASSERT_FALSE(golden_files.empty())
      << "missing golden directory " << golden_dir;
  EXPECT_EQ(golden_files, actual_files) << context;
  for (const std::string& name : golden_files) {
    auto want = ReadFileToString(golden_dir + "/" + name);
    auto got = ReadFileToString(actual_dir + "/" + name);
    ASSERT_TRUE(want.ok()) << golden_dir << "/" << name;
    ASSERT_TRUE(got.ok()) << context << ": missing " << name;
    EXPECT_TRUE(want.value() == got.value())
        << context << ": " << name << " differs from golden ("
        << got.value().size() << " vs " << want.value().size() << " bytes)";
  }
}

struct Config {
  int threads;
  const char* engine;
  const char* mmap;
};

void RunGoldenMatrix(const std::string& corpus) {
  const std::string input = SourcePath("tests/data/" + corpus + ".log");
  ASSERT_TRUE(ReadFileToString(input).ok()) << input;
  int run = 0;
  for (const Config& cfg : {Config{1, "tree", "always"},
                            Config{1, "tree", "never"},
                            Config{1, "compiled", "always"},
                            Config{1, "compiled", "never"},
                            Config{4, "tree", "always"},
                            Config{4, "tree", "never"},
                            Config{4, "compiled", "always"},
                            Config{4, "compiled", "never"}}) {
    const std::string out = ::testing::TempDir() +
                            StrFormat("dm_cli_%s_%d", corpus.c_str(), run++);
    fs::remove_all(out);
    const std::string context =
        StrFormat("%s --threads=%d --match-engine=%s --mmap=%s",
                  corpus.c_str(), cfg.threads, cfg.engine, cfg.mmap);
    const int rc = RunCli(StrFormat(
        "\"%s\" --threads=%d --match-engine=%s --mmap=%s --out=\"%s\"",
        input.c_str(), cfg.threads, cfg.engine, cfg.mmap, out.c_str()));
    ASSERT_EQ(rc, 0) << context;
    ExpectDirsEqual(SourcePath("tests/golden/" + corpus + "_csv"), out,
                    context);
    fs::remove_all(out);
  }
}

/// The normalized layout runs the same determinism matrix as CSV: the
/// per-table row-id counters advance with the stitch, so id/parent_id
/// cells are where a thread-count or engine divergence would show first.
void RunGoldenNormalized(const std::string& corpus) {
  const std::string input = SourcePath("tests/data/" + corpus + ".log");
  ASSERT_TRUE(ReadFileToString(input).ok()) << input;
  int run = 0;
  for (const Config& cfg : {Config{1, "tree", "always"},
                            Config{1, "tree", "never"},
                            Config{1, "compiled", "always"},
                            Config{1, "compiled", "never"},
                            Config{4, "tree", "always"},
                            Config{4, "tree", "never"},
                            Config{4, "compiled", "always"},
                            Config{4, "compiled", "never"}}) {
    const std::string out =
        ::testing::TempDir() +
        StrFormat("dm_cli_norm_%s_%d", corpus.c_str(), run++);
    fs::remove_all(out);
    const std::string context =
        StrFormat("%s --normalized --threads=%d --match-engine=%s --mmap=%s",
                  corpus.c_str(), cfg.threads, cfg.engine, cfg.mmap);
    const int rc = RunCli(StrFormat(
        "\"%s\" --normalized --threads=%d --match-engine=%s --mmap=%s "
        "--out=\"%s\"",
        input.c_str(), cfg.threads, cfg.engine, cfg.mmap, out.c_str()));
    ASSERT_EQ(rc, 0) << context;
    ExpectDirsEqual(SourcePath("tests/golden/" + corpus + "_normalized"),
                    out, context);
    fs::remove_all(out);
  }
}

void RunGoldenNdjson(const std::string& corpus) {
  const std::string input = SourcePath("tests/data/" + corpus + ".log");
  const std::string out =
      ::testing::TempDir() + "dm_cli_" + corpus + "_ndjson";
  fs::remove_all(out);
  const int rc = RunCli(StrFormat(
      "\"%s\" --threads=4 --format=ndjson --mmap=always --out=\"%s\"",
      input.c_str(), out.c_str()));
  ASSERT_EQ(rc, 0) << corpus << " ndjson";
  ExpectDirsEqual(SourcePath("tests/golden/" + corpus + "_ndjson"), out,
                  corpus + " ndjson");
  fs::remove_all(out);
}

TEST(CliGoldenTest, BasicCsvMatrix) { RunGoldenMatrix("cli_basic"); }
TEST(CliGoldenTest, InterleavedCsvMatrix) { RunGoldenMatrix("cli_interleaved"); }
TEST(CliGoldenTest, MultilineCsvMatrix) { RunGoldenMatrix("cli_multiline"); }
TEST(CliGoldenTest, ArraysCsvMatrix) { RunGoldenMatrix("cli_arrays"); }

TEST(CliGoldenTest, BasicNdjson) { RunGoldenNdjson("cli_basic"); }
TEST(CliGoldenTest, InterleavedNdjson) { RunGoldenNdjson("cli_interleaved"); }
TEST(CliGoldenTest, MultilineNdjson) { RunGoldenNdjson("cli_multiline"); }
TEST(CliGoldenTest, ArraysNdjson) { RunGoldenNdjson("cli_arrays"); }

// Hostile-byte corpora run the same full determinism matrix: CRLF line
// endings (auto-normalized), embedded NUL bytes and invalid UTF-8 flowing
// byte-exact through extraction, and a CRLF file with no trailing newline.
TEST(CliGoldenTest, CrlfCsvMatrix) { RunGoldenMatrix("cli_crlf"); }
TEST(CliGoldenTest, HostileBytesCsvMatrix) { RunGoldenMatrix("cli_hostile"); }
TEST(CliGoldenTest, CrlfNoTrailingNewlineCsvMatrix) {
  RunGoldenMatrix("cli_crlf_noeol");
}

// cli_interleaved exercises multiple record types (root tables only);
// cli_arrays discovers an array template, so its normalized golden also
// pins the child-table layout (id, parent_id, pos columns).
TEST(CliGoldenTest, InterleavedNormalizedMatrix) {
  RunGoldenNormalized("cli_interleaved");
}
TEST(CliGoldenTest, ArraysNormalizedMatrix) {
  RunGoldenNormalized("cli_arrays");
}

// ------------------------------------------------------ resilient inputs ---

bool HaveGzipTool() { return std::system("command -v gzip > /dev/null") == 0; }

/// Writes `text` to `path`.gz via the system gzip tool.
void WriteGzipped(const std::string& path, const std::string& text) {
  ASSERT_TRUE(WriteStringToFile(path, text).ok());
  ASSERT_EQ(std::system(("gzip -nf \"" + path + "\"").c_str()), 0);
}

/// The rotation-stitching invariant, run across the full determinism
/// matrix: a gzip'd rotated triple (app.log.2.gz oldest, app.log.1,
/// app.log newest) opened via --inputs must produce output byte-identical
/// to a plain pre-concatenated file of the same bytes in chronological
/// order — for every thread count, match engine, and backing.
TEST(CliInputsTest, RotatedGzipMatchesConcatenatedMatrix) {
  if (!HaveGzipTool()) GTEST_SKIP() << "no gzip tool on PATH";
  const std::string dir = ::testing::TempDir() + "dm_cli_rotated";
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto whole = ReadFileToString(SourcePath("tests/data/cli_basic.log"));
  ASSERT_TRUE(whole.ok());
  const std::string& text = whole.value();
  const size_t third = text.size() / 3;
  const size_t cut1 = text.find('\n', third) + 1;
  const size_t cut2 = text.find('\n', 2 * third) + 1;
  WriteGzipped(dir + "/app.log.2", text.substr(0, cut1));
  ASSERT_TRUE(
      WriteStringToFile(dir + "/app.log.1", text.substr(cut1, cut2 - cut1))
          .ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/app.log", text.substr(cut2)).ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/concat.log", text).ok());

  int run = 0;
  for (const Config& cfg : {Config{1, "tree", "always"},
                            Config{1, "tree", "never"},
                            Config{1, "compiled", "always"},
                            Config{1, "compiled", "never"},
                            Config{4, "tree", "always"},
                            Config{4, "tree", "never"},
                            Config{4, "compiled", "always"},
                            Config{4, "compiled", "never"}}) {
    const std::string stitched_out =
        ::testing::TempDir() + StrFormat("dm_cli_rot_s_%d", run);
    const std::string concat_out =
        ::testing::TempDir() + StrFormat("dm_cli_rot_c_%d", run++);
    fs::remove_all(stitched_out);
    fs::remove_all(concat_out);
    const std::string context =
        StrFormat("rotated --threads=%d --match-engine=%s --mmap=%s",
                  cfg.threads, cfg.engine, cfg.mmap);
    ASSERT_EQ(RunCli(StrFormat(
                  "--inputs=\"%s/app.log*\" --threads=%d --match-engine=%s "
                  "--mmap=%s --out=\"%s\"",
                  dir.c_str(), cfg.threads, cfg.engine, cfg.mmap,
                  stitched_out.c_str())),
              0)
        << context;
    ASSERT_EQ(RunCli(StrFormat(
                  "\"%s/concat.log\" --threads=%d --match-engine=%s "
                  "--mmap=%s --out=\"%s\"",
                  dir.c_str(), cfg.threads, cfg.engine, cfg.mmap,
                  concat_out.c_str())),
              0)
        << context;
    ExpectDirsEqual(concat_out, stitched_out, context);
    fs::remove_all(stitched_out);
    fs::remove_all(concat_out);
  }
  fs::remove_all(dir);
}

TEST(CliInputsTest, CorruptGzipFailsWithErrorSummary) {
  if (!HaveGzipTool()) GTEST_SKIP() << "no gzip tool on PATH";
  const std::string dir = ::testing::TempDir() + "dm_cli_corrupt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  WriteGzipped(dir + "/full.log", "alpha,1\nbeta,2\ngamma,3\ndelta,4\n");
  auto gz = ReadFileToString(dir + "/full.log.gz");
  ASSERT_TRUE(gz.ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/cut.log.gz",
                                std::string_view(gz.value())
                                    .substr(0, gz.value().size() / 2))
                  .ok());

  const std::string summary = dir + "/summary.json";
  const std::string out = dir + "/out";
  EXPECT_EQ(RunCli(StrFormat("\"%s/cut.log.gz\" --summary-json=\"%s\" "
                             "--out=\"%s\"",
                             dir.c_str(), summary.c_str(), out.c_str())),
            1)
      << "a truncated gzip stream must exit 1, not crash";
  // Sticky Status propagation: the summary JSON carries the error text.
  auto sum = ReadFileToString(summary);
  ASSERT_TRUE(sum.ok()) << "--summary-json must be written even on failure";
  EXPECT_NE(sum.value().find("\"error\": \"IO_ERROR"), std::string::npos);
  EXPECT_NE(sum.value().find("truncated"), std::string::npos);
  fs::remove_all(dir);
}

TEST(CliInputsTest, MissingInputsSpecFailsCleanly) {
  EXPECT_EQ(RunCli("--inputs=/nonexistent/nope*"), 1);
  // --inputs and a positional path are mutually exclusive.
  EXPECT_EQ(RunCli(StrFormat("\"%s\" --inputs=\"%s\"",
                             SourcePath("tests/data/cli_basic.log").c_str(),
                             SourcePath("tests/data/cli_basic.log").c_str())),
            2);
}

// ------------------------------------------------------- catalog fast path ---

/// The headline catalog invariant: a warm (catalog-hit) run must produce
/// byte-identical output to the cold discovery run that built the catalog,
/// for every thread count, match engine, and dataset backing — the golden
/// directory pins all of them at once. The cold run writes the catalog; the
/// warm matrix reloads it with discovery skipped.
TEST(CliCatalogTest, CatalogHitMatchesColdDiscoveryMatrix) {
  const std::string input = SourcePath("tests/data/cli_interleaved.log");
  const std::string catalog = ::testing::TempDir() + "dm_cli_catalog.txt";
  const std::string cold_out = ::testing::TempDir() + "dm_cli_catalog_cold";
  fs::remove(catalog);
  fs::remove_all(cold_out);

  ASSERT_EQ(RunCli(StrFormat("\"%s\" --catalog-out=\"%s\" --out=\"%s\"",
                             input.c_str(), catalog.c_str(),
                             cold_out.c_str())),
            0);
  ExpectDirsEqual(SourcePath("tests/golden/cli_interleaved_csv"), cold_out,
                  "cold discovery with --catalog-out");
  auto catalog_text = ReadFileToString(catalog);
  ASSERT_TRUE(catalog_text.ok());
  EXPECT_EQ(catalog_text.value().rfind("datamaran-catalog v2\n", 0), 0u)
      << "catalog file must start with the current version header";
  EXPECT_NE(catalog_text.value().find("\nprogram "), std::string::npos)
      << "saved catalogs carry precompiled programs";

  int run = 0;
  for (const Config& cfg : {Config{1, "tree", "always"},
                            Config{1, "tree", "never"},
                            Config{1, "compiled", "always"},
                            Config{1, "compiled", "never"},
                            Config{4, "tree", "always"},
                            Config{4, "tree", "never"},
                            Config{4, "compiled", "always"},
                            Config{4, "compiled", "never"}}) {
    const std::string out =
        ::testing::TempDir() + StrFormat("dm_cli_catalog_warm_%d", run++);
    fs::remove_all(out);
    const std::string context =
        StrFormat("catalog hit --threads=%d --match-engine=%s --mmap=%s",
                  cfg.threads, cfg.engine, cfg.mmap);
    const int rc = RunCli(StrFormat(
        "\"%s\" --catalog-in=\"%s\" --threads=%d --match-engine=%s "
        "--mmap=%s --out=\"%s\"",
        input.c_str(), catalog.c_str(), cfg.threads, cfg.engine, cfg.mmap,
        out.c_str()));
    ASSERT_EQ(rc, 0) << context;
    ExpectDirsEqual(SourcePath("tests/golden/cli_interleaved_csv"), out,
                    context);
    fs::remove_all(out);
  }
  fs::remove_all(cold_out);
  fs::remove(catalog);
}

TEST(CliCatalogTest, MissingCatalogFileFailsCleanly) {
  const std::string input = SourcePath("tests/data/cli_basic.log");
  const std::string out = ::testing::TempDir() + "dm_cli_catalog_missing";
  fs::remove_all(out);
  EXPECT_NE(RunCli(StrFormat(
                "\"%s\" --catalog-in=/nonexistent/catalog.txt --out=\"%s\"",
                input.c_str(), out.c_str())),
            0);
  EXPECT_FALSE(fs::exists(out))
      << "a bad --catalog-in must fail before writing output";
}

TEST(CliCatalogTest, SummaryJsonReportsCatalogAndCounts) {
  const std::string input = SourcePath("tests/data/cli_interleaved.log");
  const std::string catalog = ::testing::TempDir() + "dm_cli_sum_catalog.txt";
  const std::string cold_sum = ::testing::TempDir() + "dm_cli_sum_cold.json";
  const std::string warm_sum = ::testing::TempDir() + "dm_cli_sum_warm.json";
  fs::remove(catalog);

  ASSERT_EQ(RunCli(StrFormat(
                "\"%s\" --catalog-out=\"%s\" --summary-json=\"%s\"",
                input.c_str(), catalog.c_str(), cold_sum.c_str())),
            0);
  auto cold = ReadFileToString(cold_sum);
  ASSERT_TRUE(cold.ok());
  EXPECT_NE(cold.value().find("\"path\": "), std::string::npos);
  EXPECT_NE(cold.value().find("\"total_lines\": 1400"), std::string::npos);
  EXPECT_NE(cold.value().find("\"hit\": false"), std::string::npos);
  EXPECT_NE(cold.value().find("\"refinement_s\": "), std::string::npos);

  ASSERT_EQ(RunCli(StrFormat(
                "\"%s\" --catalog-in=\"%s\" --summary-json=\"%s\"",
                input.c_str(), catalog.c_str(), warm_sum.c_str())),
            0);
  auto warm = ReadFileToString(warm_sum);
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm.value().find("\"checked\": true"), std::string::npos);
  EXPECT_NE(warm.value().find("\"hit\": true"), std::string::npos);
  EXPECT_NE(warm.value().find("\"entry\": 0"), std::string::npos);
  EXPECT_NE(warm.value().find("\"drifted\": false"), std::string::npos);
  EXPECT_NE(warm.value().find("\"catalog_match_s\": "), std::string::npos);

  // Cold and warm agree on every extraction-derived count: same templates,
  // same records, same noise — only the catalog/timing sections differ.
  auto section = [](const std::string& text, const char* key) {
    const size_t at = text.find(key);
    EXPECT_NE(at, std::string::npos) << key;
    return text.substr(at, text.find('\n', at) - at);
  };
  for (const char* key :
       {"\"templates\": ", "\"records\": ", "\"records_per_template\": ",
        "\"noise_lines\": ", "\"match_rate\": ", "\"coverage\": "}) {
    EXPECT_EQ(section(cold.value(), key), section(warm.value(), key));
  }

  fs::remove(catalog);
  fs::remove(cold_sum);
  fs::remove(warm_sum);
}

// ------------------------------------------------------------------- crawl ---

/// End-to-end lake crawl: two copies of one format (nested a level deep) and
/// a prose file. The crawler must cluster both copies behind one discovery,
/// write per-file tables byte-identical to the single-file CLI goldens,
/// classify the prose as unstructured, and emit a well-formed manifest; a
/// second crawl warmed by the saved catalog must reproduce the same bytes
/// with zero structured discoveries.
TEST(CliCrawlTest, CrawlClustersExtractsAndWarmRunIsIdentical) {
  const std::string lake = ::testing::TempDir() + "dm_crawl_lake";
  const std::string out = ::testing::TempDir() + "dm_crawl_out";
  const std::string out2 = ::testing::TempDir() + "dm_crawl_out2";
  const std::string catalog = ::testing::TempDir() + "dm_crawl_catalog.txt";
  const std::string manifest = ::testing::TempDir() + "dm_crawl_manifest.json";
  for (const std::string& d : {lake, out, out2}) fs::remove_all(d);
  fs::remove(catalog);

  fs::create_directories(lake + "/sub");
  fs::copy_file(SourcePath("tests/data/cli_interleaved.log"), lake + "/a.log");
  fs::copy_file(SourcePath("tests/data/cli_interleaved.log"),
                lake + "/sub/b.log");
  ASSERT_TRUE(WriteStringToFile(lake + "/readme.txt",
                                "notes about this directory\n"
                                "nothing here is machine readable\n")
                  .ok());

  ASSERT_EQ(RunCrawl(StrFormat(
                "\"%s\" --catalog-out=\"%s\" --out=\"%s\" --manifest=\"%s\"",
                lake.c_str(), catalog.c_str(), out.c_str(),
                manifest.c_str())),
            0);

  // Both copies extract byte-identically to the single-file CLI golden.
  ExpectDirsEqual(SourcePath("tests/golden/cli_interleaved_csv"),
                  out + "/a.log.tables", "crawl a.log");
  ExpectDirsEqual(SourcePath("tests/golden/cli_interleaved_csv"),
                  out + "/sub/b.log.tables", "crawl sub/b.log");

  auto m = ReadFileToString(manifest);
  ASSERT_TRUE(m.ok());
  EXPECT_NE(m.value().find("\"file_count\": 3"), std::string::npos);
  EXPECT_NE(m.value().find("\"format_count\": 1"), std::string::npos)
      << "both copies must cluster into one catalog entry";
  EXPECT_NE(m.value().find("\"unstructured_count\": 1"), std::string::npos);
  EXPECT_NE(m.value().find("\"error_count\": 0"), std::string::npos);
  EXPECT_NE(m.value().find("\"discoveries\": 2"), std::string::npos)
      << "one structured discovery (a.log) plus the prose attempt";
  EXPECT_NE(m.value().find("sub/b.log"), std::string::npos);

  // Warm crawl: catalog-in, zero structured discoveries, identical bytes.
  const std::string manifest2 =
      ::testing::TempDir() + "dm_crawl_manifest2.json";
  ASSERT_EQ(RunCrawl(StrFormat(
                "\"%s\" --catalog-in=\"%s\" --out=\"%s\" --manifest=\"%s\"",
                lake.c_str(), catalog.c_str(), out2.c_str(),
                manifest2.c_str())),
            0);
  auto m2 = ReadFileToString(manifest2);
  ASSERT_TRUE(m2.ok());
  EXPECT_NE(m2.value().find("\"discoveries\": 1"), std::string::npos)
      << "warm crawl re-discovers only the unstructured prose";
  ExpectDirsEqual(out + "/a.log.tables", out2 + "/a.log.tables",
                  "warm crawl a.log");
  ExpectDirsEqual(out + "/sub/b.log.tables", out2 + "/sub/b.log.tables",
                  "warm crawl sub/b.log");

  for (const std::string& d : {lake, out, out2}) fs::remove_all(d);
  fs::remove(catalog);
  fs::remove(manifest);
  fs::remove(manifest2);
}

/// Failure containment: a lake with one good file, one truncated gzip, and
/// one unreadable file must still extract the good file, record the bad
/// ones in the manifest's errors section (with their Status text), and
/// exit 1 — never abort the crawl.
TEST(CliCrawlTest, CrawlContainsPerFileFailures) {
  if (!HaveGzipTool()) GTEST_SKIP() << "no gzip tool on PATH";
  const std::string lake = ::testing::TempDir() + "dm_crawl_fail_lake";
  const std::string out = ::testing::TempDir() + "dm_crawl_fail_out";
  const std::string manifest =
      ::testing::TempDir() + "dm_crawl_fail_manifest.json";
  fs::remove_all(lake);
  fs::remove_all(out);
  fs::create_directories(lake);

  fs::copy_file(SourcePath("tests/data/cli_interleaved.log"),
                lake + "/good.log");
  WriteGzipped(lake + "/full", "a,1\nb,2\nc,3\nd,4\n");
  auto gz = ReadFileToString(lake + "/full.gz");
  ASSERT_TRUE(gz.ok());
  ASSERT_TRUE(WriteStringToFile(lake + "/cut.log.gz",
                                std::string_view(gz.value())
                                    .substr(0, gz.value().size() / 2))
                  .ok());
  fs::remove(lake + "/full.gz");
  // An unreadable file only errors for non-root users; root reads anything,
  // so the truncated gzip above carries this test in root environments.
  bool expect_denied = false;
#if defined(__unix__) || defined(__APPLE__)
  if (::geteuid() != 0) {
    ASSERT_TRUE(WriteStringToFile(lake + "/locked.log", "x,1\n").ok());
    fs::permissions(lake + "/locked.log", fs::perms::none);
    expect_denied = true;
  }
#endif

  EXPECT_EQ(RunCrawl(StrFormat("\"%s\" --out=\"%s\" --manifest=\"%s\"",
                               lake.c_str(), out.c_str(), manifest.c_str())),
            1)
      << "per-file failures exit 1 (and must not abort the crawl)";

  // The good file still extracted, byte-identical to the CLI golden.
  ExpectDirsEqual(SourcePath("tests/golden/cli_interleaved_csv"),
                  out + "/good.log.tables", "crawl good.log despite errors");

  auto m = ReadFileToString(manifest);
  ASSERT_TRUE(m.ok());
  const size_t want_errors = expect_denied ? 2u : 1u;
  EXPECT_NE(
      m.value().find(StrFormat("\"error_count\": %zu", want_errors)),
      std::string::npos)
      << m.value();
  EXPECT_NE(m.value().find("\"errors\": [\n"), std::string::npos);
  EXPECT_NE(m.value().find("cut.log.gz"), std::string::npos);
  EXPECT_NE(m.value().find("truncated"), std::string::npos)
      << "the gzip Status text must reach the manifest";
  if (expect_denied) {
    EXPECT_NE(m.value().find("locked.log"), std::string::npos);
    fs::permissions(lake + "/locked.log", fs::perms::owner_all);
  }

  fs::remove_all(lake);
  fs::remove_all(out);
  fs::remove(manifest);
}

/// Rotation stitching inside the crawl: a rotated gzip'd triple appears in
/// the manifest as ONE logical file whose tables equal a crawl over the
/// pre-concatenated bytes; --no-stitch-rotated restores per-file entries.
TEST(CliCrawlTest, CrawlStitchesRotatedSiblings) {
  if (!HaveGzipTool()) GTEST_SKIP() << "no gzip tool on PATH";
  const std::string lake = ::testing::TempDir() + "dm_crawl_rot_lake";
  const std::string plain = ::testing::TempDir() + "dm_crawl_rot_plain";
  const std::string out = ::testing::TempDir() + "dm_crawl_rot_out";
  const std::string out2 = ::testing::TempDir() + "dm_crawl_rot_out2";
  for (const std::string& d : {lake, plain, out, out2}) fs::remove_all(d);
  fs::create_directories(lake);
  fs::create_directories(plain);

  auto whole = ReadFileToString(SourcePath("tests/data/cli_basic.log"));
  ASSERT_TRUE(whole.ok());
  const std::string& text = whole.value();
  const size_t cut = text.find('\n', text.size() / 2) + 1;
  WriteGzipped(lake + "/app.log.1", text.substr(0, cut));
  ASSERT_TRUE(WriteStringToFile(lake + "/app.log", text.substr(cut)).ok());
  ASSERT_TRUE(WriteStringToFile(plain + "/app.log", text).ok());

  const std::string manifest =
      ::testing::TempDir() + "dm_crawl_rot_manifest.json";
  ASSERT_EQ(RunCrawl(StrFormat("\"%s\" --out=\"%s\" --manifest=\"%s\"",
                               lake.c_str(), out.c_str(), manifest.c_str())),
            0);
  auto m = ReadFileToString(manifest);
  ASSERT_TRUE(m.ok());
  EXPECT_NE(m.value().find("\"file_count\": 1"), std::string::npos)
      << "the rotated pair must crawl as one logical file: " << m.value();

  const std::string manifest2 =
      ::testing::TempDir() + "dm_crawl_rot_manifest2.json";
  ASSERT_EQ(
      RunCrawl(StrFormat("\"%s\" --out=\"%s\" --manifest=\"%s\"",
                         plain.c_str(), out2.c_str(), manifest2.c_str())),
      0);
  ExpectDirsEqual(out2 + "/app.log.tables", out + "/app.log.tables",
                  "stitched rotated crawl vs pre-concatenated crawl");

  const std::string out3 = ::testing::TempDir() + "dm_crawl_rot_out3";
  const std::string manifest3 =
      ::testing::TempDir() + "dm_crawl_rot_manifest3.json";
  fs::remove_all(out3);
  ASSERT_EQ(RunCrawl(StrFormat(
                "\"%s\" --no-stitch-rotated --out=\"%s\" --manifest=\"%s\"",
                lake.c_str(), out3.c_str(), manifest3.c_str())),
            0);
  auto m3 = ReadFileToString(manifest3);
  ASSERT_TRUE(m3.ok());
  EXPECT_NE(m3.value().find("\"file_count\": 2"), std::string::npos)
      << "--no-stitch-rotated keeps per-file entries: " << m3.value();

  for (const std::string& d : {lake, plain, out, out2, out3}) {
    fs::remove_all(d);
  }
  fs::remove(manifest);
  fs::remove(manifest2);
  fs::remove(manifest3);
}

TEST(CliCrawlTest, BadFlagsExitWithUsage) {
  EXPECT_EQ(RunCrawl(""), 2);
  EXPECT_EQ(RunCrawl("--format=parquet /tmp"), 2);
}

TEST(CliGoldenTest, BadFlagsExitWithUsage) {
  EXPECT_EQ(RunCli("--format=parquet input.log"), 2);
  EXPECT_EQ(RunCli("--mmap=sometimes input.log"), 2);
  EXPECT_EQ(RunCli(""), 2);
}

/// Runs a binary capturing stderr to a temp file; returns (exit code,
/// stderr text). Strict flag parsing must name the offending flag there.
std::pair<int, std::string> RunForStderr(const char* binary,
                                         const std::string& args,
                                         const std::string& tag) {
  const std::string err = ::testing::TempDir() + "dm_stderr_" + tag + ".txt";
  const std::string cmd = std::string("\"") + binary + "\" " + args +
                          " > /dev/null 2> \"" + err + "\"";
  int rc = std::system(cmd.c_str());
#if defined(__unix__) || defined(__APPLE__)
  rc = (rc != -1 && WIFEXITED(rc)) ? WEXITSTATUS(rc) : -1;
#endif
  auto text = ReadFileToString(err);
  fs::remove(err);
  return {rc, text.ok() ? text.value() : std::string()};
}

TEST(CliFlagTest, BadNumericFlagValuesExitTwoNamingTheFlag) {
  const std::string input = SourcePath("tests/data/cli_basic.log");
  // One captured case per parser family; the flag name must reach stderr.
  const auto [rc_int, err_int] =
      RunForStderr(DM_CLI_PATH, "\"" + input + "\" --threads=abc", "int");
  EXPECT_EQ(rc_int, 2);
  EXPECT_NE(err_int.find("--threads"), std::string::npos) << err_int;
  EXPECT_NE(err_int.find("abc"), std::string::npos) << err_int;

  const auto [rc_dbl, err_dbl] =
      RunForStderr(DM_CLI_PATH, "\"" + input + "\" --alpha=ten", "dbl");
  EXPECT_EQ(rc_dbl, 2);
  EXPECT_NE(err_dbl.find("--alpha"), std::string::npos) << err_dbl;

  const auto [rc_size, err_size] = RunForStderr(
      DM_CLI_PATH, "\"" + input + "\" --max-line-bytes=-1", "size");
  EXPECT_EQ(rc_size, 2);
  EXPECT_NE(err_size.find("--max-line-bytes"), std::string::npos) << err_size;

  // Same parsers wired into the crawler.
  const auto [rc_crawl, err_crawl] =
      RunForStderr(DM_CRAWL_PATH, "/tmp --threads=4x", "crawl");
  EXPECT_EQ(rc_crawl, 2);
  EXPECT_NE(err_crawl.find("--threads"), std::string::npos) << err_crawl;
  EXPECT_EQ(RunCrawl("/tmp --catalog-min-match=high"), 2);
  EXPECT_EQ(RunCli("\"" + input + "\" --span=1.5.2"), 2);
  EXPECT_EQ(RunCli("\"" + input + "\" --retain="), 2);
}

// ------------------------------------------------- catalog v1 compatibility ---

/// The committed v1 catalog (written by a pre-v2 build against
/// cli_interleaved.log) must keep serving the fast path: a warm run hits
/// it, extracts byte-identically to the golden, and a save through
/// --catalog-out upgrades the file to v2 with programs attached.
TEST(CliCatalogTest, V1CatalogFixtureServesGoldenAndUpgrades) {
  const std::string input = SourcePath("tests/data/cli_interleaved.log");
  const std::string fixture = SourcePath("tests/data/catalog_v1.txt");
  const std::string upgraded = ::testing::TempDir() + "dm_cli_catalog_v2up.txt";
  const std::string out = ::testing::TempDir() + "dm_cli_catalog_v1_out";
  fs::remove(upgraded);
  fs::remove_all(out);

  ASSERT_EQ(RunCli(StrFormat(
                "\"%s\" --catalog-in=\"%s\" --catalog-out=\"%s\" --out=\"%s\"",
                input.c_str(), fixture.c_str(), upgraded.c_str(),
                out.c_str())),
            0);
  ExpectDirsEqual(SourcePath("tests/golden/cli_interleaved_csv"), out,
                  "warm run against the v1 fixture");

  auto up = ReadFileToString(upgraded);
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up.value().rfind("datamaran-catalog v2\n", 0), 0u)
      << "a save migrates v1 files to the current version";
  EXPECT_NE(up.value().find("\nprogram "), std::string::npos);

  // The upgraded file is itself a working catalog.
  const std::string out2 = ::testing::TempDir() + "dm_cli_catalog_v1_out2";
  fs::remove_all(out2);
  ASSERT_EQ(RunCli(StrFormat("\"%s\" --catalog-in=\"%s\" --out=\"%s\"",
                             input.c_str(), upgraded.c_str(), out2.c_str())),
            0);
  ExpectDirsEqual(SourcePath("tests/golden/cli_interleaved_csv"), out2,
                  "warm run against the upgraded catalog");

  fs::remove(upgraded);
  fs::remove(upgraded + ".lock");
  fs::remove_all(out);
  fs::remove_all(out2);
}

// ------------------------------------------------------- incremental crawl ---

/// Drops manifest lines that legitimately differ between a cold crawl and
/// an incremental re-crawl of unchanged data: timings, the skipped markers
/// and counters, and the discovery count (a warm run discovers nothing).
std::string StripVolatileManifestLines(const std::string& text) {
  std::string out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size() - 1;
    const std::string_view line(text.data() + pos, eol - pos + 1);
    const bool volatile_line =
        line.find("\"timings\"") != std::string_view::npos ||
        line.find("\"skipped\"") != std::string_view::npos ||
        line.find("\"skipped_count\"") != std::string_view::npos ||
        line.find("\"extracted_count\"") != std::string_view::npos ||
        line.find("\"discoveries\"") != std::string_view::npos;
    if (!volatile_line) out.append(line);
    pos = eol + 1;
  }
  return out;
}

TEST(CliCrawlTest, IncrementalRecrawlSkipsUnchangedAndInvalidatesTouched) {
  const std::string lake = ::testing::TempDir() + "dm_crawl_inc_lake";
  const std::string out = ::testing::TempDir() + "dm_crawl_inc_out";
  const std::string out2 = ::testing::TempDir() + "dm_crawl_inc_out2";
  const std::string out3 = ::testing::TempDir() + "dm_crawl_inc_out3";
  const std::string catalog = ::testing::TempDir() + "dm_crawl_inc_cat.txt";
  const std::string manifest = ::testing::TempDir() + "dm_crawl_inc_m.json";
  for (const std::string& d : {lake, out, out2, out3}) fs::remove_all(d);
  fs::remove(catalog);
  fs::remove(manifest);

  fs::create_directories(lake + "/sub");
  fs::copy_file(SourcePath("tests/data/cli_interleaved.log"), lake + "/a.log");
  fs::copy_file(SourcePath("tests/data/cli_basic.log"), lake + "/sub/b.log");
  ASSERT_TRUE(
      WriteStringToFile(lake + "/readme.txt", "plain prose notes here\n")
          .ok());

  // Cold crawl writes the manifest and catalog the warm runs reuse.
  ASSERT_EQ(RunCrawl(StrFormat(
                "\"%s\" --catalog-out=\"%s\" --out=\"%s\" --manifest=\"%s\"",
                lake.c_str(), catalog.c_str(), out.c_str(), manifest.c_str())),
            0);
  auto cold = ReadFileToString(manifest);
  ASSERT_TRUE(cold.ok());
  // extracted_count tallies structured files only; the prose file is
  // classified unstructured, not extracted.
  EXPECT_NE(cold.value().find("\"extracted_count\": 2"), std::string::npos)
      << cold.value();
  EXPECT_NE(cold.value().find("\"skipped_count\": 0"), std::string::npos);

  // Warm incremental run: nothing changed, so every file restores from the
  // previous manifest — zero extractions — and the manifest is identical
  // modulo the declared-volatile lines.
  ASSERT_EQ(
      RunCrawl(StrFormat("\"%s\" --incremental --catalog-in=\"%s\" "
                         "--out=\"%s\" --manifest=\"%s\"",
                         lake.c_str(), catalog.c_str(), out2.c_str(),
                         manifest.c_str())),
      0);
  auto warm = ReadFileToString(manifest);
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm.value().find("\"extracted_count\": 0"), std::string::npos)
      << warm.value();
  EXPECT_NE(warm.value().find("\"skipped_count\": 3"), std::string::npos);
  EXPECT_EQ(StripVolatileManifestLines(cold.value()),
            StripVolatileManifestLines(warm.value()))
      << "an unchanged lake must re-crawl to the same manifest";

  // Touch one file (content grows by one record): only it re-extracts.
  auto basic = ReadFileToString(lake + "/sub/b.log");
  ASSERT_TRUE(basic.ok());
  ASSERT_TRUE(
      WriteStringToFile(lake + "/sub/b.log", basic.value() + "zeta,26\n")
          .ok());
  ASSERT_EQ(
      RunCrawl(StrFormat("\"%s\" --incremental --catalog-in=\"%s\" "
                         "--out=\"%s\" --manifest=\"%s\"",
                         lake.c_str(), catalog.c_str(), out3.c_str(),
                         manifest.c_str())),
      0);
  auto touched = ReadFileToString(manifest);
  ASSERT_TRUE(touched.ok());
  EXPECT_NE(touched.value().find("\"extracted_count\": 1"), std::string::npos)
      << touched.value();
  EXPECT_NE(touched.value().find("\"skipped_count\": 2"), std::string::npos);
  // The re-extracted file's tables were written; restored files' were not.
  EXPECT_TRUE(fs::exists(out3 + "/sub/b.log.tables"));
  EXPECT_FALSE(fs::exists(out3 + "/a.log.tables"));

  for (const std::string& d : {lake, out, out2, out3}) fs::remove_all(d);
  fs::remove(catalog);
  fs::remove(catalog + ".lock");
  fs::remove(manifest);
}

TEST(CliCrawlTest, IncrementalWithoutManifestExitsWithUsage) {
  EXPECT_EQ(RunCrawl("/tmp --incremental"), 2);
}

// -------------------------------------------------- concurrent catalog use ---

/// Two crawler processes over different lakes share one --catalog-out; the
/// locked merge-on-save must leave both discovered formats in the file no
/// matter how the saves interleave.
TEST(CliCrawlTest, ConcurrentCrawlersShareCatalogWithoutLoss) {
  const std::string lake_a = ::testing::TempDir() + "dm_crawl_conc_a";
  const std::string lake_b = ::testing::TempDir() + "dm_crawl_conc_b";
  const std::string out_a = ::testing::TempDir() + "dm_crawl_conc_outa";
  const std::string out_b = ::testing::TempDir() + "dm_crawl_conc_outb";
  const std::string catalog = ::testing::TempDir() + "dm_crawl_conc_cat.txt";
  for (const std::string& d : {lake_a, lake_b, out_a, out_b}) {
    fs::remove_all(d);
  }
  fs::remove(catalog);
  fs::create_directories(lake_a);
  fs::create_directories(lake_b);
  fs::copy_file(SourcePath("tests/data/cli_interleaved.log"),
                lake_a + "/a.log");
  fs::copy_file(SourcePath("tests/data/cli_basic.log"), lake_b + "/b.log");

  const std::string cmd = StrFormat(
      "\"%s\" \"%s\" --catalog-out=\"%s\" --out=\"%s\" >/dev/null 2>&1 & "
      "\"%s\" \"%s\" --catalog-out=\"%s\" --out=\"%s\" >/dev/null 2>&1 & "
      "wait",
      DM_CRAWL_PATH, lake_a.c_str(), catalog.c_str(), out_a.c_str(),
      DM_CRAWL_PATH, lake_b.c_str(), catalog.c_str(), out_b.c_str());
  ASSERT_EQ(std::system(cmd.c_str()), 0);

  auto text = ReadFileToString(catalog);
  ASSERT_TRUE(text.ok()) << "both crawlers exited without writing a catalog";
  size_t entries = 0;
  for (size_t at = text.value().find("\nentry "); at != std::string::npos;
       at = text.value().find("\nentry ", at + 1)) {
    entries++;
  }
  EXPECT_EQ(entries, 2u)
      << "concurrent saves lost a format:\n" << text.value();

  for (const std::string& d : {lake_a, lake_b, out_a, out_b}) {
    fs::remove_all(d);
  }
  fs::remove(catalog);
  fs::remove(catalog + ".lock");
}

// ------------------------------------------- streaming vs collecting parity ---

/// The crawler and the CLI reach the scan through different entry points
/// (the crawler's own per-file Extractor; the CLI's Datamaran::Extract).
/// Both must report identical per-template accounting for the same input
/// — the counts come from the extractor's own bookkeeping.
TEST(CliCrawlTest, StreamingCrawlCountsMatchCollectingCliSummary) {
  const std::string lake = ::testing::TempDir() + "dm_crawl_parity_lake";
  const std::string out = ::testing::TempDir() + "dm_crawl_parity_out";
  const std::string manifest =
      ::testing::TempDir() + "dm_crawl_parity_m.json";
  const std::string summary = ::testing::TempDir() + "dm_crawl_parity_s.json";
  fs::remove_all(lake);
  fs::remove_all(out);
  fs::create_directories(lake);
  fs::copy_file(SourcePath("tests/data/cli_interleaved.log"),
                lake + "/a.log");

  ASSERT_EQ(RunCrawl(StrFormat("\"%s\" --out=\"%s\" --manifest=\"%s\"",
                               lake.c_str(), out.c_str(), manifest.c_str())),
            0);
  ASSERT_EQ(
      RunCli(StrFormat("\"%s\" --summary-json=\"%s\"",
                       SourcePath("tests/data/cli_interleaved.log").c_str(),
                       summary.c_str())),
      0);
  auto m = ReadFileToString(manifest);
  auto s = ReadFileToString(summary);
  ASSERT_TRUE(m.ok() && s.ok());
  // Compare within the per-file section only: the manifest's formats
  // section reuses some of the same keys on aggregate lines.
  const size_t files_at = m.value().find("\"files\": [");
  ASSERT_NE(files_at, std::string::npos);
  const std::string file_section = m.value().substr(files_at);

  // Extract `"key": value` with surrounding indentation stripped; the two
  // documents indent differently but must agree on the values.
  const auto value_of = [](const std::string& text, const char* key) {
    const size_t at = text.find(key);
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos) return std::string();
    const size_t eol = text.find('\n', at);
    std::string v = text.substr(at, eol - at);
    while (!v.empty() && (v.back() == ',' || v.back() == ' ')) v.pop_back();
    return v;
  };
  for (const char* key :
       {"\"records\": ", "\"records_per_template\": ", "\"total_lines\": ",
        "\"noise_lines\": ", "\"templates\": ", "\"match_rate\": ",
        "\"coverage\": "}) {
    EXPECT_EQ(value_of(file_section, key), value_of(s.value(), key)) << key;
  }

  fs::remove_all(lake);
  fs::remove_all(out);
  fs::remove(manifest);
  fs::remove(summary);
}

// ------------------------------------------------------- streaming mode ---

TEST(CliFollowTest, ConflictingFlagsExitTwoBeforeOutput) {
  const std::string input = SourcePath("tests/data/cli_basic.log");
  const std::string out = ::testing::TempDir() + "dm_cli_follow_conflict";
  fs::remove_all(out);

  // Each conflict must be a named error on stderr, exit 2, and no output
  // directory created — mirroring the --normalized/--format=ndjson
  // precedent.
  const auto [rc_pos, err_pos] = RunForStderr(
      DM_CLI_PATH,
      StrFormat("\"%s\" --follow=\"%s\" --out=\"%s\"", input.c_str(),
                input.c_str(), out.c_str()),
      "follow_pos");
  EXPECT_EQ(rc_pos, 2);
  EXPECT_NE(err_pos.find("--follow"), std::string::npos) << err_pos;
  EXPECT_FALSE(fs::exists(out));

  const auto [rc_inputs, err_inputs] = RunForStderr(
      DM_CLI_PATH,
      StrFormat("--follow=\"%s\" --inputs=\"%s\" --out=\"%s\"", input.c_str(),
                input.c_str(), out.c_str()),
      "follow_inputs");
  EXPECT_EQ(rc_inputs, 2);
  EXPECT_NE(err_inputs.find("--inputs"), std::string::npos) << err_inputs;
  EXPECT_FALSE(fs::exists(out));

  const auto [rc_mmap, err_mmap] = RunForStderr(
      DM_CLI_PATH,
      StrFormat("--follow=\"%s\" --mmap=always --out=\"%s\"", input.c_str(),
                out.c_str()),
      "follow_mmap");
  EXPECT_EQ(rc_mmap, 2);
  EXPECT_NE(err_mmap.find("--mmap=always"), std::string::npos) << err_mmap;
  EXPECT_FALSE(fs::exists(out));

  const auto [rc_cat, err_cat] = RunForStderr(
      DM_CLI_PATH,
      StrFormat("--follow=\"%s\" --catalog-in=/tmp/nope.json --out=\"%s\"",
                input.c_str(), out.c_str()),
      "follow_catin");
  EXPECT_EQ(rc_cat, 2);
  EXPECT_NE(err_cat.find("--catalog-in"), std::string::npos) << err_cat;
  EXPECT_FALSE(fs::exists(out));

  // Stream-family flags are meaningless without --follow and must say so.
  const auto [rc_drift, err_drift] = RunForStderr(
      DM_CLI_PATH,
      StrFormat("\"%s\" --drift-threshold=60 --out=\"%s\"", input.c_str(),
                out.c_str()),
      "follow_drift");
  EXPECT_EQ(rc_drift, 2);
  EXPECT_NE(err_drift.find("--drift-threshold"), std::string::npos)
      << err_drift;
  EXPECT_NE(err_drift.find("--follow"), std::string::npos) << err_drift;
  EXPECT_FALSE(fs::exists(out));
}

// `--follow` bounded by --follow-max-bytes over a static file must produce
// byte-identical output to the batch run on the same corpus (the corpus
// fits the default warm-up window), and the summary must carry the stream
// counters.
TEST(CliFollowTest, FollowMatchesBatchOutputOnStaticFile) {
  const std::string input = SourcePath("tests/data/cli_basic.log");
  const auto size = FileSizeBytes(input);
  ASSERT_TRUE(size.ok());
  const std::string out_batch = ::testing::TempDir() + "dm_cli_follow_b";
  const std::string out_follow = ::testing::TempDir() + "dm_cli_follow_f";
  const std::string summary = ::testing::TempDir() + "dm_cli_follow.json";
  fs::remove_all(out_batch);
  fs::remove_all(out_follow);
  ASSERT_EQ(RunCli(StrFormat("\"%s\" --out=\"%s\"", input.c_str(),
                             out_batch.c_str())),
            0);
  ASSERT_EQ(RunCli(StrFormat("--follow=\"%s\" --follow-max-bytes=%zu "
                             "--out=\"%s\" --summary-json=\"%s\"",
                             input.c_str(), size.value(), out_follow.c_str(),
                             summary.c_str())),
            0);
  ExpectDirsEqual(out_batch, out_follow, "--follow vs batch");
  auto summary_text = ReadFileToString(summary);
  ASSERT_TRUE(summary_text.ok());
  EXPECT_NE(summary_text.value().find("\"stream\": {\"epochs\": 1"),
            std::string::npos)
      << summary_text.value();
  fs::remove_all(out_batch);
  fs::remove_all(out_follow);
  fs::remove(summary);
}

// ------------------------------------------------------ summary timings ---

constexpr const char* kStepTimings[] = {"catalog_match_s", "generation_s",
                                        "pruning_s",       "evaluation_s",
                                        "refinement_s",    "extraction_s"};

/// `timings.<key>` of the --summary-json document at `path` (-1 when the
/// document or the key is missing).
double SummaryTiming(const std::string& path, const char* key) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return -1;
  auto doc = ParseJson(text.value());
  if (!doc.ok()) return -1;
  const JsonValue* timings = doc.value().Find("timings");
  const JsonValue* v = timings != nullptr ? timings->Find(key) : nullptr;
  const std::optional<double> d = v != nullptr ? v->AsDouble() : std::nullopt;
  return d.value_or(-1);
}

/// total_s must cover every step: the steps are disjoint intervals inside
/// the run's wall time. The tolerance absorbs the %.6f rendering.
void ExpectTotalCoversSteps(const std::string& summary) {
  double steps = 0;
  for (const char* key : kStepTimings) {
    const double v = SummaryTiming(summary, key);
    EXPECT_GE(v, 0) << key;
    steps += v;
  }
  EXPECT_GE(SummaryTiming(summary, "total_s") + 1e-5, steps);
}

// The batch summary accounts for the write: extraction_s covers the one
// scan plus the sink's Finish, and total_s runs from open to finish.
TEST(CliSummaryTest, OutRunTimingsCoverTheScanAndWrite) {
  const std::string input = SourcePath("tests/data/cli_interleaved.log");
  const std::string out = ::testing::TempDir() + "dm_cli_timings_out";
  const std::string summary = ::testing::TempDir() + "dm_cli_timings.json";
  fs::remove_all(out);
  ASSERT_EQ(RunCli(StrFormat("\"%s\" --out=\"%s\" --summary-json=\"%s\"",
                             input.c_str(), out.c_str(), summary.c_str())),
            0);
  EXPECT_GT(SummaryTiming(summary, "extraction_s"), 0);
  ExpectTotalCoversSteps(summary);
  fs::remove_all(out);
  fs::remove(summary);
}

// --follow reports the timings its discovery runs and segment scans
// accumulated, instead of all zeros.
TEST(CliFollowTest, FollowSummaryReportsDiscoveryTimings) {
  const std::string input = SourcePath("tests/data/cli_basic.log");
  const auto size = FileSizeBytes(input);
  ASSERT_TRUE(size.ok());
  const std::string summary =
      ::testing::TempDir() + "dm_cli_follow_timings.json";
  ASSERT_EQ(RunCli(StrFormat("--follow=\"%s\" --follow-max-bytes=%zu "
                             "--summary-json=\"%s\"",
                             input.c_str(), size.value(), summary.c_str())),
            0);
  auto text = ReadFileToString(summary);
  ASSERT_TRUE(text.ok());
  ASSERT_NE(text.value().find("\"discovery_runs\": 1"), std::string::npos)
      << text.value();
  EXPECT_GT(SummaryTiming(summary, "generation_s"), 0);
  EXPECT_GT(SummaryTiming(summary, "extraction_s"), 0);
  ExpectTotalCoversSteps(summary);
  fs::remove(summary);
}

// Satellite regression: a cold crawl that persists a shared catalog must
// not leave `.lock` sidecars behind in the output tree.
TEST(CliCrawlTest, ColdCrawlLeavesNoLockSidecars) {
  const std::string lake = ::testing::TempDir() + "dm_cli_locks_lake";
  const std::string out = ::testing::TempDir() + "dm_cli_locks_out";
  fs::remove_all(lake);
  fs::remove_all(out);
  ASSERT_TRUE(MakeDirs(lake).ok());
  auto basic = ReadFileToString(SourcePath("tests/data/cli_basic.log"));
  ASSERT_TRUE(basic.ok());
  ASSERT_TRUE(WriteStringToFile(lake + "/a.log", basic.value()).ok());
  ASSERT_TRUE(WriteStringToFile(lake + "/b.log", basic.value()).ok());
  ASSERT_EQ(RunCrawl(StrFormat("\"%s\" --out=\"%s\" "
                               "--catalog-out=\"%s/catalog.json\"",
                               lake.c_str(), out.c_str(), out.c_str())),
            0);
  ASSERT_TRUE(fs::exists(out + "/catalog.json"));
  size_t seen = 0;
  for (const auto& entry : fs::recursive_directory_iterator(out)) {
    ++seen;
    EXPECT_NE(entry.path().extension(), ".lock")
        << "stray lock sidecar: " << entry.path();
  }
  EXPECT_GT(seen, 0u) << "crawl produced no output under " << out;
  fs::remove_all(lake);
  fs::remove_all(out);
}

TEST(CliGoldenTest, NormalizedNdjsonConflictExitsBeforeOutput) {
  // The conflict must be rejected during argument handling: exit code 2
  // and no output directory created (the input path need not even exist
  // for the flags to be declared contradictory — but use a real one so a
  // regression would surface as a created directory, not a file error).
  const std::string input = SourcePath("tests/data/cli_basic.log");
  const std::string out =
      ::testing::TempDir() + "dm_cli_norm_ndjson_conflict";
  fs::remove_all(out);
  EXPECT_EQ(RunCli(StrFormat("\"%s\" --normalized --format=ndjson "
                             "--out=\"%s\"",
                             input.c_str(), out.c_str())),
            2);
  EXPECT_FALSE(fs::exists(out)) << "conflict must exit before opening " << out;
}

}  // namespace
}  // namespace datamaran
