// Command-line front end: extract structure from a log file and emit
// relational tables.
//
//   datamaran <file> [--inputs=SPEC] [--greedy] [--alpha=P] [--span=L]
//             [--retain=M] [--threads=N] [--mmap=MODE]
//             [--match-engine=ENGINE] [--charset-engine=ENGINE]
//             [--crlf=POLICY] [--max-line-bytes=N]
//             [--max-inflate-bytes=N] [--no-mdl-pruning]
//             [--catalog-in=PATH] [--catalog-out=PATH]
//             [--catalog-no-merge] [--catalog-min-match=P]
//             [--summary-json=PATH]
//             [--out=DIR] [--format=FMT] [--normalized] [--verbose]
//   datamaran --follow=PATH [--follow-max-bytes=N] [--follow-poll-ms=N]
//             [--stream-window-lines=N] [--stream-window-bytes=N]
//             [--drift-window=N] [--drift-threshold=P] [--no-evolve]
//             [--out=DIR] [--catalog-out=PATH] [--summary-json=PATH] ...
//
// --follow switches to online streaming mode (core/stream.h): PATH is a
// live log file tailed through rotation and truncation, or "-" for stdin.
// Initial discovery runs over a sliding sample window of recent lines;
// matched records stream through the same columnar sinks incrementally,
// and a drift monitor re-runs discovery over recent noise when the rolling
// noise rate crosses the threshold, splicing any novel templates into the
// live set mid-stream. Peak memory is O(window), independent of stream
// length. --catalog-out checkpoints the live template set (locked merge)
// after every evolution and at end of stream.
//
// Input goes through the resilient front-end (core/input.h): gzip'd files
// are sniffed and inflated, CRLF line endings normalized per --crlf, and
// --inputs stitches several files (comma-separated paths and/or glob
// patterns, e.g. --inputs='logs/app.log*') into one logical dataset in
// rotation-chronological order — app.log.2.gz, app.log.1, app.log.
// Corrupt or truncated input exits non-zero with a descriptive error,
// never a crash; with --summary-json the error is also recorded in the
// summary's "error" field.
//
// A batch run is discovery (Datamaran::Discover) plus exactly one
// extraction scan (Datamaran::Extract). Prints the discovered templates
// and a summary taken from that scan's own accounting (including how the
// input was backed: mmap'd bytes vs. bytes actually resident); with --out,
// the scan streams relational files through the flat-event writers in
// extraction/sinks.h — rows are written incrementally as the scan
// stitches each wave, so peak memory stays O(wave) even for a multi-GB
// mmap'd input. The default layout is denormalized (one type<t>.csv or
// type<t>.ndjson per record type); --normalized streams the normalized
// table tree instead (root type<t>.csv + per-array child tables
// type<t>_arr<a>.csv with foreign keys, CSV only). Both layouts also
// stream noise.txt with every unmatched line.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "core/datamaran.h"
#include "core/input.h"
#include "core/stream.h"
#include "core/summary.h"
#include "extraction/sinks.h"
#include "flag_parse.h"
#include "util/file_io.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: datamaran <file> [--inputs=SPEC] [--greedy]\n"
               "                 [--alpha=P] [--span=L]\n"
               "                 [--retain=M] [--threads=N] [--mmap=MODE]\n"
               "                 [--match-engine=ENGINE]\n"
               "                 [--charset-engine=ENGINE]\n"
               "                 [--crlf=POLICY] [--max-line-bytes=N]\n"
               "                 [--max-inflate-bytes=N]\n"
               "                 [--no-mdl-pruning] [--catalog-in=PATH]\n"
               "                 [--catalog-out=PATH] [--catalog-no-merge]\n"
               "                 [--catalog-min-match=P]\n"
               "                 [--summary-json=PATH] [--out=DIR]\n"
               "                 [--format=FMT] [--normalized] [--verbose]\n"
               "       datamaran --follow=PATH [--follow-max-bytes=N]\n"
               "                 [--follow-poll-ms=N]\n"
               "                 [--stream-window-lines=N]\n"
               "                 [--stream-window-bytes=N]\n"
               "                 [--drift-window=N] [--drift-threshold=P]\n"
               "                 [--no-evolve] ...\n"
               "  --inputs=SPEC comma-separated paths and/or glob patterns\n"
               "                stitched into one logical dataset in\n"
               "                rotation-chronological order (app.log.2.gz,\n"
               "                app.log.1, app.log); each member may be\n"
               "                gzip'd. Replaces the positional <file>\n"
               "  --crlf=POLICY line-ending handling: auto (default;\n"
               "                normalize \\r\\n to \\n when CRLF appears\n"
               "                in the first 64KiB), strip (always\n"
               "                normalize), keep (never)\n"
               "  --max-line-bytes=N  oversized-line guard: lines longer\n"
               "                than N bytes are excluded from discovery\n"
               "                and degraded to noise instead of being\n"
               "                matched (default 4MiB; 0 = unlimited)\n"
               "  --max-inflate-bytes=N  gzip decompression-bomb cap\n"
               "                (default 4GiB; 0 = unlimited); exceeding\n"
               "                it is a clean error, not an OOM\n"
               "  --threads=N   worker threads (0 = all hardware threads,\n"
               "                1 = sequential; output is identical)\n"
               "  --mmap=MODE   input backing: auto (default; mmap files\n"
               "                above a size threshold), always, never.\n"
               "                Output is identical either way\n"
               "  --match-engine=ENGINE  compiled (default; templates run\n"
               "                as bytecode with first-byte dispatch) or\n"
               "                tree (reference walker). Output is\n"
               "                identical either way\n"
               "  --charset-engine=ENGINE  byte-classification engine:\n"
               "                simd (default; resolves to AVX2 or SSE2 by\n"
               "                runtime CPU detection, degrading to swar\n"
               "                off x86), swar (64-bit wordwise), or\n"
               "                scalar (per-byte reference). Output is\n"
               "                identical for every engine\n"
               "  --no-mdl-pruning  score every retained candidate to\n"
               "                completion instead of aborting provably\n"
               "                non-top-K evaluations early. Output is\n"
               "                identical; this only trades speed for a\n"
               "                brute-force baseline\n"
               "  --catalog-in=PATH  fingerprint the input against the\n"
               "                template catalog at PATH first; on a hit,\n"
               "                skip discovery and extract with the stored\n"
               "                templates (byte-identical output to the\n"
               "                fresh-discovery run that produced the\n"
               "                entry), else fall back to cold discovery\n"
               "  --catalog-out=PATH  write the catalog (loaded entries\n"
               "                plus any format discovered cold by this\n"
               "                run) to PATH, so discovery cost amortizes\n"
               "                across files sharing a format. The save\n"
               "                merges with the catalog already at PATH\n"
               "                under an advisory lock, so concurrent runs\n"
               "                sharing one catalog never lose entries\n"
               "  --catalog-no-merge  overwrite --catalog-out instead of\n"
               "                merging with the file on disk\n"
               "  --catalog-min-match=P  percent of sampled lines a\n"
               "                catalog entry must cover to count as a hit\n"
               "                (default 80)\n"
               "  --summary-json=PATH  write the per-file run summary\n"
               "                (records, noise lines, timings, resolved\n"
               "                engines, catalog hit/miss) to PATH as JSON;\n"
               "                the crawler's lake manifest embeds the same\n"
               "                object per file\n"
               "  --out=DIR     stream per-record-type columnar files into\n"
               "                DIR (type<t>.csv/.ndjson + noise.txt),\n"
               "                written incrementally at O(wave) memory;\n"
               "                byte-identical for every --threads,\n"
               "                --match-engine and --mmap setting\n"
               "  --format=FMT  --out file format: csv (default,\n"
               "                RFC-4180 quoting) or ndjson (one JSON\n"
               "                object per record). ndjson applies to the\n"
               "                denormalized layout only and conflicts\n"
               "                with --normalized\n"
               "  --normalized  with --out: stream the normalized table\n"
               "                tree (root type<t>.csv + per-array child\n"
               "                tables type<t>_arr<a>.csv with foreign\n"
               "                keys; CSV only, O(wave) memory like the\n"
               "                default layout)\n"
               "  --follow=PATH streaming mode: tail PATH (a live log,\n"
               "                followed through rotation/truncation) or\n"
               "                stdin (\"-\"); discover structure over a\n"
               "                sliding window of recent lines, stream\n"
               "                records through the --out sinks as they\n"
               "                are decided, and evolve the template set\n"
               "                on format drift. O(window) peak memory.\n"
               "                Replaces the positional <file>; conflicts\n"
               "                with --inputs, --mmap=always, --catalog-in\n"
               "  --follow-max-bytes=N  stop following after N input bytes\n"
               "                (0 = follow until stdin EOF / forever on a\n"
               "                file); bounds CI and smoke runs\n"
               "  --follow-poll-ms=N  sleep between polls of a drained\n"
               "                live file (default 50; stdin never polls)\n"
               "  --stream-window-lines=N  lines per discovery window and\n"
               "                steady-state segment (default 4096)\n"
               "  --stream-window-bytes=N  byte cap on the same window\n"
               "                (default 256KiB)\n"
               "  --drift-window=N  decided lines in the rolling noise-\n"
               "                rate window (default 256)\n"
               "  --drift-threshold=P  percent noise over the drift\n"
               "                window that triggers re-discovery over\n"
               "                recent noise (default 50)\n"
               "  --no-evolve   monitor drift but never evolve the\n"
               "                template set\n");
}

/// Fallback EventSink for `--follow` without `--out`: counts per-template
/// records (for the summary) and drops everything else. Decisions still
/// drive the session's own counters and drift monitor.
class CountingSink : public datamaran::EventSink {
 public:
  void OnRecord(int template_id, size_t /*first_line*/,
                std::string_view /*text*/, size_t /*pos*/, size_t /*end*/,
                const datamaran::MatchEvent* /*events*/,
                size_t /*num_events*/) override {
    const size_t t = static_cast<size_t>(template_id);
    if (t >= per_template.size()) per_template.resize(t + 1, 0);
    per_template[t]++;
  }

  std::vector<size_t> per_template;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace datamaran;

  std::string path;
  std::string inputs_spec;
  std::string out_dir;
  std::string summary_json;
  std::string follow_path;
  std::string stream_only_flag;  // first --follow-family flag seen
  size_t follow_max_bytes = 0;
  int follow_poll_ms = 50;
  StreamOptions stream_options;
  bool normalized = false;
  OutputFormat format = OutputFormat::kCsv;
  DatamaranOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (StartsWith(arg, "--inputs=")) {
      inputs_spec = std::string(arg.substr(9));
    } else if (StartsWith(arg, "--follow=")) {
      follow_path = std::string(arg.substr(9));
      if (follow_path.empty()) {
        Usage();
        return 2;
      }
    } else if (StartsWith(arg, "--follow-max-bytes=")) {
      stream_only_flag = "--follow-max-bytes";
      follow_max_bytes =
          datamaran_tools::FlagSize("--follow-max-bytes", arg.substr(19));
    } else if (StartsWith(arg, "--follow-poll-ms=")) {
      stream_only_flag = "--follow-poll-ms";
      follow_poll_ms =
          datamaran_tools::FlagInt("--follow-poll-ms", arg.substr(17));
    } else if (StartsWith(arg, "--stream-window-lines=")) {
      stream_only_flag = "--stream-window-lines";
      stream_options.window_lines =
          datamaran_tools::FlagSize("--stream-window-lines", arg.substr(22));
    } else if (StartsWith(arg, "--stream-window-bytes=")) {
      stream_only_flag = "--stream-window-bytes";
      stream_options.window_bytes =
          datamaran_tools::FlagSize("--stream-window-bytes", arg.substr(22));
    } else if (StartsWith(arg, "--drift-window=")) {
      stream_only_flag = "--drift-window";
      stream_options.drift_window_lines =
          datamaran_tools::FlagSize("--drift-window", arg.substr(15));
    } else if (StartsWith(arg, "--drift-threshold=")) {
      stream_only_flag = "--drift-threshold";
      stream_options.drift_threshold =
          datamaran_tools::FlagDouble("--drift-threshold", arg.substr(18)) /
          100.0;
    } else if (arg == "--no-evolve") {
      stream_only_flag = "--no-evolve";
      stream_options.evolve = false;
    } else if (StartsWith(arg, "--crlf=")) {
      std::string_view policy = arg.substr(7);
      if (policy == "auto") {
        options.crlf = CrlfPolicy::kAuto;
      } else if (policy == "keep") {
        options.crlf = CrlfPolicy::kKeep;
      } else if (policy == "strip") {
        options.crlf = CrlfPolicy::kStrip;
      } else {
        Usage();
        return 2;
      }
    } else if (StartsWith(arg, "--max-line-bytes=")) {
      options.max_line_bytes =
          datamaran_tools::FlagSize("--max-line-bytes", arg.substr(17));
    } else if (StartsWith(arg, "--max-inflate-bytes=")) {
      options.max_inflate_bytes =
          datamaran_tools::FlagSize("--max-inflate-bytes", arg.substr(20));
    } else if (arg == "--greedy") {
      options.search = CharsetSearch::kGreedy;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--normalized") {
      normalized = true;
    } else if (StartsWith(arg, "--alpha=")) {
      options.coverage_threshold =
          datamaran_tools::FlagDouble("--alpha", arg.substr(8)) / 100.0;
    } else if (StartsWith(arg, "--span=")) {
      options.max_record_span =
          datamaran_tools::FlagInt("--span", arg.substr(7));
    } else if (StartsWith(arg, "--retain=")) {
      options.num_retained =
          datamaran_tools::FlagInt("--retain", arg.substr(9));
    } else if (StartsWith(arg, "--threads=")) {
      options.num_threads =
          datamaran_tools::FlagInt("--threads", arg.substr(10));
    } else if (StartsWith(arg, "--mmap=")) {
      std::string_view mode = arg.substr(7);
      if (mode == "auto") {
        options.mmap_mode = MapMode::kAuto;
      } else if (mode == "always") {
        options.mmap_mode = MapMode::kAlways;
      } else if (mode == "never") {
        options.mmap_mode = MapMode::kNever;
      } else {
        Usage();
        return 2;
      }
    } else if (StartsWith(arg, "--match-engine=")) {
      std::string_view engine = arg.substr(15);
      if (engine == "compiled") {
        options.match_engine = MatchEngine::kCompiled;
      } else if (engine == "tree") {
        options.match_engine = MatchEngine::kTree;
      } else {
        Usage();
        return 2;
      }
    } else if (StartsWith(arg, "--charset-engine=")) {
      std::string_view engine = arg.substr(17);
      if (engine == "simd") {
        options.charset_engine = CharsetEngine::kSimd;
      } else if (engine == "swar") {
        options.charset_engine = CharsetEngine::kSwar;
      } else if (engine == "scalar") {
        options.charset_engine = CharsetEngine::kScalar;
      } else {
        Usage();
        return 2;
      }
    } else if (arg == "--no-mdl-pruning") {
      options.enable_mdl_pruning = false;
    } else if (StartsWith(arg, "--catalog-in=")) {
      options.catalog_in = std::string(arg.substr(13));
    } else if (StartsWith(arg, "--catalog-out=")) {
      options.catalog_out = std::string(arg.substr(14));
    } else if (arg == "--catalog-no-merge") {
      options.catalog_merge = false;
    } else if (StartsWith(arg, "--catalog-min-match=")) {
      options.catalog_min_match =
          datamaran_tools::FlagDouble("--catalog-min-match", arg.substr(20)) /
          100.0;
    } else if (StartsWith(arg, "--summary-json=")) {
      summary_json = std::string(arg.substr(15));
    } else if (StartsWith(arg, "--format=")) {
      std::string_view fmt = arg.substr(9);
      if (fmt == "csv") {
        format = OutputFormat::kCsv;
      } else if (fmt == "ndjson") {
        format = OutputFormat::kNdjson;
      } else {
        Usage();
        return 2;
      }
    } else if (StartsWith(arg, "--out=")) {
      out_dir = std::string(arg.substr(6));
    } else if (!StartsWith(arg, "--")) {
      path = std::string(arg);
    } else {
      Usage();
      return 2;
    }
  }
  // Mode selection and conflicts — every rejection here is a named error,
  // exit 2, before any pipeline work or output-directory creation.
  if (!follow_path.empty()) {
    if (!path.empty() || !inputs_spec.empty()) {
      std::fprintf(stderr,
                   "error: --follow reads one live source and replaces the "
                   "positional <file>; it conflicts with --inputs and a "
                   "positional path\n");
      Usage();
      return 2;
    }
    if (options.mmap_mode == MapMode::kAlways) {
      std::fprintf(stderr,
                   "error: --follow streams an unbounded source and never "
                   "memory-maps it; it conflicts with --mmap=always\n");
      Usage();
      return 2;
    }
    if (!options.catalog_in.empty()) {
      std::fprintf(stderr,
                   "error: --follow discovers structure from the live "
                   "stream and checkpoints via --catalog-out; it conflicts "
                   "with --catalog-in\n");
      Usage();
      return 2;
    }
  } else {
    if (!stream_only_flag.empty()) {
      std::fprintf(stderr,
                   "error: %s applies to streaming mode only and requires "
                   "--follow\n",
                   stream_only_flag.c_str());
      Usage();
      return 2;
    }
    if (path.empty() == inputs_spec.empty()) {
      // Exactly one of the positional <file> and --inputs selects the data.
      Usage();
      return 2;
    }
  }
  if (normalized && format != OutputFormat::kCsv) {
    // The normalized table tree is CSV-only; name the conflict and bail
    // before any pipeline work or output-directory creation, instead of
    // silently writing CSV.
    std::fprintf(stderr,
                 "error: --normalized writes the relational table tree and "
                 "is CSV-only; it conflicts with --format=ndjson\n");
    Usage();
    return 2;
  }

  // Every input failure funnels through here: descriptive message, and —
  // when a summary was requested — a summary document whose "error" field
  // carries the same Status, so automated callers never have to scrape
  // stderr. The exit code stays 1 (input/runtime error), distinct from 2
  // (bad flags).
  const std::string display_path = !follow_path.empty()
                                       ? follow_path
                                       : (path.empty() ? inputs_spec : path);
  auto fail = [&](const Status& st) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    if (!summary_json.empty()) {
      FileSummary s;
      s.path = display_path;
      s.error = st.ToString();
      (void)WriteFileAtomic(summary_json, FileSummaryToJson(s));
    }
    return 1;
  };

  if (!follow_path.empty()) {
    stream_options.checkpoint_path = options.catalog_out;
    stream_options.checkpoint_merge = options.catalog_merge;

    // The write sinks resolve noise text through OnNoiseText in streaming
    // mode; the DatasetView they hold only needs to outlive them.
    Dataset empty_data{std::string()};
    DatasetView empty_view(empty_data);
    std::vector<StructureTemplate> no_templates;
    CountingSink counting;
    std::unique_ptr<WriteSinkBase> write_sink;
    EventSink* sink = &counting;
    if (!out_dir.empty()) {
      if (normalized) {
        write_sink = std::make_unique<NormalizedWriteSink>(
            &no_templates, empty_view, out_dir);
      } else {
        write_sink = std::make_unique<ColumnarWriteSink>(
            &no_templates, empty_view, out_dir, format);
      }
      if (!write_sink->status().ok()) return fail(write_sink->status());
      sink = write_sink.get();
    }

    Timer total_timer;
    StreamingSession session(options, stream_options, sink);
    FollowReader reader(follow_path);
    std::string buf;
    uint64_t fed = 0;
    for (;;) {
      buf.clear();
      size_t want = 64 * 1024;
      if (follow_max_bytes > 0) {
        const uint64_t left = follow_max_bytes - fed;
        if (left < want) want = static_cast<size_t>(left);
      }
      auto read = reader.Read(&buf, want);
      if (!read.ok()) return fail(read.status());
      if (!buf.empty()) {
        fed += buf.size();
        session.FeedBytes(buf);
      }
      if (follow_max_bytes > 0 && fed >= follow_max_bytes) break;
      if (read.value().eof) {
        if (reader.is_stdin()) break;  // stdin EOF is final
#if defined(__unix__) || defined(__APPLE__)
        if (follow_poll_ms > 0) {
          ::usleep(static_cast<unsigned>(follow_poll_ms) * 1000u);
        }
#endif
      }
    }
    Status ended = session.Finish();

    const StreamStats& stats = session.stats();
    std::printf("streamed %llu bytes, %llu lines (%llu decided)\n",
                static_cast<unsigned long long>(stats.bytes_in),
                static_cast<unsigned long long>(stats.lines_in),
                static_cast<unsigned long long>(stats.lines_decided));
    std::printf("%zu structure template(s):\n", session.templates().size());
    size_t t = 0;
    for (const StructureTemplate& st : session.templates()) {
      std::printf("  [%zu] span=%d fields=%d  %s\n", t++, st.line_span(),
                  st.field_count(), st.Display().c_str());
    }
    std::printf("records=%llu noise_lines=%llu oversized=%llu\n",
                static_cast<unsigned long long>(stats.records),
                static_cast<unsigned long long>(stats.noise_lines),
                static_cast<unsigned long long>(stats.oversized_lines));
    std::printf("drift: epochs=%llu evolutions=%llu (attempts=%llu), "
                "discovery_runs=%llu, noise_rate=%.2f\n",
                static_cast<unsigned long long>(stats.epochs),
                static_cast<unsigned long long>(stats.evolutions),
                static_cast<unsigned long long>(stats.evolution_attempts),
                static_cast<unsigned long long>(stats.discovery_runs),
                stats.last_noise_rate);
    if (!stream_options.checkpoint_path.empty()) {
      std::printf("checkpoints: %llu to %s\n",
                  static_cast<unsigned long long>(stats.checkpoints),
                  stream_options.checkpoint_path.c_str());
    }

    int exit_code = 0;
    if (!ended.ok()) {
      std::fprintf(stderr, "error: %s\n", ended.ToString().c_str());
      exit_code = 1;
    }
    if (write_sink != nullptr) {
      Status finished = write_sink->Finish();
      if (!finished.ok()) {
        std::fprintf(stderr, "error: %s\n", finished.ToString().c_str());
        exit_code = 1;
      }
      std::printf("wrote %s/%s (%zu lines); %zu bytes streamed\n",
                  out_dir.c_str(), WriteSinkBase::NoiseFileName().c_str(),
                  write_sink->stats().noise_lines,
                  write_sink->stats().bytes_written);
    }

    if (!summary_json.empty()) {
      FileSummary s;
      s.path = display_path;
      s.input_bytes = static_cast<size_t>(stats.bytes_in);
      if (!ended.ok()) s.error = ended.ToString();
      for (const StructureTemplate& st : session.templates()) {
        s.templates.push_back(st.Display());
      }
      s.total_lines = static_cast<size_t>(stats.lines_in);
      s.records = static_cast<size_t>(stats.records);
      s.records_per_template = write_sink != nullptr
                                   ? write_sink->stats().records_per_template
                                   : counting.per_template;
      s.noise_lines = static_cast<size_t>(stats.noise_lines);
      s.match_rate =
          stats.lines_decided == 0
              ? 1.0
              : static_cast<double>(stats.lines_decided - stats.noise_lines) /
                    static_cast<double>(stats.lines_decided);
      s.streaming = true;
      s.stream_epochs = static_cast<size_t>(stats.epochs);
      s.stream_evolutions = static_cast<size_t>(stats.evolutions);
      s.stream_discovery_runs = static_cast<size_t>(stats.discovery_runs);
      s.stream_checkpoints = static_cast<size_t>(stats.checkpoints);
      s.stream_oversized_lines = static_cast<size_t>(stats.oversized_lines);
      s.match_engine =
          options.match_engine == MatchEngine::kCompiled ? "compiled"
                                                         : "tree";
      s.charset_engine =
          CharsetEngineName(ResolveCharsetEngine(options.charset_engine));
      s.threads = ThreadPool::ResolveThreadCount(options.num_threads);
      s.timings = session.timings();
      s.timings.total_s = total_timer.Seconds();
      Status written = WriteFileAtomic(summary_json, FileSummaryToJson(s));
      if (!written.ok()) {
        std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
        exit_code = 1;
      }
    }
    return exit_code;
  }

  // total_s runs from the open to the sink's Finish, so the summary's
  // step timings account for the whole run.
  Timer total_timer;
  std::vector<std::string> input_paths;
  if (!inputs_spec.empty()) {
    auto expanded = ExpandInputSpec(inputs_spec);
    if (!expanded.ok()) return fail(expanded.status());
    input_paths = std::move(expanded.value());
  } else {
    input_paths.push_back(path);
  }

  Datamaran dm(options);
  if (!dm.catalog_status().ok()) return fail(dm.catalog_status());
  // One open through the resilient front-end serves both discovery and
  // the extraction scan (the dataset is immutable).
  auto opened = OpenInputs(input_paths, MakeInputOptions(options));
  if (!opened.ok()) return fail(opened.status());
  Dataset data = std::move(opened.value());
  PipelineResult result = dm.Discover(data);

  // Exactly one scan. With --out it feeds a write sink: the scan's flat
  // events go to the writers directly and nothing is buffered beyond one
  // wave of rows, for both layouts. Without --out (or with no templates,
  // where no tables are written) the scan only counts. Every count below
  // comes from the scan's own accounting. extraction_s covers opening the
  // tables, the scan and the final flush.
  Timer extract_timer;
  DatasetView view(data);
  std::unique_ptr<WriteSinkBase> sink;
  if (!out_dir.empty() && !result.templates.empty()) {
    if (normalized) {
      sink = std::make_unique<NormalizedWriteSink>(&result.templates, view,
                                                   out_dir);
    } else {
      sink = std::make_unique<ColumnarWriteSink>(&result.templates, view,
                                                 out_dir, format);
    }
    // Unwritable out dir: fail before the scan.
    if (!sink->status().ok()) return fail(sink->status());
  }
  dm.Extract(data, sink.get(), &result);
  const Status finished = sink != nullptr ? sink->Finish() : Status::Ok();
  result.timings.extraction_s = extract_timer.Seconds();
  result.timings.total_s = total_timer.Seconds();
  const ExtractionResult& extraction = result.extraction;

  std::printf("%zu structure template(s):\n", result.templates.size());
  for (size_t t = 0; t < result.templates.size(); ++t) {
    std::printf("  [%zu] span=%d fields=%d  %s\n", t,
                result.templates[t].line_span(),
                result.templates[t].field_count(),
                result.templates[t].Display().c_str());
  }
  std::printf("records:");
  for (size_t t = 0; t < result.templates.size() && t < 64; ++t) {
    std::printf(" type%zu=%zu", t, extraction.records_per_template[t]);
  }
  std::printf("  noise_lines=%zu  coverage=%.1f%%\n",
              extraction.noise_line_count, extraction.coverage() * 100);
  std::printf(
      "timings: gen=%.2fs prune=%.2fs eval=%.2fs refine=%.2fs extract=%.2fs\n",
      result.timings.generation_s, result.timings.pruning_s,
      result.timings.evaluation_s, result.timings.refinement_s,
      result.timings.extraction_s);
  if (result.stats.catalog_checked) {
    if (result.stats.catalog_hit) {
      std::printf("catalog: hit entry %d (%.1f%% of sample; fingerprint "
                  "%.3fs, discovery skipped)\n",
                  result.stats.catalog_entry,
                  result.stats.catalog_match_rate * 100,
                  result.timings.catalog_match_s);
    } else {
      std::printf("catalog: miss (fingerprint %.3fs, cold discovery)\n",
                  result.timings.catalog_match_s);
    }
  }
  std::printf("match engine: %s\n",
              options.match_engine == MatchEngine::kCompiled ? "compiled"
                                                             : "tree");
  // Report the engine actually running, not the one requested: kSimd
  // resolves by runtime CPU detection and degrades down the ladder.
  const CharsetEngine resolved_charset =
      ResolveCharsetEngine(options.charset_engine);
  if (resolved_charset == CharsetEngine::kSimd) {
    std::printf("charset engine: %s (%s)\n",
                CharsetEngineName(resolved_charset), CharsetSimdLevel());
  } else {
    std::printf("charset engine: %s\n", CharsetEngineName(resolved_charset));
  }
  std::printf("evaluation: %zu candidate(s) scored, %zu pruned by MDL "
              "bound\n",
              result.stats.candidates_evaluated,
              result.stats.candidates_pruned);
  if (result.stats.input_mapped) {
    std::printf("input: %zu bytes mmap-backed, ~%zu resident after run\n",
                result.stats.input_bytes, result.stats.input_resident_bytes);
  } else {
    std::printf("input: %zu bytes read into memory\n",
                result.stats.input_bytes);
  }
  if (result.stats.score_cache_hits + result.stats.score_cache_misses > 0) {
    std::printf("score cache: %zu hits / %zu misses over %d round(s); "
                "residual copies %zu bytes\n",
                result.stats.score_cache_hits,
                result.stats.score_cache_misses, result.stats.rounds,
                result.stats.residual_copy_bytes);
  }

  if (!summary_json.empty()) {
    const FileSummary summary = SummarizeResult(display_path, result, options);
    Status written =
        WriteFileAtomic(summary_json, FileSummaryToJson(summary));
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
  }

  if (sink == nullptr) return 0;
  if (!finished.ok()) {
    std::fprintf(stderr, "error: %s\n", finished.ToString().c_str());
    return 1;
  }
  for (size_t t = 0; t < result.templates.size(); ++t) {
    if (normalized) {
      const auto& norm = static_cast<const NormalizedWriteSink&>(*sink);
      for (size_t k = 0; k < norm.table_count(t); ++k) {
        std::printf("wrote %s/%s (%zu rows)\n", out_dir.c_str(),
                    NormalizedWriteSink::TableFileName(t, k).c_str(),
                    norm.rows_in_table(t, k));
      }
    } else {
      std::printf("wrote %s/%s (%zu rows)\n", out_dir.c_str(),
                  ColumnarWriteSink::FileName(t, format).c_str(),
                  sink->stats().records_per_template[t]);
    }
  }
  std::printf("wrote %s/%s (%zu lines); %zu bytes streamed\n",
              out_dir.c_str(), WriteSinkBase::NoiseFileName().c_str(),
              sink->stats().noise_lines, sink->stats().bytes_written);
  return 0;
}
