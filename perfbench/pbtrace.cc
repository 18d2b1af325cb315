// Traced per-layer run of the benchmark: times the public entry point of
// each layer on one workload's inputs, from the benchmark's own code.
//
//   pbtrace WORKLOAD OUT_JSON [--catalog=CAT] [--batch-cap=BYTES]
//           FILE TEMPLATES [FILE TEMPLATES ...]
//       FILE is an input log; TEMPLATES is the template list (display
//       form, one per line) the program used on it. The scan, render and
//       collect layers extract FILE with those templates, so their record
//       counts can be compared with the program's output tables. With
//       --catalog, CAT is loaded and matched instead of a catalog built
//       from this run's own discoveries. --batch-cap bounds the bytes the
//       batch layers read (streaming layers always read the whole file).
//   pbtrace collect FILE TEMPLATES THREADS
//       Child mode: runs the collecting Extractor::Extract and prints its
//       seconds, so the parent can read the child's own peak RSS.
//
// Spans (name, start, end, parent, workload) are kept in memory and
// written to OUT_JSON with the metrics and the per-template record counts
// at the end.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/datamaran.h"
#include "core/input.h"
#include "core/stream.h"
#include "extraction/extractor.h"
#include "extraction/sinks.h"
#include "generation/generator.h"
#include "pruning/pruner.h"
#include "refinement/refiner.h"
#include "scoring/mdl.h"
#include "template/catalog.h"
#include "util/sampler.h"
#include "util/thread_pool.h"

extern char** environ;

namespace {

using namespace datamaran;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
};

/// In-memory span recorder; the open-span stack gives each span its parent.
class Tracer {
 public:
  int Begin(const std::string& name) {
    spans_.push_back(Span{name, Now(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  /// Ends span `id` and returns its duration in seconds.
  double End(int id) {
    spans_[static_cast<size_t>(id)].end = Now();
    stack_.pop_back();
    const Span& s = spans_[static_cast<size_t>(id)];
    return s.end - s.start;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call as a span and returns its duration.
template <typename Fn>
double Timed(Tracer* tr, const std::string& name, Fn&& fn) {
  const int id = tr->Begin(name);
  fn();
  return tr->End(id);
}

/// Counts records per template and noise lines; notes when the first
/// decision arrives (the end of streaming warm-up).
class CountingSink : public EventSink {
 public:
  void OnRecord(int template_id, size_t, std::string_view, size_t, size_t,
                const MatchEvent*, size_t) override {
    Mark();
    const size_t t = static_cast<size_t>(template_id);
    if (t >= per_template.size()) per_template.resize(t + 1, 0);
    per_template[t]++;
  }
  void OnNoiseLine(size_t) override {
    Mark();
    noise++;
  }

  std::vector<size_t> per_template;
  size_t noise = 0;
  double first_decision = -1;

 private:
  void Mark() {
    if (first_decision < 0) first_decision = Now();
  }
};

/// Inverse of the program's display escaping: \n \t \r \\ and \xHH.
bool Unescape(const std::string& s, std::string* out) {
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out->push_back(s[i]);
      continue;
    }
    if (++i >= s.size()) return false;
    switch (s[i]) {
      case 'n': out->push_back('\n'); break;
      case 't': out->push_back('\t'); break;
      case 'r': out->push_back('\r'); break;
      case '\\': out->push_back('\\'); break;
      case 'x':
        if (i + 2 >= s.size()) return false;
        out->push_back(static_cast<char>(std::stoi(s.substr(i + 1, 2), nullptr,
                                                   16)));
        i += 2;
        break;
      default:
        return false;
    }
  }
  return true;
}

std::vector<StructureTemplate> LoadTemplates(const std::string& path) {
  std::vector<StructureTemplate> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string canonical;
    if (!Unescape(line, &canonical)) {
      std::fprintf(stderr, "pbtrace: bad template %s\n", line.c_str());
      std::exit(1);
    }
    auto st = StructureTemplate::FromCanonical(canonical);
    if (!st.ok()) {
      std::fprintf(stderr, "pbtrace: bad template %s\n", line.c_str());
      std::exit(1);
    }
    out.push_back(std::move(st.value()));
  }
  return out;
}

Dataset OpenOrDie(const std::string& path) {
  auto opened = OpenInput(path, InputOptions{});
  if (!opened.ok()) {
    std::fprintf(stderr, "pbtrace: %s\n", opened.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(opened.value());
}

std::string ReadPrefix(const std::string& path, size_t cap) {
  std::ifstream in(path, std::ios::binary);
  std::string s(cap, '\0');
  in.read(s.data(), static_cast<std::streamsize>(cap));
  s.resize(static_cast<size_t>(in.gcount()));
  const size_t nl = s.rfind('\n');
  s.resize(nl == std::string::npos ? 0 : nl + 1);
  return s;
}

int CollectChild(const std::string& file, const std::string& templates_path,
                 int threads) {
  std::vector<StructureTemplate> templates = LoadTemplates(templates_path);
  Dataset data = OpenOrDie(file);
  ThreadPool pool(threads);
  Extractor extractor(&templates, &pool);
  const double t0 = Now();
  ExtractionResult r = extractor.Extract(DatasetView(data));
  const double s = Now() - t0;
  std::printf("%.6f %zu\n", s, r.records.size());
  return 0;
}

/// Runs the collecting extraction in a fresh child process; returns
/// (seconds, peak RSS in MB) of the child.
std::pair<double, double> CollectInChild(const char* self,
                                         const std::string& file,
                                         const std::string& templates) {
  int fds[2];
  if (::pipe(fds) != 0) std::exit(1);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  std::string threads = "4";
  std::vector<char*> argv = {const_cast<char*>(self),
                             const_cast<char*>("collect"),
                             const_cast<char*>(file.c_str()),
                             const_cast<char*>(templates.c_str()),
                             threads.data(), nullptr};
  pid_t pid;
  if (posix_spawn(&pid, self, &fa, nullptr, argv.data(), environ) != 0) {
    std::fprintf(stderr, "pbtrace: cannot spawn collect child\n");
    std::exit(1);
  }
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  struct rusage ru;
  if (::wait4(pid, &status, 0, &ru) < 0 || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "pbtrace: collect child failed\n");
    std::exit(1);
  }
  return {std::atof(out.c_str()), static_cast<double>(ru.ru_maxrss) / 1024.0};
}

/// Accumulated per-layer figures over every input of the run.
struct Totals {
  double open_s = 0, frame_s = 0, frame_bytes = 0;
  double sampling_s = 0, generation_s = 0, pruning_s = 0, evaluation_s = 0;
  double refinement_s = 0, discovery_t1 = 0, discovery_t4 = 0, residual_s = 0;
  double charsets = 0, candidates = 0, evaluations = 0, aborts = 0;
  double cache_hits = 0, cache_lookups = 0;
  double catalog_load_s = 0, catalog_match_s = 0, catalog_save_s = 0;
  double catalog_hits = 0, catalog_files = 0;
  double batch_bytes = 0;
  std::map<int, double> scan_s, render_s;
  double collect_s = 0, collect_rss = 0, records = 0;
  double stream_s = 0, stream_bytes = 0, warmup_s = 0, discovery_runs = 0;
  double evolutions = 0;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string CountsJson(const std::vector<size_t>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(v[i]);
  }
  return s + "]";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 5 && std::strcmp(argv[1], "collect") == 0) {
    return CollectChild(argv[2], argv[3], std::atoi(argv[4]));
  }
  if (argc < 5) {
    std::fprintf(stderr,
                 "usage: pbtrace WORKLOAD OUT_JSON [--catalog=CAT] "
                 "[--batch-cap=BYTES] FILE TEMPLATES [FILE TEMPLATES ...]\n"
                 "       pbtrace collect FILE TEMPLATES THREADS\n");
    return 2;
  }
  const std::string workload = argv[1];
  const std::string out_json = argv[2];
  std::string catalog_in;
  size_t batch_cap = 0;
  std::vector<std::pair<std::string, std::string>> inputs;
  for (int i = 3; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--catalog=", 0) == 0) {
      catalog_in = a.substr(10);
    } else if (a.rfind("--batch-cap=", 0) == 0) {
      batch_cap = std::stoull(a.substr(12));
    } else if (i + 1 < argc) {
      inputs.emplace_back(a, argv[++i]);
    } else {
      std::fprintf(stderr, "pbtrace: FILE without TEMPLATES\n");
      return 2;
    }
  }
  const std::string scratch = out_json + ".tmp";
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  Tracer tr;
  Totals tot;
  DatamaranOptions opts;
  opts.num_threads = 4;
  ThreadPool pool4(4);
  TemplateCatalog built;
  std::vector<std::vector<size_t>> scan_counts, stream_counts;
  std::vector<size_t> stream_noise;

  const int root = tr.Begin("trace");
  for (const auto& [file, templates_path] : inputs) {
    const int file_span = tr.Begin("file");
    std::vector<StructureTemplate> templates = LoadTemplates(templates_path);

    // core/input: open, then frame the whole file in 64 KiB chunks.
    std::optional<Dataset> opened;
    tot.open_s += Timed(&tr, "core/input", [&] { opened = OpenOrDie(file); });
    {
      const std::string_view bytes = opened->text();
      StreamFramer framer(opts.crlf, opts.max_line_bytes);
      size_t lines = 0;
      tot.frame_s += Timed(&tr, "core/input", [&] {
        for (size_t p = 0; p < bytes.size(); p += 64 * 1024) {
          framer.Feed(bytes.substr(p, 64 * 1024),
                      [&](std::string_view, bool) { ++lines; });
        }
        framer.Finish([&](std::string_view, bool) { ++lines; });
      });
      tot.frame_bytes += static_cast<double>(bytes.size());
      if (lines != opened->line_count()) {
        std::fprintf(stderr, "pbtrace: framer saw %zu lines, dataset %zu\n",
                     lines, opened->line_count());
        return 1;
      }
    }
    std::optional<Dataset> capped;
    if (batch_cap > 0 && opened->size_bytes() > batch_cap) {
      capped.emplace(ReadPrefix(file, batch_cap));
    }
    const Dataset& data = capped ? *capped : *opened;
    tot.batch_bytes += static_cast<double>(data.size_bytes());

    // util/sampler and the first discovery round, layer by layer.
    SamplerOptions so;
    so.max_sample_bytes = opts.max_sample_bytes;
    so.num_chunks = opts.sample_chunks;
    so.max_line_bytes = opts.max_line_bytes;
    std::optional<DatasetView> sample;
    tot.sampling_s +=
        Timed(&tr, "util/sampler", [&] { sample = SampleView(data, so); });
    const int round = tr.Begin("round0");
    GenerationResult gen;
    tot.generation_s += Timed(&tr, "generation", [&] {
      CandidateGenerator generator(*sample, &opts, &pool4);
      gen = generator.Run();
    });
    tot.charsets += static_cast<double>(gen.charsets_tried);
    tot.candidates += static_cast<double>(gen.candidates.size());
    std::vector<CandidateTemplate> retained;
    tot.pruning_s += Timed(&tr, "pruning", [&] {
      retained = PruneCandidates(std::move(gen.candidates), opts.num_retained);
    });
    // scoring: bounded MDL over the survivors in rank order, aborting any
    // candidate provably outside the current top-K.
    MdlScorer scorer(opts.match_engine, opts.charset_engine);
    const size_t k = static_cast<size_t>(std::max(1, opts.refine_top_k));
    std::vector<std::pair<double, size_t>> scored;
    std::vector<StructureTemplate> parsed;
    tot.evaluation_s += Timed(&tr, "scoring", [&] {
      std::vector<double> heap;
      double threshold = std::numeric_limits<double>::infinity();
      for (const CandidateTemplate& cand : retained) {
        auto st = StructureTemplate::FromCanonical(cand.canonical);
        if (!st.ok() || !st.value().Validate().ok()) continue;
        tot.evaluations += 1;
        std::optional<double> s =
            scorer.ScoreBounded(*sample, st.value(), threshold);
        if (!s.has_value()) {
          tot.aborts += 1;
          continue;
        }
        scored.emplace_back(*s, parsed.size());
        parsed.push_back(std::move(st.value()));
        heap.push_back(*s);
        std::push_heap(heap.begin(), heap.end());
        if (heap.size() > k) {
          std::pop_heap(heap.begin(), heap.end());
          heap.pop_back();
        }
        if (heap.size() == k) threshold = heap.front();
      }
    });
    std::sort(scored.begin(), scored.end());
    tot.refinement_s += Timed(&tr, "refinement", [&] {
      Refiner refiner(*sample, &scorer, &opts);
      for (size_t i = 0; i < std::min(k, scored.size()); ++i) {
        refiner.Refine(parsed[scored[i].second]);
      }
    });
    tr.End(round);

    // core/datamaran: whole discovery at 1 and 4 threads, then one
    // residual transition over the sample.
    std::vector<StructureTemplate> found;
    for (int threads : {1, 4}) {
      DatamaranOptions o = opts;
      o.num_threads = threads;
      Datamaran dm(o);
      StepTimings timings;
      PipelineStats stats;
      const double s = Timed(&tr, "core/datamaran", [&] {
        found = dm.DiscoverTemplates(data, &timings, &stats, nullptr);
      });
      if (threads == 1) {
        tot.discovery_t1 += s;
      } else {
        tot.discovery_t4 += s;
        tot.cache_hits += static_cast<double>(stats.score_cache_hits);
        tot.cache_lookups += static_cast<double>(stats.score_cache_hits +
                                                 stats.score_cache_misses);
      }
    }
    if (!found.empty()) {
      tot.residual_s += Timed(&tr, "core/datamaran", [&] {
        MaskMatchedLines(*sample, found.front(), &pool4);
      });
      CatalogEntry entry;
      entry.templates = found;
      built.AddEntry(std::move(entry));
    }

    // extraction: counting scans at 1/2/4 threads, CSV render at 1/4.
    const DatasetView view(data);
    std::vector<size_t> counts;
    for (int threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      Extractor extractor(&templates, &pool);
      CountingSink sink;
      tot.scan_s[threads] += Timed(&tr, "extraction", [&] {
        extractor.ExtractEvents(view, &sink);
      });
      sink.per_template.resize(templates.size(), 0);
      if (threads == 1) counts = sink.per_template;
      if (sink.per_template != counts) {
        std::fprintf(stderr, "pbtrace: scan counts differ across threads\n");
        return 1;
      }
    }
    scan_counts.push_back(counts);
    for (size_t c : counts) tot.records += static_cast<double>(c);
    for (int threads : {1, 4}) {
      ThreadPool pool(threads);
      Extractor extractor(&templates, &pool);
      const std::string dir = scratch + "/render";
      tot.render_s[threads] += Timed(&tr, "extraction", [&] {
        ColumnarWriteSink sink(&templates, view, dir);
        extractor.ExtractEvents(view, &sink);
        if (!sink.Finish().ok()) std::exit(1);
      });
      std::filesystem::remove_all(dir);
    }
    if (!templates.empty()) {
      std::string collect_file = file;
      if (capped) {
        collect_file = scratch + "/capped.log";
        std::ofstream(collect_file, std::ios::binary)
            << std::string_view(data.text());
      }
      const int id = tr.Begin("extraction");
      auto [s, rss] = CollectInChild(argv[0], collect_file, templates_path);
      tr.End(id);
      tot.collect_s += s;
      tot.collect_rss = std::max(tot.collect_rss, rss);
    }

    // core/stream: the whole file through a StreamingSession.
    {
      CountingSink sink;
      StreamOptions so_stream;
      const double t0 = Now();
      StreamStats stats;
      tot.stream_s += Timed(&tr, "core/stream", [&] {
        StreamingSession session(opts, so_stream, &sink);
        const std::string_view bytes = opened->text();
        for (size_t p = 0; p < bytes.size(); p += 64 * 1024) {
          session.FeedBytes(bytes.substr(p, 64 * 1024));
        }
        if (!session.Finish().ok()) std::exit(1);
        stats = session.stats();
      });
      tot.stream_bytes += static_cast<double>(opened->size_bytes());
      tot.warmup_s += sink.first_decision >= 0 ? sink.first_decision - t0 : 0;
      tot.discovery_runs += static_cast<double>(stats.discovery_runs);
      tot.evolutions += static_cast<double>(stats.evolutions);
      stream_counts.push_back(sink.per_template);
      stream_noise.push_back(sink.noise);
    }
    tr.End(file_span);
  }

  // template: the catalog round trip, then fingerprint every input.
  {
    const std::string path = scratch + "/catalog.txt";
    tot.catalog_save_s += Timed(&tr, "template", [&] {
      if (!built.Save(path).ok()) std::exit(1);
    });
    std::optional<TemplateCatalog> cat;
    tot.catalog_load_s += Timed(&tr, "template", [&] {
      auto loaded =
          TemplateCatalog::Load(catalog_in.empty() ? path : catalog_in);
      if (!loaded.ok()) std::exit(1);
      cat.emplace(std::move(loaded.value()));
    });
    CatalogMatchOptions mo;
    mo.min_match = opts.catalog_min_match;
    mo.max_line_bytes = opts.max_line_bytes;
    for (const auto& [file, templates_path] : inputs) {
      Dataset data = OpenOrDie(file);
      CatalogMatch m;
      tot.catalog_match_s +=
          Timed(&tr, "template", [&] { m = MatchCatalog(*cat, data, mo); });
      tot.catalog_files += 1;
      tot.catalog_hits += m.hit() ? 1 : 0;
    }
  }
  tr.End(root);
  std::filesystem::remove_all(scratch);

  const double mb = 1024.0 * 1024.0;
  std::map<std::string, double> m = {
      {"input.open_s", tot.open_s},
      {"input.frame_mb_s", tot.frame_bytes / mb / tot.frame_s},
      {"sampling.s", tot.sampling_s},
      {"generation.s", tot.generation_s},
      {"generation.charsets", tot.charsets},
      {"generation.candidates", tot.candidates},
      {"pruning.s", tot.pruning_s},
      {"evaluation.s", tot.evaluation_s},
      {"evaluation.abort_ratio",
       tot.evaluations > 0 ? tot.aborts / tot.evaluations : 0},
      {"score_cache.hit_ratio",
       tot.cache_lookups > 0 ? tot.cache_hits / tot.cache_lookups : 0},
      {"refinement.s", tot.refinement_s},
      {"discovery.s.t1", tot.discovery_t1},
      {"discovery.s.t4", tot.discovery_t4},
      {"residual.s", tot.residual_s},
      {"catalog.load_s", tot.catalog_load_s},
      {"catalog.match_s", tot.catalog_match_s},
      {"catalog.save_s", tot.catalog_save_s},
      {"catalog.hit_ratio", tot.catalog_hits / tot.catalog_files},
      {"scan.mb_s.t1", tot.batch_bytes / mb / tot.scan_s[1]},
      {"scan.mb_s.t2", tot.batch_bytes / mb / tot.scan_s[2]},
      {"scan.mb_s.t4", tot.batch_bytes / mb / tot.scan_s[4]},
      {"render_csv.mb_s.t1", tot.batch_bytes / mb / tot.render_s[1]},
      {"render_csv.mb_s.t4", tot.batch_bytes / mb / tot.render_s[4]},
      {"collect.s", tot.collect_s},
      {"collect.peak_rss_mb", tot.collect_rss},
      {"extract.records", tot.records},
      {"stream.mb_s", tot.stream_bytes / mb / tot.stream_s},
      {"stream.warmup_s", tot.warmup_s},
      {"stream.discovery_runs", tot.discovery_runs},
      {"stream.evolutions", tot.evolutions},
  };

  std::string js = "{\n  \"workload\": \"" + JsonEscape(workload) +
                   "\",\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : m) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    js += (first ? "\n    \"" : ",\n    \"") + name + "\": " + buf;
    first = false;
  }
  js += "\n  },\n  \"scan_counts\": [";
  for (size_t i = 0; i < scan_counts.size(); ++i) {
    js += (i > 0 ? ", " : "") + CountsJson(scan_counts[i]);
  }
  js += "],\n  \"stream_counts\": [";
  for (size_t i = 0; i < stream_counts.size(); ++i) {
    js += (i > 0 ? ", " : "") + CountsJson(stream_counts[i]);
  }
  js += "],\n  \"stream_noise\": " + CountsJson(stream_noise) +
        ",\n  \"spans\": [";
  for (size_t i = 0; i < tr.spans().size(); ++i) {
    const Span& s = tr.spans()[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"start\": %.6f, \"end\": %.6f, \"parent\": %d}", s.start,
                  s.end, s.parent);
    js += (i > 0 ? ",\n    {" : "\n    {") + std::string("\"name\": \"") +
          JsonEscape(s.name) + "\", \"workload\": \"" + JsonEscape(workload) +
          "\", " + buf;
  }
  js += "\n  ]\n}\n";
  std::ofstream(out_json) << js;
  return 0;
}
