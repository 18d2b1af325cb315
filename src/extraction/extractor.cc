#include "extraction/extractor.h"

#include <algorithm>
#include <utility>

#include "util/thread_pool.h"

namespace datamaran {

namespace {

/// EventSink that materializes ExtractedRecords: each record's event
/// stream is replayed into a ParsedValue tree (BuildParsedValue). O(file)
/// memory by design; this is what Extractor::Extract runs on.
class CollectingSink : public EventSink {
 public:
  CollectingSink(const std::vector<StructureTemplate>* templates,
                 const std::vector<int>* spans, ExtractionResult* out)
      : templates_(templates), spans_(spans), out_(out) {}

  void OnRecord(int template_id, size_t first_line,
                std::string_view /*text*/, size_t pos, size_t /*end*/,
                const MatchEvent* events, size_t num_events) override {
    const size_t t = static_cast<size_t>(template_id);
    ExtractedRecord rec;
    rec.template_id = template_id;
    rec.first_line = first_line;
    rec.line_count = (*spans_)[t];
    rec.value = BuildParsedValue((*templates_)[t], pos, events, num_events);
    rec.begin = rec.value.begin;
    rec.end = rec.value.end;
    out_->records.push_back(std::move(rec));
  }

  void OnNoiseLine(size_t line_index) override {
    out_->noise_lines.push_back(line_index);
  }

 private:
  const std::vector<StructureTemplate>* templates_;
  const std::vector<int>* spans_;
  ExtractionResult* out_;
};

/// Speculative scan of one line-range chunk: every attempted line with its
/// outcome, in increasing line order, plus the first line the scan did NOT
/// consume (>= end_line when a record spills past the chunk boundary).
/// Record attempts buffer only their flat events (ranges into the chunk's
/// shared event store) and window bookkeeping — no ParsedValue trees — so a
/// wave's buffered state is a few machine words plus field/array events per
/// record.
struct ChunkScan {
  struct Attempt {
    size_t line = 0;
    int template_id = -1;  // -1 = noise line
    size_t pos = 0;        // records: match begin within the window text
    size_t end = 0;        // records: one past the match
    uint32_t event_begin = 0;  // records: event range in ChunkScan::events
    uint32_t event_count = 0;
    /// A cross-gap record's window text, owned here so the event spans stay
    /// valid until the stitcher flushes the attempt to the sink (empty for
    /// in-place matches — always, on identity views).
    std::string assembled_text;
  };
  size_t begin_line = 0;
  size_t end_line = 0;
  size_t final_line = 0;
  std::vector<Attempt> attempts;
  std::vector<MatchEvent> events;  // concatenated per-record event ranges
};

/// Minimum lines per chunk: below this the per-chunk bookkeeping outweighs
/// the matching work.
constexpr size_t kMinLinesPerChunk = 256;
/// Maximum lines per chunk. A chunk buffers every attempt's flat events
/// until the stitch (tens of events per record), so this cap is what makes
/// a wave, and with it the scan's peak memory, independent of file size.
constexpr size_t kMaxLinesPerChunk = 4096;

/// Automatic chunk granularity: about 16 chunks per thread, clamped.
size_t AutoLinesPerChunk(size_t lines, size_t threads) {
  return std::clamp(lines / (threads * 16), kMinLinesPerChunk,
                    kMaxLinesPerChunk);
}

}  // namespace

Extractor::Extractor(const std::vector<StructureTemplate>* templates,
                     ThreadPool* pool, MatchEngine engine,
                     CharsetEngine charset_engine, size_t max_line_bytes,
                     const std::vector<std::string>* programs)
    : templates_(templates),
      pool_(pool),
      matchers_(BuildMatchers(*templates, engine, charset_engine, programs)),
      index_(matchers_),
      max_line_bytes_(max_line_bytes) {
  for (const StructureTemplate& st : *templates_) {
    spans_.push_back(std::max(1, st.line_span()));
  }
}

int Extractor::MatchAt(const DatasetView& data, size_t li,
                       std::string* scratch, std::vector<MatchEvent>* events,
                       DatasetView::SpanText* win, size_t* end) const {
  // Lines always contain their '\n', so front() is safe. Dispatching on the
  // first byte attempts only templates whose FIRST set admits the line —
  // skipped templates could never have matched, so the first-match-in-
  // priority-order outcome is unchanged. The common single-template case
  // answers from the matcher's own FIRST set without touching the index.
  // Oversized-line guard: a candidate window containing any line over the
  // cap is refused before it is resolved, so a pathological multi-MB line
  // is pure noise — never scanned by a matcher, never assembled into
  // cross-gap scratch, and never swallowed mid-record by a multi-line
  // template. The common case (cap unset, or span-1 templates) costs one
  // length comparison.
  const auto window_ok = [&](size_t span) {
    if (max_line_bytes_ == 0) return true;
    const size_t stop = std::min(li + span, data.line_count());
    for (size_t i = li; i < stop; ++i) {
      if (data.line(i).size() > max_line_bytes_) return false;
    }
    return true;
  };
  const unsigned char first =
      static_cast<unsigned char>(data.line_with_newline(li).front());
  if (matchers_.size() == 1) {
    if (!matchers_[0].CanStartWith(first)) return -1;
    if (!window_ok(static_cast<size_t>(spans_[0]))) return -1;
    *win = data.ResolveSpan(li, static_cast<size_t>(spans_[0]), scratch);
    auto stats = matchers_[0].ParseFlat(win->text, win->pos, events);
    if (!stats.has_value()) return -1;
    *end = stats->end;
    return 0;
  }
  for (uint16_t t : index_.Candidates(first)) {
    if (!window_ok(static_cast<size_t>(spans_[t]))) continue;
    *win = data.ResolveSpan(li, static_cast<size_t>(spans_[t]), scratch);
    auto stats = matchers_[t].ParseFlat(win->text, win->pos, events);
    if (!stats.has_value()) continue;
    *end = stats->end;
    return static_cast<int>(t);
  }
  return -1;
}

size_t Extractor::EmitAt(const DatasetView& data, size_t li, EventSink* sink,
                         ExtractionResult* stats, std::string* scratch,
                         std::vector<MatchEvent>* events) const {
  DatasetView::SpanText win;
  size_t end = 0;
  const int t = MatchAt(data, li, scratch, events, &win, &end);
  if (t < 0) {
    stats->noise_line_count += 1;
    if (sink != nullptr) sink->OnNoiseLine(li);
    return li + 1;
  }
  stats->covered_chars += end - win.pos;
  stats->matched_records += 1;
  stats->records_per_template[static_cast<size_t>(t)] += 1;
  if (sink != nullptr) {
    sink->OnRecord(t, li, win.text, win.pos, end, events->data(),
                   events->size());
  }
  return li + static_cast<size_t>(spans_[static_cast<size_t>(t)]);
}

ExtractionResult Extractor::ExtractSequential(const DatasetView& data,
                                              EventSink* sink) const {
  ExtractionResult stats;
  stats.total_chars = data.size_bytes();
  stats.total_lines = data.line_count();
  stats.records_per_template.assign(matchers_.size(), 0);
  std::string scratch;
  std::vector<MatchEvent> events;
  size_t li = 0;
  const size_t n = data.line_count();
  // The wave-flush invariant holds for the sequential scan too: OnWaveEnd
  // fires every wave_lines lines (the single-thread analogue of the
  // parallel path's stitched-wave boundary), so a buffering sink's state
  // is bounded by one wave of output regardless of thread count. Flush
  // boundaries never affect emitted bytes, only when they reach the OS.
  size_t chunk_lines = lines_per_chunk_;
  if (chunk_lines == 0) chunk_lines = AutoLinesPerChunk(n, 1);
  const size_t wave_lines = chunk_lines * 2;
  size_t next_wave = wave_lines;
  while (li < n) {
    li = EmitAt(data, li, sink, &stats, &scratch, &events);
    if (li >= next_wave) {
      if (sink != nullptr) sink->OnWaveEnd();
      do {
        next_wave += wave_lines;
      } while (next_wave <= li);
    }
  }
  if (sink != nullptr) sink->OnWaveEnd();
  return stats;
}

ExtractionResult Extractor::ExtractEvents(const DatasetView& data,
                                          EventSink* sink) const {
  const size_t n = data.line_count();
  const int threads = pool_ != nullptr ? pool_->thread_count() : 1;
  size_t chunk_lines = lines_per_chunk_;
  if (chunk_lines == 0) {
    chunk_lines = AutoLinesPerChunk(n, static_cast<size_t>(threads));
  }
  if (threads <= 1 || matchers_.empty() || n < 2 * chunk_lines) {
    return ExtractSequential(data, sink);
  }

  ExtractionResult stats;
  stats.total_chars = data.size_bytes();
  stats.total_lines = n;
  stats.records_per_template.assign(matchers_.size(), 0);

  // Waves bound the buffered state: at most `chunks_per_wave` chunks of
  // buffered events are alive at once, flushed to the sink in order before
  // the next wave is scanned.
  const size_t chunks_per_wave = static_cast<size_t>(threads) * 2;
  std::vector<ChunkScan> scans(chunks_per_wave);
  std::vector<std::string> chunk_scratch(chunks_per_wave);
  std::vector<std::vector<MatchEvent>> chunk_events(chunks_per_wave);
  std::string stitch_scratch;
  std::vector<MatchEvent> stitch_events;
  const std::string_view backing = data.dataset().text();

  size_t li = 0;  // stitched (authoritative) line position
  size_t wave_start = 0;
  while (wave_start < n) {
    const size_t wave_chunks = std::min(
        chunks_per_wave, (n - wave_start + chunk_lines - 1) / chunk_lines);

    pool_->ParallelFor(wave_chunks, [&](size_t k) {
      ChunkScan& cs = scans[k];
      cs.attempts.clear();
      cs.events.clear();
      cs.begin_line = wave_start + k * chunk_lines;
      cs.end_line = std::min(cs.begin_line + chunk_lines, n);
      size_t cli = cs.begin_line;
      while (cli < cs.end_line) {
        ChunkScan::Attempt attempt;
        attempt.line = cli;
        DatasetView::SpanText win;
        size_t match_end = 0;
        attempt.template_id = MatchAt(data, cli, &chunk_scratch[k],
                                      &chunk_events[k], &win, &match_end);
        if (attempt.template_id >= 0) {
          attempt.pos = win.pos;
          attempt.end = match_end;
          attempt.event_begin = static_cast<uint32_t>(cs.events.size());
          attempt.event_count = static_cast<uint32_t>(chunk_events[k].size());
          cs.events.insert(cs.events.end(), chunk_events[k].begin(),
                           chunk_events[k].end());
          if (win.assembled) {
            // The buffered event spans index into the scratch text: move it
            // into the attempt so later windows cannot overwrite it before
            // the stitch flushes this record.
            attempt.assembled_text = std::move(chunk_scratch[k]);
          }
          cli += static_cast<size_t>(
              spans_[static_cast<size_t>(attempt.template_id)]);
        } else {
          cli += 1;
        }
        cs.attempts.push_back(std::move(attempt));
      }
      cs.final_line = cli;
    });

    // Stitch this wave in order. The loop invariant `li >= cs.begin_line`
    // holds because stitching chunk k only finishes once li >= its
    // end_line, which is chunk k+1's begin_line.
    for (size_t k = 0; k < wave_chunks; ++k) {
      ChunkScan& cs = scans[k];
      while (li < cs.end_line) {
        auto it = std::lower_bound(
            cs.attempts.begin(), cs.attempts.end(), li,
            [](const ChunkScan::Attempt& a, size_t line) {
              return a.line < line;
            });
        if (it != cs.attempts.end() && it->line == li) {
          // Realigned with the speculative stream: splice the rest of the
          // chunk wholesale.
          for (auto j = it; j != cs.attempts.end(); ++j) {
            if (j->template_id >= 0) {
              stats.covered_chars += j->end - j->pos;
              stats.matched_records += 1;
              stats.records_per_template[static_cast<size_t>(
                  j->template_id)] += 1;
              if (sink != nullptr) {
                const std::string_view wtext =
                    j->assembled_text.empty()
                        ? backing
                        : std::string_view(j->assembled_text);
                sink->OnRecord(j->template_id, j->line, wtext, j->pos, j->end,
                               cs.events.data() + j->event_begin,
                               j->event_count);
              }
            } else {
              stats.noise_line_count += 1;
              if (sink != nullptr) sink->OnNoiseLine(j->line);
            }
          }
          li = cs.final_line;
        } else {
          // A record from an earlier chunk spilled into this one and the
          // speculative stream never attempted `li`; re-match lines until
          // the streams realign (or the chunk is exhausted).
          li = EmitAt(data, li, sink, &stats, &stitch_scratch,
                      &stitch_events);
        }
      }
    }
    if (sink != nullptr) sink->OnWaveEnd();
    wave_start += wave_chunks * chunk_lines;
  }
  return stats;
}

ExtractionResult Extractor::Extract(const DatasetView& data) const {
  ExtractionResult collected;
  CollectingSink sink(templates_, &spans_, &collected);
  ExtractionResult out = ExtractEvents(data, &sink);
  out.records = std::move(collected.records);
  out.noise_lines = std::move(collected.noise_lines);
  return out;
}

}  // namespace datamaran
