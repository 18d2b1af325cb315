#ifndef DATAMARAN_EXTRACTION_EXTRACTOR_H_
#define DATAMARAN_EXTRACTION_EXTRACTOR_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset.h"
#include "template/dispatch.h"
#include "template/matcher.h"
#include "template/template.h"

/// Whole-file extraction with the final structure templates (the canonical
/// LL(1) parse of Section 3.3). The scan walks the live lines of a
/// DatasetView; at each line the templates are tried in priority order —
/// dispatched through a TemplateSetIndex on the line's first byte, so only
/// templates whose FIRST set admits the line are attempted — the first
/// match emits one record and skips its span, and unmatched lines are
/// noise. Matching runs on the configured engine (compiled bytecode by
/// default; the tree walker reference via MatchEngine::kTree) with
/// byte-identical output either way. The usual input is the identity view of a full (possibly
/// mmap-backed) file, where every candidate window is matched in place on
/// the backing buffer — extraction of a multi-GB mapping therefore streams
/// through the file without ever materializing a copy. Gapped views (e.g. a
/// residual) are also supported: windows that straddle a gap are assembled
/// into a per-scan scratch buffer, exactly like the discovery stages.
///
/// This pass dominates total runtime for large files (Section 5.2.2) and is
/// embarrassingly chunk-parallel; given a thread pool this implementation
/// shards the view into line-range chunks, scans them speculatively in
/// parallel, and stitches the per-chunk results back together in order.
///
/// Stitching preserves the sequential semantics exactly: whether a record
/// *starts* at line k depends on earlier matches (a span-s record consumes
/// the next s-1 lines), but the match attempt itself is a pure function of
/// the text and the templates. Each chunk records the lines it attempted;
/// the sequential stitch walks chunks in order and, when the incoming line
/// position equals one of the chunk's attempted lines, splices the rest of
/// the chunk's speculative stream wholesale. When a long record spills
/// across a chunk boundary and desynchronizes the stream, the stitch
/// re-matches lines one by one until the positions realign. The emitted
/// record/noise sequence — and therefore every downstream artifact — is
/// byte-identical for every thread count, and identical between mmap-backed
/// and in-memory datasets.
///
/// Sink family. Records parse flat (template/matcher.h MatchEvent streams);
/// the scan buffers nothing but those events plus span bookkeeping, so peak
/// memory is O(wave), not O(file):
///
///  * EventSink is the one consumer contract: it receives each record's flat
///    event stream in scan order (ExtractEvents). The columnar writers in
///    extraction/sinks.h implement it to stream per-template denormalized
///    CSV/NDJSON rows or the normalized multi-table CSV layout, plus a
///    noise-line stream, straight to disk, never materializing a
///    ParsedValue, which is what keeps `datamaran_cli --out` O(wave) in
///    memory end to end on a mapped multi-GB file. A caller that only
///    wants counts passes a null sink (or a counting one): the returned
///    ExtractionResult carries the full line and per-template accounting
///    either way.
///  * Extract is the collecting convenience for tests, examples and the
///    paper benches: a private EventSink replays each event stream into a
///    ParsedValue (BuildParsedValue) and buffers every record — O(file)
///    memory, one scan implementation underneath.
///
/// Ordering and row-id rebase contract. Speculative chunks buffer raw
/// events only — they never see output row numbering, because a chunk
/// cannot know how many records (or normalized child rows) precede it
/// until the stitch runs. All numbering therefore happens at flush time:
/// OnRecord calls arrive strictly in sequential scan order, so a sink may
/// assign global ids by advancing its own counters per record — the
/// normalized writer rebases each record's record-relative row ids
/// (relational.h NormalizedRowBuilder) against per-table counters that
/// travel with this order-preserving stitch. This is what makes every
/// derived id byte-identical across thread counts without the chunks ever
/// coordinating.
///
/// Wave-flush invariants. OnWaveEnd fires (a) after each parallel wave is
/// stitched and flushed, (b) periodically on the sequential path at the
/// equivalent line cadence, and (c) once at end of scan — always between
/// records, never inside one, and on the stitching (sequential) thread.
/// A sink that flushes its buffers on every OnWaveEnd keeps its state
/// bounded by one wave of output; flush timing never changes the bytes
/// emitted.

namespace datamaran {

class ThreadPool;

struct ExtractedRecord {
  int template_id = 0;
  size_t begin = 0;
  size_t end = 0;
  size_t first_line = 0;
  int line_count = 1;
  ParsedValue value;
};

/// Flat-event streaming consumer of extraction outcomes — the primitive
/// sink the scan drives directly. Events arrive in scan order regardless of
/// the extractor's thread count; the emitted byte stream of any
/// deterministic writer is therefore identical for every thread count, both
/// match engines, and both dataset backings. Line indices are view indices
/// (== physical line indices for the identity view).
class EventSink {
 public:
  virtual ~EventSink() = default;

  /// One record: `events[0..num_events)` is its flat parse (field spans and
  /// array counts, spans indexing into `text`), `pos`/`end` the matched
  /// window [pos, end) within `text`. For in-place windows (always, on
  /// identity views) `text` is the backing buffer; a cross-gap window of a
  /// gapped view parses against transient scratch, so `text`, the spans and
  /// `pos` are only meaningful inside the callback.
  virtual void OnRecord(int template_id, size_t first_line,
                        std::string_view text, size_t pos, size_t end,
                        const MatchEvent* events, size_t num_events) = 0;

  virtual void OnNoiseLine(size_t /*line_index*/) {}

  /// Streaming noise hook: like OnNoiseLine, but carries the line text
  /// (trailing '\n' included) because a streaming caller has no
  /// whole-stream DatasetView for the index to resolve against; the view
  /// is only valid during the callback, and `line_index` is the global
  /// stream line number. The batch scan never calls this; the default
  /// forwards to OnNoiseLine so index-only sinks need no change.
  virtual void OnNoiseText(size_t line_index,
                           std::string_view /*line_with_newline*/) {
    OnNoiseLine(line_index);
  }

  /// Streaming evolution hook: drift re-discovery appended new templates
  /// to the live set (existing template ids are never renumbered). The
  /// pointers stay valid for the sink's lifetime; a file-writing sink
  /// opens the new types' tables here, mid-stream. Default: ignore.
  virtual void OnTemplatesAdded(
      const std::vector<const StructureTemplate*>& /*added*/) {}

  /// Called after each parallel wave is stitched, at the same line cadence
  /// on the sequential path, and once at end of scan — always between
  /// records: the hook where buffering writers flush, bounding their state
  /// to one wave of output. Flush timing never affects the emitted bytes.
  virtual void OnWaveEnd() {}
};

/// Extraction outcome: the scan's line and per-template accounting, plus
/// the collected records and noise lines (Extract only; empty otherwise).
struct ExtractionResult {
  std::vector<ExtractedRecord> records;
  std::vector<size_t> noise_lines;
  size_t covered_chars = 0;
  size_t total_chars = 0;
  /// Line-level accounting, filled by every scan path — including the
  /// streaming ones, whose records/noise_lines vectors stay empty. This is
  /// what lets a caller that extracted with catalog templates tell a clean
  /// hit from a drifted file (sample matched, tail did not) without
  /// collecting records: line_match_rate() is the whole-file analogue of
  /// the fingerprint's sample match rate.
  size_t total_lines = 0;
  size_t matched_records = 0;
  size_t noise_line_count = 0;
  /// Records emitted per template (indexed by template id, sized to the
  /// template count by every scan path). Like the other counters this is
  /// filled on streaming runs too — it is the per-template accounting the
  /// summary layer reports, independent of whether records were collected.
  std::vector<size_t> records_per_template;

  double coverage() const {
    return total_chars == 0
               ? 0
               : static_cast<double>(covered_chars) /
                     static_cast<double>(total_chars);
  }

  /// Fraction of input lines covered by matched records (an empty input
  /// counts as fully matched).
  double line_match_rate() const {
    return total_lines == 0
               ? 1.0
               : static_cast<double>(total_lines - noise_line_count) /
                     static_cast<double>(total_lines);
  }
};

class Extractor {
 public:
  /// `templates` in priority order (the pipeline's discovery order). The
  /// templates must outlive the extractor. When `pool` is non-null and has
  /// more than one thread, the streaming scans shard across it.
  /// `max_line_bytes` is the oversized-line guard: a match attempt at a
  /// line whose content exceeds the cap is refused outright, so the line is
  /// emitted as noise instead of being scanned or assembled into a record
  /// window (0 = unlimited). The same cap excludes such lines from the
  /// discovery sample (util/sampler.h), keeping the two phases consistent.
  /// `programs`, when non-null, is the parallel vector of persisted
  /// compiled-program blobs from a catalog entry (dispatch.h
  /// BuildMatchers): valid blobs skip template compilation, invalid ones
  /// compile fresh, output identical either way.
  explicit Extractor(const std::vector<StructureTemplate>* templates,
                     ThreadPool* pool = nullptr,
                     MatchEngine engine = MatchEngine::kCompiled,
                     CharsetEngine charset_engine = CharsetEngine::kSimd,
                     size_t max_line_bytes = 0,
                     const std::vector<std::string>* programs = nullptr);

  /// Streams each record's flat MatchEvent parse into `sink` in scan order;
  /// returns coverage statistics. This is the one scan implementation —
  /// Extract below is a collecting sink over it. Memory stays bounded in the
  /// parallel case too: chunks are processed in waves of a few per thread,
  /// each chunk buffering only events and span bookkeeping (no ParsedValue
  /// trees), flushed to the sink in stitched order before the next wave
  /// starts — peak memory is O(wave), not O(file).
  ExtractionResult ExtractEvents(const DatasetView& data,
                                 EventSink* sink) const;

  /// Collects every record (as a ParsedValue tree) and noise line in
  /// memory, plus the same accounting ExtractEvents returns. O(file)
  /// memory: streaming callers use ExtractEvents.
  ExtractionResult Extract(const DatasetView& data) const;

  /// Overrides the automatic chunk granularity (lines per parallel chunk);
  /// 0 restores the automatic choice. Exposed for tests and tuning.
  void set_lines_per_chunk(size_t lines) { lines_per_chunk_ = lines; }

 private:
  /// The pure first-match rule every scan shares: tries the templates the
  /// dispatch index admits for the line's first byte, in priority order, at
  /// view line `li`; on a match fills `*events` with the flat parse,
  /// `*win` with the resolved window (text/pos/assembled) and `*end` with
  /// one past the match, returning the template id; else returns -1
  /// (noise). Both the sequential scan and the parallel chunk scan go
  /// through this single helper — the byte-identical-output contract
  /// depends on there being exactly one copy of this policy. `scratch`
  /// backs cross-gap windows of gapped views (identity views never touch
  /// it); `events` is the caller's reused flat-parse buffer.
  int MatchAt(const DatasetView& data, size_t li, std::string* scratch,
              std::vector<MatchEvent>* events, DatasetView::SpanText* win,
              size_t* end) const;

  /// Applies MatchAt at line `li` and emits the outcome (one record or one
  /// noise line) to `sink`, updating `stats` counters; returns the next
  /// unconsumed line. Used by the sequential path and by the stitcher to
  /// re-synchronize across chunk-spill divergences.
  size_t EmitAt(const DatasetView& data, size_t li, EventSink* sink,
                ExtractionResult* stats, std::string* scratch,
                std::vector<MatchEvent>* events) const;

  ExtractionResult ExtractSequential(const DatasetView& data,
                                     EventSink* sink) const;

  const std::vector<StructureTemplate>* templates_;
  ThreadPool* pool_;
  std::vector<RecordMatcher> matchers_;
  TemplateSetIndex index_;
  std::vector<int> spans_;
  size_t lines_per_chunk_ = 0;
  size_t max_line_bytes_ = 0;
};

}  // namespace datamaran

#endif  // DATAMARAN_EXTRACTION_EXTRACTOR_H_
