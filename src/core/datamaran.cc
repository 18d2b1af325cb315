#include "core/datamaran.h"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/input.h"
#include "generation/generator.h"
#include "pruning/pruner.h"
#include "refinement/refiner.h"
#include "scoring/score_cache.h"
#include "template/dispatch.h"
#include "util/file_io.h"
#include "util/logging.h"
#include "util/sampler.h"
#include "util/timer.h"

namespace datamaran {

Datamaran::Datamaran(DatamaranOptions options)
    : options_(std::move(options)),
      scorer_(options_.match_engine, options_.charset_engine),
      pool_(std::make_unique<ThreadPool>(
          ThreadPool::ResolveThreadCount(options_.num_threads))) {
  if (options_.verbose) SetLogLevel(LogLevel::kInfo);
  if (!options_.catalog_in.empty()) {
    auto loaded = TemplateCatalog::Load(options_.catalog_in);
    if (loaded.ok()) {
      catalog_ = std::move(loaded.value());
      catalog_loaded_ = true;
    } else {
      // Sticky: ExtractFile surfaces this instead of running; the
      // PipelineResult-returning entry points fall back to cold discovery.
      catalog_status_ = loaded.status();
    }
  }
}

ResidualMask MaskMatchedLines(const DatasetView& view,
                              const StructureTemplate& st, ThreadPool* pool,
                              MatchEngine engine,
                              CharsetEngine charset_engine) {
  const size_t n = view.line_count();
  const size_t span = static_cast<size_t>(std::max(1, st.line_span()));
  const RecordMatcher matcher(&st, engine, charset_engine);

  // Phase 1 (parallel): the match attempt at each live line is a pure
  // function of (window text, template), so all n attempts fan out across
  // the pool; per-worker scratch backs the rare cross-gap window. Lines
  // whose first byte is outside the template's FIRST set are rejected
  // without resolving the window at all.
  std::vector<uint8_t> matched(n, 0);
  const int workers = pool != nullptr ? pool->thread_count() : 1;
  std::vector<std::string> scratch(static_cast<size_t>(workers));
  std::vector<size_t> assembled(static_cast<size_t>(workers), 0);
  ForEachIndex(pool, n, [&](size_t v, int worker) {
    const unsigned char first =
        static_cast<unsigned char>(view.line_with_newline(v).front());
    if (!matcher.CanStartWith(first)) return;
    std::string* buf = &scratch[static_cast<size_t>(worker)];
    const DatasetView::SpanText win = view.ResolveSpan(v, span, buf);
    if (win.assembled) {
      assembled[static_cast<size_t>(worker)] += win.text.size();
    }
    matched[v] = matcher.TryMatch(win.text, win.pos).has_value() ? 1 : 0;
  });

  // Phase 2 (sequential, O(live)): the greedy first-match walk — identical
  // to the sequential scan's skip rule — decides which attempts count,
  // then compacts the survivors' physical indices.
  ResidualMask out{view, {}, 0, 0};
  for (size_t w = 0; w < static_cast<size_t>(workers); ++w) {
    out.assembled_bytes += assembled[w];
  }
  std::vector<uint32_t> live;
  live.reserve(n);
  size_t v = 0;
  while (v < n) {
    if (matched[v] != 0) {
      for (size_t k = v; k < v + span; ++k) {
        out.removed_lines.push_back(
            static_cast<uint32_t>(view.physical_line(k)));
      }
      out.matched_records += 1;
      v += span;
    } else {
      live.push_back(static_cast<uint32_t>(view.physical_line(v)));
      ++v;
    }
  }
  out.view = DatasetView(view.dataset(), std::move(live));
  return out;
}

std::vector<StructureTemplate> Datamaran::DiscoverTemplates(
    const Dataset& data, StepTimings* timings, PipelineStats* stats,
    std::vector<TemplateReport>* reports) const {
  SamplerOptions sampler_opts;
  sampler_opts.max_sample_bytes = options_.max_sample_bytes;
  sampler_opts.num_chunks = options_.sample_chunks;
  sampler_opts.max_line_bytes = options_.max_line_bytes;
  DatasetView residual = SampleView(data, sampler_opts);
  if (stats != nullptr) stats->sample_bytes = residual.size_bytes();

  std::vector<StructureTemplate> accepted;
  const size_t initial_bytes = residual.size_bytes();

  // Cross-round score reuse: the backing buffer never moves, so line
  // identity is stable and cached scores stay exact (score_cache.h). The
  // caching decorator serves both the candidate-scoring loop below and the
  // Refiner's unfold variants.
  ScoreCache cache(options_.match_engine, options_.charset_engine);
  const CachingScorer cached_scorer(&scorer_,
                                    options_.enable_score_cache ? &cache
                                                                : nullptr);

  for (int round = 0; round < options_.max_record_types; ++round) {
    if (residual.size_bytes() <
        options_.min_residual_fraction * static_cast<double>(initial_bytes)) {
      break;
    }

    // --- Generation ---
    Timer gen_timer;
    CandidateGenerator generator(residual, &options_, pool_.get());
    GenerationResult gen = generator.Run();
    if (timings != nullptr) timings->generation_s += gen_timer.Seconds();
    if (stats != nullptr) {
      stats->charsets_tried += gen.charsets_tried;
      stats->candidates_generated += gen.candidates.size();
    }
    if (gen.candidates.empty()) break;

    // --- Pruning ---
    Timer prune_timer;
    std::vector<CandidateTemplate> retained =
        PruneCandidates(std::move(gen.candidates), options_.num_retained);
    if (timings != nullptr) timings->pruning_s += prune_timer.Seconds();

    // --- Evaluation ---
    Timer eval_timer;
    struct Scored {
      StructureTemplate st;
      double score;
      size_t rank;  // retained-candidate index: the deterministic tie-break
    };
    const size_t refine_k =
        static_cast<size_t>(std::max(1, options_.refine_top_k));
    const bool prune = options_.enable_mdl_pruning;
    // Candidates score in waves. Within a wave all work is parallel over
    // read-only shared state, so the pruning decisions are a pure function
    // of the candidate order — never of thread count or timing. After each
    // wave the threshold tightens to the kth-smallest exact total seen so
    // far (k = refine_top_k): a later candidate whose MDL lower bound
    // exceeds it is provably outside the final refinement top-K, because
    // the final kth-best total can only be smaller. The retained list
    // arrives best-first from assimilation pruning, so the opening wave is
    // sized to exactly k — the minimum that can establish a threshold —
    // and waves double up to kScoreWave from there: every candidate past
    // the first k gets a bounded scan, and most of the tail aborts within
    // a few scanned lines. The schedule is a fixed function of the
    // options, and wave partitioning never affects which candidates
    // survive, so output is byte-identical to brute force
    // (PruningExactnessTest).
    constexpr size_t kScoreWave = 32;
    struct Prepared {
      StructureTemplate plain;
      StructureTemplate unfolded;
      bool has_unfolded = false;
      bool valid = false;
    };
    std::vector<std::optional<Scored>> slots(retained.size());
    std::vector<Prepared> prepared(std::min(kScoreWave, retained.size()));
    // Unique canonicals of the current wave -> bounded score (nullopt =
    // proved above threshold). Deduping batches the plain/unfolded variants
    // that share a canonical structure, so each distinct structure walks
    // the sample once per wave regardless of how many candidates cite it.
    std::vector<std::pair<const StructureTemplate*, std::optional<double>>>
        unique_scores;
    std::unordered_map<std::string_view, size_t> unique_index;
    std::vector<std::array<size_t, 2>> variant_of;
    // Canonicals that pruned keep the threshold they failed against; the
    // threshold only tightens, so a re-request at an equal-or-tighter one
    // is answered without rescanning.
    std::unordered_map<std::string, double> pruned_at;
    std::vector<double> top_heap;  // max-heap of the k smallest exact totals
    double threshold = std::numeric_limits<double>::infinity();
    size_t wave_cap = prune ? std::min(refine_k, kScoreWave) : kScoreWave;
    size_t wave_start = 0;
    while (wave_start < retained.size()) {
      const size_t wave = std::min(wave_cap, retained.size() - wave_start);
      prepared.resize(wave);
      wave_cap = std::min(wave_cap * 2, kScoreWave);
      // Phase A (parallel): parse, validate, auto-unfold.
      ForEachIndex(pool_.get(), wave, [&](size_t k, int) {
        Prepared& prep = prepared[k];
        prep = Prepared{};
        const CandidateTemplate& cand = retained[wave_start + k];
        auto parsed = StructureTemplate::FromCanonical(cand.canonical);
        if (!parsed.ok()) return;
        prep.plain = std::move(parsed.value());
        if (!prep.plain.Validate().ok()) return;
        prep.valid = true;
        // Score the candidate in its most-typed form: constant-count
        // arrays are unfolded first, otherwise a template whose payoff
        // only shows after unfolding (e.g. "(F;)*F" for a fixed-width
        // table) would rank below the trivial template and never reach
        // refinement.
        if (prep.plain.array_count() > 0) {
          prep.unfolded = AutoUnfoldConstantArrays(
              residual, prep.plain, /*max_passes=*/4, options_.match_engine,
              options_.charset_engine);
          prep.has_unfolded =
              prep.unfolded.canonical() != prep.plain.canonical();
        }
      });
      // Phase B (sequential): collect the wave's unique canonicals. The
      // string_view keys alias `prepared`, which is stable until phase D.
      unique_scores.clear();
      unique_index.clear();
      variant_of.assign(wave, {SIZE_MAX, SIZE_MAX});
      auto add_unique = [&](const StructureTemplate* st) {
        auto [it, fresh] =
            unique_index.emplace(st->canonical(), unique_scores.size());
        if (fresh) unique_scores.emplace_back(st, std::nullopt);
        return it->second;
      };
      for (size_t k = 0; k < wave; ++k) {
        if (!prepared[k].valid) continue;
        variant_of[k][0] = add_unique(&prepared[k].plain);
        if (prepared[k].has_unfolded) {
          variant_of[k][1] = add_unique(&prepared[k].unfolded);
        }
      }
      // Phase C (parallel): one bounded evaluation per unique canonical.
      ForEachIndex(pool_.get(), unique_scores.size(), [&](size_t u, int) {
        const StructureTemplate* st = unique_scores[u].first;
        if (!prune) {
          unique_scores[u].second = cached_scorer.Score(residual, *st);
          return;
        }
        auto memo = pruned_at.find(std::string(st->canonical()));
        if (memo != pruned_at.end() && threshold <= memo->second) {
          return;  // pruned before at a looser-or-equal threshold
        }
        unique_scores[u].second =
            cached_scorer.ScoreBounded(residual, *st, threshold);
      });
      // Phase D (sequential, candidate order): variant choice and
      // threshold/memo updates. A candidate survives only when its exact
      // score is determined: both variants exact -> min (ties keep plain,
      // like the brute-force `unfolded < plain` test); one exact at or
      // under the threshold while the other pruned -> the exact one wins
      // outright (the pruned variant's true total is strictly above the
      // threshold); anything else is provably above the threshold, hence
      // outside the top-K — drop it.
      for (size_t k = 0; k < wave; ++k) {
        if (!prepared[k].valid) continue;
        Prepared& prep = prepared[k];
        const std::optional<double>& plain_score =
            unique_scores[variant_of[k][0]].second;
        const std::optional<double> unfolded_score =
            variant_of[k][1] != SIZE_MAX
                ? unique_scores[variant_of[k][1]].second
                : std::nullopt;
        std::optional<Scored> pick;
        const size_t rank = wave_start + k;
        if (plain_score.has_value() && unfolded_score.has_value()) {
          pick = *unfolded_score < *plain_score
                     ? Scored{std::move(prep.unfolded), *unfolded_score, rank}
                     : Scored{std::move(prep.plain), *plain_score, rank};
        } else if (plain_score.has_value() && !prep.has_unfolded) {
          pick = Scored{std::move(prep.plain), *plain_score, rank};
        } else if (plain_score.has_value() && *plain_score <= threshold) {
          pick = Scored{std::move(prep.plain), *plain_score, rank};
        } else if (unfolded_score.has_value() &&
                   *unfolded_score <= threshold) {
          pick = Scored{std::move(prep.unfolded), *unfolded_score, rank};
        }
        if (!pick.has_value()) {
          if (stats != nullptr) stats->candidates_pruned++;
          continue;
        }
        if (stats != nullptr) stats->candidates_evaluated++;
        const double score = pick->score;
        slots[rank] = std::move(pick);
        if (top_heap.size() < refine_k) {
          top_heap.push_back(score);
          std::push_heap(top_heap.begin(), top_heap.end());
        } else if (score < top_heap.front()) {
          std::pop_heap(top_heap.begin(), top_heap.end());
          top_heap.back() = score;
          std::push_heap(top_heap.begin(), top_heap.end());
        }
      }
      for (const auto& [st, sc] : unique_scores) {
        if (prune && !sc.has_value()) {
          double& bound = pruned_at[std::string(st->canonical())];
          bound = std::max(bound, threshold);
        }
      }
      if (prune && top_heap.size() == refine_k) {
        threshold = top_heap.front();
      }
      wave_start += wave;
    }
    std::vector<Scored> scored;
    scored.reserve(retained.size());
    for (std::optional<Scored>& slot : slots) {
      if (!slot.has_value()) continue;
      scored.push_back(std::move(*slot));
    }
    if (scored.empty()) {
      if (timings != nullptr) timings->evaluation_s += eval_timer.Seconds();
      break;
    }
    // Total order (score, then retained rank): ties at the top-K boundary
    // resolve identically whether or not later candidates were pruned.
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) {
                return a.score != b.score ? a.score < b.score
                                          : a.rank < b.rank;
              });

    if (timings != nullptr) timings->evaluation_s += eval_timer.Seconds();

    // --- Refinement: refine the best few candidates, then pick the best
    // refined score. Unfolding changes relative order (it exposes
    // per-column types), so refining only the unrefined winner would let
    // overly generic templates that merge record types slip through.
    Timer refine_timer;
    Refiner refiner(residual, &cached_scorer, &options_);
    size_t refine_count = std::min(
        scored.size(), static_cast<size_t>(std::max(1, options_.refine_top_k)));
    // Refinements are independent; the winner is picked by a strict-less
    // scan in rank order, the same tie-break as the sequential loop.
    std::vector<Refiner::Refined> refined_slots(refine_count);
    ForEachIndex(pool_.get(), refine_count, [&](size_t k, int) {
      refined_slots[k] = refiner.Refine(scored[k].st);
    });
    Refiner::Refined refined{scored[0].st, scored[0].score};
    bool have_refined = false;
    for (size_t k = 0; k < refine_count; ++k) {
      if (!have_refined || refined_slots[k].score < refined.score) {
        refined = std::move(refined_slots[k]);
        have_refined = true;
      }
    }

    if (timings != nullptr) timings->refinement_s += refine_timer.Seconds();

    // Accept only if the structure beats describing the residual as noise.
    Timer accept_timer;
    MdlBreakdown breakdown = scorer_.Evaluate(residual, refined.st);
    if (timings != nullptr) timings->evaluation_s += accept_timer.Seconds();
    if (breakdown.total_bits >
        breakdown.noise_only_bits * (1 - options_.min_mdl_gain)) {
      DM_LOG(kInfo, "round %d: best template rejected (%.0f vs noise %.0f)",
             round, breakdown.total_bits, breakdown.noise_only_bits);
      break;
    }
    DM_LOG(kInfo, "round %d: accepted %s (%.0f bits, %zu records)", round,
           refined.st.Display().c_str(), breakdown.total_bits,
           breakdown.records);
    if (reports != nullptr) {
      TemplateReport report;
      report.st = refined.st;
      report.mdl_bits = breakdown.total_bits;
      report.noise_only_bits = breakdown.noise_only_bits;
      report.sample_records = breakdown.records;
      report.sample_coverage =
          residual.size_bytes() == 0
              ? 0
              : static_cast<double>(breakdown.covered_chars) /
                    static_cast<double>(residual.size_bytes());
      reports->push_back(std::move(report));
    }
    accepted.push_back(refined.st);
    if (stats != nullptr) stats->rounds = round + 1;

    // --- Residual for the next round: index-only mask-and-compact ---
    ResidualMask mask = MaskMatchedLines(residual, refined.st, pool_.get(),
                                         options_.match_engine,
                                         options_.charset_engine);
    if (stats != nullptr) stats->residual_copy_bytes += mask.assembled_bytes;
    if (mask.removed_lines.empty()) break;  // nothing matched
    residual = std::move(mask.view);
    // Adjacency-aware invalidation (score_cache.h): entries whose matched
    // windows are untouched by the shrink — including multi-line ones —
    // survive into the next round.
    cache.InvalidateRemovedLines(mask.removed_lines, residual);
  }
  if (stats != nullptr) {
    stats->score_cache_hits = cache.hits();
    stats->score_cache_misses = cache.misses();
  }
  return accepted;
}

PipelineResult Datamaran::Discover(const Dataset& data) const {
  PipelineResult result;
  Timer total_timer;
  // Discovery touches scattered sample chunks of a mapped file; the final
  // scan (Extract) streams through it once. Both hints are best-effort
  // no-ops for owned backings and platforms without madvise.
  data.Advise(AccessHint::kRandom);

  // Catalog fast path: fingerprint a sample against the loaded catalog
  // first. A hit serves the stored templates — discovery is skipped
  // entirely, and because the canonical forms round-trip exactly and the
  // extractor is a pure function of (templates, input), the output is
  // byte-identical to the fresh-discovery run that produced the entry.
  const bool use_catalog =
      catalog_loaded_ || !options_.catalog_out.empty();
  if (use_catalog) {
    Timer match_timer;
    CatalogMatchOptions match_opts;
    match_opts.min_match = options_.catalog_min_match;
    match_opts.min_mdl_gain = options_.min_mdl_gain;
    match_opts.max_sample_bytes = options_.max_sample_bytes;
    match_opts.sample_chunks = options_.sample_chunks;
    match_opts.max_line_bytes = options_.max_line_bytes;
    match_opts.match_engine = options_.match_engine;
    match_opts.charset_engine = options_.charset_engine;
    std::lock_guard<std::mutex> lock(catalog_mu_);
    if (!catalog_.empty()) {
      result.stats.catalog_checked = true;
      const CatalogMatch match = MatchCatalog(catalog_, data, match_opts);
      result.timings.catalog_match_s = match_timer.Seconds();
      if (match.hit()) {
        const CatalogEntry& entry =
            catalog_.entry(static_cast<size_t>(match.entry));
        result.templates = entry.templates;
        result.programs = entry.programs;
        result.stats.catalog_hit = true;
        result.stats.catalog_entry = match.entry;
        result.stats.catalog_match_rate = match.match_rate;
        for (size_t t = 0; t < entry.templates.size(); ++t) {
          TemplateReport report;
          report.st = entry.templates[t];
          report.mdl_bits = entry.meta[t].mdl_bits;
          report.noise_only_bits = entry.meta[t].noise_only_bits;
          report.sample_records = entry.meta[t].sample_records;
          report.sample_coverage = entry.meta[t].sample_coverage;
          result.reports.push_back(std::move(report));
        }
        DM_LOG(kInfo, "catalog hit: entry %d (%s), %.1f%% of sample lines",
               match.entry, entry.name.c_str(), match.match_rate * 100);
      }
    }
  }

  if (!result.stats.catalog_hit) {
    result.templates = DiscoverTemplates(data, &result.timings, &result.stats,
                                         &result.reports);
    // Fold the cold-discovered format back into the catalog so later files
    // of the same format (this process or, via catalog_out, any later run)
    // hit. AddEntry dedups by template-set signature.
    if (use_catalog && !result.templates.empty()) {
      CatalogEntry entry;
      entry.templates = result.templates;
      for (const TemplateReport& report : result.reports) {
        CatalogTemplateMeta meta;
        meta.mdl_bits = report.mdl_bits;
        meta.noise_only_bits = report.noise_only_bits;
        meta.sample_records = report.sample_records;
        meta.sample_coverage = report.sample_coverage;
        entry.meta.push_back(meta);
      }
      std::lock_guard<std::mutex> lock(catalog_mu_);
      catalog_.AddEntry(std::move(entry));
    }
  }
  if (!options_.catalog_out.empty()) {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    const Status saved = catalog_.Save(options_.catalog_out,
                                       CatalogSaveOptions{options_.catalog_merge});
    if (!saved.ok()) {
      DM_LOG(kWarning, "catalog save to %s failed: %s",
             options_.catalog_out.c_str(), saved.ToString().c_str());
    }
  }

  result.timings.total_s = total_timer.Seconds();
  result.stats.input_bytes = data.size_bytes();
  result.stats.input_mapped = data.is_mapped();
  return result;
}

Extractor Datamaran::MakeExtractor(const PipelineResult& result) const {
  return Extractor(&result.templates, pool_.get(), options_.match_engine,
                   options_.charset_engine, options_.max_line_bytes,
                   result.programs.empty() ? nullptr : &result.programs);
}

void Datamaran::FinishScan(const Dataset& data, double scan_s,
                           PipelineResult* result) const {
  data.Advise(AccessHint::kNormal);
  result->timings.extraction_s = scan_s;
  result->timings.total_s += scan_s;
  result->stats.input_resident_bytes = data.resident_bytes();
}

void Datamaran::Extract(const Dataset& data, EventSink* sink,
                        PipelineResult* result) const {
  Timer timer;
  data.Advise(AccessHint::kSequential);
  result->extraction =
      MakeExtractor(*result).ExtractEvents(DatasetView(data), sink);
  FinishScan(data, timer.Seconds(), result);
}

PipelineResult Datamaran::ExtractDataset(const Dataset& data) const {
  PipelineResult result = Discover(data);
  Timer timer;
  data.Advise(AccessHint::kSequential);
  result.extraction = MakeExtractor(result).Extract(DatasetView(data));
  FinishScan(data, timer.Seconds(), &result);
  return result;
}

PipelineResult Datamaran::ExtractText(std::string text) const {
  Dataset data(std::move(text));
  return ExtractDataset(data);
}

Result<PipelineResult> Datamaran::ExtractFile(const std::string& path) const {
  // A requested catalog that failed to load is an input error, not a
  // silent fall-back to cold discovery.
  if (!catalog_status_.ok()) return catalog_status_;
  // The resilient front-end (core/input.h): gzip sniff + inflate, CRLF
  // normalization, descriptive error Status on corrupt/truncated input.
  // Plain clean files keep the mmap fast path.
  auto data = OpenInput(path, MakeInputOptions(options_));
  if (!data.ok()) return data.status();
  return ExtractDataset(data.value());
}

}  // namespace datamaran
