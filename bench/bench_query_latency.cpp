// E3 — Use-case query latency on a 25k-node history.
//
// Paper (section 4): "These queries complete in less than 200ms in the
// majority of cases and can be bound to that time in the remaining
// cases."
//
// Runs each of the four use-case queries many times with varied inputs
// over the standard 79-day fixture; reports latency percentiles, then
// repeats with a 200ms QueryBudget to demonstrate the bound (anytime
// results, truncated flag instead of overrun).
#include "bench/common.hpp"
#include "prov/provenance_db.hpp"
#include "search/lineage.hpp"
#include "search/personalize.hpp"
#include "search/time_context.hpp"

int main(int argc, char** argv) {
  using namespace bp;
  using namespace bp::bench;
  Init(argc, argv, "bench_query_latency");

  Header("E3", "query latency for all four use cases",
         "< 200 ms in the majority of cases; boundable to 200 ms otherwise");

  auto fx = HistoryFixture::Build({});
  Row("history: %llu prov nodes, %llu edges",
      (unsigned long long)*fx->prov->NodeCount(),
      (unsigned long long)*fx->prov->EdgeCount());

  // Query inputs drawn from the user's own activity.
  std::vector<std::string> queries;
  for (const auto& episode : fx->out.searches) {
    queries.push_back(episode.query);
    if (queries.size() >= 40) break;
  }
  std::vector<prov::NodeId> downloads;
  for (const auto& episode : fx->out.downloads) {
    auto it = fx->prov_recorder->download_map().find(episode.download_id);
    if (it != fx->prov_recorder->download_map().end()) {
      downloads.push_back(it->second);
    }
    if (downloads.size() >= 40) break;
  }

  // Warm the interval index once (it is built lazily and cached).
  (void)fx->prov->VisitIntervals();

  struct Timing {
    std::string name;
    std::vector<double> ms;
    uint64_t truncated = 0;
  };
  auto run_suite = [&](bool budgeted) {
    std::vector<Timing> timings;
    {
      Timing t{"2.1 contextual history search", {}, 0};
      for (const std::string& query : queries) {
        util::QueryBudget budget = util::QueryBudget::WithDeadlineMs(200);
        search::ContextualSearchOptions options;
        if (budgeted) options.budget = &budget;
        util::Stopwatch watch;
        auto result =
            MustOk(fx->searcher->ContextualSearch(query, options), "uc1");
        t.ms.push_back(watch.ElapsedMs());
        if (result.truncated) ++t.truncated;
      }
      timings.push_back(std::move(t));
    }
    {
      Timing t{"2.2 personalized web search", {}, 0};
      for (const std::string& query : queries) {
        util::QueryBudget budget = util::QueryBudget::WithDeadlineMs(200);
        search::PersonalizeOptions options;
        if (budgeted) options.contextual.budget = &budget;
        util::Stopwatch watch;
        auto result =
            MustOk(search::PersonalizeQuery(*fx->searcher, query, options),
                   "uc2");
        t.ms.push_back(watch.ElapsedMs());
        if (result.truncated) ++t.truncated;
      }
      timings.push_back(std::move(t));
    }
    {
      Timing t{"2.3 time-contextual search", {}, 0};
      for (size_t i = 0; i + 1 < queries.size(); i += 2) {
        util::QueryBudget budget = util::QueryBudget::WithDeadlineMs(200);
        search::TimeContextOptions options;
        if (budgeted) options.budget = &budget;
        util::Stopwatch watch;
        auto result = MustOk(
            search::TimeContextualSearch(*fx->searcher, queries[i],
                                         queries[i + 1], options),
            "uc3");
        t.ms.push_back(watch.ElapsedMs());
        if (result.truncated) ++t.truncated;
      }
      timings.push_back(std::move(t));
    }
    {
      Timing t{"2.4 download lineage", {}, 0};
      for (prov::NodeId download : downloads) {
        util::QueryBudget budget = util::QueryBudget::WithDeadlineMs(200);
        search::LineageOptions options;
        if (budgeted) options.budget = &budget;
        util::Stopwatch watch;
        auto report =
            MustOk(search::TraceDownload(*fx->prov, download, options),
                   "uc4");
        t.ms.push_back(watch.ElapsedMs());
        if (report.truncated) ++t.truncated;
      }
      timings.push_back(std::move(t));
    }
    return timings;
  };

  for (bool budgeted : {false, true}) {
    Blank();
    Row("%s", budgeted
                  ? "WITH 200ms QueryBudget (anytime bound, paper's remedy)"
                  : "UNBOUNDED (natural latency)");
    Row("%-32s %6s %8s %8s %8s %8s %6s %10s", "query", "runs", "p50 ms",
        "p90 ms", "p99 ms", "max ms", "<200ms", "truncated");
    int suite_index = 0;
    for (const Timing& t : run_suite(budgeted)) {
      Percentiles p = ComputePercentiles(t.ms);
      uint64_t under = 0;
      for (double ms : t.ms) {
        if (ms < 200.0) ++under;
      }
      Row("%-32s %6zu %8.2f %8.2f %8.2f %8.2f %5.0f%% %10llu",
          t.name.c_str(), t.ms.size(), p.p50, p.p90, p.p99, p.max,
          100.0 * static_cast<double>(under) /
              static_cast<double>(t.ms.empty() ? 1 : t.ms.size()),
          (unsigned long long)t.truncated);
      ++suite_index;
      // uc2_1 .. uc2_4 = paper use cases 2.1 .. 2.4. Full percentile
      // family so bench_diff.py can watch the tail, not just the median.
      MetricPercentiles(util::StrFormat("uc2_%d_%s_ms", suite_index,
                                        budgeted ? "budgeted" : "unbounded"),
                        p);
    }
  }

  // ---- QueryStats: every query now reports the work it performed.
  {
    Blank();
    Row("QueryStats sample (contextual search, first query):");
    auto result =
        MustOk(fx->searcher->ContextualSearch(queries.front(), {}), "stats");
    Row("  \"%s\": %s", queries.front().c_str(),
        result.stats.ToString().c_str());
    Metric("uc1_sample_rows_scanned",
           static_cast<double>(result.stats.rows_scanned));
    Metric("uc1_sample_edges_expanded",
           static_cast<double>(result.stats.edges_expanded));
  }

  // ---- Cursor read path vs the deprecated callback wrappers.
  //
  // Same physical work (walk every adjacency of every node, both
  // directions); the callback path pays a type-erased call and a full
  // Edge materialization (AttrMap decode + per-attr allocations) per
  // edge, the cursor path decodes lazily and only touches the varint
  // prefix. The tentpole acceptance: cursors at parity or faster.
  {
    Blank();
    Row("edge iteration: cursor (lazy decode) vs callback (materialize)");
    const uint64_t node_count = *fx->prov->NodeCount();
    const int kRounds = 3;
    uint64_t edges_callback = 0, edges_cursor = 0;
    uint64_t kind_sum_callback = 0, kind_sum_cursor = 0;

    util::Stopwatch callback_watch;
    for (int round = 0; round < kRounds; ++round) {
      for (graph::NodeId node = 1; node <= node_count; ++node) {
        for (auto dir : {graph::Direction::kOut, graph::Direction::kIn}) {
          MustOk(fx->prov->graph().ForEachEdge(
                     node, dir,
                     [&](const graph::Edge& edge) {
                       ++edges_callback;
                       kind_sum_callback += edge.kind;
                       return true;
                     }),
                 "callback iteration");
        }
      }
    }
    const double callback_ms = callback_watch.ElapsedMs();

    util::Stopwatch cursor_watch;
    for (int round = 0; round < kRounds; ++round) {
      for (graph::NodeId node = 1; node <= node_count; ++node) {
        for (auto dir : {graph::Direction::kOut, graph::Direction::kIn}) {
          graph::EdgeCursor cur = fx->prov->graph().Edges(node, dir);
          for (; cur.Valid(); cur.Next()) {
            ++edges_cursor;
            kind_sum_cursor += cur.edge().kind();
          }
          MustOk(cur.status(), "cursor iteration");
        }
      }
    }
    const double cursor_ms = cursor_watch.ElapsedMs();
    BP_CHECK(edges_cursor == edges_callback &&
                 kind_sum_cursor == kind_sum_callback,
             "cursor and callback paths disagree");

    const double callback_eps =
        callback_ms > 0 ? 1000.0 * edges_callback / callback_ms : 0;
    const double cursor_eps =
        cursor_ms > 0 ? 1000.0 * edges_cursor / cursor_ms : 0;
    Row("  callback: %10llu edges in %8.1f ms  (%12.0f edges/s)",
        (unsigned long long)edges_callback, callback_ms, callback_eps);
    Row("  cursor:   %10llu edges in %8.1f ms  (%12.0f edges/s)",
        (unsigned long long)edges_cursor, cursor_ms, cursor_eps);
    Row("  speedup: %.2fx (acceptance: >= 1.0x, lazy decode should win)",
        callback_ms > 0 && cursor_ms > 0 ? callback_ms / cursor_ms : 0.0);
    Metric("edge_iter_callback_edges_per_sec", callback_eps);
    Metric("edge_iter_cursor_edges_per_sec", cursor_eps);
    Metric("edge_iter_cursor_speedup",
           cursor_ms > 0 ? callback_ms / cursor_ms : 0.0);
  }

  // ---- Shared buffer pool: repeated one-shot queries, cold open.
  //
  // Every one-shot facade query opens a fresh snapshot. Before the
  // shared pool, each snapshot carried a private copy-on-read cache,
  // so EVERY query cold-read its working set from the database; with
  // the pool, only the first touch of a page image pays storage —
  // successive queries run warm no matter how many snapshots come and
  // go.
  //
  // Modeled like the paper's forensics pattern: ingest a history, CLOSE
  // it, reopen the file cold, and interrogate it with repeated one-shot
  // queries. Reads are charged kColdReadUs per page (MemEnv read-cost
  // model, same device-time technique as bench_wal_commit's fsync cost
  // and E12's kModeledSync) — an NVMe-class cache-cold 4 KiB read; a
  // laptop SSD or a spinning disk is slower, so the pool's win here is
  // the conservative end. Acceptance: warm passes >= 2x the cold /
  // per-snapshot baseline.
  {
    constexpr uint32_t kColdReadUs = 20;
    Blank();
    Row("one-shot facade queries, repeated (WAL, cold-open history,");
    Row("modeled %u us/page cold reads):", kColdReadUs);
    const int kPasses = 3;
    struct OneShotRun {
      std::vector<double> pass_ms;
      std::vector<double> query_ms;  // per-query samples, warm passes only
      uint64_t pool_hits = 0;
      uint64_t pool_misses = 0;
      uint64_t pages_fetched = 0;
    };
    auto run_config = [&](size_t pool_bytes) {
      storage::MemEnv env;
      prov::ProvenanceDb::Options options;
      options.db.env = &env;
      options.db.sync = false;  // measuring the read path, not fsync
      options.db.pool_bytes = pool_bytes;

      std::vector<std::string> qs(
          queries.begin(),
          queries.begin() + std::min<size_t>(queries.size(), 16));
      std::vector<prov::NodeId> dls;
      {
        // Build the history, then close it cleanly (folds the WAL).
        auto writer = MustOk(prov::ProvenanceDb::Open("oneshot.db", options),
                             "open one-shot writer");
        MustOk(writer->IngestAll(fx->out.events), "one-shot ingest");
        for (const auto& episode : fx->out.downloads) {
          auto it =
              writer->recorder().download_map().find(episode.download_id);
          if (it != writer->recorder().download_map().end()) {
            dls.push_back(it->second);
          }
          if (dls.size() >= 16) break;
        }
        // Build the text index before closing so reopened queries need
        // no writes (the forensics reader interrogates, never ingests).
        MustOk(writer->Search(qs.empty() ? "page" : qs[0]).status(),
               "index build");
      }

      // Reopen cold: empty caches, empty pool, device-priced reads.
      env.set_read_cost_us(kColdReadUs);
      auto db = MustOk(prov::ProvenanceDb::Open("oneshot.db", options),
                       "reopen one-shot facade");
      OneShotRun run;
      for (int pass = 0; pass < kPasses; ++pass) {
        // Per-query samples from warm passes only: pass 0 is the pool
        // fill, and mixing fill faults into the distribution would hide
        // a warm-path regression behind cold-read noise.
        const bool sample = pass > 0;
        util::Stopwatch watch;
        for (const std::string& q : qs) {
          util::Stopwatch one;
          MustOk(db->Search(q).status(), "one-shot search");
          if (sample) run.query_ms.push_back(one.ElapsedMs());
        }
        for (prov::NodeId dl : dls) {
          util::Stopwatch one;
          MustOk(db->TraceDownload(dl).status(), "one-shot lineage");
          if (sample) run.query_ms.push_back(one.ElapsedMs());
        }
        run.pass_ms.push_back(watch.ElapsedMs());
      }
      storage::PagerStats stats = db->storage_stats();
      run.pool_hits = stats.pool_hits;
      run.pool_misses = stats.pool_misses;
      run.pages_fetched = stats.snapshot_pages_read;
      return run;
    };

    OneShotRun private_cache = run_config(/*pool_bytes=*/0);
    OneShotRun pooled = run_config(/*pool_bytes=*/size_t{256} << 20);

    // Per-snapshot baseline: its best (min) pass — most favorable to
    // the old design (every pass re-reads, so they are all "warm" in
    // the only sense that design supports). Warm: the pool's best
    // post-cold pass.
    double baseline_ms = private_cache.pass_ms[0];
    for (double ms : private_cache.pass_ms) {
      baseline_ms = std::min(baseline_ms, ms);
    }
    const double cold_ms = pooled.pass_ms[0];
    double warm_ms = pooled.pass_ms[1];
    for (size_t i = 1; i < pooled.pass_ms.size(); ++i) {
      warm_ms = std::min(warm_ms, pooled.pass_ms[i]);
    }
    // The cold/per-snapshot baseline IS the old design: with a private
    // cache per snapshot, every one-shot query re-reads its working
    // set, so every pass is as cold as the first. Pass 1 of the pooled
    // run is already partially warm — queries within the pass share
    // frames from the moment the first query faulted them in — which is
    // exactly the effect being measured.
    Row("  cold / per-snapshot baseline:  best pass %8.1f ms", baseline_ms);
    Row("  shared pool, pass 1 (filling):            %8.1f ms", cold_ms);
    Row("  shared pool, warm passes:                 %8.1f ms", warm_ms);
    Row("  warm speedup vs cold baseline: %.2fx (acceptance: >= 2x)",
        warm_ms > 0 ? baseline_ms / warm_ms : 0.0);
    Row("  warm speedup vs pass 1:        %.2fx", warm_ms > 0 ? cold_ms / warm_ms : 0.0);
    Row("  pool: %llu hits, %llu misses over %d passes "
        "(baseline re-fetched %llu pages)",
        (unsigned long long)pooled.pool_hits,
        (unsigned long long)pooled.pool_misses, kPasses,
        (unsigned long long)private_cache.pages_fetched);
    Metric("oneshot_cold_baseline_ms", baseline_ms);
    Metric("oneshot_pool_pass1_ms", cold_ms);
    Metric("oneshot_pool_warm_ms", warm_ms);
    Metric("oneshot_warm_speedup",
           warm_ms > 0 ? baseline_ms / warm_ms : 0.0);
    Metric("oneshot_pool_hits", static_cast<double>(pooled.pool_hits));
    Metric("oneshot_pool_misses", static_cast<double>(pooled.pool_misses));
    // Per-query warm latency distribution — the acceptance gate for the
    // read path's tail (bench_diff.py tracks p50/p99 at loose tolerance).
    MetricPercentiles("oneshot_query_ms",
                      ComputePercentiles(std::move(pooled.query_ms)));
    // Engine-side view of the same queries through the registry
    // histograms (every one-shot facade call above recorded into
    // bp_query_us): cross-checks that the instrumentation fired.
    MetricObsHistogram("obs_query_search_us", QueryLatencyHistogram("search"));
    MetricObsHistogram("obs_query_trace_us",
                       QueryLatencyHistogram("trace_download"));
  }

  // ---- Reopen stability: the same answers from every open.
  //
  // A profile is reopened at every browser start and by every tool that
  // interrogates it. The text index persists its watermark with its
  // postings, so a clean reopen must index nothing, commit nothing, and
  // answer every query exactly as before the close. Counts the fixed
  // (family, query) pairs whose answer, scores included, is identical
  // across 3 reopens. Each open asks 16 one-shot TimeContext queries of
  // one committed state, so the visit-interval index must be built
  // once per open: 4 builds in all.
  {
    storage::MemEnv env;
    prov::ProvenanceDb::Options options;
    options.db.env = &env;
    options.db.sync = false;
    std::vector<std::string> qs(
        queries.begin(),
        queries.begin() + std::min<size_t>(queries.size(), 16));
    auto answers = [&](prov::ProvenanceDb& db) {
      std::vector<std::string> out;
      for (size_t i = 0; i < qs.size(); ++i) {
        std::string a = "search";
        for (const auto& page :
             MustOk(db.Search(qs[i]), "reopen search").pages) {
          a += util::StrFormat(" %llu=%a", (unsigned long long)page.page,
                               page.total);
        }
        out.push_back(a);
        auto personalized = MustOk(db.Personalize(qs[i]), "reopen personalize");
        a = "personalize " + personalized.AugmentedQuery();
        for (const auto& candidate : personalized.candidates) {
          a += util::StrFormat(" %s=%a", candidate.term.c_str(),
                               candidate.score);
        }
        out.push_back(a);
        a = "time";
        for (const auto& match :
             MustOk(db.TimeContext(qs[i], qs[(i + 1) % qs.size()]),
                    "reopen time context")
                 .matches) {
          a += util::StrFormat(" %llu=%a", (unsigned long long)match.page.page,
                               match.page.total);
        }
        out.push_back(a);
      }
      return out;
    };
    std::vector<std::string> first;
    uint64_t interval_builds = 0;
    {
      auto writer = MustOk(prov::ProvenanceDb::Open("reopen.db", options),
                           "open reopen writer");
      MustOk(writer->IngestAll(fx->out.events), "reopen ingest");
      first = answers(*writer);
      interval_builds += writer->store().interval_index_builds();
    }
    std::vector<bool> stable(first.size(), true);
    uint64_t open_commits = 0;
    for (int reopen = 0; reopen < 3; ++reopen) {
      auto db = MustOk(prov::ProvenanceDb::Open("reopen.db", options),
                       "reopen");
      open_commits += db->storage_stats().commits;
      std::vector<std::string> again = answers(*db);
      interval_builds += db->store().interval_index_builds();
      for (size_t i = 0; i < first.size(); ++i) {
        if (again[i] != first[i]) stable[i] = false;
      }
    }
    const auto stable_count = std::count(stable.begin(), stable.end(), true);
    Blank();
    Row("reopen stability (3 clean reopens of the closed history):");
    Row("  %lld of %zu fixed queries answered identically; %llu commits "
        "during the reopens' Open",
        (long long)stable_count, first.size(),
        (unsigned long long)open_commits);
    Row("  %llu visit-interval index builds for %zu one-shot TimeContext "
        "queries over 4 opens (expected: 4, one per committed state)",
        (unsigned long long)interval_builds, 4 * qs.size());
    Metric("reopen_stable_answers", static_cast<double>(stable_count));
    Metric("reopen_open_commits", static_cast<double>(open_commits));
    Metric("oneshot_interval_builds", static_cast<double>(interval_builds));
  }

  Blank();
  Row("('<200ms' should be a large majority unbounded and 100%% budgeted,");
  Row(" reproducing the paper's latency claim)");
  return Finish();
}
