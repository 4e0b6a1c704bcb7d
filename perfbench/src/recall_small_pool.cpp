// recall_<family>: a closed history interrogated after the fact, the
// way forensic tooling questions a browser profile it did not write.
//
// Set-up (shared by the four recall workloads) ingests the history
// (about 79 days) with IngestAll, builds the text index, checkpoints with
// compression = fast, closes, and reopens with a buffer pool of about a
// third of the database's page bytes on a device that charges
// kColdReadUs per page read. One client then runs one use-case query
// family, closed loop, over kQueries distinct seeded queries, cycled
// until the run is long enough and holds at least --min-samples
// samples:
//
//   recall_search        2.1 contextual search   Search(query)
//   recall_personalize   2.2 personalization     Personalize(query)
//   recall_time_context  2.3 time context        TimeContext(query, other)
//   recall_lineage       2.4 download lineage    TraceDownload(download)
//
// One family per workload means each has gated figures of its own and
// no traffic mix between them has to be assumed. Query inputs come from
// the user's own activity: the history's search episodes and downloads.
// Only the read path works here: nothing commits after set-up.
//
//   ops_per_s             queries per second
//   latency_ms_p50/_p90   one-shot query latency
//   disk_bytes_per_event  every database file after set-up's Close
//
// Correctness: every answer (result URLs in rank order) must equal the
// same query's answer on a fully cached view of the same database, and
// every repeat of a query must answer the same.
//
// Traced run: queries alternate between the untraced one-shot calls and
// their traced equivalents, BeginSnapshot + the
// SnapshotView call, each a span, plus a TextualSearch probe on the same
// view for text-backed families.
#include <algorithm>
#include <optional>

#include "harness.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace provbench {
namespace {

using bp::prov::ProvenanceDb;
using bp::storage::PagerStats;
using bp::util::Result;

constexpr const char* kDbPath = "recall.db";
// Pool for the fully cached reference view: far larger than the db.
constexpr size_t kCachedPoolBytes = size_t{512} << 20;

using Family = RecallFamily;
constexpr const char* kFamilyNames[] = {"search", "personalize",
                                        "time_context", "lineage"};
constexpr const char* kFamilySpans[] = {"search.contextual",
                                        "search.personalize",
                                        "search.time_context",
                                        "search.lineage"};
const char* Name(Family family) { return kFamilyNames[static_cast<int>(family)]; }
const char* SpanName(Family family) {
  return kFamilySpans[static_cast<int>(family)];
}
// Distinct queries a run cycles through (fewer when the history has
// fewer). Each seed draws its own; with 64 the draw set recall_search's
// median (its p50 spread across five seeds was 0.19 of the median, 0.06
// with 128).
constexpr size_t kQueries = 128;

struct QuerySpec {
  Family family = Family::kSearch;
  std::string query;    // search / personalize / time context primary
  std::string context;  // time context
  bp::graph::NodeId download = 0;
};

struct Answer {
  std::string digest;  // result URLs (or terms) in rank order
  bp::graph::QueryStats stats;
};

template <typename R>
void AppendUrls(const R& pages, std::string* out) {
  for (const auto& page : pages) *out += page.url + "\n";
}

// Runs one query on `target` (a ProvenanceDb for the one-shot path, a
// SnapshotView for the traced path: both expose the same methods).
template <typename Target>
Result<Answer> RunQuery(Target& target, const QuerySpec& spec) {
  Answer answer;
  switch (spec.family) {
    case Family::kSearch: {
      BP_ASSIGN_OR_RETURN(auto r, target.Search(spec.query));
      AppendUrls(r.pages, &answer.digest);
      answer.stats = r.stats;
      break;
    }
    case Family::kPersonalize: {
      BP_ASSIGN_OR_RETURN(auto r, target.Personalize(spec.query));
      answer.digest = r.AugmentedQuery();
      answer.stats = r.stats;
      break;
    }
    case Family::kTimeContext: {
      BP_ASSIGN_OR_RETURN(auto r, target.TimeContext(spec.query, spec.context));
      for (const auto& m : r.matches) {
        answer.digest += m.page.url + (m.co_open ? " co\n" : "\n");
      }
      answer.stats = r.stats;
      break;
    }
    case Family::kLineage: {
      BP_ASSIGN_OR_RETURN(auto r, target.TraceDownload(spec.download));
      answer.digest = r.recognizable_url + "|";
      for (const auto& step : r.path) answer.digest += step.url + "\n";
      answer.stats = r.stats;
      break;
    }
  }
  return answer;
}

struct State {
  std::unique_ptr<bp::storage::MemEnv> env;
  std::unique_ptr<ProvenanceDb> db;  // the reopened small-pool database
  std::vector<QuerySpec> queries;    // distinct, seeded order, cycled
  size_t events = 0;
  uint64_t file_bytes = 0;
  double modeled_bytes = 0;
  size_t pool_bytes = 0;
  // Every file's bytes after the writer's Close (the reference image).
  std::map<std::string, std::string> image;
};

// kQueries distinct queries of `family`, drawn without replacement from
// the history's distinct search queries (or its downloads), in a seeded
// order. A time-context query pairs each query with another one.
std::vector<QuerySpec> MakeQueries(const History& history,
                                   const ProvenanceDb& writer, Family family,
                                   uint64_t seed) {
  bp::util::Rng rng(seed * 7919 + 11);
  auto shuffle = [&rng](auto& items) {
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[rng.Uniform(i)]);
    }
  };
  std::vector<QuerySpec> out;
  if (family == Family::kLineage) {
    std::vector<bp::graph::NodeId> downloads;
    for (const auto& episode : history.downloads) {
      auto it = writer.recorder().download_map().find(episode.download_id);
      if (it != writer.recorder().download_map().end() &&
          std::find(downloads.begin(), downloads.end(), it->second) ==
              downloads.end()) {
        downloads.push_back(it->second);
      }
    }
    shuffle(downloads);
    for (size_t i = 0; i < downloads.size() && i < kQueries; ++i) {
      out.push_back({family, "", "", downloads[i]});
    }
    return out;
  }
  std::vector<std::string> queries;
  for (const auto& episode : history.searches) {
    if (std::find(queries.begin(), queries.end(), episode.query) ==
        queries.end()) {
      queries.push_back(episode.query);
    }
  }
  shuffle(queries);
  const size_t n = std::min(queries.size(), kQueries);
  for (size_t i = 0; i < n; ++i) {
    out.push_back({family, queries[i],
                   family == Family::kTimeContext ? queries[(i + 1) % n] : "",
                   0});
  }
  return out;
}

std::unique_ptr<State> Setup(const Args& args, Family family, Report& report) {
  auto state = std::make_unique<State>();
  History history = MakeHistory(args.seed);
  state->events = history.events.size();
  state->env = MakeDevice();
  ProvenanceDb::Options options = PinnedOptions(state->env.get());
  options.db.compression.mode =
      bp::storage::compress::CompressionOptions::Mode::kFast;
  {
    auto writer = ProvenanceDb::Open(kDbPath, options);
    report.Op(writer.status(), "open writer");
    if (!writer.ok()) return state;
    report.Op((*writer)->IngestAll(history.events), "IngestAll");
    // BeginSnapshot refreshes the lazy text index: after this the
    // reopened database needs no writes to answer text queries.
    report.Op((*writer)->BeginSnapshot().status(), "build text index");
    state->queries = MakeQueries(history, **writer, family, args.seed);
    report.Op((*writer)->Checkpoint(), "Checkpoint");
    state->modeled_bytes = ModeledDiskBytes(**writer);
    report.Op((*writer)->Close(), "Close writer");
  }
  state->file_bytes = DbFileBytes(*state->env, kDbPath);
  state->image = state->env->SnapshotAll();
  // Reopen cold: a pool of a third of the page bytes, priced reads.
  state->pool_bytes = static_cast<size_t>(state->file_bytes / 3);
  options.db.pool_bytes = state->pool_bytes;
  state->env->set_read_cost_us(kColdReadUs);
  auto reader = ProvenanceDb::Open(kDbPath, options);
  report.Op(reader.status(), "reopen small pool");
  if (reader.ok()) state->db = std::move(*reader);
  return state;
}

// The answer of each query the run asked (`asked`) on a fully cached
// view of the same database bytes: the file image set-up saved before
// the small-pool open, opened once with a pool larger than the file and
// free reads. (Opening the image rather than the small-pool database's
// file keeps both sides at the same number of opens:
// HistorySearcher::Open re-indexes every page into the persistent index
// on each open, so a database answers differently after every reopen.)
std::vector<std::string> CachedAnswers(const State& state,
                                       const std::vector<char>& asked,
                                       Report& report) {
  std::vector<std::string> out(state.queries.size());
  bp::storage::MemEnv env;
  env.RestoreAll(state.image);
  ProvenanceDb::Options options = PinnedOptions(&env);
  options.db.compression.mode =
      bp::storage::compress::CompressionOptions::Mode::kFast;
  options.db.pool_bytes = kCachedPoolBytes;
  auto cached = ProvenanceDb::Open(kDbPath, options);
  report.Op(cached.status(), "open fully cached");
  if (!cached.ok()) return out;
  for (size_t i = 0; i < state.queries.size(); ++i) {
    if (!asked[i]) continue;
    auto answer = RunQuery(**cached, state.queries[i]);
    report.Op(answer.status(), "cached query");
    if (answer.ok()) out[i] = answer->digest;
  }
  return out;
}

}  // namespace

void RunRecallSmallPool(const Args& args, Report& report, Family family) {
  const std::string workload = std::string("recall_") + Name(family);
  auto state = RepeatedSetup<State>(
      report, [&] { return Setup(args, family, report); });
  if (state->db == nullptr || state->queries.empty()) {
    report.Check(false, workload + ": set-up produced a database and queries");
    return;
  }
  const double events = static_cast<double>(state->events);
  const size_t distinct = state->queries.size();
  report.Info("history.events", events, "events");
  report.Info("queries.distinct", static_cast<double>(distinct), "count");
  report.Info("pool_bytes", static_cast<double>(state->pool_bytes), "B",
              bp::util::StrFormat("a third of %llu file bytes",
                                  (unsigned long long)state->file_bytes));
  ProvenanceDb& db = *state->db;
  SpanLog log(0);
  SpanLog* trace = args.trace ? &log : nullptr;
  HistogramWindow decompress("bp_decompress_us");

  std::vector<double> all_ms, untraced_ms, traced_ms;
  // First answer per distinct query; every repeat must match it.
  std::vector<std::optional<std::string>> seen(distinct);

  const PagerStats before = db.storage_stats();
  decompress.Begin();
  const int64_t start = NowNs();
  const int64_t deadline = start + int64_t{args.seconds} * 1000000000;
  size_t n = 0;
  for (; NowNs() < deadline || n < args.min_samples; ++n) {
    const size_t index = n % distinct;
    const QuerySpec& spec = state->queries[index];
    // The traced run traces every other query, swapping halves on each
    // pass, so both sides time the same queries over two passes and a
    // run shorter than a pass still traces half of them; the untraced
    // run never traces.
    const bool traced = trace != nullptr && (n + n / distinct) % 2 == 1;
    Result<Answer> answer = Answer{};
    double ms = 0;
    if (!traced) {
      const int64_t t = NowNs();
      answer = RunQuery(db, spec);
      ms = static_cast<double>(NowNs() - t) / 1e6;
      (trace != nullptr ? untraced_ms : all_ms).push_back(ms);
    } else {
      Scope root(trace, "query", 0, n + 1);
      double probe_ms = 0;
      std::optional<ProvenanceDb::SnapshotView> view;
      {
        Scope open(trace, "storage.snapshot_open", root.id());
        auto opened = db.BeginSnapshot();
        report.Op(opened.status(), "BeginSnapshot");
        if (opened.ok()) view.emplace(std::move(*opened));
      }
      if (view.has_value()) {
        {
          Scope span(trace, SpanName(family), root.id());
          answer = RunQuery(*view, spec);
          if (answer.ok()) {
            const bp::graph::QueryStats& st = answer->stats;
            span.Counter("rows_scanned", static_cast<int64_t>(st.rows_scanned));
            span.Counter("edges_expanded", static_cast<int64_t>(st.edges_expanded));
            span.Counter("nodes_visited", static_cast<int64_t>(st.nodes_visited));
            span.Counter("pool_hits", static_cast<int64_t>(st.pool_hits));
            span.Counter("pages_fetched", static_cast<int64_t>(st.pages_fetched));
          }
        }
        if (family != Family::kLineage) {
          Scope probe(trace, "text.textual_search", root.id());
          const int64_t t = NowNs();
          report.Op(view->TextualSearch(spec.query).status(), "TextualSearch");
          probe_ms = static_cast<double>(NowNs() - t) / 1e6;
        }
        Scope close(trace, "storage.snapshot_close", root.id());
        view.reset();
      }
      root.End();
      const Span& span = log.spans()[root.id() - 1];
      ms = span.ms() - probe_ms;
      traced_ms.push_back(ms);
    }
    report.Op(answer.status(), Name(family));
    if (!answer.ok()) continue;
    if (!seen[index].has_value()) seen[index] = answer->digest;
    report.Check(*seen[index] == answer->digest,
                 workload + ": repeated query returns the same answer");
  }
  const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  decompress.End();
  const PagerStats after = db.storage_stats();

  // Correctness: the small-pool answers equal the fully cached view's.
  std::vector<char> asked(distinct);
  for (size_t i = 0; i < distinct; ++i) asked[i] = seen[i].has_value();
  std::vector<std::string> expected = CachedAnswers(*state, asked, report);
  if (args.corrupt_check) expected[0] += "corrupted";
  for (size_t i = 0; i < expected.size(); ++i) {
    if (!seen[i].has_value()) continue;
    report.Check(*seen[i] == expected[i],
                 bp::util::StrFormat("%s: query %zu matches the fully cached view",
                                     workload.c_str(), i));
  }

  if (!args.trace) {
    const Summary latency = Summarize(all_ms);
    report.Set("ops_per_s", static_cast<double>(n) / elapsed_s);
    report.Set("latency_ms_p50", latency.median);
    report.Set("latency_ms_p90", latency.p90);
    report.Set("disk_bytes_per_event",
               static_cast<double>(state->file_bytes) / events);
    report.Info(std::string("query_ms.") + Name(family), latency.median, "ms",
                latency.Describe("ms"));
    report.Info("storage.modeled_disk_bytes_per_event",
                state->modeled_bytes / events, "B/event",
                "hole-punch model; disk_bytes_per_event is the real file");
    return;
  }

  // ---- per-layer metrics of the traced run
  const std::vector<const SpanLog*> logs = {&log};
  const uint64_t hits = after.pool_hits - before.pool_hits;
  const uint64_t cold = after.pool_cold_hits - before.pool_cold_hits;
  const uint64_t misses = after.pool_misses - before.pool_misses;
  const double lookups = static_cast<double>(hits + cold + misses);
  report.Set("storage.commits", static_cast<double>(after.commits - before.commits));
  report.Set("storage.pool_hit_ratio", lookups > 0 ? hits / lookups : 0);
  report.Set("storage.pool_cold_hit_ratio", lookups > 0 ? cold / lookups : 0);
  report.Set("storage.device_reads_per_query",
             static_cast<double>(after.snapshot_pages_read -
                                 before.snapshot_pages_read) /
                 static_cast<double>(n));
  report.Set("storage.decompress_us_mean", decompress.Mean());
  report.Info("storage.decompressions_per_query",
              static_cast<double>(decompress.count()) / static_cast<double>(n),
              "count");
  report.Set("storage.modeled_disk_bytes_per_event",
             state->modeled_bytes / events);
  report.Set("storage.snapshot_open_us_p50",
             Median(Scaled(DurationsMs(logs, "storage.snapshot_open"), 1e3)));
  report.Set("text.textual_search_ms_p50",
             Median(DurationsMs(logs, "text.textual_search")));
  // QueryStats per query, from the counters on the family spans.
  const size_t queried = SpanCount(logs, SpanName(family));
  auto per_query = [&](const char* key) {
    return queried ? static_cast<double>(CounterSum(logs, "", key)) / queried : 0;
  };
  report.Set("search.rows_scanned_per_query", per_query("rows_scanned"));
  report.Set("search.edges_expanded_per_query", per_query("edges_expanded"));
  report.Set("search.nodes_visited_per_query", per_query("nodes_visited"));
  // recall_lineage is not gated (README.md), so its call time is shown
  // rather than listed as a per-layer metric.
  const std::string call = std::string(SpanName(family)) + "_ms_p50";
  const double call_ms = Median(DurationsMs(logs, SpanName(family)));
  if (family == Family::kLineage) {
    report.Info(call, call_ms, "ms");
  } else {
    report.Set(call, call_ms);
  }
  report.Set("trace.unattributed_frac", UnattributedFrac(logs, {"query"}));
  SetOverhead(report, untraced_ms, traced_ms);
  WriteTrace(args, logs);
}

}  // namespace provbench
