// profile_churn: the multi-profile service with more profiles than live
// handles. One producer sends the history's browsing sessions (runs of
// events without a half-hour gap, cut at kMaxSessionEvents so no single
// long session sets the tail) round-robin over kProfiles profiles
// through ProvenanceService::Ingest. At each session end it calls
// Flush(profile), then runs one WithSnapshot query that recalls the
// session's newest URL. Round-robin through an LRU of kLiveHandles makes
// every acquisition a miss, so each session reopens its profile and
// evicts (closes) another. A round is the history's first
// kSessionsPerRound sessions in a fresh service root; the run repeats
// whole rounds, so every run does the same work per round however fast
// the machine is (a reopen costs more as a profile grows).
//
//   ops_per_s             events made durable per second
//   latency_ms_p50/_p90   durable lag: event sent -> Flush returned
//   disk_bytes_per_event  every profile database file after shutdown
//
// Profile databases commit with a group-commit window of 1, so the
// service's Flush (events handed to storage) also means durable. The
// latency is mostly engine work, not the modeled device: with fsync
// free, the durable-lag p50 at seed 2009 drops only from 7.1 to 5.5 ms;
// the rest is reopening, ingesting into and evicting (closing) profiles.
#include <unordered_set>

#include "harness.hpp"
#include "service/provenance_service.hpp"
#include "util/strings.hpp"

namespace provbench {
namespace {

using bp::prov::ProvenanceDb;
using bp::service::ProvenanceService;
using bp::service::ServiceStats;

constexpr size_t kProfiles = 6;
constexpr size_t kWorkers = 2;
constexpr size_t kLiveHandles = 4;
constexpr bp::util::TimeMs kSessionGapMs = 30 * 60 * 1000;
constexpr size_t kMaxSessionEvents = 64;
constexpr size_t kSessionsPerRound = 240;  // 40 per profile

struct Session {
  std::string profile;
  size_t begin = 0, end = 0;  // event range in the history
  const std::string* recall_url = nullptr;  // newest URL new to the profile
};

struct State {
  std::unique_ptr<bp::storage::MemEnv> env;
  History history;
  std::vector<Session> sessions;
  std::vector<std::string> profiles;
  // Each profile's counts after each of its sessions (SessionReference).
  bp::util::Result<std::vector<std::vector<GraphCounts>>> reference =
      std::vector<std::vector<GraphCounts>>{};
};

std::string ProfileName(size_t i) { return "profile" + std::to_string(i); }

bp::service::ServiceOptions ServiceOptionsFor(bp::storage::MemEnv* env) {
  bp::service::ServiceOptions options;
  options.workers = kWorkers;
  options.max_live_handles = kLiveHandles;
  options.queue_capacity = kQueueCapacity;
  options.backpressure = bp::capture::BackpressurePolicy::kBlock;
  options.db = PinnedOptions(env);
  options.db.db.wal_group_commit = 1;
  return options;
}

// Counts of each profile's database after each of its sessions, when
// every session is ingested (IngestAll) into a fresh open of the
// profile's database on a cost-free device: the churn closes a profile
// between its sessions, and a reopened database's recorder has no
// stream-id mappings for visits logged before the reopen.
bp::util::Result<std::vector<std::vector<GraphCounts>>> SessionReference(
    const State& state) {
  std::vector<std::vector<GraphCounts>> after(kProfiles);
  bp::storage::MemEnv env;
  ProvenanceDb::Options options = PinnedOptions(&env);
  options.db.sync = false;
  options.async.enabled = false;
  const auto& events = state.history.events;
  for (size_t i = 0; i < state.sessions.size(); ++i) {
    const Session& session = state.sessions[i];
    BP_ASSIGN_OR_RETURN(auto db,
                        ProvenanceDb::Open(session.profile + ".db", options));
    BP_RETURN_IF_ERROR(db->IngestAll(std::vector<BrowserEvent>(
        events.begin() + session.begin, events.begin() + session.end)));
    BP_ASSIGN_OR_RETURN(GraphCounts counts, CountGraph(*db));
    BP_RETURN_IF_ERROR(db->Close());
    after[i % kProfiles].push_back(counts);
  }
  return after;
}

// Set-up: the history, its sessions, and each profile's expected counts
// (the reference above, computed here so no timed phase pays for it).
std::unique_ptr<State> Setup(const Args& args) {
  auto state = std::make_unique<State>();
  state->history = MakeHistory(args.seed);
  const auto& events = state->history.events;
  for (size_t i = 0; i < kProfiles; ++i) state->profiles.push_back(ProfileName(i));
  std::vector<std::unordered_set<std::string>> seen(kProfiles);
  size_t begin = 0;
  for (size_t i = 1; i <= events.size(); ++i) {
    if (i < events.size() && i - begin < kMaxSessionEvents &&
        bp::capture::EventTime(events[i]) -
                bp::capture::EventTime(events[i - 1]) <
            kSessionGapMs) {
      continue;
    }
    Session session;
    const size_t p = state->sessions.size() % kProfiles;
    session.profile = state->profiles[p];
    session.begin = begin;
    session.end = i;
    for (size_t e = begin; e < i; ++e) {
      const std::string* url = VisitUrl(events[e]);
      if (url != nullptr && seen[p].insert(*url).second) session.recall_url = url;
    }
    state->sessions.push_back(session);
    if (state->sessions.size() == kSessionsPerRound) break;
    begin = i;
  }
  state->reference = SessionReference(*state);
  state->env = MakeDevice();
  return state;
}

}  // namespace

void RunProfileChurn(const Args& args, Report& report) {
  auto state = RepeatedSetup<State>(report, [&] { return Setup(args); });
  const auto& events = state->history.events;
  report.Info("sessions", static_cast<double>(state->sessions.size()), "count");
  const bool traced = args.trace;
  SpanLog log(0);

  // Each round runs in a fresh service root; the run repeats whole
  // rounds until it is long enough.
  std::vector<std::string> roots;
  std::vector<double> durable_ms, untraced_ms, traced_ms;
  uint64_t sent = 0, recalls = 0, over_10 = 0;
  ServiceStats totals;
  const int64_t start = NowNs();
  const int64_t deadline = start + int64_t{args.seconds} * 1000000000;
  std::unique_ptr<ProvenanceService> svc;
  std::vector<int64_t> sent_ns;
  auto finish_round = [&] {
    ServiceStats st = svc->Stats();
    totals.handle_hits += st.handle_hits;
    totals.handle_misses += st.handle_misses;
    totals.opens += st.opens;
    svc.reset();
  };
  for (uint64_t n = 0;; ++n) {
    const size_t s = n % state->sessions.size();
    if (s == 0) {
      if (svc != nullptr) finish_round();
      if (NowNs() >= deadline) break;
      roots.push_back("/churn" + std::to_string(roots.size()));
      auto created = ProvenanceService::Create(roots.back(),
                                               ServiceOptionsFor(state->env.get()));
      report.Op(created.status(), "create service");
      if (!created.ok()) break;
      svc = std::move(*created);
    }
    const Session& session = state->sessions[s];
    // The traced run alternates rounds of kProfiles sessions (one per
    // profile) between untraced and traced.
    const bool trace_this = traced && (n / kProfiles) % 2 == 1;
    SpanLog* span_log = trace_this ? &log : nullptr;
    const int64_t session_start = NowNs();
    const ServiceStats session_before =
        trace_this ? svc->Stats() : ServiceStats{};
    {
      Scope root(span_log, "session", 0, n + 1);
      sent_ns.clear();
      for (size_t e = session.begin; e < session.end; ++e) {
        Scope span(span_log, "service.ingest", root.id());
        sent_ns.push_back(NowNs());
        report.Op(svc->Ingest(session.profile, events[e]), "Ingest");
      }
      {
        Scope span(span_log, "service.flush", root.id());
        report.Op(svc->Flush(session.profile), "Flush");
      }
      const int64_t durable = NowNs();
      for (int64_t t : sent_ns) {
        durable_ms.push_back(static_cast<double>(durable - t) / 1e6);
      }
      if (session.recall_url != nullptr) {
        Scope span(span_log, "service.with_snapshot", root.id());
        size_t rank = 0;
        report.Op(svc->WithSnapshot(
                      session.profile,
                      [&](ProvenanceDb::SnapshotView& view) {
                        Scope search(span_log, "text.textual_search", span.id());
                        auto hit = RecallRank(view, *session.recall_url);
                        if (!hit.ok()) return hit.status();
                        rank = *hit;
                        return bp::util::Status::Ok();
                      }),
                  "WithSnapshot");
        ++recalls;
        if (rank > 10) ++over_10;
        report.Check(rank != 0 && !(args.corrupt_check && recalls == 1),
                     "profile_churn: the session's newest URL is found "
                     "after Flush");
      }
      root.End();
      if (trace_this) {
        const ServiceStats after = svc->Stats();
        root.Counter("handle_hits", static_cast<int64_t>(
                                        after.handle_hits - session_before.handle_hits));
        root.Counter("handle_misses",
                     static_cast<int64_t>(after.handle_misses -
                                          session_before.handle_misses));
        root.Counter("opens", static_cast<int64_t>(after.opens - session_before.opens));
        root.Counter("evictions", static_cast<int64_t>(after.evictions -
                                                       session_before.evictions));
      }
    }
    const double per_event_ms = static_cast<double>(NowNs() - session_start) /
                                1e6 / static_cast<double>(session.end - session.begin);
    (trace_this ? traced_ms : untraced_ms).push_back(per_event_ms);
    sent += session.end - session.begin;
  }
  const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;

  // Every profile's reopened counts must equal its stream's, ingested
  // synchronously with the same open/close pattern the churn imposes.
  const auto& reference = state->reference;
  report.Op(reference.status(), "reference ingest");
  // Shown, not checked: what the churn's reopens drop compared with one
  // uninterrupted IngestAll of a full profile stream.
  if (reference.ok()) {
    int64_t lost_nodes = 0, lost_edges = 0;
    for (size_t p = 0; p < kProfiles; ++p) {
      std::vector<BrowserEvent> stream;
      for (size_t i = p; i < state->sessions.size(); i += kProfiles) {
        const Session& session = state->sessions[i];
        stream.insert(stream.end(), events.begin() + session.begin,
                      events.begin() + session.end);
      }
      auto single = ReferenceCounts(stream);
      report.Op(single.status(), "single-open reference");
      if (!single.ok()) continue;
      lost_nodes += static_cast<int64_t>(single->nodes) -
                    static_cast<int64_t>((*reference)[p].back().nodes);
      lost_edges += static_cast<int64_t>(single->edges) -
                    static_cast<int64_t>((*reference)[p].back().edges);
    }
    report.Info("reopen_lost_nodes", static_cast<double>(lost_nodes), "count",
                "vs one uninterrupted open per profile");
    report.Info("reopen_lost_edges", static_cast<double>(lost_edges), "count",
                "stream-id mappings do not survive a reopen");
  }
  uint64_t disk_bytes = 0;
  for (size_t r = 0; r < roots.size(); ++r) {
    for (size_t p = 0; p < kProfiles; ++p) {
      const std::string path = roots[r] + "/" + state->profiles[p] + ".db";
      disk_bytes += DbFileBytes(*state->env, path);
      if (!reference.ok() || (*reference)[p].empty()) continue;
      ProvenanceDb::Options options = PinnedOptions(state->env.get());
      options.async.enabled = false;
      auto db = ProvenanceDb::Open(path, options);
      report.Op(db.status(), "reopen profile");
      if (!db.ok()) continue;
      auto counts = CountGraph(**db);
      report.Op(counts.status(), "count graph");
      GraphCounts want = (*reference)[p].back();
      if (args.corrupt_check && r == 0 && p == 0) ++want.edges;
      report.Check(counts.ok() && *counts == want,
                   "profile_churn: " + path +
                       " reopened counts match its stream");
    }
  }
  const Summary durable = Summarize(durable_ms);

  if (!traced) {
    report.Set("ops_per_s", static_cast<double>(sent) / elapsed_s);
    report.Set("latency_ms_p50", durable.median);
    report.Set("latency_ms_p90", durable.p90);
    report.Set("disk_bytes_per_event",
               static_cast<double>(disk_bytes) / static_cast<double>(sent));
    report.Info("ingest_events_per_s", static_cast<double>(sent) / elapsed_s,
                "events/s",
                bp::util::StrFormat("%llu events, %zu rounds",
                                    (unsigned long long)sent, roots.size()));
    report.Info("durable_lag_ms", durable.median, "ms", durable.Describe("ms"));
    report.Info("recall_rank_over_10", static_cast<double>(over_10), "count",
                bp::util::StrFormat("of %llu recalls (k=50)",
                                    (unsigned long long)recalls));
    report.Info("handle_misses", static_cast<double>(totals.handle_misses),
                "count",
                bp::util::StrFormat("of %llu acquisitions",
                                    (unsigned long long)(totals.handle_hits +
                                                         totals.handle_misses)));
    return;
  }

  const std::vector<const SpanLog*> logs = {&log};
  const double acquisitions =
      static_cast<double>(totals.handle_hits + totals.handle_misses);
  report.Set("service.handle_hit_ratio",
             acquisitions > 0 ? totals.handle_hits / acquisitions : 0);
  report.Set("service.opens_per_1k_events",
             1e3 * static_cast<double>(totals.opens) / static_cast<double>(sent));
  report.Set("service.ingest_us_p50",
             Median(Scaled(DurationsMs(logs, "service.ingest"), 1e3)));
  report.Set("text.textual_search_ms_p50",
             Median(DurationsMs(logs, "text.textual_search")));
  report.Info("service.flush_ms_p50", Median(DurationsMs(logs, "service.flush")),
              "ms");
  report.Info("service.with_snapshot_ms_p50",
              Median(DurationsMs(logs, "service.with_snapshot")), "ms");
  report.Set("trace.unattributed_frac", UnattributedFrac(logs, {"session"}));
  SetOverhead(report, untraced_ms, traced_ms);
  WriteTrace(args, logs);
}

}  // namespace provbench
