// browse_and_recall: writes beside reads. Set-up preloads the first
// half of the history. Then three threads run together:
//
//   pacer   sends the second half open-loop at kEventsPerSecond through
//           IngestAsync (each event is timed from its scheduled send);
//   waiter  Flushes every kFlushEvery-th ticket, in order — a browser
//           that waits for durability, closing groups early on purpose;
//   reader  open loop at kRecallsPerSecond: opens a snapshot (which
//           drains the pipeline and refreshes the lazy text index) and
//           searches for the most recently sent visit to a URL the
//           history had not seen yet, checking that the URL comes back.
//
//   ops_per_s             recalls completed per second (offered:
//                         kRecallsPerSecond; a reader that falls behind
//                         completes fewer)
//   latency_ms_p50/_p90   durable lag: scheduled send -> Flush returned
//   disk_bytes_per_event  every database file after a clean Close
//
// Both loops are open, so the load offered to the engine is the same
// on every machine and every run. The default pool holds the whole
// database and compression is off.
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>

#include "harness.hpp"
#include "util/strings.hpp"

namespace provbench {
namespace {

using bp::prov::ProvenanceDb;
using bp::storage::PagerStats;

constexpr const char* kDbPath = "browse.db";
// Open-loop send rate: about a twentieth of ingest_replay's saturated
// rate on the same device model.
constexpr double kEventsPerSecond = 250;
constexpr uint64_t kFlushEvery = 2;
constexpr double kRecallsPerSecond = 100;

struct State {
  std::unique_ptr<bp::storage::MemEnv> env;
  std::unique_ptr<ProvenanceDb> db;
  History history;
  size_t preload = 0;  // events [0, preload) ingested in set-up
  // For each event: true when it is a visit to a URL no earlier event
  // visited (such a visit is not findable until it is indexed).
  std::vector<char> new_url;
};

std::unique_ptr<State> Setup(const Args& args, Report& report) {
  auto state = std::make_unique<State>();
  state->history = MakeHistory(args.seed);
  const auto& events = state->history.events;
  state->preload = events.size() / 2;
  state->new_url.assign(events.size(), 0);
  std::unordered_set<std::string> seen;
  for (size_t i = 0; i < events.size(); ++i) {
    const std::string* url = VisitUrl(events[i]);
    if (url != nullptr && seen.insert(*url).second) state->new_url[i] = 1;
  }
  state->env = MakeDevice();
  auto opened = ProvenanceDb::Open(kDbPath, PinnedOptions(state->env.get()));
  report.Op(opened.status(), "open");
  if (!opened.ok()) return state;
  state->db = std::move(*opened);
  std::vector<BrowserEvent> first(events.begin(),
                                  events.begin() + state->preload);
  report.Op(state->db->IngestAll(first), "preload IngestAll");
  report.Op(state->db->BeginSnapshot().status(), "build text index");
  return state;
}

// The most recent new-URL visit the pacer has sent.
struct Latest {
  size_t index = 0;  // into history.events; 0 = none yet
  int64_t scheduled_ns = 0;
};

}  // namespace

void RunBrowseAndRecall(const Args& args, Report& report) {
  auto state = RepeatedSetup<State>(report, [&] { return Setup(args, report); });
  if (state->db == nullptr) {
    report.Check(false, "browse_and_recall: set-up opened the database");
    return;
  }
  ProvenanceDb& db = *state->db;
  const auto& events = state->history.events;
  SpanLog pacer_log(0), waiter_log(1), reader_log(2);
  const bool traced = args.trace;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<uint64_t, int64_t>> to_flush;  // ticket, scheduled
  Latest latest;
  bool done = false;

  // ---- waiter
  std::vector<double> durable_ms;
  std::vector<bp::util::Status> flush_status;
  std::thread waiter([&] {
    for (;;) {
      std::pair<uint64_t, int64_t> item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !to_flush.empty(); });
        if (to_flush.empty()) return;
        item = to_flush.front();
        to_flush.pop_front();
      }
      Scope span(traced ? &waiter_log : nullptr, "capture.flush", 0,
                 item.first);
      flush_status.push_back(db.Flush(item.first));
      durable_ms.push_back(static_cast<double>(NowNs() - item.second) / 1e6);
    }
  });

  // ---- reader
  const int64_t start = NowNs();
  const int64_t deadline = start + int64_t{args.seconds} * 1000000000;
  std::vector<double> recall_ms, searchable_ms, untraced_ms, traced_ms;
  uint64_t recalls = 0, misses = 0, over_10 = 0;
  std::vector<bp::util::Status> reader_status;
  std::thread reader([&] {
    size_t last_found = 0;
    const double interval_ns = 1e9 / kRecallsPerSecond;
    for (uint64_t n = 0;; ++n) {
      const int64_t scheduled =
          start + static_cast<int64_t>(static_cast<double>(n) * interval_ns);
      if (scheduled >= deadline) return;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(scheduled)));
      Latest want;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (done) return;
        want = latest;
      }
      if (want.index == 0) continue;  // nothing new sent yet
      const std::string& url = *VisitUrl(events[want.index]);
      // The traced run alternates untraced and traced recalls.
      const bool trace_this = traced && n % 2 == 1;
      SpanLog* log = trace_this ? &reader_log : nullptr;
      const int64_t began = NowNs();
      size_t rank = 0;
      {
        Scope root(log, "recall", 0, want.index);
        if (log != nullptr) {
          Scope drain(log, "capture.drain", root.id());
          reader_status.push_back(db.Drain());
        }
        std::optional<ProvenanceDb::SnapshotView> view;
        {
          Scope open(log, "text.index_refresh", root.id());
          auto opened = db.BeginSnapshot();
          reader_status.push_back(opened.status());
          if (opened.ok()) view.emplace(std::move(*opened));
        }
        if (view.has_value()) {
          {
            Scope search(log, "text.textual_search", root.id());
            auto hit = RecallRank(*view, url);
            reader_status.push_back(hit.status());
            if (hit.ok()) rank = *hit;
          }
          Scope close(log, "storage.snapshot_close", root.id());
          view.reset();
        }
      }
      const int64_t end = NowNs();
      (trace_this ? traced_ms : untraced_ms)
          .push_back(static_cast<double>(end - began) / 1e6);
      recall_ms.push_back(static_cast<double>(end - scheduled) / 1e6);
      ++recalls;
      if (rank == 0) ++misses;
      if (rank > 10) ++over_10;
      if (rank != 0 && want.index != last_found) {
        searchable_ms.push_back(static_cast<double>(end - want.scheduled_ns) /
                                1e6);
        last_found = want.index;
      }
    }
  });

  // ---- pacer (this thread)
  // Engine histograms over the measured window only (not the preload).
  HistogramWindow batch_commit("bp_ingest_commit_batch_us");
  HistogramWindow fsync("bp_wal_fsync_us");
  HistogramWindow checkpoint("bp_pager_checkpoint_us");
  for (HistogramWindow* w : {&batch_commit, &fsync, &checkpoint}) w->Begin();
  const PagerStats before = db.storage_stats();
  const bp::capture::PipelineStats pipe_before = db.pipeline_stats();
  const double interval_ns = 1e9 / kEventsPerSecond;
  std::vector<double> late_us;
  size_t sent = 0;
  for (size_t i = state->preload; i < events.size(); ++i, ++sent) {
    const int64_t scheduled =
        start + static_cast<int64_t>(static_cast<double>(sent) * interval_ns);
    if (scheduled >= deadline) break;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(scheduled)));
    late_us.push_back(static_cast<double>(NowNs() - scheduled) / 1e3);
    bp::util::Result<ProvenanceDb::IngestTicket> ticket = 0;
    {
      Scope span(traced ? &pacer_log : nullptr, "capture.ingest_async");
      ticket = db.IngestAsync(events[i]);
    }
    report.Op(ticket.status(), "IngestAsync");
    if (!ticket.ok()) continue;
    std::lock_guard<std::mutex> lock(mu);
    if (*ticket % kFlushEvery == 0) {
      to_flush.emplace_back(*ticket, scheduled);
      cv.notify_all();
    }
    if (state->new_url[i]) {
      latest = Latest{i, scheduled};
      cv.notify_all();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  reader.join();
  waiter.join();
  report.Op(db.Drain(), "Drain");
  const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  for (HistogramWindow* w : {&batch_commit, &fsync, &checkpoint}) w->End();
  const PagerStats after = db.storage_stats();
  const bp::capture::PipelineStats pipe_after = db.pipeline_stats();
  for (const auto& s : flush_status) report.Op(s, "Flush");
  for (const auto& s : reader_status) report.Op(s, "reader");
  if (args.corrupt_check && recalls > 0) ++misses;
  report.Ops(recalls);
  for (uint64_t i = 0; i < misses; ++i) {
    report.Check(false, "browse_and_recall: a recall found its URL");
  }
  report.Check(recalls > 0, "browse_and_recall: the reader ran");

  const size_t ingested = state->preload + sent;
  const double modeled_bytes = ModeledDiskBytes(db);
  report.Op(db.Close(), "Close");
  const double disk_bytes = static_cast<double>(DbFileBytes(*state->env, kDbPath)) /
                            static_cast<double>(ingested);
  const Summary durable = Summarize(durable_ms);
  const Summary searchable = Summarize(searchable_ms);
  const Summary late = Summarize(late_us);
  const Summary recall = Summarize(recall_ms);

  if (!traced) {
    report.Set("ops_per_s", static_cast<double>(recalls) / elapsed_s);
    report.Set("latency_ms_p50", durable.median);
    report.Set("latency_ms_p90", durable.p90);
    report.Set("disk_bytes_per_event", disk_bytes);
    report.Info("durable_lag_ms", durable.median, "ms", durable.Describe("ms"));
    report.Info("searchable_lag_ms_p50", searchable.median, "ms",
                searchable.Describe("ms"));
    report.Info("recall_ms", recall.median, "ms", recall.Describe("ms"));
    report.Info("recalls_per_s", static_cast<double>(recalls) / elapsed_s,
                "1/s", bp::util::StrFormat("offered %.0f; %llu recalls, %llu "
                                           "misses",
                                           kRecallsPerSecond,
                                           (unsigned long long)recalls,
                                           (unsigned long long)misses));
    report.Info("recall_rank_over_10", static_cast<double>(over_10), "count",
                "recalls found below rank 10 (of k=50)");
    report.Info("sent_events_per_s", static_cast<double>(sent) / elapsed_s,
                "events/s", bp::util::StrFormat("offered %.0f", kEventsPerSecond));
    report.Info("pacer_late_us", late.median, "us", late.Describe("us"));
    return;
  }

  // ---- per-layer metrics of the traced run
  const std::vector<const SpanLog*> logs = {&pacer_log, &waiter_log, &reader_log};
  const double n_events = static_cast<double>(sent);
  const Summary enqueue = Summarize(Scaled(DurationsMs(logs, "capture.ingest_async"), 1e6));
  report.Set("capture.enqueue_ns_p50", enqueue.median);
  report.Set("capture.enqueue_ns_p99", enqueue.p99);
  const uint64_t batches = pipe_after.batches - pipe_before.batches;
  const uint64_t committed = pipe_after.committed - pipe_before.committed;
  const uint64_t enqueued = pipe_after.enqueued - pipe_before.enqueued;
  report.Set("capture.events_per_batch",
             batches ? static_cast<double>(committed) / batches : 0);
  report.Set("capture.blocked_enqueue_frac",
             enqueued ? static_cast<double>(pipe_after.blocked_enqueues -
                                            pipe_before.blocked_enqueues) /
                            enqueued
                      : 0);
  report.Set("capture.mean_queue_depth", pipe_after.mean_queue_depth);
  report.Set("capture.batch_commit_ms_mean", batch_commit.Mean() / 1e3);
  const uint64_t commits = after.commits - before.commits;
  const uint64_t groups = after.group_commits - before.group_commits;
  report.Set("storage.commits", static_cast<double>(commits));
  report.Set("storage.pages_written_per_event",
             static_cast<double>(after.pages_written - before.pages_written) /
                 n_events);
  report.Set("wal.bytes_per_event",
             static_cast<double>(after.bytes_synced - before.bytes_synced) /
                 n_events);
  report.Set("wal.fsyncs_per_1k_events",
             1e3 * static_cast<double>(after.fsyncs - before.fsyncs) / n_events);
  report.Set("wal.txns_per_group",
             groups ? static_cast<double>(commits) / groups : 0);
  report.Set("wal.fsync_us_mean", fsync.Mean());
  report.Set("wal.checkpoints",
             static_cast<double>(after.checkpoints - before.checkpoints));
  report.Set("wal.checkpoint_ms_mean", checkpoint.Mean() / 1e3);
  const uint64_t hits = after.pool_hits - before.pool_hits;
  const uint64_t cold = after.pool_cold_hits - before.pool_cold_hits;
  const uint64_t pool_misses = after.pool_misses - before.pool_misses;
  const double lookups = static_cast<double>(hits + cold + pool_misses);
  report.Set("storage.pool_hit_ratio", lookups > 0 ? hits / lookups : 0);
  report.Set("storage.pool_cold_hit_ratio", lookups > 0 ? cold / lookups : 0);
  report.Set("storage.device_reads_per_query",
             recalls ? static_cast<double>(after.snapshot_pages_read -
                                           before.snapshot_pages_read) /
                           static_cast<double>(recalls)
                     : 0);
  report.Set("storage.modeled_disk_bytes_per_event",
             modeled_bytes / static_cast<double>(ingested));
  report.Set("text.index_refresh_ms_p50",
             Median(DurationsMs(logs, "text.index_refresh")));
  report.Set("text.textual_search_ms_p50",
             Median(DurationsMs(logs, "text.textual_search")));
  report.Set("trace.unattributed_frac", UnattributedFrac(logs, {"recall"}));
  report.Info("capture.flush_ms", Median(DurationsMs(logs, "capture.flush")), "ms");
  SetOverhead(report, untraced_ms, traced_ms);
  WriteTrace(args, logs);
}

}  // namespace provbench
