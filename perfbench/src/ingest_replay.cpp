// ingest_replay: one capture thread pushes a whole history (about 79
// days) through IngestAsync into an empty database as fast as the
// kBlock queue admits, then Drains. Closed loop, compression off. The run
// cycles through kHistories histories (the first from --seed, the
// others from seeds derived from it), each replay into a fresh
// database, until it is long enough and every history has been
// replayed equally often: the cost of an event depends on the history's
// mix of events, and one history per run would make that seed's mix the
// measurement. Only the write path works here.
//
//   ops_per_s             events made durable per second (all replays)
//   latency_ms_p50/_p90   capture stall: time the capture thread spends
//                         handing off each kIngestBatch consecutive events
//                         (one storage batch's worth) through IngestAsync;
//                         at saturation the queue is full, so this is the
//                         backpressure a browser would feel, checkpoint
//                         stalls included
//   disk_bytes_per_event  every database file after a clean Close
//
// Traced run: replays alternate untraced-async, traced-async (a span
// around every IngestAsync and the Drain) and traced-sync. The sync
// replay drives the same 256-event batches through bus() / db() /
// Sync() / Checkpoint(), so the committer's stages, unreachable from
// outside, get spans of their own.
#include <algorithm>

#include "harness.hpp"
#include "util/strings.hpp"

namespace provbench {
namespace {

using bp::prov::ProvenanceDb;
using bp::storage::PagerStats;

constexpr const char* kDbPath = "replay.db";

constexpr size_t kHistories = 3;

// One history and the counts its replay must reproduce.
struct Input {
  History history;
  GraphCounts expected;
};

struct ReplayResult {
  double events = 0;
  double seconds = 0;  // first enqueue -> Drain returned
  uint64_t file_bytes = 0;
  double modeled_bytes = 0;
  PagerStats before, after;
  bp::capture::PipelineStats pipeline;
};

// Checks the closed database against the reference counts by reopening
// it, and records its size.
void CloseAndCheck(std::unique_ptr<ProvenanceDb> db, bp::storage::MemEnv& env,
                   const GraphCounts& expected, Report& report,
                   ReplayResult& out) {
  report.Op(db->Close(), "close");
  db.reset();
  out.file_bytes = DbFileBytes(env, kDbPath);
  ProvenanceDb::Options options = PinnedOptions(&env);
  options.async.enabled = false;
  auto reopened = ProvenanceDb::Open(kDbPath, options);
  report.Op(reopened.status(), "reopen");
  if (!reopened.ok()) return;
  auto counts = CountGraph(**reopened);
  report.Op(counts.status(), "count graph");
  report.Check(counts.ok() && *counts == expected,
               "ingest_replay: reopened node/edge counts equal a synchronous "
               "IngestAll of the same stream");
}

// The engine histograms the traced run reads, each over the traced
// asynchronous replays' first enqueue -> Drain window only (not the
// reference ingests, the untraced or synchronous replays, or the
// checkpoint a clean Close takes).
struct EngineWindows {
  HistogramWindow batch_commit{"bp_ingest_commit_batch_us"};
  HistogramWindow fsync{"bp_wal_fsync_us"};
  HistogramWindow checkpoint{"bp_pager_checkpoint_us"};

  void Begin() {
    batch_commit.Begin();
    fsync.Begin();
    checkpoint.Begin();
  }
  void End() {
    batch_commit.End();
    fsync.End();
    checkpoint.End();
  }
};

// One asynchronous replay into a fresh database. `stall_ms` (optional)
// receives the time each run of kIngestBatch consecutive IngestAsync
// calls took. With `log`, every IngestAsync and the Drain get a span
// under one root span, and `windows` (optional) collects the engine
// histograms' samples.
ReplayResult ReplayAsync(const Input& input, Report& report,
                         std::vector<double>* stall_ms, SpanLog* log,
                         EngineWindows* windows = nullptr) {
  const History& history = input.history;
  ReplayResult out;
  out.events = static_cast<double>(history.events.size());
  auto env = MakeDevice();
  auto opened = ProvenanceDb::Open(kDbPath, PinnedOptions(env.get()));
  report.Op(opened.status(), "open");
  if (!opened.ok()) return out;
  std::unique_ptr<ProvenanceDb> db = std::move(*opened);
  out.before = db->storage_stats();

  if (windows != nullptr) windows->Begin();
  Scope root(log, "loop.async");
  const int64_t start = NowNs();
  int64_t chunk_start = start;
  for (size_t i = 0; i < history.events.size(); ++i) {
    {
      Scope span(log, "capture.ingest_async", root.id());
      report.Op(db->IngestAsync(history.events[i]).status(), "IngestAsync");
    }
    if (stall_ms != nullptr && (i + 1) % kIngestBatch == 0) {
      const int64_t now = NowNs();
      stall_ms->push_back(static_cast<double>(now - chunk_start) / 1e6);
      chunk_start = now;
    }
  }
  {
    Scope span(log, "capture.drain", root.id());
    report.Op(db->Drain(), "Drain");
  }
  out.seconds = static_cast<double>(NowNs() - start) / 1e9;
  root.End();
  if (windows != nullptr) windows->End();

  out.after = db->storage_stats();
  out.pipeline = db->pipeline_stats();
  root.Counter("events", static_cast<int64_t>(out.events));
  root.Counter("batches", static_cast<int64_t>(out.pipeline.batches));
  root.Counter("blocked_enqueues",
               static_cast<int64_t>(out.pipeline.blocked_enqueues));
  root.Counter("commits", static_cast<int64_t>(out.after.commits - out.before.commits));
  root.Counter("fsyncs", static_cast<int64_t>(out.after.fsyncs - out.before.fsyncs));
  root.Counter("pages_written",
               static_cast<int64_t>(out.after.pages_written - out.before.pages_written));
  root.Counter("checkpoints",
               static_cast<int64_t>(out.after.checkpoints - out.before.checkpoints));
  out.modeled_bytes = ModeledDiskBytes(*db);
  CloseAndCheck(std::move(db), *env, input.expected, report, out);
  return out;
}

// The traced synchronous replay: the committer's work, batch by batch,
// through the facade's layer accessors.
ReplayResult ReplaySync(const Input& input, Report& report, SpanLog& log) {
  const History& history = input.history;
  ReplayResult out;
  out.events = static_cast<double>(history.events.size());
  auto env = MakeDevice();
  auto opened = ProvenanceDb::Open(kDbPath, PinnedOptions(env.get()));
  report.Op(opened.status(), "open");
  if (!opened.ok()) return out;
  std::unique_ptr<ProvenanceDb> db = std::move(*opened);
  out.before = db->storage_stats();

  Scope root(&log, "loop.sync");
  const int64_t start = NowNs();
  const auto& events = history.events;
  for (size_t begin = 0; begin < events.size(); begin += kIngestBatch) {
    const size_t end = std::min(events.size(), begin + kIngestBatch);
    Scope batch(&log, "capture.batch", root.id(), begin / kIngestBatch + 1);
    {
      Scope span(&log, "storage.begin", batch.id());
      report.Op(db->db().Begin(), "Db::Begin");
    }
    for (size_t i = begin; i < end; ++i) {
      Scope span(&log, "prov.publish", batch.id());
      report.Op(db->bus().Publish(events[i]), "EventBus::Publish");
    }
    Scope span(&log, "storage.commit", batch.id());
    report.Op(db->db().Commit(), "Db::Commit");
  }
  {
    Scope span(&log, "wal.sync", root.id());
    report.Op(db->Sync(), "Sync");
  }
  {
    Scope span(&log, "wal.checkpoint", root.id());
    report.Op(db->Checkpoint(), "Checkpoint");
  }
  out.seconds = static_cast<double>(NowNs() - start) / 1e9;
  root.End();

  out.after = db->storage_stats();
  out.modeled_bytes = ModeledDiskBytes(*db);
  CloseAndCheck(std::move(db), *env, input.expected, report, out);
  return out;
}

}  // namespace

void RunIngestReplay(const Args& args, Report& report) {
  // Set-up makes the histories and, from a synchronous IngestAll of
  // each, the counts its replays must reproduce.
  auto inputs = RepeatedSetup<std::vector<Input>>(report, [&] {
    auto out = std::make_unique<std::vector<Input>>(kHistories);
    for (size_t i = 0; i < kHistories; ++i) {
      Input& input = (*out)[i];
      input.history = MakeHistory(args.seed + i * 1000003);
      auto reference = ReferenceCounts(input.history.events);
      report.Op(reference.status(), "reference IngestAll");
      if (reference.ok()) input.expected = *reference;
    }
    return out;
  });
  for (const Input& input : *inputs) {
    report.Info("history.events", static_cast<double>(input.history.events.size()),
                "events");
  }
  if (args.corrupt_check) ++inputs->front().expected.nodes;

  const int64_t deadline = NowNs() + int64_t{args.seconds} * 1000000000;
  if (!args.trace) {
    std::vector<double> stall_ms;
    double events = 0, seconds = 0, bytes = 0;
    size_t replays = 0;
    do {
      ReplayResult r = ReplayAsync((*inputs)[replays++ % kHistories], report,
                                   &stall_ms, nullptr);
      events += r.events;
      seconds += r.seconds;
      bytes += static_cast<double>(r.file_bytes);
    } while (NowNs() < deadline || stall_ms.size() < args.min_samples ||
             replays % kHistories != 0);
    const Summary stall = Summarize(stall_ms);
    report.Set("ops_per_s", events / seconds);
    report.Set("latency_ms_p50", stall.median);
    report.Set("latency_ms_p90", stall.p90);
    report.Set("disk_bytes_per_event", bytes / events);
    report.Info("ingest_events_per_s", events / seconds, "events/s",
                bp::util::StrFormat("%zu replays", replays));
    report.Info("capture.stall_ms_per_batch", stall.median, "ms",
                stall.Describe("ms"));
    report.Info("disk_bytes_per_event", bytes / events, "B/event",
                "actual file bytes after clean Close");
    return;
  }

  // ---- traced run: untraced-async, traced-async and traced-sync
  // replays of each history in turn.
  SpanLog log(0);
  std::vector<double> untraced_ms, traced_ms, mean_depth, checkpoints;
  std::vector<ReplayResult> async_traced, sync_traced;
  EngineWindows windows;
  size_t cycle = 0;
  do {
    const Input& input = (*inputs)[cycle++ % kHistories];
    ReplayResult plain = ReplayAsync(input, report, nullptr, nullptr);
    untraced_ms.push_back(plain.seconds * 1e3 / plain.events);
    ReplayResult traced = ReplayAsync(input, report, nullptr, &log, &windows);
    traced_ms.push_back(traced.seconds * 1e3 / traced.events);
    mean_depth.push_back(traced.pipeline.mean_queue_depth);
    checkpoints.push_back(static_cast<double>(traced.after.checkpoints -
                                              traced.before.checkpoints));
    async_traced.push_back(traced);
    sync_traced.push_back(ReplaySync(input, report, log));
  } while (NowNs() < deadline);

  const std::vector<const SpanLog*> logs = {&log};
  // Capture: the async replays.
  const Summary enqueue = Summarize(Scaled(DurationsMs(logs, "capture.ingest_async"), 1e6));
  report.Set("capture.enqueue_ns_p50", enqueue.median);
  report.Set("capture.enqueue_ns_p99", enqueue.p99);
  uint64_t enqueued = 0, batches = 0, committed = 0, blocked = 0;
  double async_events = 0;
  PagerStats delta;
  for (const ReplayResult& r : async_traced) {
    async_events += r.events;
    enqueued += r.pipeline.enqueued;
    committed += r.pipeline.committed;
    batches += r.pipeline.batches;
    blocked += r.pipeline.blocked_enqueues;
    delta.commits += r.after.commits - r.before.commits;
    delta.pages_written += r.after.pages_written - r.before.pages_written;
    delta.fsyncs += r.after.fsyncs - r.before.fsyncs;
    delta.bytes_synced += r.after.bytes_synced - r.before.bytes_synced;
    delta.group_commits += r.after.group_commits - r.before.group_commits;
  }
  report.Set("capture.events_per_batch",
             batches ? static_cast<double>(committed) / batches : 0);
  report.Set("capture.blocked_enqueue_frac",
             enqueued ? static_cast<double>(blocked) / enqueued : 0);
  report.Set("capture.mean_queue_depth", Median(mean_depth));
  report.Set("capture.batch_commit_ms_mean", windows.batch_commit.Mean() / 1e3);

  // Prov and storage: the sync replays' spans.
  report.Set("prov.publish_us_per_event",
             Summarize(Scaled(DurationsMs(logs, "prov.publish"), 1e3)).mean);
  const Summary commit = Summarize(Scaled(DurationsMs(logs, "storage.commit"), 1e3));
  report.Set("storage.commits", static_cast<double>(delta.commits));
  report.Set("storage.commit_us_p50", commit.median);
  report.Set("storage.commit_us_p90", commit.p90);
  report.Set("storage.pages_written_per_event",
             static_cast<double>(delta.pages_written) / async_events);
  std::vector<double> modeled;
  for (const ReplayResult& r : sync_traced) {
    modeled.push_back(r.modeled_bytes / r.events);
  }
  report.Set("storage.modeled_disk_bytes_per_event", Median(modeled));

  // WAL: the async replays' pager counters.
  report.Set("wal.bytes_per_event",
             static_cast<double>(delta.bytes_synced) / async_events);
  report.Set("wal.fsyncs_per_1k_events",
             1e3 * static_cast<double>(delta.fsyncs) / async_events);
  report.Set("wal.txns_per_group",
             delta.group_commits
                 ? static_cast<double>(delta.commits) / delta.group_commits
                 : 0);
  report.Set("wal.fsync_us_mean", windows.fsync.Mean());
  report.Set("wal.checkpoints", Median(checkpoints));
  report.Set("wal.checkpoint_ms_mean", windows.checkpoint.Mean() / 1e3);

  report.Set("trace.unattributed_frac",
             UnattributedFrac(logs, {"loop.async", "loop.sync"}));
  report.Info("trace.unattributed_frac.async",
              UnattributedFrac(logs, {"loop.async"}), "fraction");
  report.Info("trace.unattributed_frac.sync",
              UnattributedFrac(logs, {"loop.sync"}), "fraction");
  SetOverhead(report, untraced_ms, traced_ms);
  WriteTrace(args, logs);
}

}  // namespace provbench
