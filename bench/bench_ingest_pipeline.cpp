// A1 — Asynchronous ingest pipeline: capture must never stall.
//
// The paper's feasibility argument is that provenance capture rides
// along with normal browsing. This bench puts a number on the two write
// paths at 1/2/4 capture threads on MemEnv with a simulated 100us
// device fsync (the bench_wal_commit device model), WAL + the facade's
// default group-commit window:
//
//   sync  — every capture thread calls ProvenanceDb::Ingest: one storage
//           transaction per event, serialized on the writer mutex, fsync
//           cadence fixed by the group-commit window.
//   async — every capture thread calls IngestAsync (a bounded-queue
//           push); the background committer coalesces pending events
//           into batched transactions and adaptively group-commits.
//
// Both runs are timed end to end INCLUDING the final durability barrier
// (Sync / Drain), so the comparison is honest about where the work
// went. Alongside throughput, the per-call latency the capture thread
// actually experiences (p99) is reported — the number that decides
// whether the browser UI hitches.
//
// Acceptance target: async >= 2x sync sustained throughput at 4 capture
// threads.
//
// The t4 async run is repeated kT4Trials times: the p99 of one run's
// 4,000 enqueues is its 40th slowest call, which a single preemption
// can move by an order of magnitude. The reported t4 enqueue figures are
// the medians of the per-trial values, the per-trial spread is printed
// beside them, and each trial splits the enqueue into its two waits —
// the queue mutex and the kBlock wait for space — to show which one
// owns the tail.
#include <algorithm>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "prov/provenance_db.hpp"
#include "storage/env.hpp"

namespace {

using namespace bp;
using namespace bp::bench;

constexpr uint32_t kSyncCostUs = 100;  // cheap-SSD fsync
constexpr int kT4Trials = 5;

capture::VisitEvent MakeVisit(int thread, int i) {
  capture::VisitEvent v;
  v.time = util::Days(1) + static_cast<util::TimeMs>(i) * 250;
  v.tab = static_cast<uint64_t>(thread) + 1;
  v.visit_id = static_cast<uint64_t>(thread) * 10000000 + i + 1;
  v.url = "https://t" + std::to_string(thread) + ".example/page/" +
          std::to_string(i % 500);
  v.title = "capture stream page";
  v.action = capture::NavigationAction::kTyped;
  return v;
}

std::vector<std::vector<capture::BrowserEvent>> MakeStreams(
    int threads, int per_thread) {
  std::vector<std::vector<capture::BrowserEvent>> streams(threads);
  for (int t = 0; t < threads; ++t) {
    streams[t].reserve(per_thread);
    for (int i = 0; i < per_thread; ++i) {
      streams[t].push_back(MakeVisit(t, i));
    }
  }
  return streams;
}

struct RunResult {
  double events_per_sec = 0;
  Percentiles call_us;  // per-event latency the capture thread paid
  capture::PipelineStats pipeline;
  uint64_t group_commits = 0;
  uint64_t fsyncs = 0;
};

RunResult Run(bool async, int threads, int per_thread) {
  storage::MemEnv env;
  env.set_sync_cost_us(kSyncCostUs);
  prov::ProvenanceDb::Options options;
  options.db.env = &env;
  options.async.enabled = async;  // sync baseline: no committer at all
  auto db = MustOk(prov::ProvenanceDb::Open("ingest.db", options), "open");

  auto streams = MakeStreams(threads, per_thread);
  std::vector<std::vector<double>> latencies(threads);
  const storage::PagerStats before = db->db().pager().stats();

  util::Stopwatch total;
  std::vector<std::thread> capture_threads;
  for (int t = 0; t < threads; ++t) {
    capture_threads.emplace_back([&, t] {
      latencies[t].reserve(streams[t].size());
      for (const capture::BrowserEvent& event : streams[t]) {
        util::Stopwatch call;
        if (async) {
          MustOk(db->IngestAsync(event).status(), "enqueue");
        } else {
          MustOk(db->Ingest(event), "ingest");
        }
        // Sub-us precision: an uncontended enqueue is a few hundred ns,
        // and a truncated-to-zero p50 would make the latency gate
        // meaningless.
        latencies[t].push_back(call.ElapsedMs() * 1000.0);
      }
    });
  }
  for (std::thread& t : capture_threads) t.join();
  // Same finish line for both paths: everything durable.
  if (async) {
    MustOk(db->Drain(), "drain");
  } else {
    MustOk(db->Sync(), "sync");
  }
  const double seconds = total.ElapsedMs() / 1000.0;
  const storage::PagerStats after = db->db().pager().stats();

  RunResult r;
  r.events_per_sec =
      static_cast<double>(threads) * per_thread / seconds;
  std::vector<double> all;
  for (auto& per_thread_samples : latencies) {
    all.insert(all.end(), per_thread_samples.begin(),
               per_thread_samples.end());
  }
  r.call_us = ComputePercentiles(std::move(all));
  r.pipeline = db->pipeline_stats();
  r.group_commits = after.group_commits - before.group_commits;
  r.fsyncs = after.fsyncs - before.fsyncs;
  return r;
}

// The middle of `values` (the upper middle for an even count).
double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Per-field medians of per-trial summaries.
Percentiles MedianOf(const std::vector<Percentiles>& trials) {
  auto field = [&](double Percentiles::*member) {
    std::vector<double> values;
    for (const Percentiles& t : trials) values.push_back(t.*member);
    return Median(std::move(values));
  };
  Percentiles out;
  out.p50 = field(&Percentiles::p50);
  out.p90 = field(&Percentiles::p90);
  out.p99 = field(&Percentiles::p99);
  out.max = field(&Percentiles::max);
  out.mean = field(&Percentiles::mean);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Init(argc, argv, "bench_ingest_pipeline");
  const int per_thread = State().smoke ? 1000 : 5000;
  Header("A1", "async ingest pipeline: capture threads vs the write path",
         "capture never stalls; async >= 2x sync throughput at 4 threads");
  Row("%d events/thread, MemEnv with %uus simulated fsync, WAL group "
      "window 8, ingest batch 256, timed to full durability; t4 async "
      "reported as the median of %d trials",
      per_thread, kSyncCostUs, kT4Trials);
  Blank();
  Row("%-8s %14s %14s %9s %16s %16s", "threads", "sync ev/s",
      "async ev/s", "speedup", "sync p99 (us)", "enqueue p99 (us)");

  bool pass = false;
  double speedup_at_4 = 0;
  std::vector<RunResult> t4_trials;
  for (int threads : {1, 2, 4}) {
    RunResult sync = Run(/*async=*/false, threads, per_thread);
    std::vector<RunResult> trials;
    for (int i = 0; i < (threads == 4 ? kT4Trials : 1); ++i) {
      trials.push_back(Run(/*async=*/true, threads, per_thread));
    }
    std::vector<double> events_per_sec;
    std::vector<Percentiles> call_us;
    for (const RunResult& trial : trials) {
      events_per_sec.push_back(trial.events_per_sec);
      call_us.push_back(trial.call_us);
    }
    const double async_events_per_sec = Median(events_per_sec);
    const Percentiles enqueue_us = MedianOf(call_us);
    const double speedup = async_events_per_sec / sync.events_per_sec;
    if (threads == 4) {
      speedup_at_4 = speedup;
      pass = speedup >= 2.0;
      t4_trials = trials;
    }
    Row("%-8d %14.0f %14.0f %8.2fx %16.1f %16.1f", threads,
        sync.events_per_sec, async_events_per_sec, speedup,
        sync.call_us.p99, enqueue_us.p99);
    const std::string suffix = "_t" + std::to_string(threads);
    Metric("sync_events_per_sec" + suffix, sync.events_per_sec);
    Metric("async_events_per_sec" + suffix, async_events_per_sec);
    Metric("async_speedup" + suffix, speedup);
    // Full tail-latency families (bench_diff.py gates the t4 enqueue
    // p50/p99 at a loose tolerance): the capture thread's experience.
    MetricPercentiles("sync_call_us" + suffix, sync.call_us);
    MetricPercentiles("enqueue_us" + suffix, enqueue_us);
  }

  // t4 async, trial by trial: the enqueue tail split into its two waits.
  // A call is never faster than its mutex wait, so when the wait's p99
  // reaches the call's p99 the mutex owns the tail.
  Blank();
  Row("t4 async enqueue, %d trials:", kT4Trials);
  Row("  %-6s %10s %10s %16s %14s %16s", "trial", "p50 (us)", "p99 (us)",
      "mutex p99 (us)", "kBlock waits", "kBlock p99 (us)");
  std::vector<double> p99s, lock_p99s, block_p99s;
  uint64_t block_waits = 0;
  for (size_t i = 0; i < t4_trials.size(); ++i) {
    const RunResult& trial = t4_trials[i];
    const double lock_p99 = trial.pipeline.lock_wait_ns.p99 / 1000.0;
    const double block_p99 = trial.pipeline.block_wait_ns.p99 / 1000.0;
    p99s.push_back(trial.call_us.p99);
    lock_p99s.push_back(lock_p99);
    block_p99s.push_back(block_p99);
    block_waits += trial.pipeline.block_wait_ns.count;
    Row("  %-6zu %10.2f %10.2f %16.2f %14llu %16.2f", i + 1,
        trial.call_us.p50, trial.call_us.p99, lock_p99,
        (unsigned long long)trial.pipeline.block_wait_ns.count, block_p99);
  }
  const double p99 = Median(p99s);
  const double lock_p99 = Median(lock_p99s);
  const double block_p99 = Median(block_p99s);
  const double spread =
      *std::max_element(p99s.begin(), p99s.end()) -
      *std::min_element(p99s.begin(), p99s.end());
  const char* owner = "neither wait (the push itself, or preemption "
                      "outside both waits)";
  if (block_waits > 0 && block_p99 >= p99 / 2) {
    owner = "the kBlock wait for queue space";
  } else if (lock_p99 >= p99 / 2) {
    owner = "the queue-mutex wait";
  }
  Row("  median p99 %.2f us (per-trial spread %.2f us); mutex-wait p99 "
      "%.2f us; tail owner: %s",
      p99, spread, lock_p99, owner);
  // The pipeline's own accounting for the heaviest configuration, from
  // the first trial: how much the committer coalesced and how the
  // adaptive group commit behaved.
  const RunResult& first = t4_trials.front();
  Metric("enqueue_us_t4_p99_spread", spread);
  Metric("enqueue_lock_wait_us_t4_p99", lock_p99);
  Metric("enqueue_block_waits_t4", static_cast<double>(block_waits));
  Metric("coalesced_txns_t4",
         static_cast<double>(first.pipeline.coalesced_txns));
  Metric("batches_t4", static_cast<double>(first.pipeline.batches));
  Metric("max_queue_depth_t4",
         static_cast<double>(first.pipeline.max_queue_depth));
  Metric("mean_queue_depth_t4", first.pipeline.mean_queue_depth);
  Metric("early_flushes_t4",
         static_cast<double>(first.pipeline.early_flushes));
  Metric("group_commits_t4", static_cast<double>(first.group_commits));
  Metric("async_fsyncs_t4", static_cast<double>(first.fsyncs));
  Row("  trial 1: %llu batches (%llu coalesced), queue depth "
      "max %llu / mean %.1f, %llu group commits, %llu fsyncs",
      (unsigned long long)first.pipeline.batches,
      (unsigned long long)first.pipeline.coalesced_txns,
      (unsigned long long)first.pipeline.max_queue_depth,
      first.pipeline.mean_queue_depth,
      (unsigned long long)first.group_commits,
      (unsigned long long)first.fsyncs);
  Blank();
  // The engine's own view of the same runs, through the process-wide
  // registry histograms (accumulated over every async Run above): the
  // cross-check that the obs instrumentation actually recorded.
  MetricObsHistogram("obs_enqueue_us",
                     *obs::MetricsRegistry::Global().GetHistogram(
                         "bp_ingest_enqueue_us", "", ""));
  MetricObsHistogram("obs_commit_batch_us",
                     *obs::MetricsRegistry::Global().GetHistogram(
                         "bp_ingest_commit_batch_us", "", ""));
  MetricObsHistogram("obs_batch_events",
                     *obs::MetricsRegistry::Global().GetHistogram(
                         "bp_ingest_batch_events", "", ""));
  Row("acceptance (async >= 2x sync at 4 capture threads): %s (%.2fx)",
      pass ? "PASS" : "FAIL", speedup_at_4);
  int json_status = Finish();
  return pass ? json_status : 1;
}
