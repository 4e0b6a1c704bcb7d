#include "capture/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"

namespace bp::capture {

using util::Result;
using util::Status;

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point from,
                   std::chrono::steady_clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

}  // namespace

IngestPipeline::IngestPipeline(PipelineOptions options, CommitFn commit,
                               SyncFn sync)
    : options_([&] {
        PipelineOptions o = options;
        o.queue_capacity = std::max<size_t>(1, o.queue_capacity);
        o.max_batch = std::max<size_t>(1, o.max_batch);
        return o;
      }()),
      commit_(std::move(commit)),
      sync_(std::move(sync)) {
  // Check before the committer starts: the thread calls these blindly.
  BP_CHECK(commit_ != nullptr && sync_ != nullptr);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  enqueue_latency_us_ = reg.GetHistogram(
      "bp_ingest_enqueue_us", "",
      "Capture-side Enqueue latency (us), including backpressure waits");
  commit_batch_latency_us_ = reg.GetHistogram(
      "bp_ingest_commit_batch_us", "",
      "Committer batch transaction latency (us)");
  sync_latency_us_ = reg.GetHistogram(
      "bp_ingest_sync_us", "", "Adaptive group-close sync latency (us)");
  batch_events_ = reg.GetHistogram(
      "bp_ingest_batch_events", "",
      "Events coalesced per committer storage transaction");
  queue_depth_gauge_ = reg.GetGauge("bp_ingest_queue_depth", "",
                                    "Events waiting in the ingest queue");
  committer_ = std::thread([this] { CommitterLoop(); });
}

IngestPipeline::~IngestPipeline() {
  {
    util::MutexLock lock(mu_);
    stop_ = true;
    // Shutdown behaves like a final Drain: the committer empties the
    // queue and closes the group before exiting (unless a sticky error
    // already made that impossible).
    flush_target_ = next_ticket_ - 1;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  committer_.join();
}

Result<IngestPipeline::Ticket> IngestPipeline::Enqueue(
    const BrowserEvent& event) {
  obs::ScopedTimerUs timer(enqueue_latency_us_);
  if (std::this_thread::get_id() == committer_.get_id()) {
    // A sink fed back into its own pipeline (e.g. async_sink()
    // subscribed to the bus the committer publishes to) would
    // re-enqueue every event it commits — an infinite loop that, under
    // kBlock backpressure, deadlocks the committer against itself the
    // moment the queue fills. Refuse instead of wedging.
    return Status::FailedPrecondition(
        "Enqueue from the committer thread: a sink is feeding the "
        "pipeline back into itself");
  }
  const auto wait_start = std::chrono::steady_clock::now();
  util::MutexLock lock(mu_);
  const auto locked = std::chrono::steady_clock::now();
  lock_wait_ns_.Record(ElapsedNs(wait_start, locked));
  if (!status_.ok()) return status_;
  if (stop_) return Status::Aborted("ingest pipeline is shutting down");
  if (queue_.size() >= options_.queue_capacity) {
    if (options_.backpressure == BackpressurePolicy::kReject) {
      ++stats_.rejected;
      return Status::BudgetExhausted(util::StrFormat(
          "ingest queue full (%zu events)", options_.queue_capacity));
    }
    ++stats_.blocked_enqueues;
    // Explicit wait loop (not the predicate overload): the analysis
    // checks a predicate lambda as its own function, where mu_ is not
    // visibly held — see util/mutex.hpp.
    while (queue_.size() >= options_.queue_capacity && status_.ok() &&
           !stop_) {
      space_cv_.wait(lock.native());
    }
    block_wait_ns_.Record(
        ElapsedNs(locked, std::chrono::steady_clock::now()));
    if (!status_.ok()) return status_;
    if (stop_) return Status::Aborted("ingest pipeline is shutting down");
  }
  queue_.push_back(event);
  Ticket ticket = next_ticket_++;
  ++stats_.enqueued;
  stats_.max_queue_depth =
      std::max<uint64_t>(stats_.max_queue_depth, queue_.size());
  // Depth is sampled at both transition points (here and at batch pop):
  // see PipelineStats::mean_queue_depth.
  ++depth_samples_;
  depth_sum_ += queue_.size();
  queue_depth_gauge_->Set(static_cast<int64_t>(queue_.size()));
  work_cv_.notify_one();
  return ticket;
}

Status IngestPipeline::Flush(Ticket ticket) {
  util::MutexLock lock(mu_);
  ticket = std::min(ticket, next_ticket_ - 1);
  if (durable_ >= ticket) return Status::Ok();  // already acknowledged
  if (!status_.ok()) return status_;
  flush_target_ = std::max(flush_target_, ticket);
  work_cv_.notify_one();
  while (durable_ < ticket && status_.ok()) {
    ack_cv_.wait(lock.native());
  }
  return durable_ >= ticket ? Status::Ok() : status_;
}

IngestPipeline::Ticket IngestPipeline::last_enqueued() const {
  util::MutexLock lock(mu_);
  return next_ticket_ - 1;
}

IngestPipeline::Ticket IngestPipeline::durable_ticket() const {
  util::MutexLock lock(mu_);
  return durable_;
}

Status IngestPipeline::status() const {
  util::MutexLock lock(mu_);
  return status_;
}

PipelineStats IngestPipeline::stats() const {
  util::MutexLock lock(mu_);
  PipelineStats out = stats_;
  out.mean_queue_depth =
      depth_samples_ == 0
          ? 0.0
          : static_cast<double>(depth_sum_) /
                static_cast<double>(depth_samples_);
  out.lock_wait_ns = lock_wait_ns_.snapshot();
  out.block_wait_ns = block_wait_ns_.snapshot();
  return out;
}

void IngestPipeline::CommitterLoop() {
  util::MutexLock lock(mu_);
  for (;;) {
    while (!(stop_ || !queue_.empty() || SyncWantedLocked())) {
      work_cv_.wait(lock.native());
    }

    if (!queue_.empty() && status_.ok()) {
      // Adaptive batch: take whatever is pending, up to the cap, into
      // one storage transaction — a deep queue amortizes per-commit
      // cost, a queue of one stays a low-latency single-event commit.
      const size_t n = std::min(queue_.size(), options_.max_batch);
      std::vector<BrowserEvent> batch;
      batch.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      const Ticket batch_last = popped_ + n;
      popped_ = batch_last;
      const size_t backlog = queue_.size();
      ++depth_samples_;
      depth_sum_ += backlog;
      queue_depth_gauge_->Set(static_cast<int64_t>(backlog));
      batch_events_->Record(n);
      space_cv_.notify_all();

      lock.Unlock();
      Result<bool> durable = false;
      {
        obs::ScopedTimerUs batch_timer(commit_batch_latency_us_);
        obs::ScopedSpan span("pipeline.commit_batch");
        durable = commit_(std::move(batch), backlog);
      }
      lock.Lock();

      if (!durable.ok()) {
        status_ = durable.status();
      } else {
        committed_ = batch_last;
        ++stats_.batches;
        stats_.committed += n;
        if (n > 1) ++stats_.coalesced_txns;
        if (*durable) durable_ = committed_;
      }
    }

    // Adaptive group close: the storage group-commit window is a
    // CEILING. When the queue runs dry — or a Flush barrier (including
    // shutdown) is waiting — make the committed tail durable now
    // instead of letting it sit until the window fills.
    if (status_.ok() && durable_ < committed_ &&
        (queue_.empty() || flush_target_ > durable_)) {
      lock.Unlock();
      Status synced;
      {
        obs::ScopedTimerUs sync_timer(sync_latency_us_);
        obs::ScopedSpan span("pipeline.sync");
        synced = sync_();
      }
      lock.Lock();
      if (!synced.ok()) {
        status_ = synced;
      } else {
        durable_ = committed_;
        ++stats_.early_flushes;
      }
    }

    if (!status_.ok() && !queue_.empty()) {
      // Sticky failure: nothing behind the failed batch will ever
      // commit. Drop the backlog so blocked producers stop waiting for
      // space that would never drain; their events are reported lost
      // through the sticky status, never silently.
      queue_.clear();
      popped_ = next_ticket_ - 1;
      space_cv_.notify_all();
    }
    ack_cv_.notify_all();

    if (stop_ && (queue_.empty() || !status_.ok())) return;
  }
}

}  // namespace bp::capture
