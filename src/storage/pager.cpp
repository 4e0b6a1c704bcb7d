#include "storage/pager.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/snapshot.hpp"
#include "util/require.hpp"
#include "util/serde.hpp"
#include "util/strings.hpp"
#include "wal/checkpointer.hpp"
#include "wal/wal_writer.hpp"

namespace bp::storage {

using util::Reader;
using util::Result;
using util::Status;
using util::Writer;

// The multi-domain paths below are unrolled per domain (not looped) so
// the thread-safety analysis can match each MutexLock against the
// BP_REQUIRES expression of the helper it guards.
static_assert(kMaxWriteDomains == 2,
              "unrolled domain lock sites assume exactly 2 domains");

// ---------------------------------------------------------------- PageRef

PageRef::PageRef(Pager* pager, internal::Frame* frame, bool writable)
    : pager_(pager), frame_(frame), writable_(writable) {
  ++frame_->pins;
}

PageRef::~PageRef() {
  if (frame_ != nullptr) pager_->Unpin(frame_);
}

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    if (frame_ != nullptr) pager_->Unpin(frame_);
    pager_ = other.pager_;
    frame_ = other.frame_;
    writable_ = other.writable_;
    other.pager_ = nullptr;
    other.frame_ = nullptr;
  }
  return *this;
}

PageId PageRef::id() const {
  BP_REQUIRE(valid());
  return frame_->id;
}

const char* PageRef::data() const {
  BP_REQUIRE(valid());
  return frame_->data.data();
}

char* PageRef::mutable_data() {
  BP_REQUIRE(valid() && writable_, "page not acquired via GetMutable");
  return frame_->data.data();
}

// ----------------------------------------------------------------- Pager

Pager::Pager(std::string path, PagerOptions options)
    : path_(std::move(path)), options_(options) {
  lru_.lru_prev = &lru_;
  lru_.lru_next = &lru_;
}

Result<std::unique_ptr<Pager>> Pager::Open(std::string path,
                                           PagerOptions options) {
  std::unique_ptr<Pager> pager(new Pager(std::move(path), options));
  // A rollback journal left by an earlier build's crashed commit means
  // the database file may be half-written, and only that build could
  // roll it back. Refuse before touching anything.
  const std::string journal = pager->path_ + ".journal";
  if (options.env->Exists(journal)) {
    return Status::FailedPrecondition("hot rollback journal left by an "
                                      "earlier build (cannot roll it back): " +
                                      journal);
  }
  BP_ASSIGN_OR_RETURN(pager->file_, options.env->Open(pager->path_));

  // Replay the mutually consistent committed prefix of any write-ahead
  // log streams a crash left behind.
  BP_RETURN_IF_ERROR(pager->RecoverFromWal());

  BP_ASSIGN_OR_RETURN(uint64_t size, pager->file_->Size());
  if (size == 0) {
    BP_RETURN_IF_ERROR(pager->InitializeNewDb());
  } else {
    if (size % kPageSize != 0) {
      return Status::Corruption("database size is not a multiple of the "
                                "page size: " +
                                pager->path_);
    }
    BP_RETURN_IF_ERROR(pager->LoadHeader());
  }
  // The WAL fold may have replayed transactions that never dirtied the
  // header page, leaving the on-disk commit_seq behind the commits the
  // database file now contains. Advance it so the streams created below
  // carry the true base and freshly stamped commits never collide with
  // replayed ones. (Durability of this patch is optional: if it is
  // lost, the folded data is still ahead of the restarted counter and
  // base_seq anchors recovery — sequence numbers are labels, the page
  // images are the truth.)
  if (pager->recovered_commit_seq_ > pager->commit_seq_) {
    pager->commit_seq_ = pager->recovered_commit_seq_;
    BP_RETURN_IF_ERROR(pager->file_->Write(0, pager->SerializedHeader()));
  }
  pager->main_file_pages_ = pager->page_count_;

  pager->write_domains_ = std::clamp<uint32_t>(pager->options_.write_domains,
                                               1, kMaxWriteDomains);
  for (uint32_t d = 0; d < pager->write_domains_; ++d) {
    BP_ASSIGN_OR_RETURN(pager->domains_[d].wal,
                        wal::WalWriter::Open(options.env, pager->WalPath(d),
                                             d, pager->commit_seq_));
    pager->domains_[d].last_commit_seq = pager->commit_seq_;
  }
  // The shared versioned buffer pool serves the whole read path.
  if (options.buffer_pool != nullptr) {
    pager->pool_ = options.buffer_pool;
  } else if (options.pool_bytes > 0) {
    // The pager's compression options drive the pool's cold tier too
    // (an injected shared pool keeps whatever its creator chose).
    pager->pool_ = std::make_shared<BufferPool>(options.pool_bytes,
                                                options.compression);
  }
  if (pager->pool_ != nullptr) {
    pager->pool_owner_ = BufferPool::NextOwnerId();
  }
  pager->PublishCommittedState();

  // Observability: latency histograms are process-wide (one distribution
  // across every pager); per-instance counters export through a pull
  // collector labeled with the database path. The raw pointer in the
  // collector is safe: ~Pager removes the collector before tearing
  // anything down, and RemoveCollector blocks out in-flight dumps.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  pager->commit_latency_us_ = reg.GetHistogram(
      "bp_commit_us", "",
      "End-to-end Pager::Commit latency (us)");
  pager->fsync_latency_us_ = reg.GetHistogram(
      "bp_wal_fsync_us", "", "WAL log fsync latency (us)");
  pager->group_commit_txns_ = reg.GetHistogram(
      "bp_wal_group_commit_txns", "",
      "Committed transactions retired per group-commit window");
  pager->checkpoint_latency_us_ = reg.GetHistogram(
      "bp_pager_checkpoint_us", "",
      "WAL checkpoint (sync + fold + log reset) latency (us)");
  pager->decompress_latency_us_ = reg.GetHistogram(
      "bp_decompress_us", "",
      "Main-file compressed page frame decode latency (us)");
  Pager* raw = pager.get();
  pager->metrics_token_ = reg.AddCollector(
      [raw](obs::CollectionSink& sink) { raw->CollectMetrics(sink); });
  return pager;
}

Pager::~Pager() {
  // First thing: detach from the metrics registry, so no dump can call
  // CollectMetrics on a pager that is mid-teardown (RemoveCollector
  // blocks until any in-flight dump finishes with the callback).
  if (metrics_token_ != 0) {
    obs::MetricsRegistry::Global().RemoveCollector(metrics_token_);
  }
  // A snapshot outliving its pager would read through dangling file
  // handles; that is a caller bug, not a recoverable condition.
  BP_CHECK(live_snapshots() == 0,
           "all snapshots must be released before the pager closes");
  if (in_txn_) (void)Rollback();
  // Clean close: make every commit durable, fold ALL streams into the
  // database file, and retire them. The streams are only removed when
  // the fold fully succeeded; on failure they stay behind as the sole
  // copy of the committed pages, and the next Open replays them. A
  // pager whose Open failed before its streams existed has none.
  if (domains_[0].wal != nullptr) {
    bool folded = Checkpoint().ok();  // Checkpoint syncs the logs first
    for (auto& dom : domains_) dom.wal.reset();
    if (folded) {
      for (uint32_t d = 0; d < kMaxWriteDomains; ++d) {
        (void)options_.env->Remove(WalPath(d));
      }
    }
  }
  // Give the shared pool its bytes back: this owner id is never reused,
  // so frames published under it are unreachable from here on — without
  // the drop they would hold budget other databases sharing the pool
  // could use (see BufferPool::DropOwner).
  if (pool_ != nullptr) pool_->DropOwner(pool_owner_);
}

Status Pager::InitializeNewDb() {
  page_count_ = 1;  // header page
  freelist_head_ = kNoPage;
  freelist_count_ = 0;
  catalog_root_ = kNoPage;
  commit_seq_ = 0;

  std::string page = SerializedHeader();
  page.resize(kPageSize, '\0');
  BP_RETURN_IF_ERROR(file_->Write(0, page));
  if (options_.sync) {
    BP_RETURN_IF_ERROR(file_->Sync());
    ++stats_.sync.fsyncs;
    stats_.sync.bytes_synced += kPageSize;
  }
  return Status::Ok();
}

Status Pager::LoadHeader() {
  std::string raw;
  BP_RETURN_IF_ERROR(file_->Read(0, kPageSize, &raw));
  Reader r(raw);
  uint32_t magic = r.ReadU32();
  uint32_t version = r.ReadU32();
  uint32_t page_size = r.ReadU32();
  page_count_ = r.ReadU32();
  freelist_head_ = r.ReadU32();
  freelist_count_ = r.ReadU32();
  catalog_root_ = r.ReadU32();
  commit_seq_ = r.ReadU64();
  if (!r.ok() || magic != kDbMagic) {
    return Status::Corruption("bad database header: " + path_);
  }
  if (version != kDbVersion) {
    return Status::InvalidArgument(
        util::StrFormat("unsupported db version %u", version));
  }
  if (page_size != kPageSize) {
    return Status::InvalidArgument(
        util::StrFormat("page size mismatch: file %u, build %u", page_size,
                        kPageSize));
  }
  if (page_count_ == 0) {
    return Status::Corruption("zero page count: " + path_);
  }
  return Status::Ok();
}

// The single serializer for the page-0 header fields; LoadHeader and
// Rollback's cached-header reload are the matching deserializers.
std::string Pager::SerializedHeader() const {
  Writer w;
  w.PutU32(kDbMagic);
  w.PutU32(kDbVersion);
  w.PutU32(kPageSize);
  w.PutU32(page_count_);
  w.PutU32(freelist_head_);
  w.PutU32(freelist_count_);
  w.PutU32(catalog_root_);
  w.PutU64(commit_seq_);
  BP_CHECK(w.size() <= kPageSize);
  return std::move(w).data();
}

Status Pager::WriteHeaderToFrame() {
  BP_ASSIGN_OR_RETURN(PageRef ref, GetMutable(0));
  std::string bytes = SerializedHeader();
  std::copy(bytes.begin(), bytes.end(), ref.mutable_data());
  return Status::Ok();
}

Status Pager::RecoverFromWal() {
  // Probe EVERY possible stream path, not just the configured
  // write_domains: the database may reopen with fewer domains than the
  // run that crashed, and a stream it does not know about may hold the
  // tail of the merged commit order.
  std::vector<std::string> paths;
  bool any = false;
  for (uint32_t d = 0; d < kMaxWriteDomains; ++d) {
    paths.push_back(WalPath(d));
    if (options_.env->Exists(paths.back())) any = true;
  }
  if (!any) return Status::Ok();

  // Fold the mutually consistent merged prefix that survived: per
  // stream, torn tails — the transaction whose fsync never finished —
  // are ignored by the reader; across streams, the merge stops at the
  // first missing commit sequence (see Checkpointer::FoldStreams).
  BP_ASSIGN_OR_RETURN(
      wal::CheckpointResult folded,
      wal::Checkpointer::FoldStreams(options_.env, file_.get(), paths,
                                     options_.sync, options_.compression));
  if (folded.synced_db) {
    ++stats_.sync.fsyncs;
    stats_.sync.bytes_synced += folded.bytes_written;
  }
  stats_.compressed_pages.Inc(folded.pages_compressed);
  stats_.compressed_bytes.Inc(folded.compressed_bytes);
  stats_.compressible_raw_bytes.Inc(folded.raw_bytes_replaced);
  recovered_commit_seq_ = folded.last_commit_seq;
  // Idempotent up to here: a crash before (or between) these Removes
  // just refolds on the next Open — the fold is already durable, so a
  // re-read of the surviving streams merges to a prefix of what this
  // fold wrote.
  for (const auto& path : paths) {
    if (options_.env->Exists(path)) {
      BP_RETURN_IF_ERROR(options_.env->Remove(path));
    }
  }
  return Status::Ok();
}

Status Pager::SyncDomainLocked(WalDomain& dom) {
  if (dom.wal == nullptr) return Status::Ok();
  // Snapshot the pending count first: the acquire pairs with the
  // committing thread's release fetch_add, so the stream bytes those
  // commits appended are visible to the Sync below. Commits that land
  // after this load stay pending for the next window.
  const uint32_t pending =
      dom.unsynced_commits.load(std::memory_order_acquire);
  if (pending == 0) return Status::Ok();
  // A window retiring >= 1 committed transaction is one group commit,
  // whether it filled to the ceiling or was closed early (FlushPending,
  // checkpoint, close). Counted even with sync=false so benches that
  // model fsync cost elsewhere still see the grouping behavior.
  ++stats_.sync.group_commits;
  dom.stat_group_commits.fetch_add(1, std::memory_order_relaxed);
  if (group_commit_txns_ != nullptr) group_commit_txns_->Record(pending);
  if (!options_.sync) {
    dom.unsynced_commits.fetch_sub(pending, std::memory_order_relaxed);
    return Status::Ok();
  }
  uint64_t made_durable;
  {
    obs::ScopedTimerUs timer(fsync_latency_us_);
    // An fsync that starts while another stream's fsync is in flight is
    // the overlap the domain split exists to create.
    if (fsyncs_in_flight_.fetch_add(1, std::memory_order_relaxed) > 0) {
      ++stats_.sync.fsync_overlaps;
    }
    util::Result<uint64_t> synced = dom.wal->Sync();
    fsyncs_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    BP_RETURN_IF_ERROR(synced.status());
    made_durable = *synced;
  }
  // Retire the window only once the fsync SUCCEEDED: a failed sync
  // leaves the counter full, so the very next commit retries instead of
  // accumulating another whole window of unsynced transactions.
  // Subtract (not store 0): commits may have landed since the load.
  dom.unsynced_commits.fetch_sub(pending, std::memory_order_relaxed);
  if (made_durable > 0) {
    ++stats_.sync.fsyncs;
    stats_.sync.bytes_synced += made_durable;
    dom.stat_fsyncs.fetch_add(1, std::memory_order_relaxed);
    dom.stat_bytes_synced.fetch_add(made_durable,
                                    std::memory_order_relaxed);
  }
  return Status::Ok();
}

Status Pager::SyncWal() {
  // Ack barrier: ALL domains, ascending id (see the lock-order note in
  // the header) — an acked commit needs every earlier merged sequence
  // durable too, and those may live on any stream.
  {
    util::MutexLock lock(domains_[0].mu);
    BP_RETURN_IF_ERROR(SyncDomainLocked(domains_[0]));
  }
  {
    util::MutexLock lock(domains_[1].mu);
    BP_RETURN_IF_ERROR(SyncDomainLocked(domains_[1]));
  }
  return Status::Ok();
}

Status Pager::SyncWalDomain(WriteDomain domain) {
  BP_REQUIRE(domain < kMaxWriteDomains, "invalid write domain");
  if (domain == 0) {
    util::MutexLock lock(domains_[0].mu);
    return SyncDomainLocked(domains_[0]);
  }
  util::MutexLock lock(domains_[1].mu);
  return SyncDomainLocked(domains_[1]);
}

Result<bool> Pager::FlushPending() {
  if (unsynced_commits() == 0) return false;
  BP_RETURN_IF_ERROR(SyncWal());
  return true;
}

uint32_t Pager::unsynced_commits() const {
  uint32_t total = 0;
  for (const WalDomain& dom : domains_) {
    total += dom.unsynced_commits.load(std::memory_order_relaxed);
  }
  return total;
}

uint32_t Pager::unsynced_commits(WriteDomain domain) const {
  BP_REQUIRE(domain < kMaxWriteDomains, "invalid write domain");
  return domains_[domain].unsynced_commits.load(std::memory_order_relaxed);
}

Status Pager::Checkpoint() {
  if (in_txn_) {
    return Status::FailedPrecondition(
        "Checkpoint during an open transaction");
  }
  // Hold commit_mu_ for the whole fold: a snapshot beginning mid-fold
  // would otherwise read the database file while the checkpointer is
  // rewriting it. BeginRead blocks for the (rare, bounded) duration.
  util::MutexLock lock(commit_mu_);
  if (live_snapshots_ > 0) {
    return Status::FailedPrecondition(
        "Checkpoint with live snapshots: they pin WAL frames; release "
        "them first (automatic checkpoints retry at the next commit)");
  }
  // Timed from here: the deferred-checkpoint early-outs above would
  // otherwise flood the histogram with near-zero samples.
  obs::ScopedTimerUs timer(checkpoint_latency_us_);
  obs::ScopedSpan span("pager.checkpoint");
  // Both domain mutexes, ascending id, held across sync + fold + reset:
  // no stream may be fsynced (by the maintenance lane) or appended
  // while its file is being folded and truncated.
  util::MutexLock lock0(domains_[0].mu);
  util::MutexLock lock1(domains_[1].mu);
  // The logs must be durable before their pages land in the database
  // file (log ahead of data): otherwise a crash could leave the
  // database with pages from a transaction no log can prove committed.
  BP_RETURN_IF_ERROR(SyncDomainLocked(domains_[0]));
  BP_RETURN_IF_ERROR(SyncDomainLocked(domains_[1]));
  std::vector<std::string> paths;
  for (uint32_t d = 0; d < write_domains_; ++d) paths.push_back(WalPath(d));
  // sync=false: the header patch below joins the fold under ONE fsync.
  BP_ASSIGN_OR_RETURN(
      wal::CheckpointResult folded,
      wal::Checkpointer::FoldStreams(options_.env, file_.get(), paths,
                                     /*sync=*/false, options_.compression));
  stats_.compressed_pages.Inc(folded.pages_compressed);
  stats_.compressed_bytes.Inc(folded.compressed_bytes);
  stats_.compressible_raw_bytes.Inc(folded.raw_bytes_replaced);
  if (folded.ran) {
    // Transactions that never dirtied the header page leave the folded
    // on-disk commit_seq stale; rewrite it from the authoritative
    // in-memory value before the fsync.
    BP_RETURN_IF_ERROR(file_->Write(0, SerializedHeader()));
    if (options_.sync) {
      BP_RETURN_IF_ERROR(file_->Sync());
      ++stats_.sync.fsyncs;
      stats_.sync.bytes_synced += folded.bytes_written;
    }
    main_file_pages_ = std::max(main_file_pages_, folded.page_count);
  }
  for (uint32_t d = 0; d < write_domains_; ++d) {
    BP_RETURN_IF_ERROR(domains_[d].wal->ResetToHeader(commit_seq_));
  }
  wal_index_.clear();
  stats_.checkpoints.Inc();
  if (folded.ran) {
    // The fold rewrote main-file pages and freed every stream's offsets
    // for reuse: new generations, so no stale pool key can ever resolve.
    ++main_generation_;
    for (uint32_t d = 0; d < write_domains_; ++d) ++domains_[d].generation;
  }
  PublishLocked(std::make_shared<std::unordered_map<PageId, uint64_t>>());
  return Status::Ok();
}

Status Pager::MaybeCheckpoint() {
  if (in_txn_ || live_snapshots() > 0) {
    // Deferred while snapshots are live; retried at the next commit.
    return Status::Ok();
  }
  uint64_t total_bytes = 0;
  for (uint32_t d = 0; d < write_domains_; ++d) {
    total_bytes += domains_[d].wal->SizeBytes();
  }
  if (total_bytes < options_.wal_checkpoint_bytes) return Status::Ok();
  Status folded = Checkpoint();
  if (folded.code() == util::StatusCode::kFailedPrecondition) {
    // A reader opened a snapshot between the check above and the
    // checkpoint taking its lock: same deferral, next commit retries.
    return Status::Ok();
  }
  return folded;
}

void Pager::PublishLocked(
    std::shared_ptr<std::unordered_map<PageId, uint64_t>> index) {
  published_.commit_seq = commit_seq_;
  published_.page_count = page_count_;
  published_.catalog_root = catalog_root_;
  published_.main_file_pages = main_file_pages_;
  published_.main_generation = main_generation_;
  for (uint32_t d = 0; d < kMaxWriteDomains; ++d) {
    published_.domain_commit_seq[d] = domains_[d].last_commit_seq;
    published_.domain_generation[d] = domains_[d].generation;
  }
  if (index != nullptr) published_.wal_index = std::move(index);
}

void Pager::PublishCommittedState() {
  util::MutexLock lock(commit_mu_);
  PublishLocked(
      std::make_shared<std::unordered_map<PageId, uint64_t>>(wal_index_));
}

void Pager::PublishCommitDelta(
    const std::vector<std::pair<PageId, uint64_t>>& offsets) {
  util::MutexLock lock(commit_mu_);
  // use_count can only grow under commit_mu_ (BeginRead) — a snapshot
  // destructor may decrement it concurrently, which at worst makes us
  // copy when in-place would have been safe.
  if (published_.wal_index == nullptr ||
      published_.wal_index.use_count() > 1) {
    PublishLocked(
        std::make_shared<std::unordered_map<PageId, uint64_t>>(wal_index_));
    return;
  }
  for (const auto& [id, slot] : offsets) {
    (*published_.wal_index)[id] = slot;
  }
  PublishLocked(nullptr);
}

util::Result<std::unique_ptr<Snapshot>> Pager::BeginRead() {
  util::MutexLock lock(commit_mu_);
  std::unique_ptr<Snapshot> snap(new Snapshot());
  snap->pager_ = this;
  snap->commit_seq_ = published_.commit_seq;
  snap->domain_commit_seq_ = published_.domain_commit_seq;
  snap->page_count_ = published_.page_count;
  snap->catalog_root_ = published_.catalog_root;
  snap->main_file_pages_ = published_.main_file_pages;
  snap->main_generation_ = published_.main_generation;
  snap->domain_generation_ = published_.domain_generation;
  snap->wal_index_ = published_.wal_index;
  snap->pool_ = pool_;
  snap->pool_owner_ = pool_owner_;
  snap->cache_cap_ = options_.cache_pages;
  ++live_snapshots_;
  return snap;
}

uint32_t Pager::live_snapshots() const {
  util::MutexLock lock(commit_mu_);
  return live_snapshots_;
}

void Pager::ReleaseSnapshot(const SnapshotStats& final_stats) {
  util::MutexLock lock(commit_mu_);
  BP_CHECK(live_snapshots_ > 0);
  --live_snapshots_;
  retired_snapshot_stats_.pages_read += final_stats.pages_read;
  retired_snapshot_stats_.cache_hits += final_stats.cache_hits;
  retired_snapshot_stats_.pool_hits += final_stats.pool_hits;
  retired_snapshot_stats_.decompress_reads += final_stats.decompress_reads;
}

Status Pager::Begin(WriteDomain domain) {
  BP_REQUIRE(!in_txn_, "nested transactions are not supported");
  in_txn_ = true;
  // Clamp instead of reject: a caller built for 2 domains keeps working
  // against a 1-domain pager, it just shares the stream.
  txn_domain_ = std::min(domain, write_domains_ - 1);
  before_images_.clear();
  fresh_pages_.clear();
  txn_orig_page_count_ = page_count_;
  return Status::Ok();
}

Status Pager::Commit() {
  BP_REQUIRE(in_txn_, "Commit outside a transaction");
  obs::ScopedTimerUs timer(commit_latency_us_);
  obs::ScopedSpan span("pager.commit");

  // Collect dirty frames.
  std::vector<internal::Frame*> dirty;
  for (auto& [id, frame] : frames_) {
    if (frame->dirty) dirty.push_back(frame.get());
  }
  if (dirty.empty()) {
    in_txn_ = false;
    stats_.commits.Inc();
    return Status::Ok();
  }
  std::sort(dirty.begin(), dirty.end(),
            [](const internal::Frame* a, const internal::Frame* b) {
              return a->id < b->id;
            });

  BP_RETURN_IF_ERROR(CommitViaWal(dirty));

  for (internal::Frame* frame : dirty) frame->dirty = false;
  before_images_.clear();
  fresh_pages_.clear();
  in_txn_ = false;
  stats_.commits.Inc();
  MaybeEvict();

  // Make the new commit visible to BeginRead: the log write above
  // happens-before the publication, so a snapshot that observes this
  // commit_seq can read every frame slot its index names.
  PublishCommitDelta(last_commit_offsets_);

  // Group commit: the transaction is fully retired above BEFORE the
  // fsync is attempted, because once its commit frame is in the log it
  // IS committed — a sync failure here means durability is not yet
  // guaranteed (the caller may retry SyncWal), never that the commit
  // can be rolled back. Flushing inside CommitViaWal would let an
  // fsync error leave in_txn_ set and a later Rollback tear cached
  // pages away from the log's committed images.
  //
  // Only THIS transaction's stream is synced (its window filled); a
  // full window on one domain never drags the other domain's device
  // into the wait. This is not an ack — callers that promise
  // durability go through SyncWal/FlushPending, which sync all
  // domains so no earlier merged sequence can be lost under an acked
  // one.
  if (unsynced_commits(txn_domain_) >= options_.wal_group_commit) {
    BP_RETURN_IF_ERROR(SyncWalDomain(txn_domain_));
  }
  // Fold the logs into the main file if they crossed the size threshold.
  return MaybeCheckpoint();
}

Status Pager::CommitViaWal(const std::vector<internal::Frame*>& dirty) {
  WalDomain& dom = domains_[txn_domain_];
  ++commit_seq_;
  // One page-image frame per dirty page, then the commit frame, appended
  // to the transaction's domain stream in a single sequential write.
  // The database file is not touched; that is the checkpointer's job.
  std::vector<std::pair<PageId, uint64_t>>& offsets =
      last_commit_offsets_;  // kept for PublishCommitDelta
  offsets.clear();
  offsets.reserve(dirty.size());
  for (internal::Frame* frame : dirty) {
    if (frame->id == 0) {
      // Refresh the header bytes with the final committed field values
      // (mid-transaction WriteHeaderToFrame calls capture intermediates).
      std::string header = SerializedHeader();
      std::copy(header.begin(), header.end(), frame->data.data());
    }
    offsets.emplace_back(
        frame->id,
        MakeWalSlot(txn_domain_, dom.wal->AddPage(frame->id, frame->data)));
  }
  Status appended = dom.wal->CommitTxn(commit_seq_, page_count_);
  if (!appended.ok()) {
    dom.wal->AbandonTxn();
    --commit_seq_;
    return appended;
  }
  dom.last_commit_seq = commit_seq_;
  for (const auto& [id, slot] : offsets) wal_index_[id] = slot;
  stats_.wal_frames.Inc(dirty.size());
  stats_.pages_written.Inc(dirty.size());
  dom.stat_commits.fetch_add(1, std::memory_order_relaxed);
  dom.stat_wal_frames.fetch_add(dirty.size(), std::memory_order_relaxed);
  // Release: pairs with the acquire load in SyncDomainLocked — a sync
  // (possibly on another thread) that observes this commit as pending
  // also observes its appended bytes.
  dom.unsynced_commits.fetch_add(1, std::memory_order_release);
  // Publish the freshly committed images into the shared pool, so
  // snapshot readers (and repeated one-shot queries) hit hot pages —
  // tree roots, the catalog — without ever touching the log.
  // `offsets` and `dirty` are index-aligned (built by the same loop).
  if (pool_ != nullptr && options_.pool_publish_on_commit) {
    for (size_t i = 0; i < dirty.size(); ++i) {
      PublishToPool(PageImageKey{pool_owner_, offsets[i].first,
                                 dom.generation, offsets[i].second},
                    std::string(dirty[i]->data));
    }
  }
  return Status::Ok();
}

Status Pager::Rollback() {
  BP_REQUIRE(in_txn_, "Rollback outside a transaction");

  // Restore before-images in cache; drop frames for pages that did not
  // exist before the transaction.
  for (auto& [id, image] : before_images_) {
    auto it = frames_.find(id);
    if (it != frames_.end()) {
      it->second->data = image;
      it->second->dirty = false;
    }
  }
  for (auto& [id, unused] : fresh_pages_) {
    (void)unused;
    auto it = frames_.find(id);
    if (it != frames_.end()) {
      BP_CHECK(it->second->pins == 0, "rolling back a pinned fresh page");
      LruRemove(it->second.get());
      frames_.erase(it);
    }
  }

  // Restore header fields from the (now clean) cached header frame, or
  // from disk if it was never touched.
  page_count_ = txn_orig_page_count_;
  auto hit = frames_.find(0);
  if (hit != frames_.end()) {
    Reader r(hit->second->data);
    r.Skip(4 + 4 + 4);  // magic, version, page_size
    page_count_ = r.ReadU32();
    freelist_head_ = r.ReadU32();
    freelist_count_ = r.ReadU32();
    catalog_root_ = r.ReadU32();
    commit_seq_ = r.ReadU64();
  }

  before_images_.clear();
  fresh_pages_.clear();
  in_txn_ = false;
  ++change_count_;
  stats_.rollbacks.Inc();
  return Status::Ok();
}

Result<internal::Frame*> Pager::FetchFrame(PageId id) {
  // Ids come from on-disk child/sibling pointers, so an out-of-range one
  // is damage to report, not a caller bug to throw on.
  if (id >= page_count_) {
    return Status::Corruption(util::StrFormat(
        "page %u out of range (%u): %s", id, page_count_, path_.c_str()));
  }
  auto it = frames_.find(id);
  if (it != frames_.end()) {
    stats_.cache_hits.Inc();
    LruTouch(it->second.get());
    return it->second.get();
  }
  stats_.cache_misses.Inc();
  auto frame = std::make_unique<internal::Frame>();
  frame->id = id;
  // A miss can only be a clean committed page (dirty frames are never
  // evicted), so the shared pool may already hold its image — published
  // at commit, by an evicted twin, or by a snapshot reader that fetched
  // it first. Copy it out instead of touching the log/database file.
  PageImageKey pool_key;
  bool pooled = false;
  if (CommittedImageKey(id, &pool_key)) {
    if (std::shared_ptr<const std::string> image = pool_->Lookup(pool_key)) {
      frame->data = *image;
      pooled = true;
    }
  }
  if (pooled) {
    // No stats_.pages_read: the pool hit (counted in pool stats) saved
    // the storage read.
  } else if (auto wal_hit = wal_index_.find(id); wal_hit != wal_index_.end()) {
    // Latest committed version lives in a write-ahead log stream (the
    // page was evicted after a WAL commit and not yet checkpointed);
    // the slot names the stream and the offset within it.
    const uint64_t slot = wal_hit->second;
    BP_RETURN_IF_ERROR(domains_[SlotStream(slot)].wal->ReadPayload(
        SlotOffset(slot), kPageSize, &frame->data));
    stats_.pages_read.Inc();
  } else if (id < main_file_pages_) {
    BP_RETURN_IF_ERROR(
        file_->Read(uint64_t{id} * kPageSize, kPageSize, &frame->data));
    stats_.pages_read.Inc();
    // Checkpointed slots may hold a compressed frame (self-describing,
    // checksummed — see storage/compress.hpp); decode back to the raw
    // page. Handled even with compression off, so a database written
    // with compression=fast reopens under any options.
    if (compress::LooksLikeFrame(frame->data)) {
      obs::ScopedTimerUs decode_timer(decompress_latency_us_);
      std::string raw;
      BP_RETURN_IF_ERROR(compress::Decompress(frame->data, &raw));
      if (raw.size() != kPageSize) {
        return Status::Corruption(util::StrFormat(
            "page %u: compressed frame decodes to %zu bytes", id,
            raw.size()));
      }
      frame->data = std::move(raw);
      stats_.decompress_reads.Inc();
    }
  } else {
    // Allocated this transaction: nothing on disk yet.
    frame->data.assign(kPageSize, '\0');
  }
  internal::Frame* raw = frame.get();
  frames_.emplace(id, std::move(frame));
  LruTouch(raw);
  return raw;
}

Result<PageRef> Pager::Get(PageId id) {
  BP_ASSIGN_OR_RETURN(internal::Frame * frame, FetchFrame(id));
  PageRef ref(this, frame, /*writable=*/false);
  MaybeEvict();  // `frame` is pinned by `ref`, so it cannot be a victim
  return ref;
}

Result<PageRef> Pager::GetMutable(PageId id) {
  BP_REQUIRE(in_txn_, "mutation outside a transaction");
  BP_ASSIGN_OR_RETURN(internal::Frame * frame, FetchFrame(id));
  SaveBeforeImage(*frame);
  frame->dirty = true;
  ++change_count_;
  return PageRef(this, frame, /*writable=*/true);
}

void Pager::SaveBeforeImage(internal::Frame& frame) {
  if (fresh_pages_.count(frame.id) > 0 ||
      before_images_.count(frame.id) > 0) {
    return;
  }
  if (frame.id >= txn_orig_page_count_) {
    fresh_pages_[frame.id] = true;
    return;
  }
  before_images_[frame.id] = frame.data;
}

Result<PageId> Pager::Allocate() {
  BP_REQUIRE(in_txn_, "Allocate outside a transaction");
  PageId id;
  if (freelist_head_ != kNoPage) {
    id = freelist_head_;
    BP_ASSIGN_OR_RETURN(PageRef ref, GetMutable(id));
    util::Reader r(std::string_view(ref.data(), kPageSize));
    freelist_head_ = r.ReadU32();
    --freelist_count_;
    std::fill(ref.mutable_data(), ref.mutable_data() + kPageSize, '\0');
  } else {
    id = page_count_;
    ++page_count_;
    // Materialize the frame now so its fresh-page status is recorded.
    BP_ASSIGN_OR_RETURN(PageRef ref, GetMutable(id));
    (void)ref;
  }
  BP_RETURN_IF_ERROR(WriteHeaderToFrame());
  return id;
}

Status Pager::Free(PageId id) {
  BP_REQUIRE(in_txn_, "Free outside a transaction");
  BP_REQUIRE(id != 0 && id < page_count_, "freeing an invalid page");
  BP_ASSIGN_OR_RETURN(PageRef ref, GetMutable(id));
  std::fill(ref.mutable_data(), ref.mutable_data() + kPageSize, '\0');
  util::Writer w;
  w.PutU32(freelist_head_);
  std::copy(w.data().begin(), w.data().end(), ref.mutable_data());
  freelist_head_ = id;
  ++freelist_count_;
  return WriteHeaderToFrame();
}

Status Pager::SetCatalogRoot(PageId root) {
  BP_REQUIRE(in_txn_, "SetCatalogRoot outside a transaction");
  catalog_root_ = root;
  return WriteHeaderToFrame();
}

void Pager::Unpin(internal::Frame* frame) {
  BP_CHECK(frame->pins > 0);
  --frame->pins;
}

void Pager::LruTouch(internal::Frame* frame) {
  if (frame->lru_prev != nullptr) {  // already linked: unlink first
    frame->lru_prev->lru_next = frame->lru_next;
    frame->lru_next->lru_prev = frame->lru_prev;
  }
  frame->lru_next = lru_.lru_next;
  frame->lru_prev = &lru_;
  lru_.lru_next->lru_prev = frame;
  lru_.lru_next = frame;
}

void Pager::LruRemove(internal::Frame* frame) {
  if (frame->lru_prev == nullptr) return;
  frame->lru_prev->lru_next = frame->lru_next;
  frame->lru_next->lru_prev = frame->lru_prev;
  frame->lru_prev = nullptr;
  frame->lru_next = nullptr;
}

void Pager::MaybeEvict() {
  if (frames_.size() <= options_.cache_pages) return;
  // Pop clean, unpinned frames off the cold end of the intrusive LRU
  // list until under the cap — O(evicted) plus the skipped survivors,
  // not a scan-and-sort of every frame per trigger. Dirty frames must
  // survive until commit (the cap is soft); skipped survivors (pinned,
  // dirty, the header) are re-warmed to the MRU end so the walk
  // terminates and does not re-examine them next trigger.
  size_t examined = 0;
  const size_t limit = frames_.size();
  while (frames_.size() > options_.cache_pages && examined < limit) {
    internal::Frame* victim = lru_.lru_prev;
    if (victim == &lru_) break;
    ++examined;
    if (victim->pins > 0 || victim->dirty || victim->id == 0) {
      LruTouch(victim);
      continue;
    }
    // Victim caching: the evicted image is the latest committed version
    // of its page, so hand the bytes to the shared pool (a move, not a
    // copy) where snapshot readers and a later re-fetch find them.
    PageImageKey key;
    if (CommittedImageKey(victim->id, &key)) {
      PublishToPool(key, std::move(victim->data));
    }
    LruRemove(victim);
    // Copy the id out: erase(const key_type&) must not be handed a
    // reference into the node it is destroying.
    const PageId victim_id = victim->id;
    frames_.erase(victim_id);
    stats_.evictions.Inc();
  }
}

uint64_t Pager::OnDiskPageBytes(PageId id) const {
  // WAL-resident and not-yet-folded pages occupy a raw page image (in
  // the log / nothing yet); only checkpointed main-file slots can hold
  // a compressed frame.
  if (id >= main_file_pages_ || wal_index_.count(id) > 0) return kPageSize;
  std::string head;
  if (!file_->Read(uint64_t{id} * kPageSize, compress::kFrameHeaderSize,
                   &head)
           .ok()) {
    return kPageSize;
  }
  auto info = compress::Inspect(head);
  if (!info.ok()) return kPageSize;  // raw slot
  // Physical bytes = header + payload; the rest of the slot is the
  // hole-punchable zero tail. Clamp: this is accounting, not decoding,
  // so a garbled size field must not report more than the slot.
  return std::min<uint64_t>(info->stored_size, kPageSize);
}

bool Pager::CommittedImageKey(PageId id, PageImageKey* key) const {
  if (pool_ == nullptr) return false;
  key->owner = pool_owner_;
  key->id = id;
  if (auto it = wal_index_.find(id); it != wal_index_.end()) {
    // The offset field carries the full slot, so images of the same
    // page in different streams can never alias; the generation is the
    // owning STREAM's (its offsets are what checkpoint truncation
    // recycles).
    key->generation = domains_[SlotStream(it->second)].generation;
    key->offset = it->second;
    return true;
  }
  if (id < main_file_pages_) {
    key->generation = main_generation_;
    key->offset = kMainFileImage;
    return true;
  }
  return false;  // no committed image yet (allocated this transaction)
}

void Pager::PublishToPool(const PageImageKey& key, std::string&& image) {
  (void)pool_->Insert(key,
                      std::make_shared<const std::string>(std::move(image)));
}

DomainStats Pager::domain_stats(WriteDomain domain) const {
  BP_REQUIRE(domain < kMaxWriteDomains, "invalid write domain");
  const WalDomain& dom = domains_[domain];
  DomainStats out;
  out.commits = dom.stat_commits.load(std::memory_order_relaxed);
  out.wal_frames = dom.stat_wal_frames.load(std::memory_order_relaxed);
  out.fsyncs = dom.stat_fsyncs.load(std::memory_order_relaxed);
  out.bytes_synced = dom.stat_bytes_synced.load(std::memory_order_relaxed);
  out.group_commits =
      dom.stat_group_commits.load(std::memory_order_relaxed);
  if (dom.wal != nullptr) out.wal_bytes = dom.wal->committed_bytes();
  {
    // The published copy, not dom.last_commit_seq: that member belongs
    // to the writer thread.
    util::MutexLock lock(commit_mu_);
    out.last_commit_seq = published_.domain_commit_seq[domain];
  }
  return out;
}

PagerStats Pager::stats() const {
  // Relaxed: every counter is monotone; a dump racing a commit just
  // sees a slightly stale value.
  PagerStats out;
  out.commits = stats_.commits.load();
  out.rollbacks = stats_.rollbacks.load();
  out.pages_written = stats_.pages_written.load();
  out.pages_read = stats_.pages_read.load();
  out.cache_hits = stats_.cache_hits.load();
  out.cache_misses = stats_.cache_misses.load();
  out.evictions = stats_.evictions.load();
  out.wal_frames = stats_.wal_frames.load();
  out.checkpoints = stats_.checkpoints.load();
  out.fsyncs = stats_.sync.fsyncs.load(std::memory_order_relaxed);
  out.bytes_synced = stats_.sync.bytes_synced.load(std::memory_order_relaxed);
  out.group_commits =
      stats_.sync.group_commits.load(std::memory_order_relaxed);
  out.fsync_overlaps =
      stats_.sync.fsync_overlaps.load(std::memory_order_relaxed);
  out.compressed_pages = stats_.compressed_pages.load();
  out.compressed_bytes = stats_.compressed_bytes.load();
  out.compressible_raw_bytes = stats_.compressible_raw_bytes.load();
  out.decompress_reads = stats_.decompress_reads.load();
  if (pool_ != nullptr) {
    BufferPoolStats pool = pool_->stats();
    out.pool_hits = pool.hits;
    out.pool_misses = pool.misses;
    out.pool_evictions = pool.evictions;
    out.pool_bytes = pool.bytes;
    out.pool_frames = pool.frames;
    out.pool_pinned_bytes = pool.pinned_bytes;
    out.pool_cold_demotions = pool.cold_demotions;
    out.pool_cold_hits = pool.cold_hits;
    out.pool_cold_evictions = pool.cold_evictions;
    out.pool_cold_bytes = pool.cold_bytes;
    out.pool_cold_frames = pool.cold_frames;
  }
  {
    util::MutexLock lock(commit_mu_);
    out.snapshot_pages_read = retired_snapshot_stats_.pages_read;
    out.snapshot_cache_hits = retired_snapshot_stats_.cache_hits;
    out.snapshot_pool_hits = retired_snapshot_stats_.pool_hits;
    out.decompress_reads += retired_snapshot_stats_.decompress_reads;
  }
  return out;
}

void Pager::CollectMetrics(obs::CollectionSink& sink) const {
  const PagerStats s = stats();
  const std::string labels = "db=\"" + path_ + "\"";
  auto counter = [&](const char* name, const char* help, uint64_t v) {
    sink.Counter(name, labels, help, static_cast<double>(v));
  };
  auto gauge = [&](const char* name, const char* help, uint64_t v) {
    sink.Gauge(name, labels, help, static_cast<double>(v));
  };
  counter("bp_pager_commits", "Committed transactions", s.commits);
  counter("bp_pager_rollbacks", "Rolled-back transactions", s.rollbacks);
  counter("bp_pager_pages_written", "Pages appended to the WAL",
          s.pages_written);
  counter("bp_pager_pages_read", "Pages fetched from log/database file",
          s.pages_read);
  counter("bp_pager_cache_hits", "Writer page-cache hits", s.cache_hits);
  counter("bp_pager_cache_misses", "Writer page-cache misses",
          s.cache_misses);
  counter("bp_pager_evictions", "Writer page-cache evictions", s.evictions);
  counter("bp_pager_fsyncs", "fsync calls issued", s.fsyncs);
  counter("bp_pager_bytes_synced", "Bytes made durable by fsync",
          s.bytes_synced);
  counter("bp_pager_wal_frames", "Page images appended to the WAL",
          s.wal_frames);
  counter("bp_pager_checkpoints", "WAL checkpoints folded", s.checkpoints);
  counter("bp_pager_group_commits", "Group-commit windows closed",
          s.group_commits);
  counter("bp_pager_fsync_overlaps",
          "Stream fsyncs that overlapped another stream's fsync",
          s.fsync_overlaps);
  counter("bp_snapshot_pages_read",
          "Snapshot reads served from log/database file",
          s.snapshot_pages_read);
  counter("bp_snapshot_cache_hits", "Snapshot L1 memo hits",
          s.snapshot_cache_hits);
  counter("bp_snapshot_pool_hits", "Snapshot shared-pool hits",
          s.snapshot_pool_hits);
  counter("bp_pager_compressed_pages",
          "Pages folded as compressed frames at checkpoint",
          s.compressed_pages);
  counter("bp_pager_compressed_bytes",
          "Physical frame bytes written for compressed pages",
          s.compressed_bytes);
  counter("bp_pager_compressible_raw_bytes",
          "Raw page bytes replaced by compressed frames",
          s.compressible_raw_bytes);
  counter("bp_pager_decompress_reads",
          "Main-file reads that decoded a compressed frame",
          s.decompress_reads);
  if (pool_ != nullptr) {
    counter("bp_pool_hits", "Buffer pool lookup hits", s.pool_hits);
    counter("bp_pool_misses", "Buffer pool lookup misses", s.pool_misses);
    counter("bp_pool_evictions", "Buffer pool frames evicted",
            s.pool_evictions);
    gauge("bp_pool_bytes", "Resident buffer pool bytes", s.pool_bytes);
    gauge("bp_pool_frames", "Resident buffer pool frames", s.pool_frames);
    gauge("bp_pool_pinned_bytes",
          "Pool bytes pinned by live readers (un-evictable floor)",
          s.pool_pinned_bytes);
    counter("bp_pool_cold_demotions",
            "Pool evictions demoted into the compressed cold tier",
            s.pool_cold_demotions);
    counter("bp_pool_cold_hits",
            "Pool misses rescued by decompressing a cold frame",
            s.pool_cold_hits);
    counter("bp_pool_cold_evictions", "Cold-tier frames aged out",
            s.pool_cold_evictions);
    gauge("bp_pool_cold_bytes", "Resident cold-tier (compressed) bytes",
          s.pool_cold_bytes);
    gauge("bp_pool_cold_frames", "Resident cold-tier frames",
          s.pool_cold_frames);
  }
  for (uint32_t d = 0; d < write_domains_; ++d) {
    const DomainStats ds = domain_stats(d);
    const std::string dlabels =
        "db=\"" + path_ + "\",domain=\"" + std::to_string(d) + "\"";
    auto dcounter = [&](const char* name, const char* help, uint64_t v) {
      sink.Counter(name, dlabels, help, static_cast<double>(v));
    };
    dcounter("bp_pager_domain_commits",
             "Transactions committed to this domain's WAL stream",
             ds.commits);
    dcounter("bp_pager_domain_wal_frames",
             "Page images appended to this domain's WAL stream",
             ds.wal_frames);
    dcounter("bp_pager_domain_wal_bytes",
             "Committed bytes in this domain's WAL stream", ds.wal_bytes);
    dcounter("bp_pager_domain_fsyncs",
             "fsyncs issued on this domain's WAL stream", ds.fsyncs);
    dcounter("bp_pager_domain_bytes_synced",
             "Bytes made durable on this domain's WAL stream",
             ds.bytes_synced);
    dcounter("bp_pager_domain_group_commits",
             "Group-commit windows closed on this domain's WAL stream",
             ds.group_commits);
    sink.Gauge("bp_pager_domain_last_commit_seq", dlabels,
               "Newest merged commit sequence on this domain's stream",
               static_cast<double>(ds.last_commit_seq));
  }
}

}  // namespace bp::storage
