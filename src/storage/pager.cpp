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

  // Replay the committed prefix of any write-ahead log a crash left
  // behind.
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
  // database file now contains. Advance it so the log created below
  // carries the true base and freshly stamped commits never collide with
  // replayed ones. (Durability of this patch is optional: if it is
  // lost, the folded data is still ahead of the restarted counter and
  // base_seq anchors recovery — sequence numbers are labels, the page
  // images are the truth.)
  if (pager->recovered_commit_seq_ > pager->commit_seq_) {
    pager->commit_seq_ = pager->recovered_commit_seq_;
    BP_RETURN_IF_ERROR(pager->file_->Write(0, pager->SerializedHeader()));
  }
  pager->main_file_pages_ = pager->page_count_;

  BP_ASSIGN_OR_RETURN(pager->wal_,
                      wal::WalWriter::Open(options.env, pager->WalPath(),
                                           /*stream_id=*/0,
                                           pager->commit_seq_));
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
  // Clean close: make every commit durable, fold the log into the
  // database file, and retire it. The log is only removed when the fold
  // fully succeeded; on failure it stays behind as the sole copy of the
  // committed pages, and the next Open replays it. A pager whose Open
  // failed before its log existed has none.
  if (wal_ != nullptr) {
    bool folded = Checkpoint().ok();  // Checkpoint syncs the log first
    wal_.reset();
    if (folded) (void)options_.env->Remove(WalPath());
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
    stats_.fsyncs.Inc();
    stats_.bytes_synced.Inc(kPageSize);
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
  // Besides this build's log, probe the <path>.wal1 that builds which
  // split commits over two streams may have left: it can hold the tail
  // of the merged commit order.
  const std::vector<std::string> paths = {WalPath(), path_ + ".wal1"};
  if (!options_.env->Exists(paths[0]) && !options_.env->Exists(paths[1])) {
    return Status::Ok();
  }

  // Fold the committed prefix that survived: torn tails — the
  // transaction whose fsync never finished — are ignored by the reader;
  // with a legacy second stream, the merge stops at the first missing
  // commit sequence (see Checkpointer::FoldStreams).
  BP_ASSIGN_OR_RETURN(
      wal::CheckpointResult folded,
      wal::Checkpointer::FoldStreams(options_.env, file_.get(), paths,
                                     options_.sync, options_.compression));
  if (folded.synced_db) {
    stats_.fsyncs.Inc();
    stats_.bytes_synced.Inc(folded.bytes_written);
  }
  stats_.compressed_pages.Inc(folded.pages_compressed);
  stats_.compressed_bytes.Inc(folded.compressed_bytes);
  stats_.compressible_raw_bytes.Inc(folded.raw_bytes_replaced);
  recovered_commit_seq_ = folded.last_commit_seq;
  // Idempotent up to here: a crash before (or between) these Removes
  // just refolds on the next Open — the fold is already durable, so a
  // re-read of the surviving log(s) folds a prefix of what this fold
  // wrote.
  for (const auto& path : paths) {
    if (options_.env->Exists(path)) {
      BP_RETURN_IF_ERROR(options_.env->Remove(path));
    }
  }
  return Status::Ok();
}

Status Pager::SyncWalLocked() {
  if (!wal_sync_failure_.ok()) return wal_sync_failure_;
  // Snapshot the pending count first: the acquire pairs with the
  // committing thread's release fetch_add, so the log bytes those
  // commits appended are visible to the Sync below. Commits that land
  // after this load stay pending for the next window.
  const uint32_t pending =
      unsynced_commits_.load(std::memory_order_acquire);
  if (pending == 0) return Status::Ok();
  // A window retiring >= 1 committed transaction is one group commit,
  // whether it filled to the ceiling or was closed early (FlushPending,
  // checkpoint, close). Counted even with sync=false so benches that
  // model fsync cost elsewhere still see the grouping behavior.
  stats_.group_commits.Inc();
  if (group_commit_txns_ != nullptr) group_commit_txns_->Record(pending);
  if (!options_.sync) {
    unsynced_commits_.fetch_sub(pending, std::memory_order_relaxed);
    return Status::Ok();
  }
  Result<uint64_t> synced = [&] {
    obs::ScopedTimerUs timer(fsync_latency_us_);
    return wal_->Sync();
  }();
  if (!synced.ok()) {
    // Never retried: the failed window stays pending for good, and
    // every later sync and commit reports this (see SyncWal).
    wal_sync_failure_ = Status::FailedPrecondition(
        "write-ahead log fsync failed earlier (" +
        synced.status().ToString() +
        "); later commits cannot be made durable, reopen the database");
    wal_sync_failed_.store(true, std::memory_order_release);
    return synced.status();
  }
  const uint64_t made_durable = *synced;
  // Subtract (not store 0): commits may have landed since the load.
  unsynced_commits_.fetch_sub(pending, std::memory_order_relaxed);
  if (made_durable > 0) {
    stats_.fsyncs.Inc();
    stats_.bytes_synced.Inc(made_durable);
  }
  return Status::Ok();
}

Status Pager::SyncWal() {
  util::MutexLock lock(wal_mu_);
  return SyncWalLocked();
}

Status Pager::WalSyncFailure() const {
  util::MutexLock lock(wal_mu_);
  return wal_sync_failure_;
}

Result<bool> Pager::FlushPending() {
  if (wal_sync_failed_.load(std::memory_order_acquire)) {
    return WalSyncFailure();
  }
  if (unsynced_commits() == 0) return false;
  BP_RETURN_IF_ERROR(SyncWal());
  return true;
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
  // Held across sync + fold + reset: no other thread may fsync the log
  // while it is being folded and truncated.
  util::MutexLock wal_lock(wal_mu_);
  // The log must be durable before its pages land in the database file
  // (log ahead of data): otherwise a crash could leave the database
  // with pages from a transaction the log cannot prove committed.
  BP_RETURN_IF_ERROR(SyncWalLocked());
  // sync=false: the header patch below joins the fold under ONE fsync.
  BP_ASSIGN_OR_RETURN(
      wal::CheckpointResult folded,
      wal::Checkpointer::FoldStreams(options_.env, file_.get(), {WalPath()},
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
      stats_.fsyncs.Inc();
      stats_.bytes_synced.Inc(folded.bytes_written);
    }
    main_file_pages_ = std::max(main_file_pages_, folded.page_count);
  }
  BP_RETURN_IF_ERROR(wal_->ResetToHeader(commit_seq_));
  wal_index_.clear();
  stats_.checkpoints.Inc();
  if (folded.ran) {
    // The fold rewrote main-file pages and freed the log's offsets for
    // reuse: new generations, so no stale pool key can ever resolve.
    ++main_generation_;
    ++wal_generation_;
  }
  PublishLocked(std::make_shared<std::unordered_map<PageId, uint64_t>>());
  return Status::Ok();
}

Status Pager::MaybeCheckpoint() {
  if (in_txn_ || live_snapshots() > 0) {
    // Deferred while snapshots are live; retried at the next commit.
    return Status::Ok();
  }
  if (wal_->SizeBytes() < options_.wal_checkpoint_bytes) return Status::Ok();
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
  published_.wal_generation = wal_generation_;
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
  snap->page_count_ = published_.page_count;
  snap->catalog_root_ = published_.catalog_root;
  snap->main_file_pages_ = published_.main_file_pages;
  snap->main_generation_ = published_.main_generation;
  snap->wal_generation_ = published_.wal_generation;
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

Status Pager::Begin() {
  BP_REQUIRE(!in_txn_, "nested transactions are not supported");
  in_txn_ = true;
  before_images_.clear();
  fresh_pages_.clear();
  txn_orig_page_count_ = page_count_;
  return Status::Ok();
}

Status Pager::Commit() {
  BP_REQUIRE(in_txn_, "Commit outside a transaction");
  // The transaction stays open, as on any failed commit: the caller
  // rolls it back.
  if (wal_sync_failed_.load(std::memory_order_acquire)) {
    return WalSyncFailure();
  }
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
  // IS committed — a sync failure here means durability can no longer
  // be guaranteed (the failure is sticky; see SyncWal), never that the
  // commit can be rolled back. Flushing inside CommitViaWal would let an
  // fsync error leave in_txn_ set and a later Rollback tear cached
  // pages away from the log's committed images.
  if (unsynced_commits() >= options_.wal_group_commit) {
    BP_RETURN_IF_ERROR(SyncWal());
  }
  // Fold the log into the main file if it crossed the size threshold.
  return MaybeCheckpoint();
}

Status Pager::CommitViaWal(const std::vector<internal::Frame*>& dirty) {
  ++commit_seq_;
  // One page-image frame per dirty page, then the commit frame, appended
  // to the log in a single sequential write.
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
    offsets.emplace_back(frame->id, wal_->AddPage(frame->id, frame->data));
  }
  Status appended = wal_->CommitTxn(commit_seq_, page_count_);
  if (!appended.ok()) {
    wal_->AbandonTxn();
    --commit_seq_;
    return appended;
  }
  for (const auto& [id, offset] : offsets) wal_index_[id] = offset;
  stats_.wal_frames.Inc(dirty.size());
  stats_.pages_written.Inc(dirty.size());
  // Release: pairs with the acquire load in SyncWalLocked — a sync
  // (possibly on another thread) that observes this commit as pending
  // also observes its appended bytes.
  unsynced_commits_.fetch_add(1, std::memory_order_release);
  // Publish the freshly committed images into the shared pool, so
  // snapshot readers (and repeated one-shot queries) hit hot pages —
  // tree roots, the catalog — without ever touching the log.
  // `offsets` and `dirty` are index-aligned (built by the same loop).
  if (pool_ != nullptr && options_.pool_publish_on_commit) {
    for (size_t i = 0; i < dirty.size(); ++i) {
      PublishToPool(PageImageKey{pool_owner_, offsets[i].first,
                                 wal_generation_, offsets[i].second},
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
  }
  // commit_seq_ is left as it is: a transaction never moves it (a
  // failed CommitViaWal undoes its own bump), and the cached header
  // frame can hold an older value, since commits that dirty no header
  // field do not rewrite page 0. Restoring it from there would hand a
  // later commit a sequence number the log already holds.

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
    // Latest committed version lives in the write-ahead log (the page
    // was evicted after a WAL commit and not yet checkpointed).
    BP_RETURN_IF_ERROR(
        wal_->ReadPayload(wal_hit->second, kPageSize, &frame->data));
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
    // The log's generation: its offsets are what checkpoint truncation
    // recycles.
    key->generation = wal_generation_;
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
  out.fsyncs = stats_.fsyncs.load();
  out.bytes_synced = stats_.bytes_synced.load();
  out.group_commits = stats_.group_commits.load();
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
    out.pool_cold_recompressions = pool.cold_recompressions;
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
    counter("bp_pool_cold_recompressions",
            "Pool evictions that ran the codec to demote a raw log image",
            s.pool_cold_recompressions);
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
}

}  // namespace bp::storage
