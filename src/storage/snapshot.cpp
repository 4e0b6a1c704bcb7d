#include "storage/snapshot.hpp"

#include "obs/metrics.hpp"
#include "storage/compress.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"
#include "wal/wal_writer.hpp"

namespace bp::storage {

using util::Result;
using util::Status;

Snapshot::~Snapshot() {
  if (pager_ != nullptr) pager_->ReleaseSnapshot(stats());
}

Result<std::shared_ptr<const std::string>> Snapshot::ReadPage(
    PageId id) const {
  if (id >= page_count_) {
    return Status::Corruption(util::StrFormat(
        "snapshot read of page %u past its page count %u", id,
        page_count_));
  }

  // L1: the frame this snapshot already resolved (one u32 map find —
  // the per-fetch fast path the B+tree read loop lives on; a memoized
  // page already passed the source checks below on its first fetch).
  {
    util::MutexLock lock(mu_);
    auto it = cache_.find(id);
    if (it != cache_.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }

  // Resolve the page to its frozen image source, which doubles as its
  // identity in the shared pool: the WAL offset names one immutable
  // byte image, and main-file images are versioned by the checkpoint
  // generation (both frozen for this snapshot's lifetime).
  auto wal_hit = wal_index_->find(id);
  const bool in_wal = wal_hit != wal_index_->end();
  if (!in_wal && id >= main_file_pages_) {
    // Committed state can only reference pages that were checkpointed
    // into the main file or logged; anything else is damage.
    return Status::Corruption(util::StrFormat(
        "snapshot page %u is in neither the log nor the database file",
        id));
  }

  // Log-resident images are versioned by the log's generation (its
  // offsets are what checkpoint truncation recycles); main-file ones by
  // the main-file generation.
  const uint32_t generation = in_wal ? wal_generation_ : main_generation_;
  PageImageKey key{pool_owner_, id, generation,
                   in_wal ? wal_hit->second : kMainFileImage};
  if (pool_ != nullptr) {
    if (std::shared_ptr<const std::string> image = pool_->Lookup(key)) {
      pool_hits_.fetch_add(1, std::memory_order_relaxed);
      util::MutexLock lock(mu_);
      if (cache_.size() < cache_cap_) cache_.emplace(id, image);
      return image;
    }
  }

  // Copy-on-read, outside any lock: concurrent first reads of the same
  // page both fetch; the pool adopts one winner (the loser's copy dies),
  // the fallback cache keeps whichever inserted first.
  auto page = std::make_shared<std::string>();
  // The compressed frame a checkpointed slot held, for the pool to keep.
  std::string packed;
  if (in_wal) {
    // Latest committed image as of this snapshot lives in the log. The
    // log only grows while snapshots are live (checkpoint truncation is
    // deferred), so the frozen offset is still the bytes we froze.
    BP_RETURN_IF_ERROR(
        pager_->wal_->ReadPayload(wal_hit->second, kPageSize, page.get()));
  } else {
    // The main database file is only rewritten by checkpoints, which
    // cannot run while this snapshot is live.
    BP_RETURN_IF_ERROR(
        pager_->file_->Read(uint64_t{id} * kPageSize, kPageSize,
                            page.get()));
    // Checkpointed slots may hold a compressed frame (self-describing,
    // checksummed — storage/compress.hpp). Decode BEFORE memoizing or
    // publishing: pool images are raw pages, and the writer trusts
    // pooled images. The frame itself, trimmed to its stored size,
    // rides along into the pool, so demoting the page into the cold
    // tier later is a move, not a second compression.
    if (compress::LooksLikeFrame(*page)) {
      obs::ScopedTimerUs decode_timer(pager_->decompress_latency_us_);
      std::string raw;
      BP_RETURN_IF_ERROR(compress::Decompress(*page, &raw));
      if (raw.size() != kPageSize) {
        return Status::Corruption(util::StrFormat(
            "snapshot page %u: compressed frame decodes to %zu bytes", id,
            raw.size()));
      }
      if (pool_ != nullptr) {
        // Decompress checked the stored size against the slot.
        BP_ASSIGN_OR_RETURN(compress::FrameInfo info,
                            compress::Inspect(*page));
        packed.assign(*page, 0, info.stored_size);
      }
      *page = std::move(raw);
      decompress_reads_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  pages_read_.fetch_add(1, std::memory_order_relaxed);

  std::shared_ptr<const std::string> out = std::move(page);
  if (pool_ != nullptr) {
    // The pool adopts one winner per image; memoize whatever it keeps.
    out = pool_->Insert(key, std::move(out), std::move(packed));
  }
  util::MutexLock lock(mu_);
  if (cache_.size() < cache_cap_) {
    auto [it, inserted] = cache_.emplace(id, out);
    if (!inserted) out = it->second;
  }
  return out;
}

}  // namespace bp::storage
