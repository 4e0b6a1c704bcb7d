#include "storage/buffer_pool.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "util/hash.hpp"
#include "util/mutex.hpp"
#include "util/require.hpp"
#include "util/thread_annotations.hpp"

namespace bp::storage {

namespace {

struct KeyHash {
  size_t operator()(const PageImageKey& key) const {
    // Mix64 gives full avalanche, so ShardFor's low bits are not at the
    // mercy of aligned offsets the way a plain xor-multiply would be.
    uint64_t h = util::HashCombine(
        (uint64_t{key.owner} << 32) | key.generation,
        (uint64_t{key.id} << 1) | (key.offset == kMainFileImage));
    return static_cast<size_t>(util::HashCombine(h, key.offset));
  }
};

}  // namespace

struct BufferPool::Shard {
  util::Mutex mu;
  std::unordered_map<PageImageKey, std::unique_ptr<Frame>, KeyHash> frames
      BP_GUARDED_BY(mu);
  // The intrusive links threaded through the frames are mu-guarded too,
  // but guarded_by cannot be spelled on Frame::prev/next (a Frame does
  // not know its shard); the sentinel annotation plus the BP_REQUIRES
  // on every function that walks the list covers them in practice.
  Frame lru BP_GUARDED_BY(mu);  // sentinel: next = MRU, prev = coldest
  // Cold tier: compressed demoted frames, same budget (shard.bytes
  // counts hot + cold together; cold_bytes is the cold share).
  std::unordered_map<PageImageKey, std::unique_ptr<ColdFrame>, KeyHash> cold
      BP_GUARDED_BY(mu);
  ColdFrame cold_lru BP_GUARDED_BY(mu);  // sentinel, same shape as lru
  uint64_t bytes BP_GUARDED_BY(mu) = 0;
  uint64_t cold_bytes BP_GUARDED_BY(mu) = 0;
  // Counters too (stats() locks each shard in turn).
  uint64_t hits BP_GUARDED_BY(mu) = 0;
  uint64_t misses BP_GUARDED_BY(mu) = 0;
  uint64_t inserts BP_GUARDED_BY(mu) = 0;
  uint64_t reinserts BP_GUARDED_BY(mu) = 0;
  uint64_t evictions BP_GUARDED_BY(mu) = 0;
  uint64_t pinned_skips BP_GUARDED_BY(mu) = 0;
  uint64_t cold_demotions BP_GUARDED_BY(mu) = 0;
  uint64_t cold_recompressions BP_GUARDED_BY(mu) = 0;
  uint64_t cold_hits BP_GUARDED_BY(mu) = 0;
  uint64_t cold_evictions BP_GUARDED_BY(mu) = 0;

  Shard() {
    lru.prev = &lru;
    lru.next = &lru;
    cold_lru.prev = &cold_lru;
    cold_lru.next = &cold_lru;
  }
};

BufferPool::BufferPool(size_t byte_budget,
                       compress::CompressionOptions compression)
    : byte_budget_(byte_budget),
      shard_budget_(byte_budget / kShards),
      compression_(compression),
      shards_(new Shard[kShards]) {
  if (compression_.enabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    compress_us_ = reg.GetHistogram(
        "bp_compress_us", "", "Cold-tier demotion compress latency (us)");
    decompress_us_ = reg.GetHistogram(
        "bp_decompress_us", "",
        "Main-file compressed page frame decode latency (us)");
  }
}

BufferPool::~BufferPool() = default;

uint32_t BufferPool::NextOwnerId() {
  static std::atomic<uint32_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

BufferPool::Shard& BufferPool::ShardFor(const PageImageKey& key) {
  return shards_[KeyHash{}(key) & (kShards - 1)];
}

// LRU list surgery. File-local free functions (not members) so the
// annotations can name the shard's own mutex, which needs Shard to be a
// complete type — it never is at an in-class declaration.
namespace {

// Budget charge of a hot frame: its raw image plus the packed frame it
// carries.
size_t Charge(const BufferPool::Frame& frame) {
  return frame.data->size() + frame.packed.size();
}

// Works on both node types (Frame and ColdFrame expose the same
// prev/next shape).
template <typename Node>
void Unlink(Node* node) {
  node->prev->next = node->next;
  node->next->prev = node->prev;
  node->prev = nullptr;
  node->next = nullptr;
}

void LinkFront(BufferPool::Shard& shard, BufferPool::Frame* frame)
    BP_REQUIRES(shard.mu) {
  frame->next = shard.lru.next;
  frame->prev = &shard.lru;
  shard.lru.next->prev = frame;
  shard.lru.next = frame;
}

void ColdLinkFront(BufferPool::Shard& shard, BufferPool::ColdFrame* frame)
    BP_REQUIRES(shard.mu) {
  frame->next = shard.cold_lru.next;
  frame->prev = &shard.cold_lru;
  shard.cold_lru.next->prev = frame;
  shard.cold_lru.next = frame;
}

// Unlinks `frame` and relinks it at the MRU end.
void Touch(BufferPool::Shard& shard, BufferPool::Frame* frame)
    BP_REQUIRES(shard.mu) {
  Unlink(frame);
  LinkFront(shard, frame);
}

// Ages out cold-tier frames, oldest first, until the shard is within
// its budget slice AND the cold tier within its half-budget cap (well-
// compressing workloads would otherwise fill the whole budget with
// tiny cold frames and starve the hot tier down to nothing).
// Unconditional: nothing outside the pool ever holds a cold frame, so
// there is no pinned state to respect.
void EvictColdUnderLock(BufferPool::Shard& shard, size_t shard_budget)
    BP_REQUIRES(shard.mu) {
  while (shard.bytes > shard_budget ||
         shard.cold_bytes > shard_budget / 2) {
    BufferPool::ColdFrame* victim = shard.cold_lru.prev;
    if (victim == &shard.cold_lru) break;
    shard.bytes -= victim->frame.size();
    shard.cold_bytes -= victim->frame.size();
    ++shard.cold_evictions;
    Unlink(victim);
    const PageImageKey victim_key = victim->key;
    shard.cold.erase(victim_key);
  }
}

// Evicts cold, unpinned frames until the shard is within its budget
// slice. With compression on, an evicted frame that compresses well is
// demoted into the cold tier instead of dropped (its compressed size
// still counts against the budget; the ratio floor guarantees each
// demotion is a net decrease, so the loop still converges). A frame
// that carries its packed bytes demotes by moving them; only a log
// image that arrived raw runs the codec.
void EvictUnderLock(BufferPool::Shard& shard, size_t shard_budget,
                    const compress::CompressionOptions& compression,
                    obs::Histogram* compress_us)
    BP_REQUIRES(shard.mu) {
  // Walk from the cold end. Every step either evicts the frame or
  // re-warms a pinned one to the MRU end. Two bounds keep an insert
  // O(evicted) amortized even when the budget cannot be met: the scan
  // never exceeds one full pass, and it gives up after a run of
  // kMaxFruitlessProbes consecutive pinned frames — when live readers
  // pin more than the budget, burning the whole shard's LRU under the
  // lock on EVERY insert would serialize exactly the traffic the
  // shards exist to spread (the re-warmed pinned frames still migrate
  // off the cold end, so later inserts resume progress).
  constexpr size_t kMaxFruitlessProbes = 32;
  size_t examined = 0;
  size_t fruitless = 0;
  const size_t limit = shard.frames.size();
  while (shard.bytes > shard_budget && examined < limit &&
         fruitless < kMaxFruitlessProbes) {
    BufferPool::Frame* victim = shard.lru.prev;
    if (victim == &shard.lru) break;
    ++examined;
    if (victim->data.use_count() > 1) {
      // Referenced outside the pool (a live PageView or a caller-held
      // image): pinned. Never evicted; spare it and move on. use_count
      // is exact here: new references are only minted under this
      // shard's lock, so > 1 cannot turn into == 1 concurrently — at
      // worst a concurrent release makes us spare a frame one pass
      // longer than necessary.
      ++shard.pinned_skips;
      ++fruitless;
      Touch(shard, victim);
      continue;
    }
    fruitless = 0;
    shard.bytes -= Charge(*victim);
    ++shard.evictions;
    Unlink(victim);
    // Copy the key out: erase(const key_type&) must not be handed a
    // reference into the node it is destroying.
    const PageImageKey victim_key = victim->key;
    if (compression.enabled() && shard.cold.count(victim_key) == 0) {
      std::string cold_bytes = std::move(victim->packed);
      // A main-file image demotes only as the frame its slot holds. One
      // that arrived without it sits in a slot the checkpointer stored
      // raw, having failed the ratio floor already; compressing it
      // again would be wasted work.
      if (cold_bytes.empty() && victim_key.offset != kMainFileImage) {
        ++shard.cold_recompressions;
        obs::ScopedTimerUs timer(compress_us);
        cold_bytes = compress::MaybeCompressPage(compression, *victim->data);
      }
      if (!cold_bytes.empty()) {
        auto demoted = std::make_unique<BufferPool::ColdFrame>();
        demoted->key = victim_key;
        demoted->frame = std::move(cold_bytes);
        shard.bytes += demoted->frame.size();
        shard.cold_bytes += demoted->frame.size();
        ++shard.cold_demotions;
        ColdLinkFront(shard, demoted.get());
        shard.cold.emplace(victim_key, std::move(demoted));
      }
    }
    shard.frames.erase(victim_key);
  }
  EvictColdUnderLock(shard, shard_budget);
}

}  // namespace

std::shared_ptr<const std::string> BufferPool::Lookup(
    const PageImageKey& key) {
  Shard& shard = ShardFor(key);
  util::MutexLock lock(shard.mu);
  auto it = shard.frames.find(key);
  if (it != shard.frames.end()) {
    ++shard.hits;
    Touch(shard, it->second.get());
    return it->second->data;
  }
  auto cold_it = shard.cold.find(key);
  if (cold_it == shard.cold.end()) {
    ++shard.misses;
    return nullptr;
  }
  // Cold hit: decompress on pin and promote back to the hot tier.
  std::string raw;
  util::Status decoded;
  {
    obs::ScopedTimerUs timer(decompress_us_);
    decoded = compress::Decompress(cold_it->second->frame, &raw);
  }
  shard.bytes -= cold_it->second->frame.size();
  shard.cold_bytes -= cold_it->second->frame.size();
  Unlink(cold_it->second.get());
  // The cold bytes travel with the promoted frame, so demoting it again
  // is a move.
  std::string packed = std::move(cold_it->second->frame);
  shard.cold.erase(cold_it);
  if (!decoded.ok() || raw.size() != kPageSize) {
    // The checksum no longer verifies (in-memory corruption after
    // demotion). The image is a pure cache of durable bytes, so drop it
    // and report a miss — the caller re-reads the authoritative copy.
    ++shard.misses;
    return nullptr;
  }
  ++shard.cold_hits;
  auto frame = std::make_unique<Frame>();
  frame->key = key;
  frame->data = std::make_shared<const std::string>(std::move(raw));
  frame->packed = std::move(packed);
  shard.bytes += Charge(*frame);
  LinkFront(shard, frame.get());
  std::shared_ptr<const std::string> out = frame->data;
  shard.frames.emplace(key, std::move(frame));
  // `out` keeps the promoted frame's use_count above 1, so the scan
  // below sees it pinned and cannot evict what it just rebuilt.
  EvictUnderLock(shard, shard_budget_, compression_, compress_us_);
  return out;
}

std::shared_ptr<const std::string> BufferPool::Insert(
    const PageImageKey& key, std::shared_ptr<const std::string> page,
    std::string packed) {
  BP_CHECK(page != nullptr && page->size() == kPageSize,
           "pool frames are exactly one page");
  if (!compression_.enabled() ||
      !compression_.ClearsRatioFloor(packed.size(), kPageSize)) {
    packed.clear();
  }
  Shard& shard = ShardFor(key);
  util::MutexLock lock(shard.mu);
  auto it = shard.frames.find(key);
  if (it != shard.frames.end()) {
    // Another thread fetched the same image concurrently; keys name
    // immutable byte images, so the frames are identical — adopt the
    // resident one and let the caller's copy die.
    ++shard.reinserts;
    Touch(shard, it->second.get());
    return it->second->data;
  }
  auto frame = std::make_unique<Frame>();
  frame->key = key;
  frame->data = std::move(page);
  frame->packed = std::move(packed);
  shard.bytes += Charge(*frame);
  ++shard.inserts;
  LinkFront(shard, frame.get());
  std::shared_ptr<const std::string> out = frame->data;
  shard.frames.emplace(key, std::move(frame));
  EvictUnderLock(shard, shard_budget_, compression_, compress_us_);
  return out;
}

uint64_t BufferPool::DropOwner(uint32_t owner) {
  uint64_t dropped = 0;
  for (size_t i = 0; i < kShards; ++i) {
    Shard& shard = shards_[i];
    util::MutexLock lock(shard.mu);
    for (auto it = shard.frames.begin(); it != shard.frames.end();) {
      Frame* frame = it->second.get();
      if (frame->key.owner != owner || frame->data.use_count() > 1) {
        // Another owner's frame, or one still referenced outside the
        // pool (use_count is exact under the shard lock, same argument
        // as EvictUnderLock): leave it for the normal LRU to retire.
        ++it;
        continue;
      }
      shard.bytes -= Charge(*frame);
      ++shard.evictions;
      Unlink(frame);
      it = shard.frames.erase(it);
      ++dropped;
    }
    for (auto it = shard.cold.begin(); it != shard.cold.end();) {
      // Cold frames are never pinned, so the owner's can all go.
      if (it->second->key.owner != owner) {
        ++it;
        continue;
      }
      shard.bytes -= it->second->frame.size();
      shard.cold_bytes -= it->second->frame.size();
      ++shard.cold_evictions;
      Unlink(it->second.get());
      it = shard.cold.erase(it);
      ++dropped;
    }
  }
  return dropped;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats out;
  for (size_t i = 0; i < kShards; ++i) {
    Shard& shard = shards_[i];
    util::MutexLock lock(shard.mu);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.inserts += shard.inserts;
    out.reinserts += shard.reinserts;
    out.evictions += shard.evictions;
    out.pinned_skips += shard.pinned_skips;
    out.bytes += shard.bytes;
    out.frames += shard.frames.size();
    out.cold_demotions += shard.cold_demotions;
    out.cold_recompressions += shard.cold_recompressions;
    out.cold_hits += shard.cold_hits;
    out.cold_evictions += shard.cold_evictions;
    out.cold_bytes += shard.cold_bytes;
    out.cold_frames += shard.cold.size();
    for (const auto& [key, frame] : shard.frames) {
      if (frame->data.use_count() > 1) out.pinned_bytes += Charge(*frame);
    }
  }
  return out;
}

}  // namespace bp::storage
