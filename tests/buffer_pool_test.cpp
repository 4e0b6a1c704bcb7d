// BufferPool unit tests: image-identity keying, insert-race adoption,
// byte-budget eviction in LRU order, pinned frames surviving every
// eviction pass, and counter accounting. The pool's integration with
// snapshots (sharing across commit horizons, thrash stability) lives in
// snapshot_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.hpp"

namespace bp::storage {
namespace {

std::shared_ptr<const std::string> Image(char fill) {
  return std::make_shared<const std::string>(kPageSize, fill);
}

compress::CompressionOptions Mode(compress::CompressionOptions::Mode mode) {
  compress::CompressionOptions options;
  options.mode = mode;
  return options;
}

compress::CompressionOptions Off() {
  return Mode(compress::CompressionOptions::Mode::kOff);
}

compress::CompressionOptions Fast() {
  return Mode(compress::CompressionOptions::Mode::kFast);
}

// Compressible but distinct per id: a repeating tag the LZ matcher eats,
// with the id stamped at both ends so promoted bytes are checkable.
std::shared_ptr<const std::string> TaggedImage(PageId id) {
  const char tag = static_cast<char>('A' + id % 26);
  std::string page(kPageSize, tag);
  page.front() = static_cast<char>(id);
  page.back() = static_cast<char>(id * 7);
  return std::make_shared<const std::string>(std::move(page));
}

PageImageKey Key(PageId id, uint64_t offset = kMainFileImage,
                 uint32_t generation = 0) {
  return PageImageKey{/*owner=*/1, id, generation, offset};
}

TEST(BufferPoolTest, LookupMissThenInsertThenHit) {
  BufferPool pool(1 << 20);
  EXPECT_EQ(pool.Lookup(Key(3)), nullptr);

  auto page = Image('a');
  auto resident = pool.Insert(Key(3), page);
  EXPECT_EQ(resident.get(), page.get());

  auto hit = pool.Lookup(Key(3));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), page.get());

  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.frames, 1u);
  EXPECT_EQ(stats.bytes, uint64_t{kPageSize});
}

TEST(BufferPoolTest, DistinctVersionsAreDistinctFrames) {
  // Same page id at different offsets/generations = different immutable
  // images; the pool must never conflate them.
  BufferPool pool(1 << 20);
  (void)pool.Insert(Key(7, /*offset=*/100), Image('x'));
  (void)pool.Insert(Key(7, /*offset=*/200), Image('y'));
  (void)pool.Insert(Key(7, kMainFileImage, /*generation=*/2), Image('z'));

  EXPECT_EQ(pool.Lookup(Key(7, 100))->front(), 'x');
  EXPECT_EQ(pool.Lookup(Key(7, 200))->front(), 'y');
  EXPECT_EQ(pool.Lookup(Key(7, kMainFileImage, 2))->front(), 'z');
  EXPECT_EQ(pool.stats().frames, 3u);
}

TEST(BufferPoolTest, InsertRaceAdoptsTheResidentFrame) {
  // Two concurrent first readers fetch the same image; the second
  // Insert must return the first frame so everyone shares one copy.
  BufferPool pool(1 << 20);
  auto winner = Image('w');
  auto loser = Image('w');
  auto first = pool.Insert(Key(9, 50), winner);
  auto second = pool.Insert(Key(9, 50), loser);
  EXPECT_EQ(first.get(), winner.get());
  EXPECT_EQ(second.get(), winner.get());
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.reinserts, 1u);
  EXPECT_EQ(stats.frames, 1u);
}

TEST(BufferPoolTest, EvictsColdestFirstUnderByteBudget) {
  // Budget of ~4 pages per shard; hammer one shard's keyspace far past
  // it and confirm (a) the budget holds, (b) recently touched frames
  // survive over cold ones.
  const size_t budget = BufferPool::kShards * 4 * kPageSize;
  BufferPool pool(budget);
  for (PageId id = 1; id <= 64; ++id) {
    (void)pool.Insert(Key(id, id), Image(static_cast<char>(id)));
  }
  BufferPoolStats stats = pool.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, budget);

  // The most recent insert in some shard must still be resident.
  EXPECT_NE(pool.Lookup(Key(64, 64)), nullptr);
}

TEST(BufferPoolTest, PinnedFramesAreNeverEvicted) {
  // Hold a reference to one image (a live PageView would do the same),
  // then thrash the pool way past its budget: the pinned frame must
  // stay resident AND byte-identical throughout.
  const size_t budget = BufferPool::kShards * 2 * kPageSize;
  BufferPool pool(budget);
  auto pinned = pool.Insert(Key(1, 10), Image('p'));
  for (PageId id = 2; id <= 200; ++id) {
    (void)pool.Insert(Key(id, uint64_t{id} * 16), Image('f'));
  }
  auto still_there = pool.Lookup(Key(1, 10));
  ASSERT_NE(still_there, nullptr);
  EXPECT_EQ(still_there.get(), pinned.get());
  EXPECT_EQ(*still_there, std::string(kPageSize, 'p'));
  EXPECT_GT(pool.stats().pinned_skips, 0u);
}

TEST(BufferPoolTest, ReleasedFramesBecomeEvictable) {
  // Compression pinned off: this test asserts eviction FORGETS, and the
  // cold tier exists precisely to remember (covered separately below).
  const size_t budget = BufferPool::kShards * 2 * kPageSize;
  BufferPool pool(budget, Off());
  auto pinned = pool.Insert(Key(1, 10), Image('p'));
  pinned.reset();  // unpin
  for (PageId id = 2; id <= 200; ++id) {
    (void)pool.Insert(Key(id, uint64_t{id} * 16), Image('f'));
  }
  // With 199 insertions across 16 shards, frame (1,10)'s shard has seen
  // many times its budget; the now-unpinned frame must be long gone.
  EXPECT_EQ(pool.Lookup(Key(1, 10)), nullptr);
}

TEST(BufferPoolTest, EvictedImageSurvivesViaSharedOwnership) {
  // Even when eviction does drop a frame the caller still holds, the
  // bytes must stay alive and immutable through the shared_ptr.
  const size_t budget = BufferPool::kShards * 1 * kPageSize;
  BufferPool pool(budget);
  std::shared_ptr<const std::string> held;
  {
    held = pool.Insert(Key(1, 10), Image('h'));
  }
  for (PageId id = 2; id <= 400; ++id) {
    (void)pool.Insert(Key(id, uint64_t{id} * 16), Image('f'));
  }
  EXPECT_EQ(*held, std::string(kPageSize, 'h'));
}

TEST(BufferPoolTest, OwnerIdsSeparateSharers) {
  // Two pagers sharing one pool must never alias, even at identical
  // (page, generation, offset) coordinates.
  BufferPool pool(1 << 20);
  PageImageKey a{/*owner=*/1, /*id=*/5, /*generation=*/0, /*offset=*/64};
  PageImageKey b{/*owner=*/2, /*id=*/5, /*generation=*/0, /*offset=*/64};
  (void)pool.Insert(a, Image('a'));
  (void)pool.Insert(b, Image('b'));
  EXPECT_EQ(pool.Lookup(a)->front(), 'a');
  EXPECT_EQ(pool.Lookup(b)->front(), 'b');
}

TEST(BufferPoolTest, ConcurrentMixedTrafficKeepsImagesIntact) {
  // 8 threads hammer overlapping keys with lookups and inserts under a
  // small budget (constant churn). Every observed image must be intact:
  // the key determines the fill byte, so any cross-thread tearing or
  // eviction-during-use shows up as a wrong byte. (Run under TSan in CI
  // via the storage test suite.)
  const size_t budget = BufferPool::kShards * 2 * kPageSize;
  BufferPool pool(budget);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::vector<std::thread> workers;
  std::atomic<uint64_t> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        PageId id = static_cast<PageId>(1 + (i * (t + 1)) % 97);
        const char fill = static_cast<char>('a' + id % 26);
        PageImageKey key = Key(id, uint64_t{id} * 8);
        std::shared_ptr<const std::string> image = pool.Lookup(key);
        if (image == nullptr) {
          image = pool.Insert(
              key, std::make_shared<const std::string>(kPageSize, fill));
        }
        if (image->front() != fill || image->back() != fill ||
            image->size() != kPageSize) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0u);
  BufferPoolStats stats = pool.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.bytes, budget);
}

TEST(BufferPoolTest, ColdTierDemotesAndPromotesOnLookup) {
  // Thrash one shard's keyspace past a tiny budget with compressible
  // images: evictions must demote into the cold tier, and a lookup of a
  // demoted key must decompress back the exact bytes and re-warm them.
  const size_t budget = BufferPool::kShards * 4 * kPageSize;
  BufferPool pool(budget, Fast());
  for (PageId id = 1; id <= 128; ++id) {
    (void)pool.Insert(Key(id, id), TaggedImage(id));
  }
  BufferPoolStats stats = pool.stats();
  EXPECT_GT(stats.cold_demotions, 0u);
  EXPECT_GT(stats.cold_frames, 0u);
  EXPECT_LE(stats.bytes, budget);

  // Find a demoted key (not hot, still cold) and pin it back.
  bool promoted = false;
  for (PageId id = 128; id >= 1 && !promoted; --id) {
    BufferPoolStats before = pool.stats();
    auto hit = pool.Lookup(Key(id, id));
    BufferPoolStats after = pool.stats();
    if (after.cold_hits == before.cold_hits + 1) {
      promoted = true;
      ASSERT_NE(hit, nullptr);
      EXPECT_EQ(*hit, *TaggedImage(id));
      // Promoted: the same key is now a plain hot hit.
      auto again = pool.Lookup(Key(id, id));
      ASSERT_NE(again, nullptr);
      EXPECT_EQ(again.get(), hit.get());
      EXPECT_EQ(pool.stats().cold_hits, after.cold_hits);
    }
  }
  EXPECT_TRUE(promoted);
}

TEST(BufferPoolTest, ColdTierHoldsBudgetAndCap) {
  // Even under sustained churn the invariants hold: total bytes within
  // the budget, and the cold share within half of it (the cap that
  // keeps tiny compressed frames from starving the hot tier).
  const size_t budget = BufferPool::kShards * 4 * kPageSize;
  // Enough churn that even tiny (~100-byte) compressed frames overflow
  // the per-shard cold cap and force cold evictions.
  BufferPool pool(budget, Fast());
  for (PageId id = 1; id <= 16384; ++id) {
    (void)pool.Insert(Key(id, id), TaggedImage(id));
  }
  BufferPoolStats stats = pool.stats();
  EXPECT_GT(stats.cold_demotions, 0u);
  EXPECT_GT(stats.cold_evictions, 0u);
  EXPECT_LE(stats.bytes, budget);
  EXPECT_LE(stats.cold_bytes, budget / 2);
  // cold_bytes is counted inside bytes; frames counts hot only.
  EXPECT_GE(stats.bytes, stats.cold_bytes);
}

TEST(BufferPoolTest, IncompressiblePagesAreDroppedNotDemoted) {
  // Images that fail the ratio floor (pseudo-random bytes) must fall
  // back to plain forget-eviction, never a cold frame that would waste
  // budget on incompressible payloads plus header.
  const size_t budget = BufferPool::kShards * 2 * kPageSize;
  BufferPool pool(budget, Fast());
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (PageId id = 1; id <= 96; ++id) {
    std::string page(kPageSize, '\0');
    for (size_t i = 0; i < page.size(); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      page[i] = static_cast<char>(x);
    }
    (void)pool.Insert(Key(id, id),
                      std::make_shared<const std::string>(std::move(page)));
  }
  BufferPoolStats stats = pool.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.cold_demotions, 0u);
  EXPECT_EQ(stats.cold_frames, 0u);
  EXPECT_EQ(stats.cold_bytes, 0u);
}

TEST(BufferPoolTest, ColdTierDisabledIsTrulyOff) {
  // compression=off must leave zero trace of the cold tier: no
  // demotions, no cold bytes, no cold hits — the PR's zero-cost-when-
  // disabled contract for the pool half of the diet.
  const size_t budget = BufferPool::kShards * 2 * kPageSize;
  BufferPool pool(budget, Off());
  for (PageId id = 1; id <= 256; ++id) {
    (void)pool.Insert(Key(id, id), TaggedImage(id));
  }
  for (PageId id = 1; id <= 256; ++id) {
    (void)pool.Lookup(Key(id, id));
  }
  BufferPoolStats stats = pool.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.cold_demotions, 0u);
  EXPECT_EQ(stats.cold_hits, 0u);
  EXPECT_EQ(stats.cold_frames, 0u);
  EXPECT_EQ(stats.cold_bytes, 0u);
}

TEST(BufferPoolTest, DropOwnerAlsoClearsColdFrames) {
  // A closing pager's cold frames must not squat on the shared budget:
  // DropOwner clears them (they are never pinned, so unconditionally).
  const size_t budget = BufferPool::kShards * 4 * kPageSize;
  BufferPool pool(budget, Fast());
  for (PageId id = 1; id <= 128; ++id) {
    (void)pool.Insert(Key(id, id), TaggedImage(id));
  }
  ASSERT_GT(pool.stats().cold_frames, 0u);
  EXPECT_GT(pool.DropOwner(1), 0u);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.cold_frames, 0u);
  EXPECT_EQ(stats.cold_bytes, 0u);
  EXPECT_EQ(stats.frames, 0u);
}

TEST(BufferPoolTest, ConcurrentColdTierTrafficKeepsImagesIntact) {
  // The mixed-traffic hammer with the cold tier live: demotions,
  // promotions, and cold evictions racing across 8 threads must never
  // surface torn or wrong bytes. (Runs under TSan in CI.)
  const size_t budget = BufferPool::kShards * 2 * kPageSize;
  BufferPool pool(budget, Fast());
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::vector<std::thread> workers;
  std::atomic<uint64_t> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        PageId id = static_cast<PageId>(1 + (i * (t + 1)) % 97);
        PageImageKey key = Key(id, uint64_t{id} * 8);
        std::shared_ptr<const std::string> image = pool.Lookup(key);
        if (image == nullptr) image = pool.Insert(key, TaggedImage(id));
        const auto expect = TaggedImage(id);
        if (image->size() != kPageSize ||
            image->front() != expect->front() ||
            image->back() != expect->back()) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0u);
  BufferPoolStats stats = pool.stats();
  EXPECT_GT(stats.cold_demotions, 0u);
  EXPECT_GT(stats.cold_hits, 0u);
  EXPECT_LE(stats.bytes, budget);
}

// The compressed frame a checkpointed slot would hand the pool for
// TaggedImage(id).
std::string Packed(PageId id) {
  return compress::Compress(compress::Codec::kLz, *TaggedImage(id));
}

// Inserts TaggedImage(id) for ids [first, first + count) with their
// packed frames: enough traffic to push older frames out of the hot tier
// without any insert that could run the codec on demotion.
void InsertPacked(BufferPool& pool, PageId first, PageId count) {
  for (PageId id = first; id < first + count; ++id) {
    (void)pool.Insert(Key(id, id), TaggedImage(id), Packed(id));
  }
}

TEST(BufferPoolTest, PackedFrameDemotesWithoutRecompression) {
  const size_t budget = BufferPool::kShards * 4 * kPageSize;
  BufferPool pool(budget, Fast());
  InsertPacked(pool, 1, 128);
  BufferPoolStats stats = pool.stats();
  EXPECT_GT(stats.cold_demotions, 0u);
  EXPECT_EQ(stats.cold_recompressions, 0u);

  // A cold hit decodes the carried frame back to the exact page.
  bool promoted = false;
  for (PageId id = 1; id <= 128 && !promoted; ++id) {
    const uint64_t cold_hits = pool.stats().cold_hits;
    auto hit = pool.Lookup(Key(id, id));
    if (pool.stats().cold_hits == cold_hits + 1) {
      promoted = true;
      ASSERT_NE(hit, nullptr);
      EXPECT_EQ(*hit, *TaggedImage(id));
    }
  }
  EXPECT_TRUE(promoted);
  EXPECT_EQ(pool.stats().cold_recompressions, 0u);
}

TEST(BufferPoolTest, PromotedFrameRedemotesWithoutRecompression) {
  const size_t budget = BufferPool::kShards * 4 * kPageSize;
  BufferPool pool(budget, Fast());
  const PageImageKey raw_key = Key(1000, 1000);
  (void)pool.Insert(raw_key, TaggedImage(1000));  // arrives raw
  // Push it out: its demotion is the only one that runs the codec.
  PageId next = 1;
  while (pool.stats().cold_recompressions == 0 && next < 4096) {
    InsertPacked(pool, next++, 1);
  }
  ASSERT_EQ(pool.stats().cold_recompressions, 1u);

  // Promote it (a cold hit), release it, and push it out again.
  const uint64_t cold_hits = pool.stats().cold_hits;
  ASSERT_NE(pool.Lookup(raw_key), nullptr);
  ASSERT_EQ(pool.stats().cold_hits, cold_hits + 1);
  InsertPacked(pool, next, 256);

  // Back from the cold tier again, exact, and the codec never re-ran.
  BufferPoolStats before = pool.stats();
  auto again = pool.Lookup(raw_key);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(*again, *TaggedImage(1000));
  EXPECT_EQ(pool.stats().cold_hits, before.cold_hits + 1);
  EXPECT_EQ(pool.stats().cold_recompressions, 1u);
}

TEST(BufferPoolTest, RawMainFileImageIsDroppedWithoutTheCodec) {
  // A main-file image without packed bytes sits in a slot the
  // checkpointer stored raw (it failed the ratio floor); eviction drops
  // it instead of compressing it again. A raw log image still demotes.
  const size_t budget = BufferPool::kShards * 4 * kPageSize;
  BufferPool pool(budget, Fast());
  for (PageId id = 1; id <= 128; ++id) {
    (void)pool.Insert(Key(id), TaggedImage(id));
  }
  BufferPoolStats stats = pool.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.cold_demotions, 0u);
  EXPECT_EQ(stats.cold_recompressions, 0u);

  for (PageId id = 1; id <= 128; ++id) {
    (void)pool.Insert(Key(id, id), TaggedImage(id));
  }
  stats = pool.stats();
  EXPECT_GT(stats.cold_demotions, 0u);
  EXPECT_EQ(stats.cold_recompressions, stats.cold_demotions);
}

TEST(BufferPoolTest, BudgetChargesRawPlusPackedPlusCold) {
  // Every TaggedImage packs to the same size, so the charge of the hot
  // tier is frames * (page + packed).
  const size_t packed = Packed(1).size();
  for (PageId id = 2; id <= 512; ++id) ASSERT_EQ(Packed(id).size(), packed);

  // Roomy pool: nothing evicts, every frame charges page + packed.
  BufferPool roomy(1 << 24, Fast());
  InsertPacked(roomy, 1, 64);
  EXPECT_EQ(roomy.stats().bytes, 64 * (kPageSize + packed));

  // Tight pool: hot frames still charge page + packed, cold frames
  // their packed bytes, and the total stays within budget.
  const size_t budget = BufferPool::kShards * 4 * kPageSize;
  BufferPool pool(budget, Fast());
  InsertPacked(pool, 1, 512);
  BufferPoolStats stats = pool.stats();
  ASSERT_GT(stats.cold_frames, 0u);
  EXPECT_EQ(stats.cold_bytes, stats.cold_frames * packed);
  EXPECT_EQ(stats.bytes,
            stats.frames * (kPageSize + packed) + stats.cold_bytes);
  EXPECT_EQ(stats.pinned_bytes, 0u);
  EXPECT_LE(stats.bytes, budget);

  // A pinned frame pins its packed bytes too.
  auto held = pool.Insert(Key(9999, 9999), TaggedImage(9999), Packed(9999));
  EXPECT_EQ(pool.stats().pinned_bytes, kPageSize + Packed(9999).size());
}

TEST(BufferPoolTest, PackedBytesAreChargedNothingWithCompressionOff) {
  BufferPool pool(1 << 24, Off());
  InsertPacked(pool, 1, 64);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.bytes, 64 * kPageSize);
  EXPECT_EQ(stats.cold_bytes, 0u);
}

TEST(BufferPoolTest, PackedFrameOverTheRatioFloorIsChargedNothing) {
  // A frame that saves too little (here: the raw codec, which only adds
  // a header) would double the page's charge; the pool does not keep it.
  BufferPool pool(1 << 24, Fast());
  (void)pool.Insert(Key(1, 1), TaggedImage(1),
                    compress::Compress(compress::Codec::kNone,
                                       *TaggedImage(1)));
  EXPECT_EQ(pool.stats().bytes, kPageSize);
}

TEST(BufferPoolTest, CorruptPackedFrameColdHitIsAMiss) {
  // A packed frame with a flipped payload byte demotes as is; its cold
  // hit fails the checksum and reports a miss, never a crash or a wrong
  // page.
  const size_t budget = BufferPool::kShards * 4 * kPageSize;
  BufferPool pool(budget, Fast());
  const PageImageKey key = Key(1000, 1000);
  std::string bad = Packed(1000);
  bad[compress::kFrameHeaderSize + 3] ^= 0x40;
  (void)pool.Insert(key, TaggedImage(1000), std::move(bad));
  InsertPacked(pool, 1, 256);

  BufferPoolStats before = pool.stats();
  EXPECT_EQ(pool.Lookup(key), nullptr);
  BufferPoolStats after = pool.stats();
  // It was cold (the lookup dropped its frame) and counted as a miss.
  EXPECT_EQ(after.cold_frames, before.cold_frames - 1);
  EXPECT_EQ(after.cold_hits, before.cold_hits);
  EXPECT_EQ(after.misses, before.misses + 1);
  // The caller re-reads and re-inserts; the pool serves the good page.
  (void)pool.Insert(key, TaggedImage(1000));
  auto hit = pool.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, *TaggedImage(1000));
}

TEST(BufferPoolTest, DropOwnerForgetsOnlyThatOwnersUnpinnedFrames) {
  BufferPool pool(1 << 20);
  PageImageKey mine_cold{/*owner=*/1, /*id=*/1, /*generation=*/0,
                         /*offset=*/8};
  PageImageKey mine_held{/*owner=*/1, /*id=*/2, /*generation=*/0,
                         /*offset=*/16};
  PageImageKey theirs{/*owner=*/2, /*id=*/1, /*generation=*/0, /*offset=*/8};
  (void)pool.Insert(mine_cold, Image('c'));
  auto held = pool.Insert(mine_held, Image('h'));  // pinned by `held`
  (void)pool.Insert(theirs, Image('t'));

  // Drops the cold frame, spares the pinned one and the other owner's.
  EXPECT_EQ(pool.DropOwner(1), 1u);
  EXPECT_EQ(pool.Lookup(mine_cold), nullptr);
  ASSERT_NE(pool.Lookup(mine_held), nullptr);
  ASSERT_NE(pool.Lookup(theirs), nullptr);
  EXPECT_EQ(pool.Lookup(theirs)->front(), 't');

  // Once the caller releases the image, a second drop reclaims it.
  held.reset();
  EXPECT_EQ(pool.DropOwner(1), 1u);
  EXPECT_EQ(pool.Lookup(mine_held), nullptr);
  // The other owner is untouched throughout.
  EXPECT_NE(pool.Lookup(theirs), nullptr);
}

}  // namespace
}  // namespace bp::storage
