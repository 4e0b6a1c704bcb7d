// E14 — Versioned buffer pool microbenchmarks.
//
// The shared pool is the hot path of every snapshot read, so its raw
// costs matter: a hit must be cheap enough to beat re-reading a page
// from the OS, eviction must be O(evicted), and the striped locks must
// actually let concurrent readers through. Four sections:
//
//   hit          — resident set, 100% hits (the steady state of a warm
//                  read path);
//   miss+insert  — unique keys forever, constant eviction at budget
//                  (cold scans / thrash floor);
//   pin churn    — hit + hold + release, with a pinned working set the
//                  evictor must skip (live PageView traffic);
//   contention   — 1/2/4/8 threads hammering one pool, uniform keys
//                  (shared-shard scaling; the per-snapshot caches this
//                  pool replaced serialized every reader on one mutex).
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "storage/buffer_pool.hpp"

int main(int argc, char** argv) {
  using namespace bp;
  using namespace bp::bench;
  using storage::BufferPool;
  using storage::BufferPoolStats;
  using storage::kPageSize;
  using storage::PageImageKey;
  Init(argc, argv, "bench_buffer_pool");

  Header("E14", "shared buffer pool: hit/miss/eviction/pin/contention",
         "(engineering bench; pool must outrun per-snapshot caches)");

  const uint64_t scale = State().smoke ? 1 : 8;
  auto image = [](char fill) {
    return std::make_shared<const std::string>(kPageSize, fill);
  };
  auto key = [](uint64_t i) {
    return PageImageKey{/*owner=*/1, static_cast<storage::PageId>(i),
                        /*generation=*/0, /*offset=*/i * 16};
  };

  // ------------------------------------------------------------- hits
  {
    const uint64_t kResident = 1024;
    const uint64_t kLookups = scale * 2'000'000;
    BufferPool pool(kResident * 2 * kPageSize);
    for (uint64_t i = 0; i < kResident; ++i) {
      (void)pool.Insert(key(i), image('r'));
    }
    // Per-lookup cost sampled per block (timing every lookup would
    // dominate the thing measured): the distribution catches shard-map
    // outliers a mean would hide.
    const uint64_t kBlock = 10'000;
    std::vector<double> block_ns;
    block_ns.reserve(kLookups / kBlock);
    util::Stopwatch watch;
    uint64_t found = 0;
    for (uint64_t start = 0; start < kLookups; start += kBlock) {
      util::Stopwatch block;
      for (uint64_t i = start; i < start + kBlock; ++i) {
        found += pool.Lookup(key(i % kResident)) != nullptr;
      }
      block_ns.push_back(1000.0 * static_cast<double>(block.ElapsedUs()) /
                         static_cast<double>(kBlock));
    }
    const double ms = watch.ElapsedMs();
    BP_CHECK(found == kLookups, "every resident lookup must hit");
    const double per_sec = 1000.0 * static_cast<double>(kLookups) / ms;
    const Percentiles lookup_ns = ComputePercentiles(std::move(block_ns));
    Row("hit:         %9llu lookups in %7.1f ms  (%12.0f hits/s, "
        "%.0f/%.0f ns p50/p99)",
        (unsigned long long)kLookups, ms, per_sec, lookup_ns.p50,
        lookup_ns.p99);
    Metric("hit_lookups_per_sec", per_sec);
    MetricPercentiles("hit_lookup_ns", lookup_ns);
  }

  // ----------------------------------------------------- miss + insert
  {
    const uint64_t kInserts = scale * 200'000;
    BufferPool pool(BufferPool::kShards * 16 * kPageSize);
    util::Stopwatch watch;
    for (uint64_t i = 0; i < kInserts; ++i) {
      // One image per insert: the allocation is part of the real miss
      // path (and a shared payload would read as pinned to the evictor).
      (void)pool.Insert(key(i), image('m'));
    }
    const double ms = watch.ElapsedMs();
    BufferPoolStats stats = pool.stats();
    const double per_sec = 1000.0 * static_cast<double>(kInserts) / ms;
    Row("miss+insert: %9llu inserts in %7.1f ms  (%12.0f inserts/s, "
        "%llu evictions)",
        (unsigned long long)kInserts, ms, per_sec,
        (unsigned long long)stats.evictions);
    BP_CHECK(stats.evictions > 0, "budget must have forced eviction");
    BP_CHECK(stats.bytes <= pool.byte_budget(),
             "insert path must hold the byte budget");
    Metric("insert_evict_per_sec", per_sec);
    Metric("insert_evictions", static_cast<double>(stats.evictions));
  }

  // --------------------------------------------------------- pin churn
  {
    const uint64_t kOps = scale * 1'000'000;
    const uint64_t kResident = 512;
    BufferPool pool(kResident * kPageSize);  // tight: evictor runs often
    std::vector<std::shared_ptr<const std::string>> pins;
    for (uint64_t i = 0; i < kResident / 2; ++i) {
      pins.push_back(pool.Insert(key(i), image('p')));  // pinned half
    }
    util::Stopwatch watch;
    std::shared_ptr<const std::string> held;
    for (uint64_t i = 0; i < kOps; ++i) {
      const uint64_t k = kResident / 2 + i % kResident;  // unpinned keys
      held = pool.Lookup(key(k));
      if (held == nullptr) held = pool.Insert(key(k), image('c'));
      // `held` drops at the next iteration: a one-op pin lifetime.
    }
    const double ms = watch.ElapsedMs();
    BufferPoolStats stats = pool.stats();
    for (auto& pin : pins) {
      BP_CHECK(pin != nullptr && pin->front() == 'p',
               "pinned images must survive the churn");
    }
    const double per_sec = 1000.0 * static_cast<double>(kOps) / ms;
    Row("pin churn:   %9llu ops     in %7.1f ms  (%12.0f ops/s, "
        "%llu pinned skips)",
        (unsigned long long)kOps, ms, per_sec,
        (unsigned long long)stats.pinned_skips);
    Metric("pin_churn_ops_per_sec", per_sec);
  }

  // ----------------------------------------------- counter striping
  {
    // The pager bumps a stats counter on every pool hit. PR 8 packed
    // those counters as adjacent atomics (several per cache line) and
    // bumped with fetch_add — and the hit-lookup p99 regressed +37%
    // whenever OTHER pager threads bumped neighboring counters. The
    // pager now stripes each single-writer counter into its own
    // 64-byte cell and bumps with a plain load/store. Both layouts are
    // replicated here (the real structs are private to the Pager) and
    // measured on the same path: pool hit + one counter bump, while
    // three noise threads hammer the NEIGHBORING counters of the same
    // stats object — the false-sharing traffic the stripe removes.
    struct PackedStats {           // PR 8 shape: one line holds several
      std::atomic<uint64_t> c[9];
    };
    struct StripedCell {
      alignas(64) std::atomic<uint64_t> v{0};
    };
    struct StripedStats {          // this PR: cell per counter
      StripedCell c[9];
    };
    static PackedStats packed;     // static: no stack-line luck
    static StripedStats striped;

    const uint64_t kResident = 1024;
    const uint64_t kLookups = scale * 1'000'000;
    const uint64_t kBlock = 10'000;
    BufferPool pool(kResident * 2 * kPageSize);
    for (uint64_t i = 0; i < kResident; ++i) {
      (void)pool.Insert(key(i), image('l'));
    }

    // layout == 0: packed + fetch_add; layout == 1: striped + store.
    auto run = [&](int layout) {
      std::atomic<bool> stop{false};
      std::vector<std::thread> noise;
      for (int n = 1; n <= 3; ++n) {
        noise.emplace_back([&, n] {
          while (!stop.load(std::memory_order_relaxed)) {
            if (layout == 0) {
              packed.c[n].fetch_add(1, std::memory_order_relaxed);
            } else {
              striped.c[n].v.store(
                  striped.c[n].v.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
            }
          }
        });
      }
      std::vector<double> block_ns;
      block_ns.reserve(kLookups / kBlock);
      uint64_t found = 0;
      for (uint64_t start = 0; start < kLookups; start += kBlock) {
        util::Stopwatch block;
        for (uint64_t i = start; i < start + kBlock; ++i) {
          found += pool.Lookup(key(i % kResident)) != nullptr;
          if (layout == 0) {
            packed.c[0].fetch_add(1, std::memory_order_relaxed);
          } else {
            striped.c[0].v.store(
                striped.c[0].v.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
          }
        }
        block_ns.push_back(1000.0 *
                           static_cast<double>(block.ElapsedUs()) /
                           static_cast<double>(kBlock));
      }
      stop.store(true, std::memory_order_relaxed);
      for (std::thread& t : noise) t.join();
      BP_CHECK(found == kLookups, "every resident lookup must hit");
      return ComputePercentiles(std::move(block_ns));
    };

    Blank();
    const Percentiles packed_ns = run(/*layout=*/0);
    const Percentiles striped_ns = run(/*layout=*/1);
    // Gate on p50: the locked-RMW-vs-plain-store gap is deterministic
    // there, while the block p99 also absorbs scheduler preemption from
    // the noise threads (it is reported, and tracked, but not gated).
    const double p50_speedup =
        striped_ns.p50 > 0 ? packed_ns.p50 / striped_ns.p50 : 0.0;
    Row("counter layout (hit + stat bump, 3 neighbor-counter noise "
        "threads):");
    Row("  packed  (PR 8): %6.0f/%6.0f ns p50/p99", packed_ns.p50,
        packed_ns.p99);
    Row("  striped (cell): %6.0f/%6.0f ns p50/p99  (p50 %.2fx faster)",
        striped_ns.p50, striped_ns.p99, p50_speedup);
    MetricPercentiles("hit_bump_packed_ns", packed_ns);
    MetricPercentiles("hit_bump_striped_ns", striped_ns);
    Metric("counter_stripe_p50_speedup", p50_speedup);
    BP_CHECK(p50_speedup > 1.0,
             "striped cells must beat packed counters under neighbor "
             "traffic");
  }

  // ------------------------------------------------- cold tier (diet)
  {
    Blank();
    // Compression=fast: evictions demote into the compressed in-memory
    // cold tier, and a miss that lands there decompresses on pin
    // instead of paying a device read. The loop drives a steady state —
    // every insert evicts (and demotes) at the budget, every lookup
    // targets a key old enough to have left the hot tier but young
    // enough to still be cold — and times the decompress-on-pin path.
    // The comparison constant is the modeled flash read the cold hit
    // replaces (MemEnv::set_read_cost_us territory, ~20us; see
    // bench_wal_commit for the device model).
    const double kModeledDeviceReadUs = 20.0;
    const uint64_t kResident = 512;  // pages of budget, hot + cold
    const uint64_t kOps = scale * 100'000;
    storage::compress::CompressionOptions fast;
    fast.mode = storage::compress::CompressionOptions::Mode::kFast;
    BufferPool pool(kResident * kPageSize, fast);
    // Compressible page images: a text-like repeating pattern, distinct
    // per page so promoted frames are checkable.
    auto cold_image = [](uint64_t i) {
      std::string page;
      page.reserve(kPageSize);
      const std::string unit =
          "url=https://site-" + std::to_string(i % 97) + ".example/path/" +
          std::to_string(i) + "&visit=" + std::to_string(i * 31) + ";";
      while (page.size() < kPageSize) {
        page.append(unit.substr(0, kPageSize - page.size()));
      }
      return std::make_shared<const std::string>(std::move(page));
    };
    // Warm up to steady state, then pick the lookup lag from the
    // observed tier split: past the hot tier, middle of the cold LRU.
    const uint64_t kWarmup = kResident * 3;
    for (uint64_t i = 0; i < kWarmup; ++i) {
      (void)pool.Insert(key(i), cold_image(i));
    }
    BufferPoolStats warm = pool.stats();
    BP_CHECK(warm.cold_frames > 0, "budget pressure must demote frames");
    const uint64_t lag = warm.frames + warm.cold_frames / 2;
    const uint64_t kBlock = 1'000;
    std::vector<double> block_ns;
    block_ns.reserve(kOps / kBlock);
    uint64_t promoted = 0;
    for (uint64_t start = 0; start < kOps; start += kBlock) {
      util::Stopwatch block;
      for (uint64_t i = start; i < start + kBlock; ++i) {
        const uint64_t at = kWarmup + i;
        (void)pool.Insert(key(at), cold_image(at));
        auto hit = pool.Lookup(key(at - lag));
        promoted += hit != nullptr;
      }
      // Block time covers insert+demote+lookup; the lookup share is
      // isolated below via the stats histogram proxy (cold hit count)
      // and the pure-decompress timing in the row after.
      block_ns.push_back(1000.0 * static_cast<double>(block.ElapsedUs()) /
                         static_cast<double>(kBlock));
    }
    BufferPoolStats stats = pool.stats();
    BP_CHECK(stats.cold_hits > kOps / 2,
             "lagged lookups must mostly land in the cold tier");
    // Pure decompress-on-pin cost: demote a fresh set, then time ONLY
    // the cold lookups (each key touched once; every lookup is a cold
    // hit or a miss, misses are checked out).
    const uint64_t kProbe = State().smoke ? 2'000 : 20'000;
    BufferPool probe_pool(kResident * kPageSize, fast);
    for (uint64_t i = 0; i < kProbe + kResident; ++i) {
      (void)probe_pool.Insert(key(i), cold_image(i));
    }
    BufferPoolStats probe_before = probe_pool.stats();
    const uint64_t probe_lag = probe_before.frames +
                               probe_before.cold_frames / 2;
    std::vector<double> pin_us;
    pin_us.reserve(256);
    uint64_t probe_hits = 0;
    // Walk from the middle of the cold LRU toward its young end: each
    // promotion cold-evicts the OLDEST frames, so walking young keeps
    // the probe ahead of the eviction frontier (late probes may still
    // miss; misses simply drop out of the sample).
    for (uint64_t i = 0; i < probe_before.cold_frames / 2; ++i) {
      const uint64_t at = kProbe + kResident - 1 - probe_lag + i;
      util::Stopwatch one;
      auto hit = probe_pool.Lookup(key(at));
      const double us = static_cast<double>(one.ElapsedUs());
      if (hit != nullptr) {
        ++probe_hits;
        pin_us.push_back(us);
        BP_CHECK(hit->size() == kPageSize,
                 "promoted frame must be a full page");
      }
    }
    BufferPoolStats probe_after = probe_pool.stats();
    BP_CHECK(probe_after.cold_hits - probe_before.cold_hits == probe_hits,
             "probe lookups must be cold hits, not hot hits");
    BP_CHECK(probe_hits > 0, "probe must land in the cold tier");
    const Percentiles pin = ComputePercentiles(std::move(pin_us));
    const Percentiles churn_ns = ComputePercentiles(std::move(block_ns));
    Row("cold tier (compression=fast, %llu-page budget):",
        (unsigned long long)kResident);
    Row("  steady state: %llu hot + %llu cold frames, %s cold of %s total",
        (unsigned long long)stats.frames,
        (unsigned long long)stats.cold_frames,
        util::HumanBytes(stats.cold_bytes).c_str(),
        util::HumanBytes(stats.bytes).c_str());
    Row("  churn: %llu demotions (%llu ran the codec), %llu cold hits, "
        "%llu cold evictions (%.0f/%.0f ns insert+pin p50/p99)",
        (unsigned long long)stats.cold_demotions,
        (unsigned long long)stats.cold_recompressions,
        (unsigned long long)stats.cold_hits,
        (unsigned long long)stats.cold_evictions, churn_ns.p50,
        churn_ns.p99);
    Row("  decompress-on-pin: %.1f/%.1f us p50/p99 over %llu cold hits "
        "(modeled device read: %.0f us)",
        pin.p50, pin.p99, (unsigned long long)probe_hits,
        kModeledDeviceReadUs);
    BP_CHECK(pin.p50 < kModeledDeviceReadUs,
             "a cold-tier pin must beat the device read it replaces");
    Metric("cold_demotions", static_cast<double>(stats.cold_demotions));
    // Every insert arrives raw, so each first demotion runs the codec;
    // a promoted frame keeps its cold bytes and re-demotes without it.
    Metric("cold_recompressions",
           static_cast<double>(stats.cold_recompressions));
    Metric("cold_hits", static_cast<double>(stats.cold_hits));
    Metric("cold_bytes", static_cast<double>(stats.cold_bytes));
    MetricPercentiles("cold_churn_ns", churn_ns);
    MetricPercentiles("cold_pin_us", pin);
    Metric("cold_pin_vs_device_read_x",
           pin.p50 > 0 ? kModeledDeviceReadUs / pin.p50 : 0.0);
    MetricObsHistogram(
        "obs_bp_compress_us",
        *obs::MetricsRegistry::Global().GetHistogram(
            "bp_compress_us", "",
            "Cold-tier demotion compress latency (us)"));
    MetricObsHistogram(
        "obs_bp_decompress_us",
        *obs::MetricsRegistry::Global().GetHistogram(
            "bp_decompress_us", "",
            "Main-file compressed page frame decode latency (us)"));
  }

  // -------------------------------------------------------- contention
  {
    Blank();
    Row("contention (uniform keys over a resident set, lookup-or-insert):");
    const uint64_t kResident = 4096;
    const uint64_t kOpsPerThread = scale * 500'000;
    double ops_at_1 = 0;
    for (int threads : {1, 2, 4, 8}) {
      BufferPool pool(kResident * 2 * kPageSize);
      for (uint64_t i = 0; i < kResident; ++i) {
        (void)pool.Insert(key(i), image('s'));
      }
      std::atomic<uint64_t> bad{0};
      std::vector<std::thread> workers;
      workers.reserve(threads);
      util::Stopwatch watch;
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          // Per-thread stride decorrelates the walks without RNG cost.
          uint64_t at = static_cast<uint64_t>(t) * 7919;
          for (uint64_t i = 0; i < kOpsPerThread; ++i) {
            at = (at + 12289) % kResident;
            if (pool.Lookup(key(at)) == nullptr) bad.fetch_add(1);
          }
        });
      }
      for (std::thread& w : workers) w.join();
      const double ms = watch.ElapsedMs();
      BP_CHECK(bad.load() == 0, "resident set must stay resident");
      const double total =
          static_cast<double>(kOpsPerThread) * threads;
      const double per_sec = 1000.0 * total / ms;
      if (threads == 1) ops_at_1 = per_sec;
      Row("  %d thread%s: %12.0f lookups/s  (%.2fx single-thread)",
          threads, threads == 1 ? " " : "s", per_sec,
          ops_at_1 > 0 ? per_sec / ops_at_1 : 0.0);
      Metric(util::StrFormat("contention_lookups_per_sec_%d", threads),
             per_sec);
    }
  }

  return Finish();
}
