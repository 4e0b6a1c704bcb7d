// ProvenanceDb facade: one Open stands up the whole stack, ingestion
// flows through the owned bus, every query works and reports its
// QueryStats, and extra sinks ride the same stream. Snapshot views
// (BeginSnapshot) expose the same query surface against a frozen
// commit horizon, isolated from — and concurrent with — ingestion.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "places/places.hpp"
#include "prov/provenance_db.hpp"
#include "sim/browser.hpp"
#include "sim/scenario.hpp"
#include "sim/vocab.hpp"
#include "sim/web.hpp"
#include "storage/buffer_pool.hpp"
#include "storage/env.hpp"
#include "tests/fail_sync_env.hpp"
#include "text/tokenizer.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"
#include "util/strings.hpp"

namespace bp::prov {
namespace {

class ProvenanceDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ProvenanceDb::Options options;
    options.db.env = &env_;
    auto db = ProvenanceDb::Open("facade.db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  // The quickstart session: search -> results -> film page -> archive ->
  // download.
  uint64_t IngestRosebudSession() {
    sim::ScenarioBuilder s;
    uint64_t search = s.Search(1, "rosebud");
    s.Wait(util::Seconds(1));
    uint64_t results =
        s.Visit(1, "https://search.example/results?q=rosebud",
                "rosebud - search results",
                capture::NavigationAction::kSearchResult, 0, search);
    s.Wait(util::Seconds(5));
    uint64_t kane = s.Visit(1, "http://films.example/citizen-kane",
                            "citizen kane 1941 film",
                            capture::NavigationAction::kLink, results);
    s.Wait(util::Seconds(5));
    uint64_t dl = s.Download("http://films.example/kane-script.pdf",
                             "/downloads/kane-script.pdf", kane);
    EXPECT_TRUE(db_->IngestAll(s.events()).ok());
    return dl;
  }

  storage::MemEnv env_;
  std::unique_ptr<ProvenanceDb> db_;
};

TEST_F(ProvenanceDbTest, SearchAfterIngestSeesNewPagesAndReportsStats) {
  IngestRosebudSession();
  // No explicit IndexNewPages call: the facade refreshes lazily.
  auto hits = db_->Search("rosebud");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_FALSE(hits->pages.empty());
  bool found_kane = false;
  for (const auto& page : hits->pages) {
    if (page.url == "http://films.example/citizen-kane") found_kane = true;
  }
  EXPECT_TRUE(found_kane)
      << "contextual search must reach the page the term never names";
  EXPECT_GT(hits->stats.rows_scanned, 0u);
  EXPECT_GT(hits->stats.edges_expanded, 0u);

  // With a budget attached, the stats report what the query charged.
  util::QueryBudget budget = util::QueryBudget::WithNodeCap(1000000);
  search::ContextualSearchOptions options;
  options.budget = &budget;
  auto budgeted = db_->Search("rosebud", options);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_GT(budgeted->stats.budget_used, 0u);
  EXPECT_EQ(budgeted->stats.budget_used, budget.used());
}

TEST_F(ProvenanceDbTest, TraceDownloadThroughFacade) {
  uint64_t dl = IngestRosebudSession();
  search::LineageOptions options;
  options.min_visit_count = 1;
  auto report =
      db_->TraceDownload(db_->recorder().download_map().at(dl), options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->found_recognizable);
  EXPECT_GT(report->stats.rows_scanned, 0u);
}

TEST_F(ProvenanceDbTest, DescendantDownloadsAndTimeContext) {
  IngestRosebudSession();
  auto descendants =
      db_->DescendantDownloads("https://search.example/results?q=rosebud");
  ASSERT_TRUE(descendants.ok());
  ASSERT_EQ(descendants->downloads.size(), 1u);
  EXPECT_EQ(descendants->downloads[0].target_path,
            "/downloads/kane-script.pdf");
  EXPECT_GT(descendants->stats.nodes_visited, 0u);

  auto tc = db_->TimeContext("citizen kane", "rosebud");
  ASSERT_TRUE(tc.ok());
  EXPECT_GT(tc->stats.rows_scanned, 0u);

  auto personalized = db_->Personalize("rosebud");
  ASSERT_TRUE(personalized.ok());
  EXPECT_GT(personalized->stats.rows_scanned, 0u);
}

TEST_F(ProvenanceDbTest, SnapshotViewIsIsolatedFromLaterIngest) {
  IngestRosebudSession();
  auto view = db_->BeginSnapshot();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto before = view->Search("rosebud");
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->pages.empty());

  // New rosebud-adjacent history lands AFTER the snapshot.
  sim::ScenarioBuilder s;
  uint64_t search = s.Search(2, "rosebud");
  s.Visit(2, "http://flowers.example/rosebud-care",
          "rosebud flower care tips",
          capture::NavigationAction::kSearchResult, 0, search);
  ASSERT_TRUE(db_->IngestAll(s.events()).ok());

  // The frozen view answers bit-identically...
  auto after = view->Search("rosebud");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->pages.size(), before->pages.size());
  for (size_t i = 0; i < after->pages.size(); ++i) {
    EXPECT_EQ(after->pages[i].page, before->pages[i].page);
    EXPECT_EQ(after->pages[i].url, before->pages[i].url);
    EXPECT_DOUBLE_EQ(after->pages[i].total, before->pages[i].total);
    EXPECT_NE(after->pages[i].url, "http://flowers.example/rosebud-care");
  }
  // ...while a one-shot query (fresh snapshot per call) sees the
  // flower page.
  auto live = db_->Search("rosebud");
  ASSERT_TRUE(live.ok());
  bool found_flowers = false;
  for (const auto& page : live->pages) {
    if (page.url == "http://flowers.example/rosebud-care") {
      found_flowers = true;
    }
  }
  EXPECT_TRUE(found_flowers);
  EXPECT_GT(db_->BeginSnapshot()->commit_seq(), view->commit_seq());
}

TEST_F(ProvenanceDbTest, SnapshotViewExposesTheFullQuerySurface) {
  uint64_t dl = IngestRosebudSession();
  auto view = db_->BeginSnapshot();
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  search::LineageOptions lineage_options;
  lineage_options.min_visit_count = 1;
  auto lineage = view->TraceDownload(
      db_->recorder().download_map().at(dl), lineage_options);
  ASSERT_TRUE(lineage.ok());
  EXPECT_TRUE(lineage->found_recognizable);

  auto descendants = view->DescendantDownloads(
      "https://search.example/results?q=rosebud");
  ASSERT_TRUE(descendants.ok());
  ASSERT_EQ(descendants->downloads.size(), 1u);

  auto textual = view->TextualSearch("rosebud");
  ASSERT_TRUE(textual.ok());
  EXPECT_FALSE(textual->pages.empty());

  auto personalized = view->Personalize("rosebud");
  ASSERT_TRUE(personalized.ok());

  auto tc = view->TimeContext("citizen kane", "rosebud");
  ASSERT_TRUE(tc.ok());
  EXPECT_GT(tc->stats.rows_scanned, 0u);

  // Raw cursors over the frozen graph.
  graph::QueryStats stats;
  uint64_t nodes = 0;
  for (auto cur = view->Nodes(1, &stats); cur.Valid(); cur.Next()) ++nodes;
  EXPECT_GT(nodes, 0u);
  EXPECT_GT(stats.rows_scanned, 0u);
}

TEST_F(ProvenanceDbTest, SyncAndCheckpointThroughTheFacade) {
  IngestRosebudSession();
  // sync=true MemEnv default? The facade default options use the test
  // env with sync on; Sync flushes any partially filled group-commit
  // window, Checkpoint folds the log.
  ASSERT_TRUE(db_->Sync().ok());
  ASSERT_TRUE(db_->Checkpoint().ok());
  EXPECT_GT(db_->storage_stats().checkpoints, 0u);

  // A live snapshot pins WAL frames: the explicit checkpoint refuses.
  auto view = db_->BeginSnapshot();
  ASSERT_TRUE(view.ok());
  util::Status pinned = db_->Checkpoint();
  EXPECT_EQ(pinned.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(db_->Sync().ok());  // durability flush is always allowed
  view = util::Status::NotFound();  // drop the view, releasing the pin
  EXPECT_TRUE(db_->Checkpoint().ok());
}

TEST_F(ProvenanceDbTest, QueriesRefuseInsideAStorageTransaction) {
  // A transaction opened through db() is uncommitted, so a snapshot
  // could not see it — and the index refresh a snapshot runs first
  // would compose into it. Snapshots and one-shot queries (which open a
  // private snapshot) refuse instead of answering from a half view.
  IngestRosebudSession();
  ASSERT_TRUE(db_->db().Begin().ok());
  EXPECT_EQ(db_->BeginSnapshot().status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(db_->Search("rosebud").status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(db_->TraceDownload(1).status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(db_->Close().code(), util::StatusCode::kFailedPrecondition);
  ASSERT_TRUE(db_->db().Rollback().ok());

  auto hits = db_->Search("rosebud");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_FALSE(hits->pages.empty());
}

TEST(ProvenanceDbCorruptionTest, ChildPointerPastTheLastPageIsCorruption) {
  // On-disk damage must surface as a Status, never as a throw: point
  // every child of the adjacency trees' interior roots past the last
  // page of a cleanly closed database, reopen, and query.
  storage::MemEnv env;
  ProvenanceDb::Options options;
  options.db.env = &env;
  // Raw checkpoint slots, so the test can edit page bytes in place.
  options.db.compression.mode =
      storage::compress::CompressionOptions::Mode::kOff;
  graph::NodeId download = 0;
  {
    auto db = ProvenanceDb::Open("corrupt.db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    // Enough linked history that the adjacency trees grow interior
    // roots; the rosebud session lands last.
    sim::ScenarioBuilder s;
    uint64_t prev = 0;
    for (int i = 0; i < 600; ++i) {
      prev = s.Visit(1, "http://filler.example/" + std::to_string(i),
                     "filler page " + std::to_string(i),
                     prev == 0 ? capture::NavigationAction::kTyped
                               : capture::NavigationAction::kLink,
                     prev);
    }
    uint64_t search = s.Search(1, "rosebud", prev);
    uint64_t results = s.Visit(1, "https://search.example/results?q=rosebud",
                               "rosebud - search results",
                               capture::NavigationAction::kSearchResult, 0,
                               search);
    uint64_t dl = s.Download("http://films.example/kane-script.pdf",
                             "/downloads/kane-script.pdf", results);
    ASSERT_TRUE((*db)->IngestAll(s.events()).ok());
    download = (*db)->recorder().download_map().at(dl);
    ASSERT_TRUE((*db)->Close().ok());
  }

  std::vector<storage::PageId> roots;
  uint32_t page_count = 0;
  {
    auto db = storage::Db::Open("corrupt.db", options.db);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (const char* name : {"prov.out", "prov.in", "prov.edges"}) {
      auto tree = (*db)->OpenTree(name);
      ASSERT_TRUE(tree.ok()) << name;
      roots.push_back((*tree)->root());
    }
    page_count = (*db)->pager().page_count();
  }
  const uint32_t bad_child = page_count + 1000;
  auto put_u32 = [](std::string& page, size_t off, uint32_t v) {
    for (size_t i = 0; i < 4; ++i) {
      page[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  };
  auto file = env.Open("corrupt.db");
  ASSERT_TRUE(file.ok());
  int corrupted_roots = 0;
  for (storage::PageId root : roots) {
    std::string page;
    const uint64_t at = uint64_t{root} * storage::kPageSize;
    ASSERT_TRUE((*file)->Read(at, storage::kPageSize, &page).ok());
    // B-tree page layout (storage/btree.cpp): type byte 2 = interior,
    // u16 cell count at 2, rightmost child u32 at 8, u16 cell pointers
    // from 16; an interior cell is (string separator, u32 child).
    if (page[0] != 2) continue;
    put_u32(page, 8, bad_child);
    const uint16_t ncells = static_cast<uint8_t>(page[2]) |
                            (static_cast<uint8_t>(page[3]) << 8);
    for (uint16_t i = 0; i < ncells; ++i) {
      const size_t ptr = 16 + 2 * size_t{i};
      const size_t off = static_cast<uint8_t>(page[ptr]) |
                         (static_cast<uint8_t>(page[ptr + 1]) << 8);
      util::Reader r(std::string_view(page).substr(off));
      r.ReadString();
      put_u32(page, off + r.position(), bad_child);
    }
    ASSERT_TRUE((*file)->Write(at, page).ok());
    ++corrupted_roots;
  }
  ASSERT_GT(corrupted_roots, 0) << "history too small for interior roots";

  auto db = ProvenanceDb::Open("corrupt.db", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  util::Result<search::ContextualSearchResult> hits = util::Status::NotFound();
  ASSERT_NO_THROW(hits = (*db)->Search("rosebud"));
  EXPECT_EQ(hits.status().code(), util::StatusCode::kCorruption)
      << hits.status().ToString();
  util::Result<search::LineageReport> lineage = util::Status::NotFound();
  ASSERT_NO_THROW(lineage = (*db)->TraceDownload(download));
  EXPECT_EQ(lineage.status().code(), util::StatusCode::kCorruption)
      << lineage.status().ToString();
  // The writer's live path reports the same damage the same way.
  sim::ScenarioBuilder more;
  more.Visit(2, "http://after.example/", "after the damage",
             capture::NavigationAction::kTyped);
  util::Status ingested;
  ASSERT_NO_THROW(ingested = (*db)->IngestAll(more.events()));
  EXPECT_EQ(ingested.code(), util::StatusCode::kCorruption)
      << ingested.ToString();
}

TEST_F(ProvenanceDbTest, ConcurrentReadersDuringIngest) {
  IngestRosebudSession();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto view = db_->BeginSnapshot();
        if (!view.ok()) {
          ++errors;
          return;
        }
        auto hits = view->Search("rosebud");
        auto one_shot = db_->Search("kane");
        if (!hits.ok() || hits->pages.empty() || !one_shot.ok()) {
          ++errors;
          return;
        }
        queries.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }

  // The writer keeps ingesting fresh sessions until every reader has
  // completed at least one full iteration (bounded by a safety cap so a
  // wedged reader cannot hang the test).
  for (int batch = 0; batch < 3000 && queries.load() < 6; ++batch) {
    sim::ScenarioBuilder s;
    uint64_t search = s.Search(1, "rosebud");
    uint64_t results = s.Visit(
        1, "https://search.example/results?q=rosebud&page=" +
               std::to_string(batch),
        "rosebud results " + std::to_string(batch),
        capture::NavigationAction::kSearchResult, 0, search);
    s.Visit(1, "http://films.example/kane-" + std::to_string(batch),
            "kane fan page " + std::to_string(batch),
            capture::NavigationAction::kLink, results);
    ASSERT_TRUE(db_->IngestAll(s.events()).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(queries.load(), 0u);
}

TEST_F(ProvenanceDbTest, OneShotTimeContextBuildsOneIntervalIndexPerCommit) {
  IngestRosebudSession();
  std::vector<search::TimeContextResult> answers;
  for (int i = 0; i < 8; ++i) {
    auto tc = db_->TimeContext("citizen kane", "rosebud");
    ASSERT_TRUE(tc.ok()) << tc.status().ToString();
    answers.push_back(std::move(*tc));
  }
  EXPECT_EQ(db_->store().interval_index_builds(), 1u);
  // The build's node scan is charged to the query that ran it.
  EXPECT_GT(answers[0].stats.rows_scanned, answers[1].stats.rows_scanned);
  for (const auto& tc : answers) {
    ASSERT_EQ(tc.matches.size(), answers[0].matches.size());
    for (size_t m = 0; m < tc.matches.size(); ++m) {
      EXPECT_EQ(tc.matches[m].page.page, answers[0].matches[m].page.page);
      EXPECT_EQ(tc.matches[m].overlap_ms, answers[0].matches[m].overlap_ms);
    }
  }
  const std::string text = db_->DebugDumpText();
  EXPECT_NE(text.find("bp_prov_interval_index_builds{db=\"facade.db\"} 1"),
            std::string::npos)
      << text;

  // A new commit is a new committed state: one more build, then hits.
  sim::ScenarioBuilder s;
  s.Visit(2, "http://wine.example/", "wine", capture::NavigationAction::kTyped);
  ASSERT_TRUE(db_->IngestAll(s.events()).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db_->TimeContext("citizen kane", "rosebud").ok());
  }
  EXPECT_EQ(db_->store().interval_index_builds(), 2u);
}

TEST_F(ProvenanceDbTest, ReadersRacingViewsShareTheIntervalCache) {
  IngestRosebudSession();
  // Every view at one commit sequence must answer identically, whether
  // it built the shared index or adopted it from the other reader.
  util::Mutex mu;
  std::map<uint64_t, std::string> answer_at_seq;
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::atomic<uint64_t> queries{0};
  auto reader = [&] {
    while (!done.load(std::memory_order_acquire)) {
      auto view = db_->BeginSnapshot();
      if (!view.ok()) {
        ++errors;
        return;
      }
      auto tc = view->TimeContext("kane", "rosebud");
      if (!tc.ok()) {
        ++errors;
        return;
      }
      std::string digest;
      for (const auto& match : tc->matches) {
        digest += util::StrFormat("%llu:%a:%a ",
                                  (unsigned long long)match.page.page,
                                  match.page.total, match.overlap_ms);
      }
      util::MutexLock lock(mu);
      auto [it, inserted] = answer_at_seq.emplace(view->commit_seq(), digest);
      if (!inserted && it->second != digest) ++errors;
      queries.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) readers.emplace_back(reader);
  // Both readers race at the first sequence, then at each new one.
  for (int batch = 0; batch < 40; ++batch) {
    const uint64_t target = queries.load() + 4;
    while (queries.load() < target && errors.load() == 0) {
      std::this_thread::yield();
    }
    sim::ScenarioBuilder s;
    const uint64_t page = s.Visit(
        1, "http://films.example/kane-" + std::to_string(batch),
        "kane fan page " + std::to_string(batch),
        capture::NavigationAction::kTyped);
    s.Wait(util::Seconds(2));
    s.Close(1, page);
    ASSERT_TRUE(db_->IngestAll(s.events()).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
  util::MutexLock lock(mu);
  EXPECT_GT(answer_at_seq.size(), 1u);
  // Two readers that miss at once may both build; never more.
  EXPECT_LE(db_->store().interval_index_builds(), 2 * answer_at_seq.size());
}

TEST_F(ProvenanceDbTest, AsyncIngestMatchesSynchronousIngest) {
  // The same session through both write paths lands in the same state:
  // IngestAsync + Drain is IngestAll minus the capture-thread stall.
  uint64_t dl_sync = IngestRosebudSession();

  storage::MemEnv async_env;
  ProvenanceDb::Options options;
  options.db.env = &async_env;
  auto async_db = ProvenanceDb::Open("facade-async.db", options);
  ASSERT_TRUE(async_db.ok());
  sim::ScenarioBuilder s;
  uint64_t search = s.Search(1, "rosebud");
  s.Wait(util::Seconds(1));
  uint64_t results =
      s.Visit(1, "https://search.example/results?q=rosebud",
              "rosebud - search results",
              capture::NavigationAction::kSearchResult, 0, search);
  s.Wait(util::Seconds(5));
  uint64_t kane = s.Visit(1, "http://films.example/citizen-kane",
                          "citizen kane 1941 film",
                          capture::NavigationAction::kLink, results);
  s.Wait(util::Seconds(5));
  uint64_t dl = s.Download("http://films.example/kane-script.pdf",
                           "/downloads/kane-script.pdf", kane);
  for (const auto& event : s.events()) {
    ASSERT_TRUE((*async_db)->IngestAsync(event).ok());
  }
  ASSERT_TRUE((*async_db)->Drain().ok());

  EXPECT_EQ(*(*async_db)->store().NodeCount(), *db_->store().NodeCount());
  EXPECT_EQ(*(*async_db)->store().EdgeCount(), *db_->store().EdgeCount());
  auto sync_hits = db_->Search("rosebud");
  auto async_hits = (*async_db)->Search("rosebud");
  ASSERT_TRUE(sync_hits.ok());
  ASSERT_TRUE(async_hits.ok());
  ASSERT_EQ(async_hits->pages.size(), sync_hits->pages.size());
  for (size_t i = 0; i < sync_hits->pages.size(); ++i) {
    EXPECT_EQ(async_hits->pages[i].url, sync_hits->pages[i].url);
  }
  search::LineageOptions lineage_options;
  lineage_options.min_visit_count = 1;
  auto sync_trace = db_->TraceDownload(
      db_->recorder().download_map().at(dl_sync), lineage_options);
  auto async_trace = (*async_db)->TraceDownload(
      (*async_db)->recorder().download_map().at(dl), lineage_options);
  ASSERT_TRUE(sync_trace.ok());
  ASSERT_TRUE(async_trace.ok());
  EXPECT_EQ(async_trace->path.size(), sync_trace->path.size());
}

TEST_F(ProvenanceDbTest, ExtraSinksRideTheSameStream) {
  // The Places baseline subscribes to the facade's bus and sees exactly
  // the ingested stream — the setup of the storage-overhead experiment.
  auto places = places::PlacesStore::Open(db_->db());
  ASSERT_TRUE(places.ok());
  capture::PlacesRecorder baseline(**places);
  db_->bus().Subscribe(&baseline);

  IngestRosebudSession();
  // Both page visits reached both recorders.
  EXPECT_EQ(baseline.visit_map().size(), 2u);
  EXPECT_EQ(db_->recorder().visit_map().size(), 2u);
}

TEST_F(ProvenanceDbTest, PoolCountersStayConsistentAcrossOneShotQueries) {
  // Cross-counter consistency, end to end: every pool-consulted page
  // fetch on the snapshot read path is either a pool hit or a storage
  // read that pays a pool miss first, so over any read-only window
  //   delta(pool_hits + pool_misses)
  //     == delta(snapshot_pool_hits + snapshot_pages_read).
  // A drift here means a fetch path stopped consulting the pool (or
  // double-counts) — exactly the accounting bug dashboards built on
  // these counters would silently absorb.
  uint64_t dl = IngestRosebudSession();
  const prov::NodeId download = db_->recorder().download_map().at(dl);
  // Settle the lazy text index so the measured window is read-only.
  ASSERT_TRUE(db_->Search("rosebud").ok());

  const storage::PagerStats before = db_->storage_stats();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_->Search("rosebud").ok());
    ASSERT_TRUE(db_->TraceDownload(download).ok());
  }
  const storage::PagerStats after = db_->storage_stats();

  // Guard: the window really was read-only (no writer-pager fetches,
  // which consult the pool without the snapshot counters).
  ASSERT_EQ(after.cache_misses, before.cache_misses);

  const uint64_t pool_lookups = (after.pool_hits + after.pool_misses) -
                                (before.pool_hits + before.pool_misses);
  const uint64_t snapshot_fetches =
      (after.snapshot_pool_hits + after.snapshot_pages_read) -
      (before.snapshot_pool_hits + before.snapshot_pages_read);
  EXPECT_EQ(pool_lookups, snapshot_fetches);
  // Repeated identical queries must actually warm the pool.
  EXPECT_GT(after.pool_hits, before.pool_hits);
}

TEST(ProvenanceDbSmallPoolTest, CompressedSmallPoolAnswersLikeAFullCache) {
  // A compressed database reopened with a pool of a third of its bytes
  // evicts, demotes into the cold tier and promotes back on every query;
  // its answers must equal a fully cached open of the same bytes. Every
  // page the read path fetches is a checkpointed slot, so each frame
  // arrives with its packed bytes and no demotion runs the codec.
  util::Rng rng(7);
  sim::Vocabulary vocab = sim::Vocabulary::Create(rng, {});
  sim::WebGraph web = sim::WebGraph::Generate(rng, {}, vocab);
  sim::UserConfig user;
  user.seed = 11;
  user.days = 3;
  sim::SimOutput history = sim::BrowserSim(web, user).Run();

  storage::MemEnv env;
  ProvenanceDb::Options options;
  options.db.env = &env;
  options.db.compression.mode =
      storage::compress::CompressionOptions::Mode::kFast;
  {
    auto writer = ProvenanceDb::Open("small_pool.db", options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->IngestAll(history.events).ok());
    ASSERT_TRUE((*writer)->BeginSnapshot().ok());  // builds the text index
    ASSERT_TRUE((*writer)->Checkpoint().ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  std::vector<std::string> queries;
  for (const sim::SearchEpisode& episode : history.searches) {
    if (std::find(queries.begin(), queries.end(), episode.query) ==
        queries.end()) {
      queries.push_back(episode.query);
    }
    if (queries.size() == 12) break;
  }
  ASSERT_GE(queries.size(), 4u);

  const std::map<std::string, std::string> image = env.SnapshotAll();
  storage::MemEnv cached_env;
  cached_env.RestoreAll(image);
  ProvenanceDb::Options cached_options = options;
  cached_options.db.env = &cached_env;
  cached_options.db.pool_bytes = size_t{64} << 20;
  options.db.pool_bytes = image.at("small_pool.db").size() / 3;
  auto small = ProvenanceDb::Open("small_pool.db", options);
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  auto cached = ProvenanceDb::Open("small_pool.db", cached_options);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();

  // Result URLs (or the augmented query) of each use case, in order.
  auto answers = [&](ProvenanceDb& db) {
    std::vector<std::string> out;
    for (size_t i = 0; i < queries.size(); ++i) {
      std::string digest;
      auto search = db.Search(queries[i]);
      EXPECT_TRUE(search.ok()) << search.status().ToString();
      if (search.ok()) {
        for (const auto& page : search->pages) digest += page.url + "\n";
      }
      auto personalized = db.Personalize(queries[i]);
      EXPECT_TRUE(personalized.ok()) << personalized.status().ToString();
      if (personalized.ok()) digest += personalized->AugmentedQuery() + "\n";
      auto tc = db.TimeContext(queries[i], queries[(i + 1) % queries.size()]);
      EXPECT_TRUE(tc.ok()) << tc.status().ToString();
      if (tc.ok()) {
        for (const auto& match : tc->matches) {
          digest += match.page.url + (match.co_open ? " co\n" : "\n");
        }
      }
      out.push_back(std::move(digest));
    }
    return out;
  };
  const std::vector<std::string> expected = answers(**cached);

  const storage::PagerStats before = (*small)->storage_stats();
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(answers(**small), expected) << "round " << round;
  }
  const storage::PagerStats after = (*small)->storage_stats();
  // The small pool really ran its cold tier.
  EXPECT_GT(after.pool_cold_demotions, before.pool_cold_demotions);
  EXPECT_GT(after.pool_cold_hits, before.pool_cold_hits);
  EXPECT_EQ(after.commits, before.commits);
  EXPECT_EQ(before.pool_cold_recompressions, 0u);
  EXPECT_EQ(after.pool_cold_recompressions, 0u);
}

TEST_F(ProvenanceDbTest, DebugDumpExportsMetricsAndSpans) {
  uint64_t dl = IngestRosebudSession();
  ASSERT_TRUE(db_->Search("rosebud").ok());
  ASSERT_TRUE(
      db_->TraceDownload(db_->recorder().download_map().at(dl)).ok());

  const std::string json = db_->DebugDump();
  EXPECT_NE(json.find("\"schema\": \"bp-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("bp_commit_us"), std::string::npos);
  EXPECT_NE(json.find("bp_query_us"), std::string::npos);
  EXPECT_NE(json.find("family=\\\"search\\\""), std::string::npos);
  EXPECT_NE(json.find("bp_pager_commits"), std::string::npos);
  EXPECT_NE(json.find("db=\\\"facade.db\\\""), std::string::npos);
  EXPECT_NE(json.find("\"slow_spans\""), std::string::npos);

  const std::string text = db_->DebugDumpText();
  EXPECT_NE(text.find("# TYPE bp_commit_us summary"), std::string::npos);
  EXPECT_NE(text.find("bp_pager_commits{db=\"facade.db\"}"),
            std::string::npos);
}

TEST_F(ProvenanceDbTest, OpenRejectsUnusableOptions) {
  ProvenanceDb::Options options;
  options.db.env = &env_;
  options.ingest_batch = 0;
  EXPECT_EQ(ProvenanceDb::Open("bad.db", options).status().code(),
            util::StatusCode::kInvalidArgument);

  options = ProvenanceDb::Options();
  options.db.env = &env_;
  options.async.queue_capacity = 0;
  EXPECT_EQ(ProvenanceDb::Open("bad.db", options).status().code(),
            util::StatusCode::kInvalidArgument);

  // queue_capacity is only meaningful with the pipeline on: disabled
  // async makes the zero harmless and Open must accept it.
  options.async.enabled = false;
  EXPECT_TRUE(ProvenanceDb::Open("ok.db", options).ok());
}

TEST_F(ProvenanceDbTest, CloseDrainsCheckpointsAndSupportsReopen) {
  IngestRosebudSession();
  sim::ScenarioBuilder s;
  s.Visit(1, "http://late.example/", "late page",
          capture::NavigationAction::kTyped);
  ASSERT_TRUE(db_->IngestAsync(s.events()[0]).ok());

  // Close drains the pipeline (the async event must not be lost) and
  // checkpoints the WAL into the main file.
  ASSERT_TRUE(db_->Close().ok());
  EXPECT_TRUE(db_->Close().ok()) << "Close must be idempotent";

  // storage_stats() keeps answering with the final pre-close counters.
  storage::PagerStats final_stats = db_->storage_stats();
  EXPECT_GT(final_stats.commits, 0u);
  EXPECT_EQ(final_stats.commits, db_->storage_stats().commits);

  // Reopen on the same env sees everything committed before Close.
  ProvenanceDb::Options options;
  options.db.env = &env_;
  auto reopened = ProvenanceDb::Open("facade.db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->store().PageForUrl("http://late.example/").ok());
  EXPECT_TRUE((*reopened)
                  ->store()
                  .PageForUrl("http://films.example/citizen-kane")
                  .ok());
}

TEST_F(ProvenanceDbTest, EveryOperationFailsCleanlyAfterClose) {
  IngestRosebudSession();
  ASSERT_TRUE(db_->Close().ok());

  sim::ScenarioBuilder s;
  s.Visit(1, "http://x.example/", "x", capture::NavigationAction::kTyped);
  const auto closed = util::StatusCode::kFailedPrecondition;
  EXPECT_EQ(db_->Ingest(s.events()[0]).code(), closed);
  EXPECT_EQ(db_->IngestAll(s.events()).code(), closed);
  EXPECT_EQ(db_->IngestAsync(s.events()[0]).status().code(), closed);
  EXPECT_EQ(db_->Flush(ProvenanceDb::IngestTicket{}).code(), closed);
  EXPECT_EQ(db_->Drain().code(), closed);
  EXPECT_EQ(db_->Sync().code(), closed);
  EXPECT_EQ(db_->Checkpoint().code(), closed);
  EXPECT_EQ(db_->Search("rosebud").status().code(), closed);
  EXPECT_EQ(db_->TextualSearch("rosebud").status().code(), closed);
  EXPECT_EQ(db_->Personalize("rosebud").status().code(), closed);
  EXPECT_EQ(db_->TimeContext("a", "b").status().code(), closed);
  EXPECT_EQ(db_->TraceDownload(1).status().code(), closed);
  EXPECT_EQ(db_->DescendantDownloads("http://x.example/").status().code(),
            closed);
  EXPECT_EQ(db_->BeginSnapshot().status().code(), closed);
  // DebugDump is registry-backed and must keep working.
  EXPECT_NE(db_->DebugDump().find("bp-metrics-v1"), std::string::npos);
}

TEST_F(ProvenanceDbTest, TwoDbsShareOneInjectedPoolBudget) {
  // Two databases, one injected BufferPool: one global byte budget,
  // concurrent readers on both, per-db counters stay consistent (with
  // a shared pool, PagerStats reports the POOL's totals — both handles
  // must agree with each other and with the pool), and closing one
  // database releases its frames without disturbing the other. Runs
  // under TSan in CI with the rest of the suite.
  const size_t budget = storage::BufferPool::kShards * 4 * storage::kPageSize;
  auto pool = std::make_shared<storage::BufferPool>(budget);
  ProvenanceDb::Options options;
  options.db.env = &env_;
  options.db.buffer_pool = pool;
  // Injected pool: pool_bytes = 0 defers to the pool's own budget
  // (leaving the default would contradict it — InvalidArgument).
  options.db.pool_bytes = 0;

  auto a = ProvenanceDb::Open("shared_a.db", options);
  auto b = ProvenanceDb::Open("shared_b.db", options);
  ASSERT_TRUE(a.ok() && b.ok());

  auto fill = [](ProvenanceDb& db, const std::string& host) {
    sim::ScenarioBuilder s;
    for (int i = 0; i < 120; ++i) {
      s.Visit(1, "http://" + host + "/p" + std::to_string(i),
              host + " page " + std::to_string(i),
              capture::NavigationAction::kTyped);
      s.Wait(util::Seconds(1));
    }
    ASSERT_TRUE(db.IngestAll(s.events()).ok());
  };
  fill(**a, "a.example");
  fill(**b, "b.example");

  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      ProvenanceDb& db = (t % 2 == 0) ? **a : **b;
      const std::string host = (t % 2 == 0) ? "a.example" : "b.example";
      for (int i = 0; i < 40; ++i) {
        // Concurrent point reads go through a snapshot: the live
        // store() read path belongs to ONE thread by the pager's
        // single-writer contract.
        auto view = db.BeginSnapshot();
        if (!view.ok() ||
            !view->store()
                 .PageForUrl("http://" + host + "/p" + std::to_string(i % 120))
                 .ok()) {
          failures.fetch_add(1);
        }
        if (!db.TextualSearch("page").ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiesced: both handles and the pool itself agree on the counters.
  storage::BufferPoolStats pool_stats = pool->stats();
  storage::PagerStats stats_a = (*a)->storage_stats();
  storage::PagerStats stats_b = (*b)->storage_stats();
  EXPECT_EQ(stats_a.pool_hits, pool_stats.hits);
  EXPECT_EQ(stats_b.pool_hits, pool_stats.hits);
  EXPECT_EQ(stats_a.pool_misses, pool_stats.misses);
  EXPECT_GT(pool_stats.hits + pool_stats.misses, 0u);
  // The budget is soft only while readers pin frames; none are live
  // now, so at most one unpinned straggler per shard can remain from
  // an eviction scan that gave up early.
  EXPECT_LE(pool_stats.bytes,
            budget + storage::BufferPool::kShards * storage::kPageSize);

  // Closing one database releases its share of the pool; the other
  // keeps working and the pool keeps serving it. Warm one query first
  // so `a` definitely has resident frames to release.
  ASSERT_TRUE((*a)->TextualSearch("page").ok());
  const uint64_t frames_before = pool->stats().frames;
  ASSERT_TRUE((*a)->Close().ok());
  EXPECT_LT(pool->stats().frames, frames_before);
  EXPECT_TRUE((*b)->TextualSearch("page").ok());
  ASSERT_TRUE((*b)->Close().ok());
}

TEST_F(ProvenanceDbTest, CloseRefusesWhileASnapshotViewIsLive) {
  IngestRosebudSession();
  {
    auto view = db_->BeginSnapshot();
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(db_->Close().code(), util::StatusCode::kFailedPrecondition);
    // The refused Close must not have torn anything down.
    EXPECT_TRUE(view->Search("rosebud").ok());
  }
  EXPECT_TRUE(db_->Close().ok());
}

// ---------------------------------------------------- reopen stability
//
// The text index persists its watermark with its postings, so reopening
// a profile must neither re-index its history (which would add every
// term frequency and document length a second time) nor commit anything.

// A few simulated days: enough pages that a doubled index would move
// BM25 ranks, small enough for the sanitizer jobs.
sim::SimOutput SmallHistory() {
  util::Rng rng(5);
  sim::Vocabulary vocab = sim::Vocabulary::Create(rng, {});
  sim::WebConfig web_config;
  web_config.sites_per_topic = 3;
  web_config.pages_per_site = 20;
  sim::WebGraph web = sim::WebGraph::Generate(rng, web_config, vocab);
  sim::UserConfig user;
  user.seed = 11;
  user.days = 4;
  return sim::BrowserSim(web, user).Run();
}

std::vector<std::string> HistoryQueries(const sim::SimOutput& history) {
  std::vector<std::string> queries;
  for (const auto& episode : history.searches) {
    queries.push_back(episode.query);
    if (queries.size() >= 8) break;
  }
  return queries;
}

// Everything a reopen must leave unchanged: the corpus stats, the
// postings of every query term, and the answer of every text-backed
// query family (scores compared bit for bit).
struct IndexFingerprint {
  uint64_t docs = 0;
  uint64_t tokens = 0;
  std::vector<std::string> postings;
  std::vector<std::string> answers;
  bool operator==(const IndexFingerprint&) const = default;
};

IndexFingerprint Fingerprint(ProvenanceDb& db,
                             const std::vector<std::string>& queries) {
  IndexFingerprint out;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto search = db.Search(queries[i]);
    EXPECT_TRUE(search.ok()) << search.status().ToString();
    std::string answer = "search:";
    for (const auto& page : search->pages) {
      answer += util::StrFormat(" %llu=%a", (unsigned long long)page.page,
                                page.total);
    }
    out.answers.push_back(answer);

    auto personalized = db.Personalize(queries[i]);
    EXPECT_TRUE(personalized.ok()) << personalized.status().ToString();
    answer = "personalize: " + personalized->AugmentedQuery();
    for (const auto& candidate : personalized->candidates) {
      answer += util::StrFormat(" %s=%a", candidate.term.c_str(),
                                candidate.score);
    }
    out.answers.push_back(answer);

    auto timed = db.TimeContext(queries[i], queries[(i + 1) % queries.size()]);
    EXPECT_TRUE(timed.ok()) << timed.status().ToString();
    answer = "time:";
    for (const auto& match : timed->matches) {
      answer += util::StrFormat(" %llu=%a/%d",
                                (unsigned long long)match.page.page,
                                match.page.total, match.co_open ? 1 : 0);
    }
    out.answers.push_back(answer);
  }
  text::InvertedIndex& index = db.searcher().index();
  out.docs = *index.DocumentCount();
  out.tokens = *index.TotalTokens();
  for (const std::string& query : queries) {
    for (const std::string& term : text::Tokenize(query)) {
      std::string line = term + ":";
      EXPECT_TRUE(index
                      .ForEachPosting(term,
                                      [&](const text::Posting& p) {
                                        line += util::StrFormat(
                                            " %llu/%u",
                                            (unsigned long long)p.doc, p.tf);
                                        return true;
                                      })
                      .ok());
      out.postings.push_back(line);
    }
  }
  return out;
}

uint64_t PageNodeCount(ProvenanceDb& db) {
  uint64_t pages = 0;
  graph::NodeCursor cur = db.store().graph().Nodes(1);
  for (; cur.Valid(); cur.Next()) {
    if (cur.node().kind() == static_cast<uint32_t>(NodeKind::kPage)) ++pages;
  }
  EXPECT_TRUE(cur.status().ok());
  return pages;
}

TEST_F(ProvenanceDbTest, CleanReopenIndexesNothingAndKeepsEveryAnswer) {
  const sim::SimOutput history = SmallHistory();
  const std::vector<std::string> queries = HistoryQueries(history);
  ASSERT_GE(queries.size(), 4u);
  ProvenanceDb::Options options;
  options.db.env = &env_;

  IndexFingerprint before;
  {
    auto db = ProvenanceDb::Open("reopen.db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->IngestAll(history.events).ok());
    before = Fingerprint(**db, queries);
    EXPECT_EQ(before.docs, PageNodeCount(**db));
    ASSERT_TRUE((*db)->Close().ok());
  }
  ASSERT_GT(before.docs, 50u);

  for (int reopen = 1; reopen <= 3; ++reopen) {
    SCOPED_TRACE(util::StrFormat("reopen %d", reopen));
    auto db = ProvenanceDb::Open("reopen.db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    // Nothing to catch up: the Open itself committed nothing.
    EXPECT_EQ((*db)->storage_stats().commits, 0u);
    IndexFingerprint after = Fingerprint(**db, queries);
    EXPECT_EQ(after.docs, before.docs);
    EXPECT_EQ(after.tokens, before.tokens);
    EXPECT_EQ(after.postings, before.postings);
    EXPECT_EQ(after.answers, before.answers);
    // Queries over a clean profile are reads only.
    EXPECT_EQ((*db)->storage_stats().commits, 0u);
    ASSERT_TRUE((*db)->Close().ok());
  }
}

TEST_F(ProvenanceDbTest, PagesIngestedAcrossReopensAreIndexedExactlyOnce) {
  const sim::SimOutput history = SmallHistory();
  const std::vector<std::string> queries = HistoryQueries(history);
  const size_t third = history.events.size() / 3;
  const std::vector<capture::BrowserEvent> parts[3] = {
      {history.events.begin(), history.events.begin() + third},
      {history.events.begin() + third, history.events.begin() + 2 * third},
      {history.events.begin() + 2 * third, history.events.end()}};
  ProvenanceDb::Options options;
  options.db.env = &env_;

  // Reference: the whole history ingested and indexed in one open.
  IndexFingerprint reference;
  {
    auto db = ProvenanceDb::Open("whole.db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->IngestAll(history.events).ok());
    reference = Fingerprint(**db, queries);
  }

  // The same history over three opens: the first third is indexed by a
  // query, the second is closed un-indexed (so the next Open catches it
  // up), and the last is ingested after that catch-up.
  {
    auto db = ProvenanceDb::Open("split.db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->IngestAll(parts[0]).ok());
    ASSERT_TRUE((*db)->TextualSearch(queries[0]).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  {
    auto db = ProvenanceDb::Open("split.db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->storage_stats().commits, 0u);
    ASSERT_TRUE((*db)->IngestAll(parts[1]).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  {
    auto db = ProvenanceDb::Open("split.db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    // The un-indexed tail is caught up in one index transaction.
    EXPECT_EQ((*db)->storage_stats().commits, 1u);
    ASSERT_TRUE((*db)->IngestAll(parts[2]).ok());
    IndexFingerprint split = Fingerprint(**db, queries);
    EXPECT_EQ(split.docs, PageNodeCount(**db));
    EXPECT_EQ(split.docs, reference.docs);
    EXPECT_EQ(split.tokens, reference.tokens);
    EXPECT_EQ(split.postings, reference.postings);
    EXPECT_EQ(split.answers, reference.answers);
  }
}

TEST_F(ProvenanceDbTest, StatsRecordWithoutWatermarkIsNotReindexed) {
  // Older builds stored "stats" as (total docs, total tokens) only. Such
  // a database must open without re-adding its history: the watermark
  // comes from the highest indexed document, and the next index Flush
  // writes it back.
  const sim::SimOutput history = SmallHistory();
  const std::vector<std::string> queries = HistoryQueries(history);
  ProvenanceDb::Options options;
  options.db.env = &env_;

  IndexFingerprint before;
  {
    auto db = ProvenanceDb::Open("legacy.db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->IngestAll(history.events).ok());
    before = Fingerprint(**db, queries);
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto stats_fields = [&] {
    auto db = storage::Db::Open("legacy.db", options.db);
    EXPECT_TRUE(db.ok());
    auto meta = (*db)->OpenTree("textindex.meta");
    EXPECT_TRUE(meta.ok());
    auto blob = (*meta)->Get("stats");
    EXPECT_TRUE(blob.ok());
    util::Reader r(*blob);
    std::vector<uint64_t> fields;
    while (r.ok() && !r.AtEnd()) fields.push_back(r.ReadVarint64());
    return fields;
  };
  {
    std::vector<uint64_t> fields = stats_fields();
    ASSERT_EQ(fields.size(), 3u);
    auto db = storage::Db::Open("legacy.db", options.db);
    ASSERT_TRUE(db.ok());
    util::Writer legacy;
    legacy.PutVarint64(fields[0]);
    legacy.PutVarint64(fields[1]);
    ASSERT_TRUE((*(*db)->OpenTree("textindex.meta"))
                    ->Put("stats", legacy.data())
                    .ok());
  }
  ASSERT_EQ(stats_fields().size(), 2u);

  {
    auto db = ProvenanceDb::Open("legacy.db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    IndexFingerprint after = Fingerprint(**db, queries);
    EXPECT_EQ(after.docs, before.docs);
    EXPECT_EQ(after.tokens, before.tokens);
    EXPECT_EQ(after.postings, before.postings);
    EXPECT_EQ(after.answers, before.answers);
    ASSERT_TRUE((*db)->Close().ok());
  }
  // The open persisted the derived watermark: the record has its third
  // field again, and the next open has nothing to write.
  EXPECT_EQ(stats_fields().size(), 3u);
  auto db = ProvenanceDb::Open("legacy.db", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->storage_stats().commits, 0u);
  EXPECT_EQ(Fingerprint(**db, queries), before);
}


// After a failed log fsync no write may be acknowledged until a reopen,
// including writes whose transaction an AutoTxn opens on its own: the
// text-index flush a query runs and a direct ProvStore record. A failed
// commit must not leave that transaction open, or every later write
// would take the nested path and report success without committing.
TEST(ProvenanceDbFsyncTest, FailedLogFsyncRefusesEveryLaterWrite) {
  storage::MemEnv mem;
  testing_env::FailFirstSyncEnv env(&mem);
  ProvenanceDb::Options options;
  options.db.env = &env;
  options.db.wal_group_commit = 1;  // every commit fsyncs the log
  auto visit = [](const std::string& slug) {
    sim::ScenarioBuilder s;
    s.Visit(1, "http://" + slug + ".example/", slug + " page",
            capture::NavigationAction::kTyped);
    return s.events();
  };
  {
    auto opened = ProvenanceDb::Open("fsync.db", options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ProvenanceDb& db = **opened;
    ASSERT_TRUE(db.IngestAll(visit("albatross")).ok());

    env.Arm();
    EXPECT_EQ(db.IngestAll(visit("bittern")).code(),
              util::StatusCode::kIoError);
    EXPECT_EQ(env.syncs_failed(), 1);
    EXPECT_FALSE(db.db().pager().InTransaction());

    // The query's index refresh commits through its own AutoTxn.
    EXPECT_EQ(db.Search("albatross").status().code(),
              util::StatusCode::kFailedPrecondition);
    EXPECT_FALSE(db.db().pager().InTransaction());
    EXPECT_EQ(db.IngestAll(visit("cormorant")).code(),
              util::StatusCode::kFailedPrecondition);
    EXPECT_FALSE(db.db().pager().InTransaction());
    EXPECT_EQ(db.store()
                  .RecordVisit("http://dunlin.example/", "dunlin page",
                               EdgeKind::kTyped, 0, 1000, 1)
                  .status()
                  .code(),
              util::StatusCode::kFailedPrecondition);
    EXPECT_FALSE(db.db().pager().InTransaction());
  }
  // A reopen replays the log: the batch whose fsync failed is there (its
  // commit frame reached the log), the refused writes are not.
  auto reopened = ProvenanceDb::Open("fsync.db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ProvenanceDb& db = **reopened;
  ASSERT_TRUE(db.IngestAll(visit("egret")).ok());
  for (const char* present : {"albatross", "bittern", "egret"}) {
    auto hits = db.TextualSearch(present);
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    EXPECT_FALSE(hits->pages.empty()) << present;
  }
  for (const char* refused : {"cormorant", "dunlin"}) {
    auto hits = db.TextualSearch(refused);
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    EXPECT_TRUE(hits->pages.empty()) << refused;
  }
}

}  // namespace
}  // namespace bp::prov
