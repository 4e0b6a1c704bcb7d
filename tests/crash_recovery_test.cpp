// Cross-stream crash recovery tests for partitioned write domains.
//
// A two-domain database keeps TWO write-ahead log streams (graph on
// stream 0, text index on stream 1), each with its own group-commit
// clock, joined at recovery by a commit-sequence merge: replay the
// merged sequences contiguously from the highest base and discard
// everything above the first gap (a gap means some stream lost its
// tail — later transactions may depend on pages the missing one
// allocated). These tests prove the property the design hangs on:
// EVERY crash point recovers to a mutually consistent merged-sequence
// prefix — never a state where one stream's effects are visible past a
// lost commit of the other.
//
//   1. FoldStreamsTest — the merge itself, on hand-built streams: gap
//      truncation, base-sequence anchoring, torn tails.
//   2. CrossStreamCrashInjectionPropertyTest — the full stack: a
//      scripted two-domain workload with the MemEnv op log recording
//      every byte that hits the "disk"; then, for every prefix of the
//      op sequence (plus torn cuts through the next write), restore,
//      replay, REOPEN, and require the recovered database to be
//      exactly a transaction boundary state of the merged order.
//   3. IndexCrashPropertyTest — the text index against the graph it
//      covers: a ProvenanceDb workload interleaving ingest and index
//      refreshes, cut at every prefix; after reopening, the index must
//      equal a from-scratch index over the recovered graph (the
//      persisted watermark and its postings survive or vanish together,
//      so no page goes missing and none is counted twice).
//
// Runs under TSan and ASan+UBSan in CI like the rest of the suite.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "prov/provenance_db.hpp"
#include "sim/scenario.hpp"
#include "storage/btree.hpp"
#include "storage/db.hpp"
#include "storage/env.hpp"
#include "storage/pager.hpp"
#include "text/index.hpp"
#include "text/tokenizer.hpp"
#include "util/serde.hpp"
#include "util/strings.hpp"
#include "wal/checkpointer.hpp"
#include "wal/wal_writer.hpp"

namespace bp::wal {
namespace {

using storage::Db;
using storage::DbOptions;
using storage::kGraphDomain;
using storage::kPageSize;
using storage::kTextDomain;
using storage::MemEnv;
using storage::MemEnvOp;
using util::OrderedKeyU64;

std::string Page(char fill) { return std::string(kPageSize, fill); }

// ------------------------------------------------- FoldStreams merge

TEST(FoldStreamsTest, MergesInterleavedStreamsInSequenceOrder) {
  MemEnv env;
  {
    auto db_file = env.Open("db");
    ASSERT_TRUE((*db_file)->Write(0, Page('0')).ok());
  }
  // Sequences 1,3 on stream 0; 2,4 on stream 1. Both streams rewrite
  // page 1 — the merged order must leave the HIGHEST sequence's image.
  auto s0 = WalWriter::Open(&env, "db.wal", 0, 0);
  auto s1 = WalWriter::Open(&env, "db.wal1", 1, 0);
  ASSERT_TRUE(s0.ok() && s1.ok());
  (*s0)->AddPage(1, Page('A'));
  ASSERT_TRUE((*s0)->CommitTxn(1, 2).ok());
  (*s1)->AddPage(1, Page('B'));
  ASSERT_TRUE((*s1)->CommitTxn(2, 2).ok());
  (*s0)->AddPage(1, Page('C'));
  ASSERT_TRUE((*s0)->CommitTxn(3, 2).ok());
  (*s1)->AddPage(1, Page('D'));
  (*s1)->AddPage(2, Page('E'));
  ASSERT_TRUE((*s1)->CommitTxn(4, 3).ok());

  auto db_file = env.Open("db");
  auto folded = Checkpointer::FoldStreams(&env, db_file->get(),
                                          {"db.wal", "db.wal1"}, true);
  ASSERT_TRUE(folded.ok());
  EXPECT_TRUE(folded->ran);
  EXPECT_EQ(folded->commits, 4u);
  EXPECT_EQ(folded->last_commit_seq, 4u);
  EXPECT_EQ(folded->page_count, 3u);

  std::string out;
  ASSERT_TRUE((*db_file)->Read(kPageSize, 2 * kPageSize, &out).ok());
  EXPECT_EQ(out.substr(0, kPageSize), Page('D'));  // seq 4 wins
  EXPECT_EQ(out.substr(kPageSize, kPageSize), Page('E'));
}

TEST(FoldStreamsTest, GapTruncatesToMutuallyConsistentPrefix) {
  MemEnv env;
  {
    auto db_file = env.Open("db");
    ASSERT_TRUE((*db_file)->Write(0, Page('0')).ok());
  }
  // Stream 0 holds sequences 1 and 3; stream 1 LOST sequence 2 (its
  // file is a bare header — the crash tore its whole tail off). Seq 3
  // may depend on pages seq 2 allocated, so recovery must stop at 1.
  auto s0 = WalWriter::Open(&env, "db.wal", 0, 0);
  auto s1 = WalWriter::Open(&env, "db.wal1", 1, 0);
  ASSERT_TRUE(s0.ok() && s1.ok());
  (*s0)->AddPage(1, Page('A'));
  ASSERT_TRUE((*s0)->CommitTxn(1, 2).ok());
  (*s0)->AddPage(1, Page('C'));
  (*s0)->AddPage(2, Page('X'));
  ASSERT_TRUE((*s0)->CommitTxn(3, 3).ok());

  auto db_file = env.Open("db");
  auto folded = Checkpointer::FoldStreams(&env, db_file->get(),
                                          {"db.wal", "db.wal1"}, true);
  ASSERT_TRUE(folded.ok());
  EXPECT_TRUE(folded->ran);
  EXPECT_EQ(folded->commits, 1u) << "seq 3 must fall with the seq-2 gap";
  EXPECT_EQ(folded->last_commit_seq, 1u);
  EXPECT_EQ(folded->page_count, 2u);

  std::string out;
  ASSERT_TRUE((*db_file)->Read(kPageSize, kPageSize, &out).ok());
  EXPECT_EQ(out, Page('A'));  // seq 1 applied, seq 3 discarded
}

TEST(FoldStreamsTest, BaseSeqAnchorsSkipAlreadyFoldedCommits) {
  MemEnv env;
  {
    auto db_file = env.Open("db");
    ASSERT_TRUE((*db_file)->Write(0, Page('0') + Page('F')).ok());
  }
  // Stream 1 was reset at a checkpoint that folded through seq 5 (its
  // base), then logged seq 6. Stream 0 is STALE: it still holds seq 5
  // from before that checkpoint (crash between fold and reset). The
  // fold must anchor at B = max(bases) = 5, skip the stale seq-5
  // frames, and apply only seq 6.
  auto s0 = WalWriter::Open(&env, "db.wal", 0, 3);
  auto s1 = WalWriter::Open(&env, "db.wal1", 1, 5);
  ASSERT_TRUE(s0.ok() && s1.ok());
  (*s0)->AddPage(1, Page('S'));  // stale pre-checkpoint image
  ASSERT_TRUE((*s0)->CommitTxn(5, 2).ok());
  (*s1)->AddPage(1, Page('N'));
  ASSERT_TRUE((*s1)->CommitTxn(6, 2).ok());

  auto db_file = env.Open("db");
  auto folded = Checkpointer::FoldStreams(&env, db_file->get(),
                                          {"db.wal", "db.wal1"}, true);
  ASSERT_TRUE(folded.ok());
  EXPECT_TRUE(folded->ran);
  EXPECT_EQ(folded->commits, 1u);
  EXPECT_EQ(folded->last_commit_seq, 6u);

  std::string out;
  ASSERT_TRUE((*db_file)->Read(kPageSize, kPageSize, &out).ok());
  EXPECT_EQ(out, Page('N')) << "stale pre-checkpoint frame must lose";
}

// ------------------------- crash at every prefix, across both streams

// The database state a crash point must recover to: the graph tree and
// the text tree TOGETHER — the whole point is that they stay mutually
// consistent as one merged prefix.
struct TwoTreeModel {
  std::map<uint64_t, std::string> graph;
  std::map<uint64_t, std::string> text;
  bool operator==(const TwoTreeModel& o) const {
    return graph == o.graph && text == o.text;
  }
};

TwoTreeModel ReadTrees(storage::BTree* g, storage::BTree* x) {
  TwoTreeModel out;
  EXPECT_TRUE(g->ForEach([&](std::string_view key, std::string_view v) {
                   out.graph[util::DecodeOrderedKeyU64(key)] =
                       std::string(v);
                   return true;
                 })
                  .ok());
  EXPECT_TRUE(x->ForEach([&](std::string_view key, std::string_view v) {
                   out.text[util::DecodeOrderedKeyU64(key)] =
                       std::string(v);
                   return true;
                 })
                  .ok());
  return out;
}

struct TxnBoundary {
  size_t ops_done = 0;  // op-log length right after this txn's Commit
  TwoTreeModel state;   // expected contents at that point
};

// Scripted two-domain workload: graph transactions ride stream 0, text
// transactions stream 1. Every text transaction writes a marker
// summarizing how many graph transactions it has observed — so a
// recovery that surfaced a text state from beyond a lost graph commit
// would not merely differ, it would be semantically inconsistent (the
// exact-state check below subsumes the marker check; the marker makes
// the workload's cross-domain dependency real rather than incidental).
void RunCrossStreamCrashInjection(
    uint32_t wal_group_commit, uint64_t checkpoint_bytes,
    storage::compress::CompressionOptions::Mode compression =
        storage::compress::CompressionOptions::Mode::kOff) {
  MemEnv env;
  DbOptions opts;
  opts.env = &env;
  opts.write_domains = 2;
  opts.wal_group_commit = wal_group_commit;
  opts.wal_checkpoint_bytes = checkpoint_bytes;
  opts.compression.mode = compression;

  // Set up the database (catalog + both trees) BEFORE logging starts,
  // so every crash point has a well-formed database underneath it.
  {
    auto db = Db::Open("db", opts);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTree("g").ok());
    ASSERT_TRUE((*db)->CreateTree("x").ok());
  }
  auto base = env.SnapshotAll();

  std::vector<TxnBoundary> boundaries;
  std::vector<MemEnvOp> ops;
  {
    env.StartOpLog();
    auto db = Db::Open("db", opts);
    ASSERT_TRUE(db.ok());
    auto g = (*db)->OpenTree("g");
    auto x = (*db)->OpenTree("x");
    ASSERT_TRUE(g.ok() && x.ok());
    TwoTreeModel model;
    boundaries.push_back({env.OpLogSize(), model});  // empty trees
    int graph_txns = 0;
    for (int t = 0; t < 18; ++t) {
      if (t % 3 != 2) {
        // Graph transaction on stream 0.
        ASSERT_TRUE((*db)->pager().Begin(kGraphDomain).ok());
        for (int i = 0; i < 3; ++i) {
          uint64_t key = (t * 7 + i * 3) % 20;
          std::string value = "g" + std::to_string(t) + "v" +
                              std::string(40 + (t % 5) * 25, 'x');
          ASSERT_TRUE((*g)->Put(OrderedKeyU64(key), value).ok());
          model.graph[key] = value;
        }
        ASSERT_TRUE((*db)->Commit().ok());
        ++graph_txns;
      } else {
        // Text transaction on stream 1, carrying the cross-domain
        // marker plus its own payload.
        ASSERT_TRUE((*db)->pager().Begin(kTextDomain).ok());
        std::string marker = "seen" + std::to_string(graph_txns);
        ASSERT_TRUE((*x)->Put(OrderedKeyU64(0), marker).ok());
        model.text[0] = marker;
        uint64_t key = 1 + (t % 7);
        std::string value =
            "x" + std::to_string(t) + std::string(60, 'y');
        ASSERT_TRUE((*x)->Put(OrderedKeyU64(key), value).ok());
        model.text[key] = value;
        ASSERT_TRUE((*db)->Commit().ok());
      }
      boundaries.push_back({env.OpLogSize(), model});

      // Uncommitted mutations on BOTH domains between transactions:
      // they must never surface, whichever stream the crash tears.
      const auto domain = (t % 2 == 0) ? kGraphDomain : kTextDomain;
      ASSERT_TRUE((*db)->pager().Begin(domain).ok());
      ASSERT_TRUE((*g)->Put(OrderedKeyU64(99), "UNCOMMITTED-G").ok());
      ASSERT_TRUE((*x)->Put(OrderedKeyU64(99), "UNCOMMITTED-X").ok());
      ASSERT_TRUE((*db)->Rollback().ok());
    }
    // Stop BEFORE the db destructor so the clean-close fold is not in
    // the log: the crash window ends at the last commit.
    ops = env.StopOpLog();
  }
  ASSERT_GT(ops.size(), 18u);

  size_t checked = 0;
  for (size_t p = 0; p <= ops.size(); ++p) {
    std::vector<int64_t> cuts = {-1};  // -1: clean crash between ops
    if (p < ops.size() && ops[p].kind == MemEnvOp::Kind::kWrite) {
      int64_t len = static_cast<int64_t>(ops[p].data.size());
      for (int64_t cut :
           {int64_t{1}, len / 4, len / 2, 3 * len / 4, len - 1}) {
        if (cut > 0 && cut < len) cuts.push_back(cut);
      }
    }
    for (int64_t partial : cuts) {
      env.RestoreAll(base);
      ASSERT_TRUE(env.ApplyOps(ops, p, partial).ok());

      auto db = Db::Open("db", opts);
      ASSERT_TRUE(db.ok())
          << "crash at op " << p << " cut " << partial << ": "
          << db.status().ToString();
      auto g = (*db)->OpenTree("g");
      auto x = (*db)->OpenTree("x");
      ASSERT_TRUE(g.ok() && x.ok());
      TwoTreeModel recovered = ReadTrees(*g, *x);

      // The recovered database must be EXACTLY a merged-order boundary
      // state: the last boundary fully contained in the prefix, or the
      // next one (legal when the crash point already has all of txn
      // li+1's bytes durable — e.g. mid-checkpoint, where the log
      // retirement is the only thing missing). A mix of two boundary
      // states — including any state where one tree runs ahead of what
      // the other observed — is a cross-stream consistency bug.
      size_t li = 0;
      for (size_t b = 0; b < boundaries.size(); ++b) {
        if (boundaries[b].ops_done <= p) li = b;
      }
      bool matches_li = recovered == boundaries[li].state;
      bool matches_next = li + 1 < boundaries.size() &&
                          recovered == boundaries[li + 1].state;
      EXPECT_TRUE(matches_li || matches_next)
          << "crash at op " << p << " cut " << partial << ": recovered "
          << recovered.graph.size() << "+" << recovered.text.size()
          << " keys; expected boundary " << li << " ("
          << boundaries[li].state.graph.size() << "+"
          << boundaries[li].state.text.size() << " keys) or " << li + 1;
      EXPECT_EQ(recovered.graph.count(99), 0u)
          << "uncommitted graph key visible after crash at op " << p;
      EXPECT_EQ(recovered.text.count(99), 0u)
          << "uncommitted text key visible after crash at op " << p;
      ++checked;
    }
  }
  EXPECT_GT(checked, ops.size());
}

TEST(CrossStreamCrashInjectionPropertyTest, StrictDurabilityEveryPrefix) {
  // Group window of 1: every commit fsyncs its own stream before the
  // next begins; checkpoints interleave (small threshold), so crash
  // points land mid-fold and mid-stream-reset too.
  RunCrossStreamCrashInjection(1, 24 * kPageSize);
}

TEST(CrossStreamCrashInjectionPropertyTest, GroupedCommitsEveryPrefix) {
  // Group window of 3: commits on both streams ride unsynced windows,
  // so crash points expose cross-stream tails where one stream's
  // window closed and the other's had not — the merge must still
  // produce a contiguous prefix. Large checkpoint threshold keeps both
  // logs long.
  RunCrossStreamCrashInjection(3, 4 << 20);
}

TEST(CrossStreamCrashInjectionPropertyTest,
     CompressedCheckpointsEveryPrefix) {
  // The storage diet on, with the small checkpoint threshold so folds
  // (now writing compressed frames into checkpoint slots) land inside
  // the crash window: every prefix must still recover to a boundary
  // state, with recovery reading back a MIX of compressed and raw
  // slots. Idempotence matters here too — a re-run fold after a crash
  // mid-checkpoint must overwrite slots byte-identically.
  RunCrossStreamCrashInjection(
      1, 24 * kPageSize, storage::compress::CompressionOptions::Mode::kFast);
}

TEST(CrossStreamCrashInjectionPropertyTest,
     CompressedGroupedCommitsEveryPrefix) {
  // Diet + group commit: torn unsynced windows on both streams with
  // compression enabled in both WAL streams' fold path.
  RunCrossStreamCrashInjection(
      3, 4 << 20, storage::compress::CompressionOptions::Mode::kFast);
}

// ------------------- text index vs. recovered graph, every prefix

// The durable content of an index: every postings blob, every document
// length, and the corpus stats (the watermark is left out: a
// from-scratch build sets its own).
struct IndexImage {
  std::map<std::string, std::string> terms;
  std::map<std::string, std::string> docs;
  uint64_t total_docs = 0;
  uint64_t total_tokens = 0;
  bool operator==(const IndexImage&) const = default;
};

IndexImage ReadIndex(Db& db) {
  IndexImage out;
  auto read_tree = [&db](const std::string& name,
                         std::map<std::string, std::string>* into) {
    auto tree = db.OpenTree(name);
    ASSERT_TRUE(tree.ok()) << name;
    ASSERT_TRUE((*tree)
                    ->ForEach([&](std::string_view key, std::string_view v) {
                      into->emplace(std::string(key), std::string(v));
                      return true;
                    })
                    .ok());
  };
  read_tree("textindex.terms", &out.terms);
  read_tree("textindex.docs", &out.docs);
  auto meta = db.OpenTree("textindex.meta");
  EXPECT_TRUE(meta.ok());
  auto stats = (*meta)->Get("stats");
  if (stats.ok()) {
    util::Reader r(*stats);
    out.total_docs = r.ReadVarint64();
    out.total_tokens = r.ReadVarint64();
  }
  return out;
}

// Indexes every page of `store` into a fresh database, the way the
// searcher does (URL and title as one document).
IndexImage IndexFromScratch(prov::ProvStore& store) {
  MemEnv env;
  DbOptions opts;
  opts.env = &env;
  auto db = Db::Open("scratch", opts);
  EXPECT_TRUE(db.ok());
  auto index = text::InvertedIndex::Open(**db, "textindex");
  EXPECT_TRUE(index.ok());
  graph::NodeCursor cur = store.graph().Nodes(1);
  for (; cur.Valid(); cur.Next()) {
    if (cur.node().kind() != static_cast<uint32_t>(prov::NodeKind::kPage)) {
      continue;
    }
    auto attrs = cur.node().attrs();
    EXPECT_TRUE(attrs.ok());
    std::string doc(attrs->StringOr(prov::kAttrUrl, ""));
    doc += ' ';
    doc += attrs->StringOr(prov::kAttrTitle, "");
    EXPECT_TRUE(
        (*index)->AddDocument(cur.node().id(), text::Tokenize(doc)).ok());
  }
  EXPECT_TRUE(cur.status().ok());
  EXPECT_TRUE((*index)->Flush().ok());
  return ReadIndex(**db);
}

// Ten short browsing sessions; the index is refreshed (by a text query)
// after some of them and left stale after others, so crash points land
// inside ingest commits, inside index commits, and between the two.
void RunIndexCrashInjection(uint32_t write_domains, uint32_t group_commit,
                            uint64_t checkpoint_bytes) {
  MemEnv env;
  prov::ProvenanceDb::Options options;
  options.db.env = &env;
  options.db.write_domains = write_domains;
  options.db.wal_group_commit = group_commit;
  options.db.wal_checkpoint_bytes = checkpoint_bytes;
  options.async.enabled = false;
  {
    auto db = prov::ProvenanceDb::Open("prov.db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto base = env.SnapshotAll();

  std::vector<MemEnvOp> ops;
  uint64_t pages_ingested = 0;
  {
    env.StartOpLog();
    auto db = prov::ProvenanceDb::Open("prov.db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    sim::ScenarioBuilder s;
    for (int session = 0; session < 10; ++session) {
      const size_t first = s.events().size();
      const std::string topic = "topic" + std::to_string(session % 4);
      uint64_t search = s.Search(1, topic + " guide");
      uint64_t results = s.Visit(
          1, util::StrFormat("https://search.example/q%d", session),
          topic + " guide results", capture::NavigationAction::kSearchResult,
          0, search);
      uint64_t page = s.Visit(
          1, util::StrFormat("http://site%d.example/%s", session % 3,
                             topic.c_str()),
          topic + " article " + std::to_string(session),
          capture::NavigationAction::kLink, results);
      // A page whose URL and title yield no tokens still counts as a
      // document.
      s.Visit(1, util::StrFormat("http://e%d.x/", session), "",
              capture::NavigationAction::kLink, page);
      s.Wait(util::Seconds(30));
      pages_ingested += 3;
      std::vector<capture::BrowserEvent> batch(s.events().begin() + first,
                                               s.events().end());
      ASSERT_TRUE((*db)->IngestAll(batch).ok());
      if (session % 3 != 1) {
        ASSERT_TRUE((*db)->TextualSearch(topic).ok());
      }
    }
    // Stop before Close, so the window ends at the last commit.
    ops = env.StopOpLog();
  }
  ASSERT_GT(ops.size(), 20u);

  size_t checked = 0;
  for (size_t p = 0; p <= ops.size(); ++p) {
    std::vector<int64_t> cuts = {-1};
    if (p < ops.size() && ops[p].kind == MemEnvOp::Kind::kWrite) {
      int64_t len = static_cast<int64_t>(ops[p].data.size());
      for (int64_t cut : {int64_t{1}, len / 2, len - 1}) {
        if (cut > 0 && cut < len) cuts.push_back(cut);
      }
    }
    for (int64_t partial : cuts) {
      env.RestoreAll(base);
      ASSERT_TRUE(env.ApplyOps(ops, p, partial).ok());
      auto db = prov::ProvenanceDb::Open("prov.db", options);
      ASSERT_TRUE(db.ok()) << "crash at op " << p << " cut " << partial
                           << ": " << db.status().ToString();
      IndexImage recovered = ReadIndex((*db)->db());
      IndexImage expected = IndexFromScratch((*db)->store());
      EXPECT_EQ(recovered.total_docs, expected.total_docs)
          << "crash at op " << p << " cut " << partial;
      EXPECT_EQ(recovered.total_tokens, expected.total_tokens)
          << "crash at op " << p << " cut " << partial;
      EXPECT_TRUE(recovered == expected)
          << "crash at op " << p << " cut " << partial << ": "
          << recovered.docs.size() << " indexed docs, "
          << expected.docs.size() << " pages";
      ++checked;
    }
  }
  EXPECT_GT(checked, ops.size());
  // The full log recovers every page.
  env.RestoreAll(base);
  ASSERT_TRUE(env.ApplyOps(ops, ops.size(), -1).ok());
  auto db = prov::ProvenanceDb::Open("prov.db", options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(*(*db)->searcher().index().DocumentCount(), pages_ingested);
}

TEST(IndexCrashPropertyTest, OneStreamEveryPrefix) {
  // Ingest and index commits share one log; small checkpoint threshold
  // so folds land inside the window too.
  RunIndexCrashInjection(1, 1, 24 * kPageSize);
}

TEST(IndexCrashPropertyTest, TwoStreamsGroupedEveryPrefix) {
  // The facade's default layout: index refreshes on their own stream,
  // group commit open across both, so one stream's tail can be torn
  // while the other's survived.
  RunIndexCrashInjection(2, 3, 4 << 20);
}

}  // namespace
}  // namespace bp::wal
