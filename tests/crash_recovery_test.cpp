// Crash recovery tests for the write-ahead log's commit-sequence merge.
//
// A database writes one log, <db>.wal. Builds that split commits over
// two streams (graph on stream 0 at <db>.wal, text index on stream 1 at
// <db>.wal1) may leave both behind after a crash, so recovery still
// joins the streams by a commit-sequence merge: replay the merged
// sequences contiguously from the highest base and discard everything
// above the first gap (a gap means some stream lost its tail — later
// transactions may depend on pages the missing one allocated).
//
//   1. FoldStreamsTest — the merge itself, on hand-built streams: gap
//      truncation, base-sequence anchoring, torn tails.
//   2. LegacyStreamRecoveryTest — the same merge through Pager::Open: a
//      hand-built two-stream crash image over a real database file must
//      recover exactly the mutually consistent prefix, retire <db>.wal1,
//      and leave every later commit in <db>.wal alone.
//   3. IndexCrashPropertyTest — the text index against the graph it
//      covers: a ProvenanceDb workload interleaving ingest and index
//      refreshes, cut at every prefix; after reopening, the index must
//      equal a from-scratch index over the recovered graph (the
//      persisted watermark and its postings survive or vanish together,
//      so no page goes missing and none is counted twice).
//
// Runs under TSan and ASan+UBSan in CI like the rest of the suite.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "wal/wal_reader.hpp"
#include "wal/wal_writer.hpp"

namespace bp::wal {
namespace {

using storage::Db;
using storage::DbOptions;
using storage::kPageSize;
using storage::MemEnv;
using storage::MemEnvOp;
using storage::Pager;
using storage::PagerOptions;

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

// ----------------------------- legacy two-stream image, through Open

TEST(LegacyStreamRecoveryTest, OpenFoldsMergedPrefixAndRetiresWal1) {
  MemEnv env;
  PagerOptions opts;
  opts.env = &env;
  // A real database: header plus data pages 1..3, folded by a clean
  // close at commit sequence 1.
  {
    auto pager = Pager::Open("db", opts);
    ASSERT_TRUE(pager.ok());
    ASSERT_TRUE((*pager)->Begin().ok());
    for (int i = 0; i < 3; ++i) {
      auto id = (*pager)->Allocate();
      ASSERT_TRUE(id.ok());
      auto ref = (*pager)->GetMutable(*id);
      ASSERT_TRUE(ref.ok());
      std::fill(ref->mutable_data(), ref->mutable_data() + kPageSize, 'a');
    }
    ASSERT_TRUE((*pager)->Commit().ok());
  }
  ASSERT_FALSE(env.Exists("db.wal"));

  // The crash image an older two-stream build leaves: sequences 2 and 4
  // on stream 0, 3 on stream 1, then seq 5 on stream 1 torn mid-frame
  // and seq 6 on stream 0 above that gap.
  {
    auto s0 = WalWriter::Open(&env, "db.wal", 0, 1);
    auto s1 = WalWriter::Open(&env, "db.wal1", 1, 1);
    ASSERT_TRUE(s0.ok() && s1.ok());
    (*s0)->AddPage(1, Page('B'));
    ASSERT_TRUE((*s0)->CommitTxn(2, 4).ok());
    (*s1)->AddPage(2, Page('C'));
    ASSERT_TRUE((*s1)->CommitTxn(3, 4).ok());
    (*s0)->AddPage(3, Page('D'));
    ASSERT_TRUE((*s0)->CommitTxn(4, 4).ok());
    const uint64_t before_seq5 = (*s1)->SizeBytes();
    (*s1)->AddPage(1, Page('E'));
    ASSERT_TRUE((*s1)->CommitTxn(5, 4).ok());
    const uint64_t after_seq5 = (*s1)->SizeBytes();
    auto wal1 = env.Open("db.wal1");
    ASSERT_TRUE(wal1.ok());
    ASSERT_TRUE(
        (*wal1)->Truncate(before_seq5 + (after_seq5 - before_seq5) / 2).ok());
    (*s0)->AddPage(2, Page('F'));
    ASSERT_TRUE((*s0)->CommitTxn(6, 4).ok());
  }

  auto expect_pages = [&](Pager& pager, char p1, char p2, char p3) {
    for (auto [id, fill] : {std::pair{1u, p1}, {2u, p2}, {3u, p3}}) {
      auto ref = pager.Get(id);
      ASSERT_TRUE(ref.ok());
      EXPECT_EQ(std::string(ref->data(), kPageSize), Page(fill))
          << "page " << id;
    }
  };
  std::map<std::string, std::string> crashed;
  {
    auto pager = Pager::Open("db", opts);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    // Sequences 2..4 apply; 5 is torn, so 6 falls with the gap.
    expect_pages(**pager, 'B', 'C', 'D');
    EXPECT_FALSE(env.Exists("db.wal1"));

    // The next commit continues the recovered sequence in db.wal only.
    ASSERT_TRUE((*pager)->Begin().ok());
    auto ref = (*pager)->GetMutable(3);
    ASSERT_TRUE(ref.ok());
    std::fill(ref->mutable_data(), ref->mutable_data() + kPageSize, 'G');
    ref = storage::PageRef();
    ASSERT_TRUE((*pager)->Commit().ok());
    EXPECT_FALSE(env.Exists("db.wal1"));
    auto log = WalReader::ReadCommitted(&env, "db.wal");
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(log->stream_id, 0u);
    EXPECT_EQ(log->commits, 1u);
    EXPECT_EQ(log->last_commit_seq, 5u);
    // Crash here: keep the files as they are before the clean close.
    crashed = env.SnapshotAll();
  }
  env.RestoreAll(crashed);
  auto pager = Pager::Open("db", opts);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  expect_pages(**pager, 'B', 'C', 'G');
  EXPECT_FALSE(env.Exists("db.wal1"));
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

// Twelve short browsing sessions; the index is refreshed (by a text query)
// after some of them and left stale after others, so crash points land
// inside ingest commits, inside index commits, and between the two.
void RunIndexCrashInjection(uint32_t group_commit, uint64_t checkpoint_bytes) {
  MemEnv env;
  prov::ProvenanceDb::Options options;
  options.db.env = &env;
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
    for (int session = 0; session < 12; ++session) {
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

TEST(IndexCrashPropertyTest, StrictDurabilityEveryPrefix) {
  // Every commit fsyncs before the next begins; small checkpoint
  // threshold so folds land inside the window too.
  RunIndexCrashInjection(1, 24 * kPageSize);
}

TEST(IndexCrashPropertyTest, GroupedCommitsEveryPrefix) {
  // The facade's grouped commits: ingest and index commits share one
  // open group-commit window, so a crash can tear the unsynced tail of
  // either kind. Large checkpoint threshold keeps the log long.
  RunIndexCrashInjection(3, 4 << 20);
}

}  // namespace
}  // namespace bp::wal
