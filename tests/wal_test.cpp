// WAL durability subsystem tests: log format round trips, torn-tail
// detection, the pager's WAL (commit, reopen, checkpoint, eviction,
// group commit), refusal of a leftover rollback journal, and the
// crash-injection property test — crash at EVERY prefix of the recorded
// write sequence (plus torn final writes), reopen, and verify committed
// data is intact and uncommitted data absent.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "storage/btree.hpp"
#include "storage/db.hpp"
#include "storage/env.hpp"
#include "storage/pager.hpp"
#include "storage/snapshot.hpp"
#include "tests/fail_sync_env.hpp"
#include "util/serde.hpp"
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
using storage::PageId;
using storage::Pager;
using storage::PagerOptions;
using util::OrderedKeyU64;

std::string Page(char fill) { return std::string(kPageSize, fill); }

// ------------------------------------------------------ writer/reader

TEST(WalFormatTest, RoundTripCommittedPages) {
  MemEnv env;
  auto writer = WalWriter::Open(&env, "db.wal");
  ASSERT_TRUE(writer.ok());
  (*writer)->AddPage(1, Page('a'));
  (*writer)->AddPage(2, Page('b'));
  ASSERT_TRUE((*writer)->CommitTxn(1, 3).ok());
  (*writer)->AddPage(1, Page('c'));  // second txn overwrites page 1
  ASSERT_TRUE((*writer)->CommitTxn(2, 3).ok());

  auto contents = WalReader::ReadCommitted(&env, "db.wal");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->commits, 2u);
  EXPECT_EQ(contents->frames, 5u);  // 3 pages + 2 commit frames
  EXPECT_FALSE(contents->torn_tail);
  EXPECT_EQ(contents->last_commit_seq, 2u);
  EXPECT_EQ(contents->last_page_count, 3u);
  ASSERT_EQ(contents->pages.size(), 2u);
  EXPECT_EQ(contents->pages.at(1), Page('c'));  // latest wins
  EXPECT_EQ(contents->pages.at(2), Page('b'));
}

TEST(WalFormatTest, UncommittedTrailingPagesAreIgnored) {
  MemEnv env;
  auto writer = WalWriter::Open(&env, "db.wal");
  ASSERT_TRUE(writer.ok());
  (*writer)->AddPage(1, Page('a'));
  ASSERT_TRUE((*writer)->CommitTxn(1, 2).ok());
  (*writer)->AddPage(2, Page('x'));
  ASSERT_TRUE((*writer)->CommitTxn(2, 3).ok());

  // Cut the file a few bytes into txn 2's commit frame, leaving its page
  // frame intact but the commit torn off — the page must be discarded.
  auto file = env.Open("db.wal");
  auto full = (*file)->Size();
  ASSERT_TRUE(full.ok());
  size_t commit_frame = FrameBytes(kWalCommitPayloadBytes);
  ASSERT_TRUE((*file)->Truncate(*full - commit_frame + 3).ok());

  auto contents = WalReader::ReadCommitted(&env, "db.wal");
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->torn_tail);
  EXPECT_EQ(contents->commits, 1u);
  ASSERT_EQ(contents->pages.size(), 1u);
  EXPECT_EQ(contents->pages.at(1), Page('a'));
}

TEST(WalFormatTest, CorruptByteEndsScan) {
  MemEnv env;
  auto writer = WalWriter::Open(&env, "db.wal");
  ASSERT_TRUE(writer.ok());
  (*writer)->AddPage(1, Page('a'));
  ASSERT_TRUE((*writer)->CommitTxn(1, 2).ok());
  uint64_t first_txn_end = (*writer)->SizeBytes();
  (*writer)->AddPage(2, Page('b'));
  ASSERT_TRUE((*writer)->CommitTxn(2, 3).ok());

  // Flip one byte inside txn 2's page payload.
  auto file = env.Open("db.wal");
  ASSERT_TRUE(
      (*file)->Write(first_txn_end + kWalFrameHeaderBytes + 100, "X").ok());

  auto contents = WalReader::ReadCommitted(&env, "db.wal");
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->torn_tail);
  EXPECT_EQ(contents->commits, 1u);
  EXPECT_EQ(contents->pages.count(2), 0u);
}

TEST(WalFormatTest, TruncateAtEveryByteNeverYieldsPartialTxn) {
  MemEnv env;
  auto writer = WalWriter::Open(&env, "db.wal");
  ASSERT_TRUE(writer.ok());
  (*writer)->AddPage(1, Page('a'));
  ASSERT_TRUE((*writer)->CommitTxn(1, 2).ok());
  uint64_t txn1_end = (*writer)->SizeBytes();
  (*writer)->AddPage(1, Page('b'));
  (*writer)->AddPage(2, Page('c'));
  ASSERT_TRUE((*writer)->CommitTxn(2, 3).ok());
  auto snapshot = env.SnapshotAll();
  uint64_t full = snapshot.at("db.wal").size();

  // Walk a byte-granular sweep of crash points across txn 2 (every 7th
  // byte to keep runtime sane; the offsets straddle all frame edges).
  for (uint64_t cut = txn1_end; cut <= full; cut += (cut + 7 <= full ? 7 : 1)) {
    env.RestoreAll(snapshot);
    auto file = env.Open("db.wal");
    ASSERT_TRUE((*file)->Truncate(cut).ok());
    auto contents = WalReader::ReadCommitted(&env, "db.wal");
    ASSERT_TRUE(contents.ok()) << "cut at " << cut;
    if (cut < full) {
      // Txn 2 must be absent ATOMICALLY: txn 1's state only.
      EXPECT_EQ(contents->commits, 1u) << "cut at " << cut;
      EXPECT_EQ(contents->pages.at(1), Page('a')) << "cut at " << cut;
      EXPECT_EQ(contents->pages.count(2), 0u) << "cut at " << cut;
    } else {
      EXPECT_EQ(contents->commits, 2u);
      EXPECT_EQ(contents->pages.at(1), Page('b'));
      EXPECT_EQ(contents->pages.at(2), Page('c'));
    }
  }
}

// ------------------------------------------------------ checkpointer

TEST(CheckpointerTest, FoldsCommittedPagesIntoDbFile) {
  MemEnv env;
  {
    auto db_file = env.Open("db");
    ASSERT_TRUE((*db_file)->Write(0, Page('0') + Page('1')).ok());
  }
  auto writer = WalWriter::Open(&env, "db.wal");
  ASSERT_TRUE(writer.ok());
  (*writer)->AddPage(1, Page('X'));
  (*writer)->AddPage(2, Page('Y'));  // grows the db
  ASSERT_TRUE((*writer)->CommitTxn(1, 3).ok());

  auto db_file = env.Open("db");
  auto result =
      Checkpointer::FoldStreams(&env, db_file->get(), {"db.wal"}, true);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ran);
  EXPECT_EQ(result->pages_folded, 2u);
  EXPECT_EQ(result->page_count, 3u);

  std::string out;
  ASSERT_TRUE((*db_file)->Read(0, 3 * kPageSize, &out).ok());
  EXPECT_EQ(out.substr(0, kPageSize), Page('0'));  // untouched
  EXPECT_EQ(out.substr(kPageSize, kPageSize), Page('X'));
  EXPECT_EQ(out.substr(2 * kPageSize, kPageSize), Page('Y'));
}

// --------------------------------------------------------- pager WAL

PagerOptions WalPagerOptions(MemEnv* env) {
  PagerOptions opts;
  opts.env = env;
  return opts;
}

TEST(PagerWalTest, CommitReopenPersists) {
  MemEnv env;
  {
    auto pager = Pager::Open("db", WalPagerOptions(&env));
    ASSERT_TRUE(pager.ok());
    ASSERT_TRUE((*pager)->Begin().ok());
    auto id = (*pager)->Allocate();
    ASSERT_TRUE(id.ok());
    (*(*pager)->GetMutable(*id)).mutable_data()[0] = 'Z';
    ASSERT_TRUE((*pager)->Commit().ok());
    EXPECT_TRUE(env.Exists("db.wal"));
  }
  // Clean close checkpointed and retired the log.
  EXPECT_FALSE(env.Exists("db.wal"));
  {
    auto pager = Pager::Open("db", WalPagerOptions(&env));
    ASSERT_TRUE(pager.ok());
    EXPECT_EQ((*pager)->page_count(), 2u);
    EXPECT_EQ((*(*pager)->Get(1)).data()[0], 'Z');
  }
}

TEST(PagerWalTest, CrashBeforeCheckpointRecoversFromLog) {
  MemEnv env;
  std::map<std::string, std::string> crashed;
  {
    auto pager = Pager::Open("db", WalPagerOptions(&env));
    ASSERT_TRUE(pager.ok());
    ASSERT_TRUE((*pager)->Begin().ok());
    auto id = (*pager)->Allocate();
    ASSERT_TRUE(id.ok());
    (*(*pager)->GetMutable(*id)).mutable_data()[0] = 'A';
    ASSERT_TRUE((*pager)->Commit().ok());
    // Power loss NOW: the commit lives only in the log.
    crashed = env.SnapshotAll();
  }
  env.RestoreAll(crashed);
  ASSERT_TRUE(env.Exists("db.wal"));
  auto pager = Pager::Open("db", WalPagerOptions(&env));
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*pager)->page_count(), 2u);
  EXPECT_EQ((*(*pager)->Get(1)).data()[0], 'A');
  // The crashed log was folded and retired; what exists now is the
  // fresh, empty live log of the reopened pager.
  auto live = WalReader::ReadCommitted(&env, "db.wal");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->commits, 0u);
}

TEST(PagerWalTest, UncommittedTxnIsInvisibleAfterCrash) {
  MemEnv env;
  std::map<std::string, std::string> crashed;
  {
    auto pager = Pager::Open("db", WalPagerOptions(&env));
    ASSERT_TRUE(pager.ok());
    ASSERT_TRUE((*pager)->Begin().ok());
    auto id = (*pager)->Allocate();
    ASSERT_TRUE(id.ok());
    (*(*pager)->GetMutable(*id)).mutable_data()[0] = 'A';
    ASSERT_TRUE((*pager)->Commit().ok());
    // Open a second txn, mutate, crash before Commit.
    ASSERT_TRUE((*pager)->Begin().ok());
    (*(*pager)->GetMutable(*id)).mutable_data()[0] = 'B';
    crashed = env.SnapshotAll();
    ASSERT_TRUE((*pager)->Rollback().ok());
  }
  env.RestoreAll(crashed);
  auto pager = Pager::Open("db", WalPagerOptions(&env));
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*(*pager)->Get(1)).data()[0], 'A');
}

TEST(PagerWalTest, ThresholdCheckpointFoldsAndTruncatesLog) {
  MemEnv env;
  PagerOptions opts = WalPagerOptions(&env);
  opts.wal_checkpoint_bytes = 8 * kPageSize;  // tiny threshold
  auto pager = Pager::Open("db", opts);
  ASSERT_TRUE(pager.ok());
  std::vector<PageId> ids;
  for (int t = 0; t < 8; ++t) {
    ASSERT_TRUE((*pager)->Begin().ok());
    auto id = (*pager)->Allocate();
    ASSERT_TRUE(id.ok());
    (*(*pager)->GetMutable(*id)).mutable_data()[0] =
        static_cast<char>('a' + t);
    ids.push_back(*id);
    ASSERT_TRUE((*pager)->Commit().ok());
  }
  EXPECT_GT((*pager)->stats().checkpoints, 0u);
  // All data readable (some from main file, some possibly from log).
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ((*(*pager)->Get(ids[i])).data()[0],
              static_cast<char>('a' + i));
  }
}

TEST(PagerWalTest, EvictedPageIsReadBackFromLog) {
  MemEnv env;
  PagerOptions opts = WalPagerOptions(&env);
  opts.cache_pages = 4;  // force eviction
  opts.wal_checkpoint_bytes = 64 << 20;  // never checkpoint during test
  auto pager = Pager::Open("db", opts);
  ASSERT_TRUE(pager.ok());
  std::vector<PageId> ids;
  ASSERT_TRUE((*pager)->Begin().ok());
  for (int i = 0; i < 32; ++i) {
    auto id = (*pager)->Allocate();
    ASSERT_TRUE(id.ok());
    (*(*pager)->GetMutable(*id)).mutable_data()[0] =
        static_cast<char>('a' + (i % 26));
    ids.push_back(*id);
  }
  ASSERT_TRUE((*pager)->Commit().ok());
  EXPECT_GT((*pager)->stats().evictions, 0u);
  // The main db file holds none of these pages (no checkpoint ran), so
  // evicted ones must come back from the WAL.
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ((*(*pager)->Get(ids[i])).data()[0],
              static_cast<char>('a' + (i % 26)));
  }
}

TEST(PagerWalTest, GroupCommitDefersFsyncAcrossWindow) {
  MemEnv env;
  PagerOptions opts = WalPagerOptions(&env);
  opts.wal_group_commit = 8;
  auto pager = Pager::Open("db", opts);
  ASSERT_TRUE(pager.ok());
  uint64_t baseline = (*pager)->stats().fsyncs;
  for (int t = 0; t < 7; ++t) {
    ASSERT_TRUE((*pager)->Begin().ok());
    auto id = (*pager)->Allocate();
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE((*pager)->Commit().ok());
  }
  // 7 commits, window of 8: no fsync yet.
  EXPECT_EQ((*pager)->stats().fsyncs, baseline);
  ASSERT_TRUE((*pager)->Begin().ok());
  auto id = (*pager)->Allocate();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*pager)->Commit().ok());
  // The 8th commit filled the window: exactly one fsync for all eight,
  // counted as one group commit.
  EXPECT_EQ((*pager)->stats().fsyncs, baseline + 1);
  EXPECT_EQ((*pager)->stats().group_commits, 1u);
  EXPECT_EQ((*pager)->unsynced_commits(), 0u);
}

TEST(PagerWalTest, FlushPendingClosesAPartialGroupEarly) {
  MemEnv env;
  PagerOptions opts = WalPagerOptions(&env);
  opts.wal_group_commit = 8;  // ceiling, not cadence
  auto pager = Pager::Open("db", opts);
  ASSERT_TRUE(pager.ok());
  uint64_t baseline = (*pager)->stats().fsyncs;
  for (int t = 0; t < 3; ++t) {
    ASSERT_TRUE((*pager)->Begin().ok());
    auto id = (*pager)->Allocate();
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE((*pager)->Commit().ok());
  }
  // 3 commits in an 8-wide window: nothing synced yet.
  EXPECT_EQ((*pager)->stats().fsyncs, baseline);
  EXPECT_EQ((*pager)->unsynced_commits(), 3u);
  // The idle hook closes the partial window now (one fsync, one group).
  auto flushed = (*pager)->FlushPending();
  ASSERT_TRUE(flushed.ok());
  EXPECT_TRUE(*flushed);
  EXPECT_EQ((*pager)->stats().fsyncs, baseline + 1);
  EXPECT_EQ((*pager)->stats().group_commits, 1u);
  EXPECT_EQ((*pager)->unsynced_commits(), 0u);
  // Nothing pending: the hook reports it did not sync.
  flushed = (*pager)->FlushPending();
  ASSERT_TRUE(flushed.ok());
  EXPECT_FALSE(*flushed);
  EXPECT_EQ((*pager)->stats().fsyncs, baseline + 1);
}

TEST(PagerWalTest, GroupCommitCrashLosesOnlyUnsyncedSuffixAtomically) {
  MemEnv env;
  PagerOptions opts = WalPagerOptions(&env);
  opts.wal_group_commit = 4;
  std::map<std::string, std::string> crashed;
  {
    auto pager = Pager::Open("db", opts);
    ASSERT_TRUE(pager.ok());
    for (int t = 0; t < 6; ++t) {  // window flushes at 4; 5..6 unsynced
      ASSERT_TRUE((*pager)->Begin().ok());
      auto id = (*pager)->Allocate();
      ASSERT_TRUE(id.ok());
      (*(*pager)->GetMutable(*id)).mutable_data()[0] =
          static_cast<char>('a' + t);
      ASSERT_TRUE((*pager)->Commit().ok());
    }
    crashed = env.SnapshotAll();
  }
  // MemEnv persists unsynced writes, so the snapshot holds all six; the
  // durability CONTRACT is only that a consistent committed prefix
  // survives. Verify the recovered db is exactly a prefix state.
  env.RestoreAll(crashed);
  auto pager = Pager::Open("db", opts);
  ASSERT_TRUE(pager.ok());
  uint32_t recovered_pages = (*pager)->page_count();
  ASSERT_GE(recovered_pages, 1u);
  ASSERT_LE(recovered_pages, 7u);
  for (PageId id = 1; id < recovered_pages; ++id) {
    EXPECT_EQ((*(*pager)->Get(id)).data()[0],
              static_cast<char>('a' + (id - 1)));
  }
}

TEST(PagerWalTest, FailedLogFsyncIsStickyUntilReopen) {
  MemEnv mem;
  testing_env::FailFirstSyncEnv env(&mem);
  PagerOptions opts;
  opts.env = &env;
  opts.wal_group_commit = 1;  // every commit fsyncs the log
  {
    auto pager = Pager::Open("db", opts);
    ASSERT_TRUE(pager.ok());
    ASSERT_TRUE((*pager)->Begin().ok());
    auto id = (*pager)->Allocate();
    ASSERT_TRUE(id.ok());
    (*(*pager)->GetMutable(*id)).mutable_data()[0] = 'A';
    ASSERT_TRUE((*pager)->Commit().ok());

    env.Arm();
    ASSERT_TRUE((*pager)->Begin().ok());
    (*(*pager)->GetMutable(*id)).mutable_data()[0] = 'B';
    // The commit is in the log, but its fsync failed.
    EXPECT_EQ((*pager)->Commit().code(), util::StatusCode::kIoError);
    EXPECT_EQ(env.syncs_failed(), 1);

    // The device would now accept a sync, but none is attempted: a
    // retried fsync could report success for pages already dropped.
    const uint64_t fsyncs = (*pager)->stats().fsyncs;
    EXPECT_EQ((*pager)->SyncWal().code(),
              util::StatusCode::kFailedPrecondition);
    auto flushed = (*pager)->FlushPending();
    EXPECT_EQ(flushed.status().code(), util::StatusCode::kFailedPrecondition);
    ASSERT_TRUE((*pager)->Begin().ok());
    (*(*pager)->GetMutable(*id)).mutable_data()[0] = 'C';
    EXPECT_EQ((*pager)->Commit().code(),
              util::StatusCode::kFailedPrecondition);
    ASSERT_TRUE((*pager)->InTransaction());
    ASSERT_TRUE((*pager)->Rollback().ok());
    EXPECT_EQ((*pager)->Checkpoint().code(),
              util::StatusCode::kFailedPrecondition);
    EXPECT_EQ((*pager)->stats().fsyncs, fsyncs);
  }
  // The failed close left the log behind; a reopen replays it and the
  // database accepts commits again.
  EXPECT_TRUE(mem.Exists("db.wal"));
  auto pager = Pager::Open("db", opts);
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*(*pager)->Get(1)).data()[0], 'B');
  ASSERT_TRUE((*pager)->Begin().ok());
  (*(*pager)->GetMutable(1)).mutable_data()[0] = 'D';
  ASSERT_TRUE((*pager)->Commit().ok());
  ASSERT_TRUE((*pager)->SyncWal().ok());
}

TEST(PagerWalTest, RollbackNeverReusesACommitSequence) {
  // A commit that touches no header field leaves page 0's stored
  // sequence behind; a rollback must not restore that stale value, or
  // the next commit would repeat a sequence the log already holds and
  // recovery would replay only one of the two transactions.
  MemEnv env;
  std::map<std::string, std::string> crashed;
  {
    auto pager = Pager::Open("db", WalPagerOptions(&env));
    ASSERT_TRUE(pager.ok());
    ASSERT_TRUE((*pager)->Begin().ok());
    ASSERT_TRUE((*pager)->Allocate().ok());
    ASSERT_TRUE((*pager)->Allocate().ok());
    ASSERT_TRUE((*pager)->Commit().ok());
    const uint64_t allocated = (*pager)->commit_seq();

    ASSERT_TRUE((*pager)->Begin().ok());
    (*(*pager)->GetMutable(1)).mutable_data()[0] = 'B';
    ASSERT_TRUE((*pager)->Commit().ok());
    EXPECT_EQ((*pager)->commit_seq(), allocated + 1);

    ASSERT_TRUE((*pager)->Begin().ok());
    (*(*pager)->GetMutable(2)).mutable_data()[0] = 'x';
    ASSERT_TRUE((*pager)->Rollback().ok());
    EXPECT_EQ((*pager)->commit_seq(), allocated + 1);

    ASSERT_TRUE((*pager)->Begin().ok());
    (*(*pager)->GetMutable(2)).mutable_data()[0] = 'C';
    ASSERT_TRUE((*pager)->Commit().ok());
    EXPECT_EQ((*pager)->commit_seq(), allocated + 2);
    auto snap = (*pager)->BeginRead();
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ((*snap)->commit_seq(), allocated + 2);
    crashed = env.SnapshotAll();
  }
  env.RestoreAll(crashed);
  auto pager = Pager::Open("db", WalPagerOptions(&env));
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*(*pager)->Get(1)).data()[0], 'B');
  EXPECT_EQ((*(*pager)->Get(2)).data()[0], 'C');
}

// ------------------------------------------- leftover hot journal

TEST(HotJournalTest, OpenRefusesALeftoverRollbackJournal) {
  // Earlier builds committed through a rollback journal. A crash mid-
  // commit left <db>.journal holding before-images that only such a
  // build can roll back, so this build must refuse — naming the file —
  // rather than open a possibly half-written database file.
  MemEnv env;
  {
    auto pager = Pager::Open("db", WalPagerOptions(&env));
    ASSERT_TRUE(pager.ok());
  }
  {
    auto journal = env.Open("db.journal");
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Write(0, "BPJL leftover before-images").ok());
  }
  auto refused = Pager::Open("db", WalPagerOptions(&env));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().ToString().find("db.journal"), std::string::npos)
      << refused.status().ToString();
  EXPECT_TRUE(env.Exists("db.journal")) << "the journal is evidence; keep it";

  // Once the operator resolves the journal, the database opens again.
  ASSERT_TRUE(env.Remove("db.journal").ok());
  EXPECT_TRUE(Pager::Open("db", WalPagerOptions(&env)).ok());
}

// --------------------------------- crash-injection property test
//
// Scripted workload of small transactions against a Db tree, with the
// MemEnv op log recording every byte that hits the "disk". Then, for
// every prefix of the op sequence — and for torn variants of the next
// write — restore the initial snapshot, replay the prefix, REOPEN, and
// require the recovered database to be exactly one of the two states a
// crash at that boundary legally exposes: the last commit fully applied
// or not applied at all.

using Model = std::map<uint64_t, std::string>;

Model ReadTree(storage::BTree* tree) {
  Model out;
  EXPECT_TRUE(tree->ForEach([&](std::string_view key, std::string_view v) {
                    out[util::DecodeOrderedKeyU64(key)] = std::string(v);
                    return true;
                  })
                  .ok());
  return out;
}

struct TxnBoundary {
  size_t ops_done = 0;  // op-log length right after this txn's Commit
  Model state;          // expected tree contents at that point
};

TEST(CrashInjectionPropertyTest, WalModeEveryPrefix) {
  MemEnv env;
  DbOptions opts;
  opts.env = &env;
  opts.wal_group_commit = 1;  // strict durability for the property
  opts.wal_checkpoint_bytes = 24 * kPageSize;  // exercise checkpoints too

  // Set up the database (catalog + tree) BEFORE logging starts, so every
  // recorded crash point has a well-formed database underneath it.
  {
    auto db = Db::Open("db", opts);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTree("t").ok());
  }
  auto base = env.SnapshotAll();

  // Scripted workload: 20 committed txns with growing/overwritten keys
  // plus interleaved rollbacks (whose effects must NEVER surface).
  std::vector<TxnBoundary> boundaries;
  std::vector<MemEnvOp> ops;
  {
    env.StartOpLog();
    auto db = Db::Open("db", opts);
    ASSERT_TRUE(db.ok());
    auto tree = (*db)->OpenTree("t");
    ASSERT_TRUE(tree.ok());
    Model model;
    boundaries.push_back({env.OpLogSize(), model});  // empty tree
    for (int t = 0; t < 20; ++t) {
      ASSERT_TRUE((*db)->Begin().ok());
      for (int i = 0; i < 3; ++i) {
        uint64_t key = (t * 7 + i * 3) % 24;
        std::string value = "t" + std::to_string(t) + "v" +
                            std::string(40 + (t % 5) * 30, 'x');
        ASSERT_TRUE((*tree)->Put(OrderedKeyU64(key), value).ok());
        model[key] = value;
      }
      ASSERT_TRUE((*db)->Commit().ok());
      boundaries.push_back({env.OpLogSize(), model});

      // An uncommitted mutation between txns: must never surface.
      ASSERT_TRUE((*db)->Begin().ok());
      ASSERT_TRUE(
          (*tree)->Put(OrderedKeyU64(99), "UNCOMMITTED" + std::to_string(t))
              .ok());
      ASSERT_TRUE((*db)->Rollback().ok());
    }
    // Stop BEFORE the db destructor so the clean-close fold is not in
    // the log: the crash window under test ends at the last commit.
    ops = env.StopOpLog();
  }

  ASSERT_GT(ops.size(), 20u);

  // For every prefix of the op sequence — and several torn cuts through
  // the next write (WAL commits are one large append, so intra-write
  // byte boundaries are where torn-frame detection earns its keep) —
  // crash, reopen, verify.
  size_t checked = 0;
  for (size_t p = 0; p <= ops.size(); ++p) {
    std::vector<int64_t> cuts = {-1};  // -1: clean crash between ops
    if (p < ops.size() && ops[p].kind == MemEnvOp::Kind::kWrite) {
      int64_t len = static_cast<int64_t>(ops[p].data.size());
      for (int64_t cut : {int64_t{1}, len / 4, len / 2, 3 * len / 4,
                          len - 1}) {
        if (cut > 0 && cut < len) cuts.push_back(cut);
      }
    }
    for (int64_t partial : cuts) {
      env.RestoreAll(base);
      ASSERT_TRUE(env.ApplyOps(ops, p, partial).ok());

      auto db = Db::Open("db", opts);
      ASSERT_TRUE(db.ok()) << "crash at op " << p << " cut " << partial
                           << ": " << db.status().ToString();
      auto tree = (*db)->OpenTree("t");
      ASSERT_TRUE(tree.ok());
      Model recovered = ReadTree(*tree);

      // Last boundary fully contained in the prefix: the recovered
      // database must be EXACTLY that state, or exactly the next one
      // (legal when the crash point already has the whole of txn li+1
      // durable — e.g. mid-checkpoint). Anything else — a torn mix of
      // two txns — is a durability bug.
      size_t li = 0;
      for (size_t b = 0; b < boundaries.size(); ++b) {
        if (boundaries[b].ops_done <= p) li = b;
      }
      bool matches_li = recovered == boundaries[li].state;
      bool matches_next = li + 1 < boundaries.size() &&
                          recovered == boundaries[li + 1].state;
      EXPECT_TRUE(matches_li || matches_next)
          << "crash at op " << p << " cut " << partial << ": recovered "
          << recovered.size() << " keys; expected state " << li << " ("
          << boundaries[li].state.size() << " keys) or state " << li + 1;
      // Rolled-back mutations must never surface.
      EXPECT_EQ(recovered.count(99), 0u)
          << "uncommitted key visible after crash at op " << p;
      ++checked;
    }
  }
  // The sweep must actually have covered a meaningful number of states.
  EXPECT_GT(checked, ops.size());
}

}  // namespace
}  // namespace bp::wal
