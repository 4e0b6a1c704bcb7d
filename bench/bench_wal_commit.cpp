// W1 — Commit durability cost: the cost-of-durability curve of WAL
// group commit.
//
// The paper's capture workload is a sustained stream of tiny
// transactions (every page load, download, and edit). Each WAL commit
// is one sequential log append; with group window 1 every commit also
// pays its own fsync, while a window of N shares one fsync across N
// commits (bounded durability lag, never inconsistency). This bench
// measures the windows on MemEnv with a simulated 100us device sync (so
// wall-clock reflects fsync COUNT, the way a real disk would) and
// reports the pager's own durability accounting next to the throughput.
//
// Acceptance target: WAL with group window >= 8 sustains >= 3x the
// commits/sec of WAL group window 1 at sync=true.
#include "bench/common.hpp"
#include "storage/btree.hpp"
#include "storage/db.hpp"
#include "storage/env.hpp"
#include "util/serde.hpp"

namespace {

using namespace bp;
using namespace bp::bench;

constexpr uint32_t kSyncCostUs = 100;  // cheap-SSD fsync
constexpr int kTxns = 2000;
constexpr int kPutsPerTxn = 2;

struct RunResult {
  double commits_per_sec = 0;
  double fsyncs_per_txn = 0;
  double synced_kb_per_txn = 0;
  double txns_per_group = 0;  // commits / group_commits (WAL amortization)
};

RunResult RunCommitStream(uint32_t group_commit) {
  storage::MemEnv env;
  env.set_sync_cost_us(kSyncCostUs);
  storage::DbOptions opts;
  opts.env = &env;
  opts.sync = true;
  opts.wal_group_commit = group_commit;
  auto db = MustOk(storage::Db::Open("w1.db", opts), "open");
  auto* tree = MustOk(db->CreateTree("t"), "tree");

  const storage::PagerStats before = db->pager().stats();
  uint64_t key = 0;
  std::string value(100, 'v');
  util::Stopwatch watch;
  for (int t = 0; t < kTxns; ++t) {
    MustOk(db->Begin(), "begin");
    for (int i = 0; i < kPutsPerTxn; ++i) {
      MustOk(tree->Put(util::OrderedKeyU64(key++), value), "put");
    }
    MustOk(db->Commit(), "commit");
  }
  double seconds = watch.ElapsedMs() / 1000.0;
  const storage::PagerStats after = db->pager().stats();

  RunResult r;
  r.commits_per_sec = kTxns / seconds;
  r.fsyncs_per_txn =
      static_cast<double>(after.fsyncs - before.fsyncs) / kTxns;
  r.synced_kb_per_txn =
      static_cast<double>(after.bytes_synced - before.bytes_synced) /
      1024.0 / kTxns;
  uint64_t groups = after.group_commits - before.group_commits;
  r.txns_per_group = groups == 0 ? 0.0 : static_cast<double>(kTxns) / groups;
  return r;
}

// Provenance ingest through ProvStore::IngestBatch: the capture-path
// shape of the same comparison.
double RunProvIngest(uint32_t group_commit, size_t events_per_batch) {
  storage::MemEnv env;
  env.set_sync_cost_us(kSyncCostUs);
  storage::DbOptions opts;
  opts.env = &env;
  opts.sync = true;
  opts.wal_group_commit = group_commit;
  auto db = MustOk(storage::Db::Open("w1p.db", opts), "open");
  auto prov = MustOk(prov::ProvStore::Open(*db, {}), "prov");

  constexpr int kVisits = 1500;
  util::Stopwatch watch;
  int done = 0;
  while (done < kVisits) {
    prov::ProvStore::IngestBatch batch(*prov);
    for (size_t i = 0; i < events_per_batch && done < kVisits;
         ++i, ++done) {
      auto visit = prov->RecordVisit(
          "https://example.org/page/" + std::to_string(done % 200),
          "title", prov::EdgeKind::kLink, 0, done * 1000, done % 7);
      MustOk(visit.status(), "visit");
    }
    MustOk(batch.Commit(), "batch commit");
  }
  return kVisits / (watch.ElapsedMs() / 1000.0);
}

}  // namespace

int main(int argc, char** argv) {
  Init(argc, argv, "bench_wal_commit");
  Header("W1", "commit durability: WAL group commit vs per-commit fsync",
         "WAL group commit (window >= 8) >= 3x WAL window 1 commits/sec");

  Row("%d txns x %d puts, MemEnv with %uus simulated fsync, sync=true",
      kTxns, kPutsPerTxn, kSyncCostUs);
  Blank();

  Row("%-26s %12s %12s %14s %10s", "mode", "commits/s", "fsyncs/txn",
      "synced KB/txn", "vs group 1");
  double group1_rate = 0;
  bool pass = false;
  for (uint32_t window : {1u, 8u, 64u}) {
    RunResult wal = RunCommitStream(window);
    if (window == 1) group1_rate = wal.commits_per_sec;
    double speedup = wal.commits_per_sec / group1_rate;
    if (window >= 8 && speedup >= 3.0) pass = true;
    Row("%-26s %12.0f %12.2f %14.2f %9.2fx",
        util::StrFormat("wal (group window %u)", window).c_str(),
        wal.commits_per_sec, wal.fsyncs_per_txn, wal.synced_kb_per_txn,
        speedup);
    Metric(util::StrFormat("wal_group%u_commits_per_sec", window),
           wal.commits_per_sec);
    Metric(util::StrFormat("wal_group%u_txns_per_group", window),
           wal.txns_per_group);
  }
  Blank();
  Row("acceptance (wal window >= 8 at >= 3x window 1): %s",
      pass ? "PASS" : "FAIL");

  Blank();
  Row("provenance ingest (ProvStore::IngestBatch, 1500 visits):");
  Row("%-34s %14s", "configuration", "visits/s");
  for (size_t batch : {size_t{1}, size_t{8}, size_t{64}}) {
    double group1 = RunProvIngest(1, batch);
    double group8 = RunProvIngest(8, batch);
    Row("%-34s %14.0f",
        util::StrFormat("wal+group1, batch %zu", batch).c_str(), group1);
    Row("%-34s %14.0f  (%.2fx)",
        util::StrFormat("wal+group8, batch %zu", batch).c_str(), group8,
        group8 / group1);
  }
  Blank();
  // Engine-side distributions accumulated across every run above, from
  // the process-wide registry: per-commit latency, per-fsync device
  // time, and how many commits each group fsync amortized.
  MetricObsHistogram("obs_commit_us", CommitLatencyHistogram());
  MetricObsHistogram("obs_wal_fsync_us",
                     *obs::MetricsRegistry::Global().GetHistogram(
                         "bp_wal_fsync_us", "", ""));
  MetricObsHistogram("obs_group_commit_txns",
                     *obs::MetricsRegistry::Global().GetHistogram(
                         "bp_wal_group_commit_txns", "", ""));
  int json_status = Finish();
  return pass ? json_status : 1;
}
