// Shared plumbing for the benchmark's workloads: the command line, the
// simulated history, the pinned engine configuration, the modeled
// device, and the one result line every run ends with.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "capture/events.hpp"
#include "obs/metrics.hpp"
#include "prov/provenance_db.hpp"
#include "sim/browser.hpp"
#include "stats.hpp"
#include "storage/env.hpp"
#include "trace.hpp"
#include "util/status.hpp"

namespace provbench {

using bp::capture::BrowserEvent;

// ----------------------------------------------------------- settings
//
// Every engine setting the workloads depend on, pinned here instead of
// inherited from defaults (DbOptions::compression, for one, defaults
// from the BP_COMPRESSION environment variable). README.md lists the
// same values.
// A history is the first kHistoryEvents events of a user simulated for
// kSimDays days: about 79 days of activity, the span the paper studies.
// A fixed event count rather than a fixed day count because activity
// per day varies by seed (79 days held 35k to 45k events across seeds)
// and set-up, storage and query costs grow with the history's size, so
// a day count made the seed's size the measurement.
inline constexpr size_t kHistoryEvents = 40000;
inline constexpr uint32_t kSimDays = 120;
// The simulated web (vocabulary and link graph) every user browses: one
// fixed corpus, as the real web is the same for every user; the seed
// varies only the user. A web drawn per seed made each seed's posting
// list sizes, and so its search latency, the measurement
// (recall_search's median query ranged 17.5 to 23.8 ms over five seeds).
inline constexpr uint64_t kWebSeed = 2009;
inline constexpr uint32_t kSyncCostUs = 400;  // modeled fsync (slept)
inline constexpr uint32_t kColdReadUs = 20;   // modeled page read
inline constexpr uint32_t kWalGroupCommit = 8;
inline constexpr uint32_t kWriteDomains = 2;
inline constexpr uint64_t kWalCheckpointBytes = 4 << 20;
inline constexpr size_t kCachePages = 4096;
inline constexpr size_t kPoolBytes = 32 << 20;
inline constexpr size_t kIngestBatch = 256;
inline constexpr size_t kQueueCapacity = 4096;
// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;

// The modeled device: a MemEnv whose fsync sleeps kSyncCostUs and whose
// page reads cost `read_cost_us` (0 = free).
std::unique_ptr<bp::storage::MemEnv> MakeDevice(uint32_t read_cost_us = 0);

// The pinned ProvenanceDb configuration on `env` (compression off).
bp::prov::ProvenanceDb::Options PinnedOptions(bp::storage::MemEnv* env);

// One line per pinned setting, printed at the start of every run.
std::string DescribeSettings();

// ------------------------------------------------------------ history

// The simulated browsing history of one user (kHistoryEvents events) on
// the kWebSeed web, from `seed`. Only search and download episodes whose events are in
// the history are kept.
struct History {
  std::vector<BrowserEvent> events;
  std::vector<bp::sim::SearchEpisode> searches;
  std::vector<bp::sim::DownloadEpisode> downloads;
};
History MakeHistory(uint64_t seed);

// URL of a visit event, or nullptr for other events.
const std::string* VisitUrl(const BrowserEvent& event);

// Bytes of every file of `db_path` (the database and its logs) in `env`.
uint64_t DbFileBytes(bp::storage::MemEnv& env, const std::string& db_path);

// Database file bytes under the hole-punch model: a compressed
// checkpoint frame counts its frame bytes, not its 4 KiB slot (which the
// file still spends). 0 when the space report fails.
double ModeledDiskBytes(bp::prov::ProvenanceDb& db);

// Node and edge counts of a database, read back through a fresh open.
struct GraphCounts {
  uint64_t nodes = 0;
  uint64_t edges = 0;
  bool operator==(const GraphCounts&) const = default;
};
bp::util::Result<GraphCounts> CountGraph(bp::prov::ProvenanceDb& db);
// Ingests `events` synchronously (IngestAll) into an empty database on
// a cost-free device: the reference the asynchronous paths must match.
bp::util::Result<GraphCounts> ReferenceCounts(
    const std::vector<BrowserEvent>& events);

// The rank (1-based) of `url` among the textual-search hits for it on
// `view`, or 0 when it is not among the first kRecallK: the recall
// check browse_and_recall and profile_churn share. The URL itself is
// the query (its host, title slug and page number are all tokens). k is
// wide because the check is about freshness — is the page indexed yet —
// not ranking: a page whose tokens also fill many older pages can rank
// below 10 (see the workloads' recall_rank_over_10 info line).
inline constexpr size_t kRecallK = 50;
bp::util::Result<size_t> RecallRank(
    bp::prov::ProvenanceDb::SnapshotView& view, const std::string& url);

// ------------------------------------------------------------ the run

struct Args {
  std::string workload;
  uint64_t seed = 2009;
  int seconds = 10;
  bool trace = false;
  // Where the traced run writes its spans (empty = nowhere).
  std::string trace_out;
  // Samples a closed-loop latency workload collects at the least, so
  // its p90 has kMinTail samples beyond it (tests lower it).
  size_t min_samples = 100;
  // Test hook: deliberately corrupt one expected answer so the
  // workload's correctness check must fail.
  bool corrupt_check = false;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};
// The gated end-to-end metrics (untraced run) and the per-layer metrics
// (traced run); BENCHMARK.json lists the same names and units.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// What a run reports: metric values, operation counts, and whether
// every correctness check passed. Failures are counted, never fatal.
class Report {
 public:
  explicit Report(bool traced);

  void Set(const std::string& name, double value);
  // Informational line (not part of the result object).
  void Info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");

  // One attempted operation; `status` not ok counts it failed.
  void Op(const bp::util::Status& status, const char* what);
  void Ops(uint64_t n) { attempted_ += n; }
  // A correctness check: false marks the run incorrect and counts one
  // failed operation.
  void Check(bool ok, const std::string& what);

  // Prints the metric lines and, last, the one-line JSON result.
  // Returns the process exit code (0 unless the report is malformed).
  int Print() const;

 private:
  bool traced_;
  std::map<std::string, double> values_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  size_t printed_errors_ = 0;
};

// Runs set-up kSetups times, keeping the last state; reports setup_s as
// the median of the set-up times.
template <typename State, typename SetupFn>
std::unique_ptr<State> RepeatedSetup(Report& report, SetupFn&& setup) {
  std::vector<double> seconds;
  std::unique_ptr<State> state;
  for (int i = 0; i < kSetups; ++i) {
    state.reset();
    const int64_t start = NowNs();
    state = setup();
    seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  report.Set("setup_s", Median(seconds));
  return state;
}

// The workloads. The four recall workloads share one set-up and run one
// use-case query family each (2.1 contextual search, 2.2
// personalization, 2.3 time context, 2.4 download lineage), so every
// family has gated figures of its own and no traffic mix has to be
// assumed.
enum class RecallFamily { kSearch, kPersonalize, kTimeContext, kLineage };
void RunIngestReplay(const Args& args, Report& report);
void RunRecallSmallPool(const Args& args, Report& report, RecallFamily family);
void RunBrowseAndRecall(const Args& args, Report& report);
void RunProfileChurn(const Args& args, Report& report);

// An engine histogram's samples recorded inside the windows between
// Begin() and End() calls. The engine's histograms are process-wide and
// never reset, so a per-layer metric read from one directly would also
// count set-up, reference runs and every other phase of the run.
class HistogramWindow {
 public:
  explicit HistogramWindow(const char* name);
  void Begin();
  // Adds the samples recorded since Begin().
  void End();
  // Mean of the windows' samples; 0 when there are none.
  double Mean() const;
  uint64_t count() const { return count_; }

 private:
  const bp::obs::Histogram* histogram_;
  uint64_t begin_count_ = 0, begin_sum_ = 0;
  uint64_t count_ = 0, sum_ = 0;
};

// Writes the traced run's spans to args.trace_out (if set).
void WriteTrace(const Args& args, const std::vector<const SpanLog*>& logs);

// Sets trace.overhead_frac from per-op times measured with tracing off
// and on in the same run (interleaved).
void SetOverhead(Report& report, const std::vector<double>& untraced,
                 const std::vector<double>& traced);

}  // namespace provbench
