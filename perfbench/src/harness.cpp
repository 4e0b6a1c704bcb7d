#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "sim/vocab.hpp"
#include "sim/web.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace provbench {

using bp::util::Result;
using bp::util::Status;

// -------------------------------------------------------------- stats

namespace {

// ceil(q * n) in [1, n], tolerant of q * n landing a rounding error
// above a whole number (0.999 * 10000 is 9990.000000000002).
size_t Rank(size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  const size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9 * exact));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double q) {
  return sorted[Rank(sorted.size(), q) - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - Rank(n, q);
}

bool PercentileValid(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinTail;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = NearestRank(samples, 0.5);
  double sum = 0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (PercentileValid(s.count, pct / 100.0)) {
      s.tail_pct = pct;
      s.tail = NearestRank(samples, pct / 100.0);
      break;
    }
  }
  if (PercentileValid(s.count, 0.9)) s.p90 = NearestRank(samples, 0.9);
  if (PercentileValid(s.count, 0.95)) s.p95 = NearestRank(samples, 0.95);
  s.p99_valid = PercentileValid(s.count, 0.99);
  if (s.p99_valid) s.p99 = NearestRank(samples, 0.99);
  return s;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return NearestRank(samples, 0.5);
}

std::string Summary::Describe(const char* unit) const {
  if (tail_pct == 0) {
    return bp::util::StrFormat("median %.6g %s (n=%zu, no valid tail)",
                               median, unit, count);
  }
  return bp::util::StrFormat("median %.6g %s, p%g %.6g %s (n=%zu)", median,
                             unit, tail_pct, tail, unit, count);
}

// -------------------------------------------------------------- trace

std::vector<double> DurationsMs(const std::vector<const SpanLog*>& logs,
                                const std::string& name) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      if (name == span.name) out.push_back(span.ms());
    }
  }
  return out;
}

int64_t CounterSum(const std::vector<const SpanLog*>& logs,
                   const std::string& name, const std::string& key) {
  int64_t sum = 0;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      if (!name.empty() && name != span.name) continue;
      for (const auto& [k, v] : span.counters) {
        if (key == k) sum += v;
      }
    }
  }
  return sum;
}

size_t SpanCount(const std::vector<const SpanLog*>& logs,
                 const std::string& name) {
  size_t n = 0;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) n += name == span.name ? 1 : 0;
  }
  return n;
}

double UnattributedFrac(const std::vector<const SpanLog*>& logs,
                        const std::vector<std::string>& roots) {
  int64_t total = 0;
  int64_t covered = 0;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<char> is_root(spans.size() + 1, 0);
    for (const Span& span : spans) {
      if (std::find(roots.begin(), roots.end(), span.name) != roots.end()) {
        is_root[span.id] = 1;
        total += span.end_ns - span.start_ns;
      }
    }
    for (const Span& span : spans) {
      if (span.parent != 0 && is_root[span.parent]) {
        covered += span.end_ns - span.start_ns;
      }
    }
  }
  if (total <= 0) return 0;
  return static_cast<double>(total - covered) / static_cast<double>(total);
}

std::vector<double> Scaled(std::vector<double> ms, double factor) {
  for (double& v : ms) v *= factor;
  return ms;
}

bool WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path, size_t max_spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tid\tparent\trequest\tname\tstart_ns\tend_ns\tcounters\n");
  size_t written = 0;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      if (written++ >= max_spans) break;
      std::fprintf(f, "%u\t%u\t%u\t%llu\t%s\t%lld\t%lld\t", log->thread(),
                   span.id, span.parent,
                   static_cast<unsigned long long>(span.request), span.name,
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
      for (size_t i = 0; i < span.counters.size(); ++i) {
        std::fprintf(f, "%s%s=%lld", i == 0 ? "" : ",",
                     span.counters[i].first,
                     static_cast<long long>(span.counters[i].second));
      }
      std::fputc('\n', f);
    }
  }
  return std::fclose(f) == 0;
}

// ----------------------------------------------------------- settings

std::unique_ptr<bp::storage::MemEnv> MakeDevice(uint32_t read_cost_us) {
  auto env = std::make_unique<bp::storage::MemEnv>();
  env->set_sync_cost_us(kSyncCostUs);
  env->set_sync_sleeps(true);
  env->set_read_cost_us(read_cost_us);
  return env;
}

bp::prov::ProvenanceDb::Options PinnedOptions(bp::storage::MemEnv* env) {
  bp::prov::ProvenanceDb::Options o;
  o.db.env = env;
  o.db.sync = true;
  o.db.durability = bp::storage::DurabilityMode::kWal;
  o.db.wal_group_commit = kWalGroupCommit;
  o.db.write_domains = kWriteDomains;
  o.db.wal_checkpoint_bytes = kWalCheckpointBytes;
  o.db.cache_pages = kCachePages;
  o.db.pool_bytes = kPoolBytes;
  o.db.pool_publish_on_commit = true;
  o.db.compression.mode = bp::storage::compress::CompressionOptions::Mode::kOff;
  o.db.compression.ratio_floor = 0.875;
  o.prov.policy = bp::prov::VersionPolicy::kVersionNodes;
  o.prov.record_close_times = true;
  o.ingest_batch = kIngestBatch;
  o.async.enabled = true;
  o.async.queue_capacity = kQueueCapacity;
  o.async.backpressure = bp::capture::BackpressurePolicy::kBlock;
  o.async.drain_before_query = true;
  o.async.index_maintenance = false;
  o.async.index_min_backlog = 1024;
  return o;
}

std::string DescribeSettings() {
  return bp::util::StrFormat(
      "settings: device=MemEnv (modeled, not a real disk) fsync=%uus slept "
      "read=0us (recall_* reopen: %uus); durability=wal "
      "group_commit=%u write_domains=%u checkpoint_bytes=%llu "
      "cache_pages=%zu pool_bytes=%zu compression=off "
      "(recall_*: fast) ingest_batch=%zu queue_capacity=%zu "
      "backpressure=block drain_before_query=on index_maintenance=off; "
      "history=%zu events (of %u simulated days)",
      kSyncCostUs, kColdReadUs, kWalGroupCommit, kWriteDomains,
      static_cast<unsigned long long>(kWalCheckpointBytes), kCachePages,
      kPoolBytes, kIngestBatch, kQueueCapacity, kHistoryEvents, kSimDays);
}

// ------------------------------------------------------------ history

History MakeHistory(uint64_t seed) {
  bp::util::Rng rng(kWebSeed);
  bp::sim::Vocabulary vocab = bp::sim::Vocabulary::Create(rng, {});
  bp::sim::WebConfig web_config;
  web_config.redirect_page_fraction = 0.06;
  bp::sim::WebGraph web = bp::sim::WebGraph::Generate(rng, web_config, vocab);
  bp::sim::UserConfig user;
  user.seed = seed;
  user.days = kSimDays;
  bp::sim::SimOutput out = bp::sim::BrowserSim(web, user).Run();
  History history;
  history.events = std::move(out.events);
  if (history.events.size() > kHistoryEvents) history.events.resize(kHistoryEvents);
  std::unordered_set<uint64_t> search_ids, download_ids;
  for (const BrowserEvent& event : history.events) {
    if (const auto* search = std::get_if<bp::capture::SearchEvent>(&event)) {
      search_ids.insert(search->search_id);
    } else if (const auto* download = std::get_if<bp::capture::DownloadEvent>(&event)) {
      download_ids.insert(download->download_id);
    }
  }
  for (auto& episode : out.searches) {
    if (search_ids.count(episode.search_id)) history.searches.push_back(std::move(episode));
  }
  for (auto& episode : out.downloads) {
    if (download_ids.count(episode.download_id)) {
      history.downloads.push_back(std::move(episode));
    }
  }
  return history;
}

const std::string* VisitUrl(const BrowserEvent& event) {
  const auto* visit = std::get_if<bp::capture::VisitEvent>(&event);
  return visit != nullptr ? &visit->url : nullptr;
}

uint64_t DbFileBytes(bp::storage::MemEnv& env, const std::string& db_path) {
  uint64_t total = 0;
  for (const std::string suffix : {"", ".wal", ".wal1", ".journal"}) {
    const std::string name = db_path + suffix;
    if (!env.Exists(name)) continue;
    auto file = env.Open(name);
    if (!file.ok()) continue;
    auto size = (*file)->Size();
    if (size.ok()) total += *size;
  }
  return total;
}

double ModeledDiskBytes(bp::prov::ProvenanceDb& db) {
  auto space = db.db().Space();
  if (!space.ok()) return 0;
  double bytes = static_cast<double>(space->file_bytes);
  for (const auto& tree : space->trees) {
    bytes -= static_cast<double>(tree.stats.TotalBytes() - tree.stats.disk_bytes);
  }
  return bytes;
}

Result<GraphCounts> CountGraph(bp::prov::ProvenanceDb& db) {
  GraphCounts counts;
  BP_ASSIGN_OR_RETURN(counts.nodes, db.store().NodeCount());
  BP_ASSIGN_OR_RETURN(counts.edges, db.store().EdgeCount());
  return counts;
}

Result<GraphCounts> ReferenceCounts(const std::vector<BrowserEvent>& events) {
  bp::storage::MemEnv env;
  bp::prov::ProvenanceDb::Options options = PinnedOptions(&env);
  options.db.sync = false;
  options.async.enabled = false;
  BP_ASSIGN_OR_RETURN(auto db,
                      bp::prov::ProvenanceDb::Open("reference.db", options));
  BP_RETURN_IF_ERROR(db->IngestAll(events));
  return CountGraph(*db);
}

Result<size_t> RecallRank(bp::prov::ProvenanceDb::SnapshotView& view,
                          const std::string& url) {
  BP_ASSIGN_OR_RETURN(auto result, view.TextualSearch(url, kRecallK));
  for (size_t i = 0; i < result.pages.size(); ++i) {
    if (result.pages[i].url == url) return i + 1;
  }
  return size_t{0};
}

// ------------------------------------------------------------ metrics

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"latency_ms_p50", "ms"},
      {"latency_ms_p90", "ms"},
      {"disk_bytes_per_event", "B/event"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"capture.enqueue_ns_p50", "ns"},
      {"capture.enqueue_ns_p99", "ns"},
      {"capture.events_per_batch", "count"},
      {"capture.blocked_enqueue_frac", "fraction"},
      {"capture.mean_queue_depth", "count"},
      {"capture.batch_commit_ms_mean", "ms"},
      {"prov.publish_us_per_event", "us"},
      {"storage.commits", "count"},
      {"storage.commit_us_p50", "us"},
      {"storage.commit_us_p90", "us"},
      {"storage.pages_written_per_event", "count"},
      {"storage.modeled_disk_bytes_per_event", "B/event"},
      {"wal.bytes_per_event", "B/event"},
      {"wal.fsyncs_per_1k_events", "count"},
      {"wal.txns_per_group", "count"},
      {"wal.fsync_us_mean", "us"},
      {"wal.checkpoints", "count"},
      {"wal.checkpoint_ms_mean", "ms"},
      {"storage.pool_hit_ratio", "fraction"},
      {"storage.pool_cold_hit_ratio", "fraction"},
      {"storage.device_reads_per_query", "count"},
      {"storage.decompress_us_mean", "us"},
      {"storage.snapshot_open_us_p50", "us"},
      {"text.index_refresh_ms_p50", "ms"},
      {"text.textual_search_ms_p50", "ms"},
      {"search.rows_scanned_per_query", "count"},
      {"search.edges_expanded_per_query", "count"},
      {"search.nodes_visited_per_query", "count"},
      {"search.contextual_ms_p50", "ms"},
      {"search.personalize_ms_p50", "ms"},
      {"search.time_context_ms_p50", "ms"},
      {"service.handle_hit_ratio", "fraction"},
      {"service.opens_per_1k_events", "count"},
      {"service.ingest_us_p50", "us"},
      {"trace.unattributed_frac", "fraction"},
      {"trace.overhead_frac", "fraction"},
  };
  return specs;
}

namespace {

const MetricSpec* FindSpec(const std::vector<MetricSpec>& specs,
                           const std::string& name) {
  for (const MetricSpec& spec : specs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

}  // namespace

Report::Report(bool traced) : traced_(traced) {
  // Per-layer metrics default to 0: a layer a workload never calls
  // reports no work. End-to-end metrics have no default; each must be
  // measured.
  if (traced_) {
    for (const MetricSpec& spec : PerLayerMetrics()) values_[spec.name] = 0;
  }
}

void Report::Set(const std::string& name, double value) {
  const auto& active = traced_ ? PerLayerMetrics() : EndToEndMetrics();
  const auto& other = traced_ ? EndToEndMetrics() : PerLayerMetrics();
  if (FindSpec(active, name) != nullptr) {
    values_[name] = value;
  } else if (FindSpec(other, name) == nullptr) {
    std::fprintf(stderr, "provbench: unknown metric %s\n", name.c_str());
    Check(false, "metric name " + name + " is declared");
  }
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  std::printf("info %-36s %.6g %s%s%s\n", name.c_str(), value, unit.c_str(),
              note.empty() ? "" : "  ", note.c_str());
}

void Report::Op(const Status& status, const char* what) {
  ++attempted_;
  if (status.ok()) return;
  ++failed_;
  if (printed_errors_++ < 10) {
    std::printf("FAILED %s: %s\n", what, status.ToString().c_str());
  }
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  correct_ = false;
  if (printed_errors_++ < 10) std::printf("CHECK FAILED %s\n", what.c_str());
}

int Report::Print() const {
  const auto& specs = traced_ ? PerLayerMetrics() : EndToEndMetrics();
  bool complete = true;
  std::string json = "{";
  for (size_t i = 0; i < specs.size(); ++i) {
    auto it = values_.find(specs[i].name);
    if (it == values_.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "provbench: metric %s was not measured\n",
                   specs[i].name);
      complete = false;
      continue;
    }
    std::printf("metric %-36s %.10g %s\n", specs[i].name, it->second,
                specs[i].unit);
    json += bp::util::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                                json.size() > 1 ? ", " : "", specs[i].name,
                                it->second, specs[i].unit);
  }
  json += "}";
  const double failed_frac =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("info %-36s %.6g fraction  (%llu of %llu operations)\n",
              "failed_ops_frac", failed_frac,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  if (!complete) return 2;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct_ ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(attempted_, 1)),
      static_cast<unsigned long long>(failed_), json.c_str());
  std::fflush(stdout);
  return 0;
}

HistogramWindow::HistogramWindow(const char* name)
    : histogram_(bp::obs::MetricsRegistry::Global().GetHistogram(name, "", "")) {}

void HistogramWindow::Begin() {
  begin_count_ = histogram_->count();
  begin_sum_ = histogram_->sum();
}

void HistogramWindow::End() {
  count_ += histogram_->count() - begin_count_;
  sum_ += histogram_->sum() - begin_sum_;
}

double HistogramWindow::Mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

void WriteTrace(const Args& args, const std::vector<const SpanLog*>& logs) {
  if (args.trace_out.empty()) return;
  // Bounded so a long ingest trace stays a few tens of megabytes; the
  // per-layer metrics are computed in memory from every span.
  constexpr size_t kMaxWrittenSpans = 500000;
  if (!WriteSpans(logs, args.trace_out, kMaxWrittenSpans)) {
    std::fprintf(stderr, "provbench: cannot write %s\n",
                 args.trace_out.c_str());
  }
}

void SetOverhead(Report& report, const std::vector<double>& untraced,
                 const std::vector<double>& traced) {
  const double base = Median(untraced);
  const double with = Median(traced);
  report.Set("trace.overhead_frac", base > 0 ? with / base - 1.0 : 0.0);
  report.Info("trace.untraced_op_ms_p50", base, "ms",
              bp::util::StrFormat("n=%zu", untraced.size()));
  report.Info("trace.traced_op_ms_p50", with, "ms",
              bp::util::StrFormat("n=%zu", traced.size()));
}

}  // namespace provbench
