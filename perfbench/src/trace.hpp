// In-memory span log for the traced run.
//
// The traced run times calls into each layer's public functions from
// the benchmark's own code: a span is (name, start, end, parent,
// request id, thread), optionally carrying counter deltas the caller
// measured around it (PagerStats, PipelineStats, QueryStats,
// ServiceStats fields). Each benchmark thread owns one SpanLog, so
// recording takes no lock; the logs are merged and written out once,
// when the run ends.
//
// A null SpanLog* turns every Scope into a no-op, which is how the
// untraced run executes the very same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace provbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;      // 1-based within its log
  uint32_t parent = 0;  // 0 = root
  uint64_t request = 0;
  std::vector<std::pair<const char*, int64_t>> counters;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class SpanLog {
 public:
  explicit SpanLog(uint32_t thread) : thread_(thread) {}

  uint32_t Begin(const char* name, uint32_t parent, uint64_t request) {
    Span span;
    span.name = name;
    span.id = static_cast<uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.request = request;
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }
  void End(uint32_t id) { spans_[id - 1].end_ns = NowNs(); }
  void AddCounter(uint32_t id, const char* key, int64_t value) {
    spans_[id - 1].counters.emplace_back(key, value);
  }

  uint32_t thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t thread_;
  std::vector<Span> spans_;
};

// RAII span; a no-op when `log` is null.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, uint32_t parent = 0,
        uint64_t request = 0)
      : log_(log),
        id_(log != nullptr ? log->Begin(name, parent, request) : 0) {}
  ~Scope() { End(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // Ends the span early (idempotent).
  void End() {
    if (log_ != nullptr && !ended_) log_->End(id_);
    ended_ = true;
  }
  void Counter(const char* key, int64_t value) {
    if (log_ != nullptr) log_->AddCounter(id_, key, value);
  }
  uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint32_t id_;
  bool ended_ = false;
};

// ------------------------------------------------------------ analysis

// Durations (ms) of every span named `name`, across `logs`.
std::vector<double> DurationsMs(const std::vector<const SpanLog*>& logs,
                                const std::string& name);

// Sum of counter `key` over spans named `name` (every span when `name`
// is empty).
int64_t CounterSum(const std::vector<const SpanLog*>& logs,
                   const std::string& name, const std::string& key);

// Number of spans named `name`.
size_t SpanCount(const std::vector<const SpanLog*>& logs,
                 const std::string& name);

// Share of the time of the root spans named in `roots` (the measured
// loops) that no direct child span covers: loop bookkeeping, span
// recording, and any call the benchmark forgot to wrap. 0 when there is
// no root.
double UnattributedFrac(const std::vector<const SpanLog*>& logs,
                        const std::vector<std::string>& roots);

// `ms` scaled by `factor` (e.g. 1e3 for microseconds).
std::vector<double> Scaled(std::vector<double> ms, double factor);

// Writes every span as one tab-separated line (thread, id, parent,
// request, name, start_ns, end_ns, key=value,...) to `path`, at most
// `max_spans` of them. Returns false when the file cannot be written.
bool WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path, size_t max_spans);

}  // namespace provbench
