// Timing primitives of the benchmark program: a monotonic clock, a
// fixed-memory log-bucket histogram for per-request intervals, and a span
// recorder for the traced run.
//
// Spans mark the layer boundaries the benchmark itself crosses (set-up,
// each sweep point, each chaos trial, each serve phase). Each thread
// appends to its own buffer; buffers are merged only when the trace is
// written, so recording takes no shared lock. Per-request intervals are far
// too many for spans (a traced paper-sweep replays ~76 M events), so they go
// into histograms owned by a single sweep point or thread instead.

#ifndef WEBCC_PERFBENCH_TRACE_H_
#define WEBCC_PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic wall nanoseconds.
int64_t NowNs();

// Median cost of one NowNs() call, measured once per process; subtracted
// from short timed intervals so they report the work, not the clock.
int64_t ClockCostNs();

// Log-bucketed histogram of non-negative integers (nanoseconds here): 8
// sub-buckets per power of two, so a reported percentile is within 1/16 of
// the true value. Fixed size, mergeable, no allocation on Record.
class LogHistogram {
 public:
  void Record(int64_t value);
  void Merge(const LogHistogram& other);
  // Midpoint of the bucket holding the q-quantile (q in [0, 1]); 0 when
  // empty.
  [[nodiscard]] double Quantile(double q) const;
  [[nodiscard]] uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  static constexpr int kSubBits = 3;
  static constexpr int kBuckets = 64 << kSubBits;
  static int BucketOf(uint64_t value);
  static double Midpoint(int bucket);

  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

// Median and other quantiles of a small sample (copies and sorts).
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  int64_t key = -1;     // point or trial index; -1 when none
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
};

// Span recording is off unless Enable() was called, so the untraced run
// pays one branch per span.
class Tracer {
 public:
  static void Enable();
  static bool enabled();
  // A fresh span id, unique across threads (0 is never returned).
  static uint64_t NewId();
  // Appends a finished span to the calling thread's buffer.
  static void Record(const Span& span);
  // Every recorded span, ordered by (start, id).
  static std::vector<Span> Collect();
};

// RAII span: allocates its id on construction (so children can name it as
// their parent) and records itself on destruction. Inert when tracing is
// off.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t parent, int64_t key = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] uint64_t id() const { return span_.id; }

 private:
  Span span_;
};

// Total self time per span name, in seconds: each span's duration minus the
// part of it covered by the union of its children's intervals.
std::map<std::string, double> SelfSeconds(const std::vector<Span>& spans);

// Writes the spans as a Chrome trace-event JSON file (load it in Perfetto
// or chrome://tracing). Returns false when the file cannot be written.
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // WEBCC_PERFBENCH_TRACE_H_
