#include "trace.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ClockCostNs() {
  static const int64_t cost = [] {
    std::vector<double> gaps;
    for (int i = 0; i < 2001; ++i) {
      const int64_t a = NowNs();
      gaps.push_back(static_cast<double>(NowNs() - a));
    }
    return static_cast<int64_t>(Median(gaps));
  }();
  return cost;
}

int LogHistogram::BucketOf(uint64_t value) {
  constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  if (value < kSub) {
    return static_cast<int>(value);
  }
  const int msb = 63 - std::countl_zero(value);
  const int shift = msb - kSubBits;
  const auto sub = static_cast<int>((value >> shift) & (kSub - 1));
  return ((shift + 1) << kSubBits) + sub;
}

double LogHistogram::Midpoint(int bucket) {
  constexpr int kSub = 1 << kSubBits;
  if (bucket < kSub) {
    return bucket;
  }
  const int shift = (bucket >> kSubBits) - 1;
  const double width = std::ldexp(1.0, shift);
  const double lower = (kSub + (bucket & (kSub - 1))) * width;
  return lower + width / 2.0;
}

void LogHistogram::Record(int64_t value) {
  const uint64_t v = value < 0 ? 0 : static_cast<uint64_t>(value);
  ++buckets_[BucketOf(v)];
  ++count_;
  sum_ += static_cast<double>(v);
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const auto rank = static_cast<uint64_t>(std::ceil(std::clamp(q, 0.0, 1.0) * count_));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= std::max<uint64_t>(rank, 1)) {
      return Midpoint(i);
    }
  }
  return Midpoint(kBuckets - 1);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};

// Per-thread span buffers. The registry owns them so they outlive the pool
// threads that filled them; a thread touches only its own buffer, and the
// registry lock is taken once per thread (registration) and at collection.
struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<Span> spans;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadBuffer>());
    g_registry.back()->thread = static_cast<uint32_t>(g_registry.size() - 1);
    return g_registry.back().get();
  }();
  return *buffer;
}

}  // namespace

void Tracer::Enable() { g_enabled.store(true); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }
uint64_t Tracer::NewId() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

void Tracer::Record(const Span& span) {
  ThreadBuffer& buffer = LocalBuffer();
  buffer.spans.push_back(span);
  buffer.spans.back().thread = buffer.thread;
}

// Callers collect after every recording thread has been joined, so the
// buffers are quiescent.
std::vector<Span> Tracer::Collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : g_registry) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t parent, int64_t key) {
  if (!Tracer::enabled()) {
    return;
  }
  span_.name = name;
  span_.id = Tracer::NewId();
  span_.parent = parent;
  span_.key = key;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (span_.id == 0) {
    return;
  }
  span_.end_ns = NowNs();
  Tracer::Record(span_);
}

std::map<std::string, double> SelfSeconds(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].push_back(&span);
    }
  }
  std::map<std::string, double> self;
  for (const Span& span : spans) {
    int64_t covered = 0;
    const auto it = children.find(span.id);
    if (it != children.end()) {
      // Children may overlap (sweep points run in parallel), so measure the
      // union of their intervals, clipped to the parent.
      std::vector<std::pair<int64_t, int64_t>> intervals;
      for (const Span* child : it->second) {
        const int64_t lo = std::max(child->start_ns, span.start_ns);
        const int64_t hi = std::min(child->end_ns, span.end_ns);
        if (lo < hi) {
          intervals.emplace_back(lo, hi);
        }
      }
      std::sort(intervals.begin(), intervals.end());
      int64_t reach = span.start_ns;
      for (const auto& [lo, hi] : intervals) {
        const int64_t from = std::max(lo, reach);
        if (hi > from) {
          covered += hi - from;
          reach = hi;
        }
      }
    }
    self[span.name] += static_cast<double>(span.end_ns - span.start_ns - covered) / 1e9;
  }
  return self;
}

bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"key\":" << s.key
        << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
