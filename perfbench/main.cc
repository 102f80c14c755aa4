// perfbench: the webcc benchmark program.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--state-dir DIR] [--golden FILE]
//
// Runs one workload (paper-sweep, churn-sweep, chaos-campaign or
// serve-overload) for S measured seconds, checks the program's outputs, and
// prints every metric by name with its unit. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 reports the per-layer metrics of a
// traced run and writes its spans under --state-dir. See README.md.

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "trace.h"

namespace perfbench {

size_t SweepJobs() {
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::min<size_t>(3, cores);
}

size_t ServeWorkers() {
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<size_t>(cores - 1, 1, 2);
}

uint64_t MixSeed(uint64_t base, uint64_t seed) { return base + seed * 0x9E3779B97F4A7C15ull; }

Digest& Digest::Add(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 1099511628211ull;
  }
  return *this;
}

Digest& Digest::Add(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return Add(bits);
}

Digest& Digest::Add(const std::string& value) {
  Add(static_cast<uint64_t>(value.size()));
  for (const char c : value) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ull;
  }
  return *this;
}

uint64_t DigestResult(const webcc::SimulationResult& r) {
  Digest d;
  const webcc::ServerStats& s = r.server;
  d.Add(s.get_requests).Add(s.ims_queries).Add(s.ims_not_modified).Add(s.invalidations_sent);
  d.Add(s.invalidation_retries).Add(s.invalidations_lost).Add(s.invalidations_queued);
  d.Add(s.invalidations_redelivered).Add(s.invalidations_delivered);
  d.Add(s.invalidations_undeliverable).Add(s.files_transferred).Add(s.bytes_sent);
  d.Add(s.bytes_received);
  const webcc::CacheStats& c = r.cache;
  d.Add(c.requests).Add(c.hits_fresh).Add(c.hits_validated).Add(c.misses_cold);
  d.Add(c.misses_refetched).Add(c.stale_hits).Add(c.validations_sent).Add(c.full_fetches);
  d.Add(c.invalidations_received).Add(c.invalidations_dropped).Add(c.evictions);
  d.Add(c.upstream_retries).Add(c.retry_wait_seconds).Add(c.degraded_serves);
  d.Add(c.degraded_denied_over_bound).Add(c.failed_requests).Add(c.crashes);
  d.Add(c.unavailable_seconds).Add(c.bytes_to_upstream).Add(c.bytes_from_upstream);
  d.Add(c.total_hops).Add(static_cast<int64_t>(c.max_hops));
  for (const auto& t : c.by_type) {
    d.Add(t.requests).Add(t.stale_hits).Add(t.misses).Add(t.validations).Add(t.payload_bytes);
  }
  const webcc::ConsistencyMetrics& m = r.metrics;
  d.Add(m.requests).Add(m.cache_misses).Add(m.stale_hits).Add(m.validations);
  d.Add(m.invalidations).Add(m.files_transferred).Add(m.server_operations);
  d.Add(m.control_bytes).Add(m.payload_bytes).Add(m.total_bytes).Add(m.mean_round_trips);
  d.Add(m.degraded_serves).Add(m.failed_requests).Add(m.upstream_retries);
  d.Add(m.invalidations_lost).Add(m.invalidations_queued).Add(m.invalidations_redelivered);
  d.Add(m.cache_crashes).Add(m.unavailable_seconds).Add(m.retry_wait_seconds);
  return d.value();
}

namespace {

uint64_t DigestAll(const std::vector<uint64_t>& digests) {
  Digest d;
  for (const uint64_t v : digests) {
    d.Add(v);
  }
  return d.value();
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Identity of the running binary: a rebuilt perfbench gets fresh references.
std::string BinaryIdentity() {
  struct stat st {};
  if (::stat("/proc/self/exe", &st) != 0) {
    return "unknown";
  }
  return std::to_string(st.st_size) + "-" + std::to_string(st.st_mtim.tv_sec) + "-" +
         std::to_string(st.st_mtim.tv_nsec);
}

}  // namespace

std::vector<uint64_t> ReferenceDigests(const RunOptions& options,
                                       const std::function<std::vector<uint64_t>()>& compute,
                                       std::string* golden_error) {
  std::vector<uint64_t> digests;
  const std::string cache_path = options.state_dir + "/ref-" + options.workload + "-" +
                                 std::to_string(options.seed) + "-" + BinaryIdentity() + ".txt";
  if (std::ifstream in(cache_path); in) {
    std::string hex;
    while (in >> hex) {
      digests.push_back(std::stoull(hex, nullptr, 16));
    }
  }
  if (digests.empty()) {
    digests = compute();
    if (!digests.empty()) {
      std::ofstream out(cache_path, std::ios::trunc);
      for (const uint64_t v : digests) {
        out << Hex(v) << "\n";
      }
    }
  }
  // In golden.txt's own format, ready to be copied there.
  std::fprintf(stderr, "reference digest %s %llu %s\n", options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), Hex(DigestAll(digests)).c_str());
  if (!options.golden.empty()) {
    std::ifstream in(options.golden);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string workload;
      uint64_t seed = 0;
      std::string hex;
      if (line.empty() || line[0] == '#' || !(fields >> workload >> seed >> hex)) {
        continue;
      }
      if (workload == options.workload && seed == options.seed &&
          hex != Hex(DigestAll(digests))) {
        *golden_error = "reference digest " + Hex(DigestAll(digests)) + " differs from golden " +
                        hex + " (" + options.golden + ")";
      }
    }
  }
  return digests;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json: every run reports every metric of its kind.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"work_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"workload.generate_s", "s"},
    {"core.point_s.p50", "s"},
    {"core.point_s.p90", "s"},
    {"core.replay_ns_per_event", "ns"},
    {"core.point_setup_ms.p50", "ms"},
    {"core.pool.busy_share", "fraction"},
    {"core.pool.tail_s", "s"},
    {"cache.serve_ns.fresh.p50", "ns"},
    {"cache.serve_ns.fresh.p99", "ns"},
    {"cache.serve_ns.validated.p50", "ns"},
    {"cache.serve_ns.validated.p99", "ns"},
    {"cache.serve_ns.fetched.p50", "ns"},
    {"cache.policy.calls", "count"},
    {"cache.policy.ns", "ns"},
    {"cache.fresh_share", "fraction"},
    {"origin.modify_ns.p50", "ns"},
    {"origin.modify_ns.p99", "ns"},
    {"origin.invalidations_sent", "count"},
    {"origin.ims_queries", "count"},
    {"chaos.trial_ms.p50.clean", "ms"},
    {"chaos.trial_ms.p50.crash", "ms"},
    {"chaos.trial_ms.p50.chaos", "ms"},
    {"chaos.trial_ms.p50.single", "ms"},
    {"chaos.trial_ms.p50.fleet", "ms"},
    {"chaos.trial_ms.p50.hierarchy", "ms"},
    {"chaos.oracle_share", "fraction"},
    {"chaos.generate_us.p50", "us"},
    {"serve.submit_ns.p50", "ns"},
    {"serve.submit_ns.p99", "ns"},
    {"serve.shed_share", "fraction"},
    {"serve.queue_depth_peak", "count"},
    {"serve.workers_peak", "count"},
    {"serve.latency_mean_us", "us"},
    {"serve.snapshot_us", "us"},
    {"serve.fresh_share", "fraction"},
    {"serve.generator_lag_ms.p99", "ms"},
    {"serve.offered_share", "fraction"},
    {"trace.overhead_share", "fraction"},
};

void Usage() {
  std::cerr << "usage: perfbench --workload paper-sweep|churn-sweep|chaos-campaign|"
               "serve-overload [--seed N] [--seconds S] [--trace 0|1] [--state-dir DIR] "
               "[--golden FILE]\n";
}

bool ParseArgs(int argc, char** argv, perfbench::RunOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "error: " << flag << " needs a value\n";
      return false;
    }
    const std::string value = argv[++i];
    try {
      size_t used = 0;
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value, &used);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value, &used) != 0;
      } else if (flag == "--state-dir") {
        options.state_dir = value;
      } else if (flag == "--golden") {
        options.golden = value;
      } else {
        std::cerr << "error: unknown flag " << flag << "\n";
        return false;
      }
      if (used != 0 && used != value.size()) {
        throw std::invalid_argument(value);
      }
    } catch (const std::exception&) {
      std::cerr << "error: bad value for " << flag << ": " << value << "\n";
      return false;
    }
  }
  if (!std::isfinite(options.seconds) || options.seconds <= 0 || options.seconds > 600) {
    std::cerr << "error: --seconds must be in (0, 600]\n";
    return false;
  }
  if (options.state_dir.empty()) {
    options.state_dir = ".";
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (!ParseArgs(argc, argv, options)) {
    Usage();
    return 2;
  }
  if (options.trace) {
    perfbench::Tracer::Enable();
    (void)perfbench::ClockCostNs();  // calibrate before any timed work
  }
  perfbench::Report report;
  try {
    if (options.workload == "paper-sweep" || options.workload == "churn-sweep") {
      report = perfbench::RunSweepWorkload(options);
    } else if (options.workload == "chaos-campaign") {
      report = perfbench::RunChaosWorkload(options);
    } else if (options.workload == "serve-overload") {
      report = perfbench::RunServeWorkload(options);
    } else {
      std::cerr << "error: unknown workload '" << options.workload << "'\n";
      Usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << options.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  if (report.attempted == 0) {
    report.Fail("no checked work was attempted");
  }
  if (!options.trace) {
    report.Add("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  } else {
    // Every pool has been joined by now, so the span buffers are quiescent.
    const std::vector<perfbench::Span> spans = perfbench::Tracer::Collect();
    const std::string path = options.state_dir + "/trace-" + options.workload + "-" +
                             std::to_string(options.seed) + ".json";
    report.notes.push_back(perfbench::WriteChromeTrace(spans, path)
                               ? "wrote " + std::to_string(spans.size()) + " spans to " + path
                               : "cannot write " + path);
    for (const auto& [name, seconds] : perfbench::SelfSeconds(spans)) {
      char line[128];
      std::snprintf(line, sizeof(line), "self time %-14s %10.4f s", name.c_str(), seconds);
      report.notes.push_back(line);
    }
  }

  // Every metric of the run's kind, in BENCHMARK.json order; a per-layer
  // metric the workload does not exercise reads 0.
  std::vector<perfbench::Metric> out;
  const auto emit = [&](const auto& specs) {
    for (const MetricSpec& spec : specs) {
      perfbench::Metric metric{spec.name, 0.0, spec.unit};
      for (const perfbench::Metric& m : report.metrics) {
        if (m.name == spec.name) {
          metric.value = std::isfinite(m.value) ? m.value : 0.0;
        }
      }
      out.push_back(metric);
    }
  };
  if (options.trace) {
    emit(kPerLayer);
  } else {
    emit(kEndToEnd);
  }

  for (const std::string& note : report.notes) {
    std::cerr << "perfbench: " << note << "\n";
  }
  std::printf("perfbench %s seed=%llu trace=%d: %s, %llu attempted, %llu failed\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, report.correct ? "outputs correct" : "OUTPUTS WRONG",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const perfbench::Metric& m : out) {
    std::printf("  %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<uint64_t>(report.attempted, 1)) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", out[i].value);
    json += (i == 0 ? "\"" : ", \"") + out[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
