// Shared vocabulary of the benchmark program: run options, the report each
// workload returns, output digests and the reference-digest store.
//
// webcc-lint: allow-file(banned-wallclock) the benchmark measures host wall
// time; no reading ever feeds a simulation, which consumes only SimTime.

#ifndef WEBCC_PERFBENCH_BENCH_H_
#define WEBCC_PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/simulation.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;      // 0 = the paper's own generator seeds
  double seconds = 10.0;  // length of the measured phase
  bool trace = false;     // per-layer run instead of the end-to-end run
  std::string state_dir;  // reference digests and trace files go here
  std::string golden;     // checked-in reference digests (may be empty)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run hands back to main(). `attempted` counts the checked
// units (sweep points, chaos trials, offered serve requests) and `failed`
// those whose check failed.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines for stderr

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Fail(std::string note) {
    correct = false;
    notes.push_back(std::move(note));
  }
};

// Fixed worker counts, capped by the machine: sweeps and chaos run on
// min(3, cores) jobs; the serve pool gets min(2, cores - 1) workers, so the
// load generator keeps a core of its own and, sharing the admission and pool
// locks with fewer workers, can still offer more than they serve.
size_t SweepJobs();
size_t ServeWorkers();

// The workload seed applied to a generator's own default seed. Seed 0
// leaves the default untouched, so `--seed 0` replays the paper's inputs.
uint64_t MixSeed(uint64_t base, uint64_t seed);

// FNV-1a over the fields fed to it.
class Digest {
 public:
  Digest& Add(uint64_t value);
  Digest& Add(int64_t value) { return Add(static_cast<uint64_t>(value)); }
  Digest& Add(double value);
  Digest& Add(const std::string& value);
  [[nodiscard]] uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

// Digest of a run's simulated statistics: ServerStats, CacheStats and
// ConsistencyMetrics, every field.
uint64_t DigestResult(const webcc::SimulationResult& result);

// Reference digests for (workload, seed), computed once at jobs=1 by
// `compute` and cached under state_dir (keyed also by the perfbench binary, so
// a rebuilt program never reuses another build's reference). `compute`
// returns nothing when the reference run itself failed; that is not cached,
// and every checked unit then misses the reference. When the
// checked-in golden file lists (workload, seed), the reference must also
// match it; a mismatch is returned in *golden_error.
std::vector<uint64_t> ReferenceDigests(const RunOptions& options,
                                       const std::function<std::vector<uint64_t>()>& compute,
                                       std::string* golden_error);

// getrusage peak resident set of this process, in MB.
double PeakRssMb();

// Workload entry points.
Report RunSweepWorkload(const RunOptions& options);  // paper-sweep, churn-sweep
Report RunChaosWorkload(const RunOptions& options);  // chaos-campaign
Report RunServeWorkload(const RunOptions& options);  // serve-overload

}  // namespace perfbench

#endif  // WEBCC_PERFBENCH_BENCH_H_
