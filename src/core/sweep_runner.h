// Parallel sweep executor: the machinery that turns one figure's parameter
// sweep into a grid of independent RunSimulation jobs.
//
// Determinism argument (why jobs=N is bit-identical to jobs=1): every sweep
// point owns its whole simulated world — RunSimulation constructs a private
// OriginServer, ProxyCache, and policy per call and touches no global
// mutable state — while the pre-materialized Workload is shared strictly by
// const reference. Threads only decide *when* a point runs, never *what* it
// computes, and results are written into a slot indexed by (workload, point)
// position, so the assembled SweepSeries is independent of completion order.
// tests/core/sweep_runner_test.cc asserts exact equality field-by-field.
//
// Lock discipline: this class intentionally has no mutex-guarded members
// (nothing here to annotate with WEBCC_GUARDED_BY). Cross-thread state is
// the pool's own queue, whose members are annotated in
// src/util/thread_pool.h, and Replay's two relaxed work counters
// (GlobalSweepExecStats, merely statistics).

#ifndef WEBCC_SRC_CORE_SWEEP_RUNNER_H_
#define WEBCC_SRC_CORE_SWEEP_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/replay.h"

namespace webcc {

// One cell of a sweep grid: the axis value and the fully resolved config.
struct SweepPointSpec {
  double param = 0.0;
  SimulationConfig config;
};

class SweepRunner {
 public:
  // jobs: 1 = serial (no pool), 0 = auto (WEBCC_JOBS env, else hardware
  // concurrency), N = exactly N worker threads. The pool is created once and
  // reused across every sweep run through this runner.
  explicit SweepRunner(size_t jobs = 1);
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  [[nodiscard]] size_t jobs() const { return jobs_; }

  // Runs one point per spec against `load`; points come back in spec order.
  SweepSeries Run(std::string label, std::string param_name, const Workload& load,
                  const std::vector<SweepPointSpec>& specs);

  // The paper's two axes.
  SweepSeries SweepAlexThreshold(const Workload& load, const SimulationConfig& base_config,
                                 const std::vector<double>& threshold_percents);
  SweepSeries SweepTtlHours(const Workload& load, const SimulationConfig& base_config,
                            const std::vector<double>& ttl_hours);

  // Figure 6/7/8 shape: the same sweep over several workloads (one series
  // each, for AverageSeries). All (workload, point) pairs are scheduled as a
  // single task grid, so three 21-point traces fill the pool as 63 jobs
  // rather than three serialized 21-job batches.
  std::vector<SweepSeries> SweepAlexThresholdMany(const std::vector<Workload>& loads,
                                                  const SimulationConfig& base_config,
                                                  const std::vector<double>& threshold_percents);
  std::vector<SweepSeries> SweepTtlHoursMany(const std::vector<Workload>& loads,
                                             const SimulationConfig& base_config,
                                             const std::vector<double>& ttl_hours);

  // One invalidation run per workload, in workload order.
  std::vector<SimulationResult> RunInvalidationMany(const std::vector<Workload>& loads,
                                                    const SimulationConfig& base_config);

  // General-purpose fan-out on this runner's pool: executes fn(i) for i in
  // [0, n), serially when jobs == 1. The determinism contract is the
  // caller's: tasks must own their worlds and write only to disjoint,
  // index-addressed slots, so results cannot depend on completion order.
  // This is how fleet sharding (src/core/fleet.h) and chaos campaigns
  // (src/chaos/) reuse the one pool instead of growing their own.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  class Pool;  // pimpl so this header stays free of threading includes

  std::vector<SweepSeries> RunGrid(std::string label, std::string param_name,
                                   const std::vector<const Workload*>& loads,
                                   const std::vector<SweepPointSpec>& specs);
  // Executes fn(i) for i in [0, n), serially or on the pool.
  void Dispatch(size_t n, const std::function<void(size_t)>& fn);

  size_t jobs_;
  std::unique_ptr<Pool> pool_;  // null when jobs_ == 1
};

}  // namespace webcc

#endif  // WEBCC_SRC_CORE_SWEEP_RUNNER_H_
