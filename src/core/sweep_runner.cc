#include "src/core/sweep_runner.h"

#include <utility>

#include "src/util/thread_pool.h"

namespace webcc {

namespace {

std::vector<SweepPointSpec> AlexSpecs(const SimulationConfig& base,
                                      const std::vector<double>& threshold_percents) {
  std::vector<SweepPointSpec> specs;
  specs.reserve(threshold_percents.size());
  for (double pct : threshold_percents) {
    SweepPointSpec spec{pct, base};
    spec.config.policy = PolicyConfig::Alex(pct / 100.0);
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<SweepPointSpec> TtlSpecs(const SimulationConfig& base,
                                     const std::vector<double>& ttl_hours) {
  std::vector<SweepPointSpec> specs;
  specs.reserve(ttl_hours.size());
  for (double hours : ttl_hours) {
    SweepPointSpec spec{hours, base};
    spec.config.policy = PolicyConfig::Ttl(HoursF(hours));
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace

// Thin wrapper so sweep_runner.h does not pull threading headers into every
// includer of the experiment layer.
class SweepRunner::Pool : public ThreadPool {
 public:
  using ThreadPool::ThreadPool;
};

SweepRunner::SweepRunner(size_t jobs) : jobs_(jobs == 1 ? 1 : ResolveJobs(jobs)) {
  if (jobs_ > 1) {
    pool_ = std::make_unique<Pool>(jobs_);
  }
}

SweepRunner::~SweepRunner() = default;

void SweepRunner::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  Dispatch(n, fn);
}

void SweepRunner::Dispatch(size_t n, const std::function<void(size_t)>& fn) {
  if (pool_ == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  pool_->ParallelFor(n, fn);
}

std::vector<SweepSeries> SweepRunner::RunGrid(std::string label, std::string param_name,
                                              const std::vector<const Workload*>& loads,
                                              const std::vector<SweepPointSpec>& specs) {
  std::vector<SweepSeries> out(loads.size());
  for (size_t w = 0; w < loads.size(); ++w) {
    out[w].label = label;
    out[w].param_name = param_name;
    out[w].points.resize(specs.size());
  }
  // Flatten (workload, point) into one grid; each task writes only its own
  // pre-sized slot, so the pool needs no synchronization on the results.
  const size_t per_load = specs.size();
  Dispatch(loads.size() * per_load, [&](size_t flat) {
    const size_t w = flat / per_load;
    const size_t p = flat % per_load;
    const Workload& load = *loads[w];
    SweepPoint& point = out[w].points[p];
    point.param = specs[p].param;
    point.result = RunSimulation(load, specs[p].config);
  });
  return out;
}

SweepSeries SweepRunner::Run(std::string label, std::string param_name, const Workload& load,
                             const std::vector<SweepPointSpec>& specs) {
  return std::move(
      RunGrid(std::move(label), std::move(param_name), {&load}, specs).front());
}

SweepSeries SweepRunner::SweepAlexThreshold(const Workload& load,
                                            const SimulationConfig& base_config,
                                            const std::vector<double>& threshold_percents) {
  return Run("alex", "threshold_pct", load, AlexSpecs(base_config, threshold_percents));
}

SweepSeries SweepRunner::SweepTtlHours(const Workload& load, const SimulationConfig& base_config,
                                       const std::vector<double>& ttl_hours) {
  return Run("ttl", "ttl_hours", load, TtlSpecs(base_config, ttl_hours));
}

std::vector<SweepSeries> SweepRunner::SweepAlexThresholdMany(
    const std::vector<Workload>& loads, const SimulationConfig& base_config,
    const std::vector<double>& threshold_percents) {
  std::vector<const Workload*> refs;
  refs.reserve(loads.size());
  for (const Workload& load : loads) {
    refs.push_back(&load);
  }
  return RunGrid("alex", "threshold_pct", refs, AlexSpecs(base_config, threshold_percents));
}

std::vector<SweepSeries> SweepRunner::SweepTtlHoursMany(const std::vector<Workload>& loads,
                                                        const SimulationConfig& base_config,
                                                        const std::vector<double>& ttl_hours) {
  std::vector<const Workload*> refs;
  refs.reserve(loads.size());
  for (const Workload& load : loads) {
    refs.push_back(&load);
  }
  return RunGrid("ttl", "ttl_hours", refs, TtlSpecs(base_config, ttl_hours));
}

std::vector<SimulationResult> SweepRunner::RunInvalidationMany(
    const std::vector<Workload>& loads, const SimulationConfig& base_config) {
  SimulationConfig config = base_config;
  config.policy = PolicyConfig::Invalidation();
  std::vector<SimulationResult> out(loads.size());
  Dispatch(loads.size(), [&](size_t w) {
    out[w] = RunSimulation(loads[w], config);
  });
  return out;
}

}  // namespace webcc
