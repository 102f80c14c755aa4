#include "src/core/simulation.h"

#include "src/core/replay.h"
#include "src/util/check.h"

namespace webcc {

SimulationConfig SimulationConfig::Base(PolicyConfig policy) {
  SimulationConfig config;
  config.policy = policy;
  config.refresh_mode = RefreshMode::kFullRefetch;
  config.preload = true;
  return config;
}

SimulationConfig SimulationConfig::Optimized(PolicyConfig policy) {
  SimulationConfig config;
  config.policy = policy;
  config.refresh_mode = RefreshMode::kConditionalGet;
  config.preload = true;
  return config;
}

SimulationConfig SimulationConfig::TraceDriven(PolicyConfig policy) {
  SimulationConfig config;
  config.policy = policy;
  config.refresh_mode = RefreshMode::kConditionalGet;
  // The paper's trace runs consider only files present at the start of the
  // month and measure steady-state consistency traffic, so the cache starts
  // warm; a cold start would bury the protocol differences under the
  // one-time cold-fetch payload, which is identical for every protocol.
  config.preload = true;
  return config;
}

SimulationResult RunSimulation(const Workload& load, const SimulationConfig& config) {
  WEBCC_CHECK(load.Validate().empty()) << "workload failed validation";

  CacheTree tree;
  tree.policy = config.policy;
  tree.policy_factory = config.policy_factory;
  tree.cache.refresh_mode = config.refresh_mode;
  tree.cache.capacity_bytes = config.cache_capacity_bytes;
  tree.preload = config.preload;
  tree.warmup = config.warmup;
  tree.invalidation_retry_interval = config.faults.invalidation_retry_interval;
  CacheNode& proxy = tree.nodes.emplace_back();
  proxy.name = "proxy";
  proxy.link = config.faults;
  proxy.share_of = 1;
  proxy.observer = config.observer;
  const ReplayResult replay = Replay(load, tree);

  SimulationResult result;
  result.workload_name = load.name;
  result.policy_desc = replay.policy_desc;
  result.server = replay.server;
  result.cache = replay.nodes.front().stats;
  result.metrics = ComputeMetrics(result.server, result.cache);
  return result;
}

}  // namespace webcc
