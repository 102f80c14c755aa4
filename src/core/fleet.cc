#include "src/core/fleet.h"

#include <algorithm>

#include "src/core/replay.h"
#include "src/util/check.h"
#include "src/util/str.h"

namespace webcc {

double FleetResult::WorstMemberStaleRate() const {
  double worst = 0.0;
  for (const FleetMemberSummary& m : members) {
    worst = std::max(worst, m.StaleRate());
  }
  return worst;
}

uint32_t FleetResult::DarkMembers() const {
  uint32_t dark = 0;
  for (const FleetMemberSummary& m : members) {
    if (m.crashes > 0 || m.failed_requests > 0) {
      ++dark;
    }
  }
  return dark;
}

double FleetResult::FanOutAmplification() const {
  return modifications == 0 ? 0.0
                            : static_cast<double>(server.invalidations_sent) /
                                  static_cast<double>(modifications);
}

FleetResult RunFleetSimulation(const Workload& load, const FleetConfig& config) {
  WEBCC_CHECK_GT(config.num_caches, 0);
  WEBCC_CHECK(load.Validate().empty());

  CacheTree tree;
  tree.policy = config.policy;
  tree.cache.refresh_mode = config.refresh_mode;
  tree.preload = config.preload;
  tree.invalidation_retry_interval = config.faults.invalidation_retry_interval;
  for (uint32_t member = 0; member < config.num_caches; ++member) {
    CacheNode& cache = tree.nodes.emplace_back();
    cache.name = StrFormat("fleet-%u", member);
    cache.link = config.faults.ForLink(member);
    cache.share_of = config.num_caches;
    cache.share_index = member;
    cache.observer = config.member_observer ? config.member_observer(member) : nullptr;
  }
  const ReplayResult replay = Replay(load, tree);

  FleetResult result;
  result.policy_desc = replay.policy_desc;
  result.num_caches = config.num_caches;
  result.server = replay.server;
  result.modifications = load.modifications.size();
  result.final_subscriptions = replay.subscriptions;
  result.peak_subscriptions = replay.peak_subscriptions;
  result.members.reserve(config.num_caches);
  for (uint32_t member = 0; member < config.num_caches; ++member) {
    const CacheNodeResult& node = replay.nodes[member];
    const CacheStats& cache = node.stats;
    result.requests += cache.requests;
    result.stale_hits += cache.stale_hits;
    result.misses += cache.Misses();
    result.total_link_bytes += cache.LinkBytes();
    FleetMemberSummary& summary = result.members.emplace_back();
    summary.member = member;
    summary.requests = cache.requests;
    summary.stale_hits = cache.stale_hits;
    summary.degraded_serves = cache.degraded_serves;
    summary.failed_requests = cache.failed_requests;
    summary.crashes = cache.crashes;
    summary.unavailable_seconds = cache.unavailable_seconds;
    if (config.keep_member_results) {
      SimulationResult& out = result.member_results.emplace_back();
      out.workload_name = StrFormat("%s/fleet-%u", load.name.c_str(), member);
      out.policy_desc = replay.policy_desc;
      out.server = node.server;
      out.cache = cache;
      out.metrics = ComputeMetrics(out.server, out.cache);
    }
  }
  return result;
}

}  // namespace webcc
