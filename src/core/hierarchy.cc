#include "src/core/hierarchy.h"

#include <algorithm>

#include "src/core/replay.h"
#include "src/core/simulation.h"
#include "src/util/check.h"

namespace webcc {

double HierarchyResult::WorstLeafStaleRate() const {
  return std::max(l1a.StaleRate(), l1b.StaleRate());
}

uint32_t HierarchyResult::DarkTiers() const {
  uint32_t dark = 0;
  for (const CacheStats* tier : {&l2, &l1a, &l1b}) {
    if (tier->crashes > 0 || tier->failed_requests > 0) {
      ++dark;
    }
  }
  return dark;
}

double HierarchyResult::FanOutAmplification() const {
  return modifications == 0
             ? 0.0
             : static_cast<double>(server.invalidations_sent + child_invalidations_sent) /
                   static_cast<double>(modifications);
}

HierarchyResult RunHierarchySimulation(const Workload& load, const HierarchyConfig& config) {
  WEBCC_CHECK(load.Validate().empty());

  // Node i sits on HierarchyLink i. Requests with even client_id go to
  // cache-1a, odd to cache-1b.
  CacheTree tree;
  tree.policy = config.policy;
  tree.cache.refresh_mode = config.refresh_mode;
  tree.preload = config.preload;
  tree.invalidation_retry_interval = config.faults.invalidation_retry_interval;
  const char* const names[kNumHierarchyLinks] = {"cache-2", "cache-1a", "cache-1b"};
  SimObserver* const observers[kNumHierarchyLinks] = {nullptr, config.leaf_observer_a,
                                                      config.leaf_observer_b};
  for (uint32_t link = 0; link < kNumHierarchyLinks; ++link) {
    CacheNode& node = tree.nodes.emplace_back();
    node.name = names[link];
    node.link = config.faults.ForLink(link);
    if (link != static_cast<uint32_t>(HierarchyLink::kServerL2)) {
      node.parent = 0;
      node.share_of = 2;
      node.share_index = link - 1;
      node.observer = observers[link];
    }
  }
  const ReplayResult replay = Replay(load, tree);

  const CacheNodeResult& l2 = replay.nodes[0];
  HierarchyResult result;
  result.policy_desc = replay.policy_desc;
  result.server = replay.server;
  result.l2 = l2.stats;
  result.l1a = replay.nodes[1].stats;
  result.l1b = replay.nodes[2].stats;
  result.requests = load.requests.size();
  result.modifications = load.modifications.size();
  result.child_invalidations_sent = l2.child_invalidations_sent;
  result.child_invalidations_delivered = l2.child_invalidations_delivered;
  result.child_invalidations_dropped = l2.child_invalidations_dropped;
  result.child_invalidations_queued = l2.child_invalidations_queued;
  result.child_invalidations_redelivered = l2.child_invalidations_redelivered;
  result.pending_child_invalidations = l2.pending_child_invalidations;
  return result;
}

namespace {

// A one-object workload for the Figure 1 micro-scenarios.
Workload ScenarioWorkload(bool change_at_10min, std::vector<SimDuration> access_times) {
  Workload load;
  load.name = "fig1-scenario";
  ObjectSpec spec;
  spec.name = "/fig1/object.html";
  spec.type = FileType::kHtml;
  spec.size_bytes = 6000;
  spec.initial_age = Days(10);  // a settled object
  load.objects.push_back(spec);
  if (change_at_10min) {
    load.modifications.push_back(ModificationEvent{SimTime::Epoch() + Minutes(10), 0, -1});
  }
  for (SimDuration at : access_times) {
    RequestEvent req;
    req.at = SimTime::Epoch() + at;
    req.object_index = 0;
    req.client_id = 0;  // all scenario traffic enters via cache-1a
    load.requests.push_back(req);
  }
  load.horizon = SimTime::Epoch() + Days(2);
  load.Finalize();
  return load;
}

int64_t HierBytes(const Workload& load, PolicyConfig policy) {
  HierarchyConfig config;
  config.policy = policy;
  config.refresh_mode = RefreshMode::kConditionalGet;
  config.preload = true;
  return RunHierarchySimulation(load, config).TotalLinkBytes();
}

int64_t CollapsedBytes(const Workload& load, PolicyConfig policy) {
  SimulationConfig config = SimulationConfig::Optimized(policy);
  return RunSimulation(load, config).metrics.total_bytes;
}

ScenarioOutcome MeasureScenario(std::string tag, std::string description, const Workload& load,
                                PolicyConfig timebased) {
  ScenarioOutcome outcome;
  outcome.scenario = std::move(tag);
  outcome.description = std::move(description);
  outcome.hier_invalidation_bytes = HierBytes(load, PolicyConfig::Invalidation());
  outcome.hier_timebased_bytes = HierBytes(load, timebased);
  outcome.collapsed_invalidation_bytes = CollapsedBytes(load, PolicyConfig::Invalidation());
  outcome.collapsed_timebased_bytes = CollapsedBytes(load, timebased);
  return outcome;
}

}  // namespace

double ScenarioOutcome::HierRatio() const {
  return hier_invalidation_bytes == 0
             ? 0.0
             : static_cast<double>(hier_timebased_bytes) /
                   static_cast<double>(hier_invalidation_bytes);
}

double ScenarioOutcome::CollapsedRatio() const {
  return collapsed_invalidation_bytes == 0
             ? 0.0
             : static_cast<double>(collapsed_timebased_bytes) /
                   static_cast<double>(collapsed_invalidation_bytes);
}

std::vector<ScenarioOutcome> RunFigure1Scenarios() {
  std::vector<ScenarioOutcome> outcomes;

  // (a) Data changed, never accessed again. Long TTL: the time-based cache
  // stays silent; invalidation pays notices on every link.
  outcomes.push_back(MeasureScenario(
      "a", "data changed, never accessed again",
      ScenarioWorkload(/*change_at_10min=*/true, {}), PolicyConfig::Ttl(Hours(1000))));

  // (b) Data changed, accessed again before timing out. The time-based cache
  // serves the (stale) copy locally for free; invalidation pays notices plus
  // the re-fetch.
  outcomes.push_back(MeasureScenario(
      "b", "data changed, accessed again before timing out",
      ScenarioWorkload(true, {Minutes(30)}), PolicyConfig::Ttl(Hours(1000))));

  // (c) Data changed, accessed after timing out. Both protocols move the
  // file; in the hierarchy, invalidation also notified cache-1b, which never
  // asks for the data.
  outcomes.push_back(MeasureScenario(
      "c", "data changed, accessed after timing out",
      ScenarioWorkload(true, {Hours(3)}), PolicyConfig::Ttl(Hours(1))));

  // (d) Data did not change, timed out and later accessed. Time-based pays
  // validation queries; invalidation pays nothing.
  outcomes.push_back(MeasureScenario(
      "d", "data did not change, timed out and later accessed",
      ScenarioWorkload(false, {Hours(3)}), PolicyConfig::Ttl(Hours(1))));

  return outcomes;
}

}  // namespace webcc
