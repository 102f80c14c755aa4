#include "src/core/fleet.h"

#include <gtest/gtest.h>

#include "src/core/simulation.h"
#include "src/workload/worrell.h"

namespace webcc {
namespace {

const Workload& FleetLoad() {
  static const Workload load = [] {
    WorrellConfig config;
    config.num_files = 80;
    config.duration = Days(10);
    config.requests_per_second = 0.05;
    config.num_clients = 64;
    config.seed = 555;
    return GenerateWorrellWorkload(config);
  }();
  return load;
}

FleetConfig MakeConfig(PolicyConfig policy, uint32_t caches) {
  FleetConfig config;
  config.policy = policy;
  config.num_caches = caches;
  return config;
}

TEST(FleetTest, AllRequestsServedAcrossMembers) {
  const FleetResult result = RunFleetSimulation(FleetLoad(), MakeConfig(PolicyConfig::Ttl(Hours(24)), 8));
  EXPECT_EQ(result.requests, FleetLoad().requests.size());
  EXPECT_EQ(result.num_caches, 8u);
}

TEST(FleetTest, SingleCacheFleetMatchesCollapsedSimulation) {
  const FleetResult fleet =
      RunFleetSimulation(FleetLoad(), MakeConfig(PolicyConfig::Alex(0.2), 1));
  const SimulationResult solo =
      RunSimulation(FleetLoad(), SimulationConfig::Optimized(PolicyConfig::Alex(0.2)));
  EXPECT_EQ(fleet.total_link_bytes, solo.metrics.total_bytes);
  EXPECT_EQ(fleet.stale_hits, solo.metrics.stale_hits);
  EXPECT_EQ(fleet.misses, solo.metrics.cache_misses);
}

TEST(FleetTest, InvalidationBookkeepingScalesWithFleetSize) {
  // §1: the server must track every (cache, object) pair. Preloaded fleets
  // subscribe everything everywhere: N * objects live subscriptions.
  const size_t objects = FleetLoad().objects.size();
  for (uint32_t n : {1u, 4u, 16u}) {
    const FleetResult result =
        RunFleetSimulation(FleetLoad(), MakeConfig(PolicyConfig::Invalidation(), n));
    EXPECT_EQ(result.peak_subscriptions, n * objects) << n;
    EXPECT_EQ(result.final_subscriptions, n * objects) << n;
  }
}

TEST(FleetTest, TimeBasedNeedsNoBookkeeping) {
  const FleetResult result =
      RunFleetSimulation(FleetLoad(), MakeConfig(PolicyConfig::Alex(0.1), 16));
  EXPECT_EQ(result.peak_subscriptions, 0u);
}

TEST(FleetTest, InvalidationFanOutScalesWithHolders) {
  // Every change notifies every subscribed cache: notices = changes * N for
  // a preloaded fleet.
  const uint64_t changes = FleetLoad().modifications.size();
  const FleetResult one =
      RunFleetSimulation(FleetLoad(), MakeConfig(PolicyConfig::Invalidation(), 1));
  const FleetResult sixteen =
      RunFleetSimulation(FleetLoad(), MakeConfig(PolicyConfig::Invalidation(), 16));
  EXPECT_EQ(one.server.invalidations_sent, changes);
  EXPECT_EQ(sixteen.server.invalidations_sent, 16 * changes);
}

TEST(FleetTest, TimeBasedServerOpsScaleWithRequestsNotFleetSize) {
  // Same request stream split across more caches costs the server MORE for
  // time-based protocols too (less sharing), but bounded by the request
  // count — not multiplied by the holder population like invalidation.
  const FleetResult small =
      RunFleetSimulation(FleetLoad(), MakeConfig(PolicyConfig::Alex(0.1), 2));
  const FleetResult large =
      RunFleetSimulation(FleetLoad(), MakeConfig(PolicyConfig::Alex(0.1), 16));
  EXPECT_GE(large.server.TotalOperations(), small.server.TotalOperations());
  EXPECT_LE(large.server.TotalOperations(), FleetLoad().requests.size());
}

TEST(FleetTest, MembersAreIndependentCaches) {
  // A change invalidates everyone; each member refetches on ITS next touch,
  // so misses can exceed a single shared cache's.
  const FleetResult fleet =
      RunFleetSimulation(FleetLoad(), MakeConfig(PolicyConfig::Invalidation(), 8));
  const SimulationResult solo =
      RunSimulation(FleetLoad(), SimulationConfig::Optimized(PolicyConfig::Invalidation()));
  EXPECT_GE(fleet.misses, solo.metrics.cache_misses);
  EXPECT_EQ(fleet.stale_hits, 0u);
}

TEST(FleetTest, PerfectConsistencyAcrossWholeFleet) {
  for (uint32_t n : {2u, 8u}) {
    const FleetResult result =
        RunFleetSimulation(FleetLoad(), MakeConfig(PolicyConfig::Invalidation(), n));
    EXPECT_EQ(result.stale_hits, 0u) << n;
  }
}

void ExpectFleetResultsIdentical(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.policy_desc, b.policy_desc);
  EXPECT_EQ(a.num_caches, b.num_caches);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.stale_hits, b.stale_hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.total_link_bytes, b.total_link_bytes);
  EXPECT_EQ(a.final_subscriptions, b.final_subscriptions);
  EXPECT_EQ(a.peak_subscriptions, b.peak_subscriptions);
  EXPECT_EQ(a.server.get_requests, b.server.get_requests);
  EXPECT_EQ(a.server.ims_queries, b.server.ims_queries);
  EXPECT_EQ(a.server.ims_not_modified, b.server.ims_not_modified);
  EXPECT_EQ(a.server.files_transferred, b.server.files_transferred);
  EXPECT_EQ(a.server.bytes_sent, b.server.bytes_sent);
  EXPECT_EQ(a.server.bytes_received, b.server.bytes_received);
  EXPECT_EQ(a.server.invalidations_sent, b.server.invalidations_sent);
  EXPECT_EQ(a.server.invalidations_delivered, b.server.invalidations_delivered);
}

TEST(FleetTest, RepeatRunsAreFieldIdentical) {
  // A fleet is one deterministic replay: running the same config twice
  // gives the same result, field by field. (Invariance across --jobs is
  // pinned by FigureGolden.ablation_fleet, which runs at 1 and 4 jobs.)
  for (const PolicyConfig& policy :
       {PolicyConfig::Alex(0.2), PolicyConfig::Invalidation()}) {
    const FleetConfig config = MakeConfig(policy, 8);
    const FleetResult first = RunFleetSimulation(FleetLoad(), config);
    const FleetResult second = RunFleetSimulation(FleetLoad(), config);
    ExpectFleetResultsIdentical(first, second);
  }
}

}  // namespace
}  // namespace webcc
