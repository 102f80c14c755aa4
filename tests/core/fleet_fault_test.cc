// Per-link fault plans through RunFleetSimulation: the armed-all-zero
// no-op, member-targeted fault isolation, crash/restart through the
// snapshot path, and run-to-run determinism with faults enabled (the
// fault-free repeat check lives in fleet_test.cc).

#include "src/core/fleet.h"

#include <gtest/gtest.h>

#include "src/core/simulation.h"
#include "src/workload/worrell.h"

namespace webcc {
namespace {

const Workload& FaultFleetLoad() {
  static const Workload load = [] {
    WorrellConfig config;
    config.num_files = 80;
    config.duration = Days(10);
    config.requests_per_second = 0.05;
    config.num_clients = 64;
    config.seed = 777;
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

LinkFaultOverride MemberCrash(uint32_t member, SimDuration at, SimDuration outage) {
  LinkFaultOverride over;
  over.link = member;
  over.crashes.push_back({SimTime::Epoch() + at, outage});
  return over;
}

void ExpectMembersIdentical(const FleetResult& a, const FleetResult& b) {
  ASSERT_EQ(a.members.size(), b.members.size());
  for (size_t i = 0; i < a.members.size(); ++i) {
    EXPECT_EQ(a.members[i].requests, b.members[i].requests) << i;
    EXPECT_EQ(a.members[i].stale_hits, b.members[i].stale_hits) << i;
    EXPECT_EQ(a.members[i].degraded_serves, b.members[i].degraded_serves) << i;
    EXPECT_EQ(a.members[i].failed_requests, b.members[i].failed_requests) << i;
    EXPECT_EQ(a.members[i].crashes, b.members[i].crashes) << i;
    EXPECT_EQ(a.members[i].unavailable_seconds, b.members[i].unavailable_seconds) << i;
  }
}

void ExpectFleetsIdentical(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.policy_desc, b.policy_desc);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.stale_hits, b.stale_hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.total_link_bytes, b.total_link_bytes);
  EXPECT_EQ(a.final_subscriptions, b.final_subscriptions);
  EXPECT_EQ(a.peak_subscriptions, b.peak_subscriptions);
  EXPECT_EQ(a.server.invalidations_sent, b.server.invalidations_sent);
  EXPECT_EQ(a.server.invalidations_delivered, b.server.invalidations_delivered);
  EXPECT_EQ(a.server.bytes_sent, b.server.bytes_sent);
  ExpectMembersIdentical(a, b);
}

TEST(FleetFaultTest, ArmedAllZeroFaultsAreAFleetNoOp) {
  // Routing member worlds through the faulted engine with every knob zero
  // must be invisible, field by field, including the per-member spread.
  for (const PolicyConfig& policy :
       {PolicyConfig::Alex(0.2), PolicyConfig::Invalidation()}) {
    const FleetConfig plain = MakeConfig(policy, 4);
    FleetConfig armed = plain;
    armed.faults.armed = true;
    const FleetResult base = RunFleetSimulation(FaultFleetLoad(), plain);
    const FleetResult faulted = RunFleetSimulation(FaultFleetLoad(), armed);
    ExpectFleetsIdentical(base, faulted);
  }
}

TEST(FleetFaultTest, FaultedRepeatRunsAreFieldIdentical) {
  // Faults are drawn from seeded per-link substreams, so a faulted fleet
  // replays identically run after run.
  FleetConfig config = MakeConfig(PolicyConfig::Invalidation(), 4);
  config.faults.loss_rate = 0.1;
  LinkFaultOverride lossy;
  lossy.link = 2;
  lossy.loss_rate = 0.6;
  config.faults.link_overrides.push_back(lossy);
  config.faults.link_overrides.push_back(MemberCrash(0, Days(3), Hours(6)));
  const FleetResult first = RunFleetSimulation(FaultFleetLoad(), config);
  const FleetResult second = RunFleetSimulation(FaultFleetLoad(), config);
  ExpectFleetsIdentical(first, second);
}

TEST(FleetFaultTest, MemberTargetedCrashDarkensOnlyThatMember) {
  FleetConfig config = MakeConfig(PolicyConfig::Invalidation(), 3);
  config.faults.link_overrides.push_back(MemberCrash(1, Days(4), Hours(12)));
  const FleetResult result = RunFleetSimulation(FaultFleetLoad(), config);
  ASSERT_EQ(result.members.size(), 3u);
  EXPECT_EQ(result.members[1].crashes, 1u);
  EXPECT_GT(result.members[1].unavailable_seconds, 0);
  for (uint32_t m : {0u, 2u}) {
    EXPECT_EQ(result.members[m].crashes, 0u) << m;
    EXPECT_EQ(result.members[m].unavailable_seconds, 0) << m;
    EXPECT_EQ(result.members[m].failed_requests, 0u) << m;
  }
  EXPECT_EQ(result.DarkMembers(), 1u);
}

TEST(FleetFaultTest, MemberTargetedTotalLossIsolatesStaleness) {
  // Member 0's link drops everything — including its invalidation
  // notices, so it silently serves stale from its preloaded copies (the
  // §1 weakness, confined to one holder). Siblings keep a perfect
  // network and stay perfectly consistent.
  FleetConfig config = MakeConfig(PolicyConfig::Invalidation(), 3);
  LinkFaultOverride dead;
  dead.link = 0;
  dead.loss_rate = 1.0;
  config.faults.link_overrides.push_back(dead);
  const FleetResult result = RunFleetSimulation(FaultFleetLoad(), config);
  ASSERT_EQ(result.members.size(), 3u);
  EXPECT_GT(result.members[0].stale_hits, 0u);
  for (uint32_t m : {1u, 2u}) {
    EXPECT_EQ(result.members[m].stale_hits, 0u) << m;
    EXPECT_EQ(result.members[m].degraded_serves, 0u) << m;
    EXPECT_EQ(result.members[m].failed_requests, 0u) << m;
  }
  EXPECT_GT(result.WorstMemberStaleRate(), 0.0);
}

TEST(FleetFaultTest, LinkFaultsDrawIndependentPerMemberStreams) {
  // The same base loss rate must not replay the same loss pattern on every
  // link: members fork their own substreams, so their degradation differs
  // (while totals stay deterministic — asserted by the repeat-run test).
  FleetConfig config = MakeConfig(PolicyConfig::Invalidation(), 4);
  config.faults.loss_rate = 0.35;
  const FleetResult result = RunFleetSimulation(FaultFleetLoad(), config);
  ASSERT_EQ(result.members.size(), 4u);
  bool any_difference = false;
  for (size_t i = 1; i < result.members.size(); ++i) {
    if (result.members[i].degraded_serves != result.members[0].degraded_serves ||
        result.members[i].stale_hits != result.members[0].stale_hits) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(FleetFaultTest, CrashedMemberRestartsAndServesAgain) {
  // A mid-run crash with a bounded outage: the member loses requests while
  // dark but serves the tail of its shard after restart.
  FleetConfig config = MakeConfig(PolicyConfig::Invalidation(), 2);
  config.faults.link_overrides.push_back(MemberCrash(1, Days(5), Hours(2)));
  const FleetResult result = RunFleetSimulation(FaultFleetLoad(), config);
  ASSERT_EQ(result.members.size(), 2u);
  EXPECT_EQ(result.members[1].crashes, 1u);
  EXPECT_GT(result.members[1].failed_requests, 0u);
  // The member came back: it served more requests than it failed.
  EXPECT_GT(result.members[1].requests,
            result.members[1].failed_requests);
  // Aggregate conservation: every sharded request is accounted somewhere.
  EXPECT_EQ(result.requests, FaultFleetLoad().requests.size());
}

}  // namespace
}  // namespace webcc
