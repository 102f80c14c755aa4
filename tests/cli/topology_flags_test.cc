// The --fleet/--hierarchy topology modes and the per-link fault knobs
// (--fleet-loss-rate/--fleet-jitter/--fleet-crash, --tier-*): happy paths
// through RunCliDriver plus the one-line-error + exit 2 contract for every
// malformed input class. ParseTopologyFaultFlags is shared with webcc-chaos,
// so the error text asserted here is what both binaries print.

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cli/args.h"
#include "src/cli/driver.h"

namespace webcc {
namespace {

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult RunCli(std::vector<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  CliResult result;
  result.code = RunCliDriver(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

// Small Worrell workload so the topology runs stay fast.
std::vector<std::string> WithSmallWorkload(std::vector<std::string> extra) {
  std::vector<std::string> args = {"--files=50", "--days=5", "--rps=0.02"};
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

// Every rejection is the documented contract: exit 2 and exactly one
// error line on stderr.
void ExpectOneLineError(const CliResult& result, const std::string& needle) {
  EXPECT_EQ(result.code, 2) << result.err;
  EXPECT_EQ(std::count(result.err.begin(), result.err.end(), '\n'), 1) << result.err;
  EXPECT_EQ(result.err.rfind("error: ", 0), 0u) << result.err;
  EXPECT_NE(result.err.find(needle), std::string::npos) << result.err;
}

TEST(TopologyFlagsTest, FleetRunPrintsPerMemberSpread) {
  const CliResult result =
      RunCli(WithSmallWorkload({"--policy=invalidation", "--fleet=3"}));
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("fleet of 3"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("Per-member spread:"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("subscriptions:"), std::string::npos) << result.out;
}

TEST(TopologyFlagsTest, FleetCrashDarkensTargetedMember) {
  const CliResult result = RunCli(WithSmallWorkload(
      {"--policy=invalidation", "--fleet=3", "--fleet-crash=1:2d"}));
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("1 dark members"), std::string::npos) << result.out;
}

TEST(TopologyFlagsTest, HierarchyRunPrintsPerTierSpread) {
  const CliResult result = RunCli(WithSmallWorkload({"--policy=invalidation", "--hierarchy"}));
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("two-level tree"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("Per-tier spread:"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("L1a"), std::string::npos) << result.out;
}

// A link's override crash inside the base schedule's outage is one merged
// outage, not a second crash of a cache that is already dark.
TEST(TopologyFlagsTest, OverlappingCrashWindowsDoNotAbort) {
  const std::vector<std::string> base = {"--files=200", "--days=3", "--cache-crash=1h",
                                         "--crash-outage=30m"};
  std::vector<std::string> fleet = base;
  fleet.insert(fleet.end(), {"--fleet=3", "--fleet-crash=0:70m"});
  const CliResult fleet_result = RunCli(fleet);
  EXPECT_EQ(fleet_result.code, 0) << fleet_result.err;

  std::vector<std::string> tree = base;
  tree.insert(tree.end(), {"--hierarchy", "--tier-crash=l1a:70m"});
  const CliResult tree_result = RunCli(tree);
  EXPECT_EQ(tree_result.code, 0) << tree_result.err;
}

TEST(TopologyFlagsTest, FleetRunsAreReproducible) {
  const std::vector<std::string> args = WithSmallWorkload(
      {"--policy=invalidation", "--fleet=4", "--fleet-loss-rate=2:0.3",
       "--fleet-crash=0:2d", "--fault-seed=7"});
  const CliResult first = RunCli(args);
  const CliResult second = RunCli(args);
  EXPECT_EQ(first.code, 0) << first.err;
  EXPECT_EQ(first.out, second.out);
}

TEST(TopologyFlagsTest, FleetSizeOutOfRangeRejected) {
  ExpectOneLineError(RunCli({"--fleet=1"}), "--fleet expects a member count in [2, 4096]");
  ExpectOneLineError(RunCli({"--fleet=4097"}), "--fleet expects a member count in [2, 4096]");
  ExpectOneLineError(RunCli({"--fleet=0"}), "--fleet expects a member count in [2, 4096]");
}

TEST(TopologyFlagsTest, FleetAndHierarchyAreMutuallyExclusive) {
  ExpectOneLineError(RunCli({"--fleet=3", "--hierarchy"}), "mutually exclusive");
}

TEST(TopologyFlagsTest, MemberKnobsRequireFleet) {
  ExpectOneLineError(RunCli({"--fleet-crash=1:2h"}), "--fleet-crash requires --fleet=N");
  ExpectOneLineError(RunCli({"--hierarchy", "--fleet-jitter=0:90s"}),
                     "--fleet-jitter requires --fleet=N");
}

TEST(TopologyFlagsTest, TierKnobsRequireHierarchy) {
  ExpectOneLineError(RunCli({"--tier-loss-rate=l2:0.5"}),
                     "--tier-loss-rate requires --hierarchy");
  ExpectOneLineError(RunCli({"--fleet=3", "--tier-crash=l1a:2h"}),
                     "--tier-crash requires --hierarchy");
}

TEST(TopologyFlagsTest, MalformedMemberIndexRejected) {
  ExpectOneLineError(RunCli({"--fleet=3", "--fleet-crash=7:2h"}),
                     "member index '7' is not in [0, 3)");
  ExpectOneLineError(RunCli({"--fleet=3", "--fleet-crash=-1:2h"}),
                     "member index '-1' is not in [0, 3)");
  ExpectOneLineError(RunCli({"--fleet=3", "--fleet-loss-rate=abc:0.5"}),
                     "member index 'abc' is not in [0, 3)");
}

TEST(TopologyFlagsTest, UnknownTierLinkRejected) {
  ExpectOneLineError(RunCli({"--hierarchy", "--tier-crash=l9:2h"}),
                     "link 'l9' is not l2, l1a, or l1b");
  ExpectOneLineError(RunCli({"--hierarchy", "--tier-jitter=0:90s"}),
                     "link '0' is not l2, l1a, or l1b");
}

TEST(TopologyFlagsTest, MalformedEntriesRejected) {
  ExpectOneLineError(RunCli({"--fleet=3", "--fleet-crash=nocolon"}),
                     "entries look like TARGET:VALUE");
  ExpectOneLineError(RunCli({"--fleet=3", "--fleet-crash=1:"}),
                     "entries look like TARGET:VALUE");
  ExpectOneLineError(RunCli({"--fleet=3", "--fleet-crash=:2h"}),
                     "entries look like TARGET:VALUE");
  // A bad entry anywhere in the comma-separated list fails the whole flag.
  ExpectOneLineError(RunCli({"--fleet=3", "--fleet-crash=1:2h,bogus"}),
                     "entries look like TARGET:VALUE");
}

TEST(TopologyFlagsTest, MalformedDurationsRejected) {
  ExpectOneLineError(RunCli({"--fleet=3", "--fleet-crash=1:xyz"}), "expects a duration");
  ExpectOneLineError(RunCli({"--fleet=3", "--fleet-jitter=1:-5s"}), "expects a duration");
  ExpectOneLineError(RunCli({"--hierarchy", "--tier-crash=l2:2w"}), "expects a duration");
}

TEST(TopologyFlagsTest, LossRateOutOfRangeRejected) {
  ExpectOneLineError(RunCli({"--fleet=3", "--fleet-loss-rate=1:1.5"}), "must be in [0, 1]");
  ExpectOneLineError(RunCli({"--fleet=3", "--fleet-loss-rate=1:-0.1"}), "must be in [0, 1]");
  ExpectOneLineError(RunCli({"--hierarchy", "--tier-loss-rate=l2:nan"}), "must be in [0, 1]");
}

TEST(TopologyFlagsTest, TopologyModesRejectIncompatibleFlags) {
  ExpectOneLineError(RunCli({"--fleet=3", "--sweep=alex"}),
                     "--fleet cannot be combined with --sweep");
  ExpectOneLineError(RunCli({"--hierarchy", "--analyze"}),
                     "--hierarchy cannot be combined with --analyze");
  ExpectOneLineError(RunCli({"--fleet=3", "--capacity-bytes=1000"}),
                     "--fleet cannot be combined with --capacity-bytes");
}

// Unit-level coverage of the shared parser: webcc-chaos consumes the same
// flags through the same function, so what is validated here holds there.
TEST(TopologyFlagsTest, ParserAccumulatesSameLinkEntries) {
  ArgParser args({"--fleet=4", "--fleet-loss-rate=2:0.25", "--fleet-jitter=2:90s",
                  "--fleet-crash=2:1h,2:5h"});
  FaultConfig faults;
  CliTopologySelection topo;
  std::ostringstream err;
  ASSERT_TRUE(ParseTopologyFaultFlags(args, faults, topo, err)) << err.str();
  EXPECT_EQ(topo.mode, CliTopology::kFleet);
  EXPECT_EQ(topo.fleet_size, 4u);
  ASSERT_EQ(faults.link_overrides.size(), 1u);
  const LinkFaultOverride& over = faults.link_overrides[0];
  EXPECT_EQ(over.link, 2u);
  EXPECT_EQ(over.loss_rate.value_or(0.0), 0.25);
  EXPECT_EQ(over.jitter_max.value_or(SimDuration(0)), Seconds(90));
  ASSERT_EQ(over.crashes.size(), 2u);
  EXPECT_EQ(over.crashes[0].at, SimTime::Epoch() + Hours(1));
  EXPECT_EQ(over.crashes[1].at, SimTime::Epoch() + Hours(5));
}

TEST(TopologyFlagsTest, ParserMapsTierNamesToHierarchyLinks) {
  ArgParser args({"--hierarchy", "--tier-loss-rate=l2:0.1,l1a:0.2,l1b:0.3"});
  FaultConfig faults;
  CliTopologySelection topo;
  std::ostringstream err;
  ASSERT_TRUE(ParseTopologyFaultFlags(args, faults, topo, err)) << err.str();
  EXPECT_EQ(topo.mode, CliTopology::kHierarchy);
  ASSERT_EQ(faults.link_overrides.size(), 3u);
  for (uint32_t link = 0; link < 3; ++link) {
    const double expected = 0.1 * static_cast<double>(link + 1);
    EXPECT_NEAR(faults.link_overrides[link].loss_rate.value_or(-1.0), expected, 1e-12);
    EXPECT_EQ(faults.link_overrides[link].link, link);
  }
}

TEST(TopologyFlagsTest, ParserHonorsCrashOutage) {
  ArgParser args({"--fleet=2", "--fleet-crash=0:1h", "--crash-outage=30m"});
  FaultConfig faults;
  CliTopologySelection topo;
  std::ostringstream err;
  ASSERT_TRUE(ParseTopologyFaultFlags(args, faults, topo, err)) << err.str();
  ASSERT_EQ(faults.link_overrides.size(), 1u);
  ASSERT_EQ(faults.link_overrides[0].crashes.size(), 1u);
  EXPECT_EQ(faults.link_overrides[0].crashes[0].outage, Minutes(30));
}

TEST(TopologyFlagsTest, ParserIsNoOpWithoutTopologyFlags) {
  ArgParser args({"--policy=alex"});
  FaultConfig faults;
  CliTopologySelection topo;
  std::ostringstream err;
  ASSERT_TRUE(ParseTopologyFaultFlags(args, faults, topo, err)) << err.str();
  EXPECT_EQ(topo.mode, CliTopology::kSingle);
  EXPECT_TRUE(faults.link_overrides.empty());
  EXPECT_FALSE(faults.Enabled());
}

}  // namespace
}  // namespace webcc
