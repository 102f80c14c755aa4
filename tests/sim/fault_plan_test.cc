#include "src/sim/fault_plan.h"

#include <optional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace webcc {
namespace {

SimTime At(int64_t hours) { return SimTime::Epoch() + Hours(hours); }

TEST(FaultPlanTest, DowntimeWindowsMergedAndSorted) {
  FaultConfig config;
  config.server_downtime = {
      {At(10), At(12)},
      {At(1), At(3)},
      {At(2), At(5)},    // overlaps [1,3) -> merged into [1,5)
      {At(5), At(6)},    // touches [1,5) -> merged into [1,6)
      {At(20), At(20)},  // empty -> dropped
  };
  FaultPlan plan(config, At(100));
  const auto& windows = plan.server_downtime();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].start, At(1));
  EXPECT_EQ(windows[0].end, At(6));
  EXPECT_EQ(windows[1].start, At(10));
  EXPECT_EQ(windows[1].end, At(12));
  EXPECT_EQ(plan.TotalDowntimeSeconds(), Hours(7).seconds());
}

TEST(FaultPlanTest, ServerUpAndNextServerUp) {
  FaultConfig config;
  config.server_downtime = {{At(2), At(4)}};
  FaultPlan plan(config, At(100));
  EXPECT_TRUE(plan.ServerUp(At(1)));
  EXPECT_FALSE(plan.ServerUp(At(2)));   // half-open: down at start
  EXPECT_FALSE(plan.ServerUp(At(3)));
  EXPECT_TRUE(plan.ServerUp(At(4)));    // up again at end
  EXPECT_EQ(plan.NextServerUp(At(1)), At(1));
  EXPECT_EQ(plan.NextServerUp(At(3)), At(4));
}

TEST(FaultPlanTest, ZeroLossRateNeverLosesAndNeverDraws) {
  FaultConfig config;
  config.armed = true;  // armed but loss disabled
  FaultPlan plan(config, At(100));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(plan.LoseMessage());
  }
  EXPECT_EQ(plan.messages_lost(), 0u);
}

TEST(FaultPlanTest, CertainLossAlwaysLoses) {
  FaultConfig config;
  config.loss_rate = 1.0;
  FaultPlan plan(config, At(100));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(plan.LoseMessage());
  }
  EXPECT_EQ(plan.messages_lost(), 100u);
}

TEST(FaultPlanTest, LossSequenceIsSeedDeterministic) {
  FaultConfig config;
  config.loss_rate = 0.5;
  config.seed = 1234;
  FaultPlan a(config, At(100));
  FaultPlan b(config, At(100));
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(a.LoseMessage(), b.LoseMessage()) << "draw " << i;
  }
}

TEST(FaultPlanTest, GeneratedWindowsDeterministicAndBounded) {
  FaultConfig config;
  config.server_mtbf = Days(1);
  config.server_mttr = Hours(2);
  const SimTime horizon = At(24 * 30);
  FaultPlan a(config, horizon);
  FaultPlan b(config, horizon);
  ASSERT_FALSE(a.server_downtime().empty());
  ASSERT_EQ(a.server_downtime().size(), b.server_downtime().size());
  SimTime last_end = SimTime::Epoch();
  for (size_t i = 0; i < a.server_downtime().size(); ++i) {
    const DowntimeWindow& w = a.server_downtime()[i];
    EXPECT_EQ(w.start, b.server_downtime()[i].start);
    EXPECT_EQ(w.end, b.server_downtime()[i].end);
    EXPECT_GE(w.start, last_end);     // sorted, non-overlapping
    EXPECT_LT(w.start, w.end);        // non-empty
    EXPECT_LE(w.end, horizon);        // bounded by the horizon
    last_end = w.end;
  }
}

TEST(FaultPlanTest, BackoffIsCappedExponential) {
  RetryPolicy retry;
  retry.initial_backoff = Seconds(2);
  retry.backoff_multiplier = 2.0;
  retry.max_backoff = Minutes(2);
  EXPECT_EQ(retry.BackoffAfter(1), Seconds(2));
  EXPECT_EQ(retry.BackoffAfter(2), Seconds(4));
  EXPECT_EQ(retry.BackoffAfter(3), Seconds(8));
  EXPECT_EQ(retry.BackoffAfter(6), Seconds(64));
  EXPECT_EQ(retry.BackoffAfter(7), Minutes(2));   // 128s clipped to the cap
  EXPECT_EQ(retry.BackoffAfter(40), Minutes(2));  // no overflow past the cap
}

TEST(FaultPlanTest, JitterOffBackoffIsExactlyDeterministic) {
  FaultConfig config;
  config.retry.initial_backoff = Seconds(2);
  config.retry.backoff_multiplier = 2.0;
  config.retry.max_backoff = Minutes(2);
  ASSERT_FALSE(config.retry.full_jitter);  // the default keeps goldens stable
  FaultPlan plan(config, At(100));
  for (int failed = 1; failed <= 10; ++failed) {
    EXPECT_EQ(plan.Backoff(failed), config.retry.BackoffAfter(failed)) << failed;
  }
  // And the serialized plan carries no jitter key to re-arm on load.
  EXPECT_EQ(plan.SerializeToString().find("retry-full-jitter"), std::string::npos);
}

TEST(FaultPlanTest, FullJitterDrawsWithinTheDeterministicEnvelope) {
  FaultConfig config;
  config.seed = 4321;
  config.retry.full_jitter = true;
  config.retry.initial_backoff = Seconds(2);
  config.retry.backoff_multiplier = 2.0;
  config.retry.max_backoff = Minutes(2);
  FaultPlan plan(config, At(100));
  bool saw_below_envelope = false;
  for (int round = 0; round < 100; ++round) {
    for (int failed = 1; failed <= 5; ++failed) {
      const SimDuration drawn = plan.Backoff(failed);
      const SimDuration envelope = config.retry.BackoffAfter(failed);
      EXPECT_GE(drawn, SimDuration(0));
      EXPECT_LE(drawn, envelope);
      saw_below_envelope = saw_below_envelope || drawn < envelope;
    }
  }
  EXPECT_TRUE(saw_below_envelope);  // the jitter actually jitters
}

TEST(FaultPlanTest, FullJitterIsSeedReproducible) {
  FaultConfig config;
  config.seed = 777;
  config.retry.full_jitter = true;
  config.retry.initial_backoff = Seconds(2);
  config.retry.max_backoff = Minutes(2);
  FaultPlan a(config, At(100));
  FaultPlan b(config, At(100));
  for (int failed = 1; failed <= 64; ++failed) {
    EXPECT_EQ(a.Backoff(1 + failed % 5), b.Backoff(1 + failed % 5)) << failed;
  }
}

TEST(FaultPlanTest, FullJitterRoundTripsThroughSerialization) {
  FaultConfig config;
  config.armed = true;
  config.seed = 31337;
  config.retry.full_jitter = true;
  config.retry.max_attempts = 5;
  config.retry.initial_backoff = Seconds(2);
  const FaultPlan plan(config, At(100));
  const std::string text = plan.SerializeToString();
  EXPECT_NE(text.find("retry-full-jitter 1"), std::string::npos) << text;

  std::istringstream in(text);
  FaultPlanParseError error;
  const std::optional<FaultConfig> parsed = FaultPlan::Parse(in, &error);
  ASSERT_TRUE(parsed.has_value()) << error.line << ": " << error.message;
  EXPECT_TRUE(parsed->retry.full_jitter);
  // Fixed point, and the reloaded plan replays the identical jitter stream.
  FaultPlan reloaded(*parsed, At(100));
  EXPECT_EQ(reloaded.SerializeToString(), text);
  FaultPlan original(config, At(100));
  for (int failed = 1; failed <= 32; ++failed) {
    EXPECT_EQ(reloaded.Backoff(1 + failed % 4), original.Backoff(1 + failed % 4));
  }
}

TEST(FaultPlanTest, MalformedJitterKeyRejected) {
  std::istringstream in("#webcc-fault-plan v1\nretry-full-jitter 2\n");
  FaultPlanParseError error;
  EXPECT_FALSE(FaultPlan::Parse(in, &error).has_value());
  EXPECT_EQ(error.line, 2u);
}

TEST(FaultPlanTest, ExchangeSucceedsFirstTryOnCleanLink) {
  FaultConfig config;
  config.armed = true;
  FaultPlan plan(config, At(100));
  int fetches = 0;
  const ExchangeOutcome out =
      RunFaultedExchange(plan, At(1), [&](SimTime) { ++fetches; });
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.elapsed, SimDuration(0));
  EXPECT_EQ(fetches, 1);
}

TEST(FaultPlanTest, ExchangeExhaustsRetryBudgetOnDeadLink) {
  FaultConfig config;
  config.loss_rate = 1.0;
  config.retry.max_attempts = 4;
  config.retry.timeout = Seconds(4);
  config.retry.initial_backoff = Seconds(2);
  FaultPlan plan(config, At(1));
  int fetches = 0;
  const ExchangeOutcome out =
      RunFaultedExchange(plan, At(1), [&](SimTime) { ++fetches; });
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.attempts, 4);
  EXPECT_EQ(fetches, 0);  // no request ever reached the server
  // 4 timeouts plus backoff after the first three failures: 2 + 4 + 8.
  EXPECT_EQ(out.elapsed, Seconds(4 * 4 + 2 + 4 + 8));
}

TEST(FaultPlanTest, ExchangeFailsWithoutFetchDuringDowntime) {
  FaultConfig config;
  config.server_downtime = {{At(0), At(24)}};
  FaultPlan plan(config, At(100));
  int fetches = 0;
  const ExchangeOutcome out =
      RunFaultedExchange(plan, At(1), [&](SimTime) { ++fetches; });
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(fetches, 0);
  EXPECT_EQ(plan.messages_lost(), 0u);  // downtime is not message loss
}

TEST(FaultPlanTest, OverlappingCrashWindowsMergeIntoOneOutage) {
  FaultConfig config;
  config.cache_crashes = {
      {At(10), Hours(2)},   // restarts at 12
      {At(1), Hours(1)},    // restarts at 2
      {At(1) + Minutes(70), Minutes(5)},  // inside [1,2) -> outage ends at 2
      {At(2), Hours(1)},    // exactly at the restart: a separate crash
      {At(11), Hours(3)},   // inside [10,12) -> outage stretches to 14
  };
  FaultPlan plan(config, At(100));
  const auto& crashes = plan.cache_crashes();
  ASSERT_EQ(crashes.size(), 3u);
  EXPECT_EQ(crashes[0].at, At(1));
  EXPECT_EQ(crashes[0].outage, Hours(1));
  EXPECT_EQ(crashes[1].at, At(2));
  EXPECT_EQ(crashes[1].outage, Hours(1));
  EXPECT_EQ(crashes[2].at, At(10));
  EXPECT_EQ(crashes[2].outage, Hours(4));
  // The configured schedule itself is kept (sorted) for serialization.
  EXPECT_EQ(plan.config().cache_crashes.size(), 5u);
}

TEST(FaultPlanTest, EnabledReflectsKnobs) {
  FaultConfig config;
  EXPECT_FALSE(config.Enabled());
  config.armed = true;
  EXPECT_TRUE(config.Enabled());
  config.armed = false;
  config.loss_rate = 0.01;
  EXPECT_TRUE(config.Enabled());
  config.loss_rate = 0.0;
  config.cache_crashes.push_back({At(5), Minutes(10)});
  EXPECT_TRUE(config.Enabled());
}

TEST(FaultPlanTest, SerializeParseRoundTripsExactly) {
  FaultConfig config;
  config.armed = true;
  config.seed = 0xDEADBEEF;
  config.loss_rate = 0.0625;
  config.jitter_max = Minutes(5);
  config.retry.max_attempts = 6;
  config.retry.timeout = Seconds(3);
  config.retry.initial_backoff = Seconds(2);
  config.invalidation_retry_interval = Minutes(7);
  config.crash_recovery = CrashRecovery::kRevalidateAll;
  config.snapshot_crash_request = 123;
  config.server_downtime = {{At(3), At(5)}, {At(10), At(11)}};
  config.cache_crashes = {{At(7), Minutes(20)}};
  const FaultPlan plan(config, At(100));

  std::istringstream in(plan.SerializeToString());
  FaultPlanParseError error;
  const std::optional<FaultConfig> parsed = FaultPlan::Parse(in, &error);
  ASSERT_TRUE(parsed.has_value()) << error.line << ": " << error.message;
  // Reconstructing a plan from the parsed config reproduces the same text —
  // the fixed point that makes repro files stable across save/load cycles.
  const FaultPlan reloaded(*parsed, At(100));
  EXPECT_EQ(reloaded.SerializeToString(), plan.SerializeToString());
  EXPECT_EQ(parsed->seed, config.seed);
  EXPECT_EQ(parsed->loss_rate, config.loss_rate);
  EXPECT_EQ(parsed->snapshot_crash_request, 123);
  EXPECT_EQ(parsed->crash_recovery, CrashRecovery::kRevalidateAll);
  ASSERT_EQ(parsed->cache_crashes.size(), 1u);
  EXPECT_EQ(parsed->cache_crashes[0].outage, Minutes(20));
}

TEST(FaultPlanTest, GeneratedDowntimeSerializesMaterialized) {
  FaultConfig config;
  config.seed = 99;
  config.server_mtbf = Hours(6);
  config.server_mttr = Minutes(15);
  const FaultPlan plan(config, At(200));
  ASSERT_FALSE(plan.server_downtime().empty());

  std::istringstream in(plan.SerializeToString());
  const std::optional<FaultConfig> parsed = FaultPlan::Parse(in, nullptr);
  ASSERT_TRUE(parsed.has_value());
  // The exponential process is folded into explicit windows; no mtbf/mttr
  // keys survive to be re-rolled against a different horizon.
  EXPECT_EQ(parsed->server_mtbf, SimDuration(0));
  EXPECT_EQ(parsed->server_mttr, SimDuration(0));
  const FaultPlan reloaded(*parsed, At(50));  // deliberately different horizon
  ASSERT_EQ(reloaded.server_downtime().size(), plan.server_downtime().size());
  for (size_t i = 0; i < plan.server_downtime().size(); ++i) {
    EXPECT_EQ(reloaded.server_downtime()[i].start, plan.server_downtime()[i].start) << i;
    EXPECT_EQ(reloaded.server_downtime()[i].end, plan.server_downtime()[i].end) << i;
  }
}

TEST(FaultPlanTest, EnabledIncludesLinkOverrides) {
  FaultConfig config;
  EXPECT_FALSE(config.Enabled());
  LinkFaultOverride over;
  over.link = 1;
  config.link_overrides.push_back(over);
  // Even an all-unset override must arm the topology simulators' faulted
  // paths — the override list is what ForLink folds in.
  EXPECT_TRUE(config.Enabled());
}

TEST(FaultPlanTest, ForLinkForksIndependentDeterministicSeeds) {
  FaultConfig base;
  base.loss_rate = 0.5;
  base.seed = 42;
  const FaultConfig link0 = base.ForLink(0);
  const FaultConfig link1 = base.ForLink(1);
  EXPECT_EQ(link0.seed, base.ForLink(0).seed);  // pure
  EXPECT_NE(link0.seed, link1.seed);            // independent substreams
  EXPECT_NE(link0.seed, base.seed);             // never the raw campaign seed

  // Sibling links draw unrelated loss sequences from the one base seed.
  FaultPlan a(link0, At(100));
  FaultPlan b(link1, At(100));
  bool diverged = false;
  for (int i = 0; i < 256 && !diverged; ++i) {
    diverged = a.LoseMessage() != b.LoseMessage();
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultPlanTest, ForLinkScalarOverridesReplaceAndSchedulesAppend) {
  FaultConfig base;
  base.loss_rate = 0.1;
  base.jitter_max = Seconds(30);
  base.server_downtime = {{At(1), At(2)}};
  base.cache_crashes = {{At(3), Minutes(10)}};
  base.crash_recovery = CrashRecovery::kTrustSnapshot;

  LinkFaultOverride over;
  over.link = 2;
  over.loss_rate = 0.5;
  over.jitter_max = Minutes(2);
  over.downtime = {{At(10), At(11)}};
  over.crashes = {{At(12), Minutes(5)}};
  over.recovery = CrashRecovery::kColdStart;
  over.snapshot_crash_request = 77;
  base.link_overrides.push_back(over);

  const FaultConfig derived = base.ForLink(2);
  EXPECT_EQ(derived.loss_rate, 0.5);
  EXPECT_EQ(derived.jitter_max, Minutes(2));
  ASSERT_EQ(derived.server_downtime.size(), 2u);  // base window + link partition
  EXPECT_EQ(derived.server_downtime[1].start, At(10));
  ASSERT_EQ(derived.cache_crashes.size(), 2u);
  EXPECT_EQ(derived.cache_crashes[1].at, At(12));
  EXPECT_EQ(derived.crash_recovery, CrashRecovery::kColdStart);
  EXPECT_EQ(derived.snapshot_crash_request, 77);
  EXPECT_TRUE(derived.link_overrides.empty());  // derived configs are flat

  // Untargeted links inherit the base knobs untouched (seed aside).
  const FaultConfig other = base.ForLink(1);
  EXPECT_EQ(other.loss_rate, 0.1);
  EXPECT_EQ(other.jitter_max, Seconds(30));
  EXPECT_EQ(other.server_downtime.size(), 1u);
  EXPECT_EQ(other.cache_crashes.size(), 1u);
  EXPECT_EQ(other.crash_recovery, CrashRecovery::kTrustSnapshot);
  EXPECT_EQ(other.snapshot_crash_request, -1);
}

TEST(FaultPlanTest, V2RoundTripsLinkOverridesExactly) {
  FaultConfig config;
  config.armed = true;
  config.seed = 7;
  config.loss_rate = 0.25;
  LinkFaultOverride a;
  a.link = 0;
  a.loss_rate = 0.75;
  a.snapshot_crash_request = 42;
  LinkFaultOverride b;
  b.link = 3;
  b.jitter_max = Minutes(1);
  b.downtime = {{At(4), At(6)}};
  b.crashes = {{At(8), Minutes(15)}};
  b.recovery = CrashRecovery::kRevalidateAll;
  config.link_overrides = {a, b};

  const FaultPlan plan(config, At(100));
  const std::string text = plan.SerializeToString();
  EXPECT_EQ(text.rfind("#webcc-fault-plan v2", 0), 0u) << text;

  std::istringstream in(text);
  FaultPlanParseError error;
  const std::optional<FaultConfig> parsed = FaultPlan::Parse(in, &error);
  ASSERT_TRUE(parsed.has_value()) << error.line << ": " << error.message;
  // Fixed point: reconstructing and re-serializing reproduces the text.
  EXPECT_EQ(FaultPlan(*parsed, At(100)).SerializeToString(), text);
  ASSERT_EQ(parsed->link_overrides.size(), 2u);
  EXPECT_EQ(parsed->link_overrides[0].link, 0u);
  EXPECT_EQ(parsed->link_overrides[0].loss_rate, 0.75);
  ASSERT_TRUE(parsed->link_overrides[0].snapshot_crash_request.has_value());
  EXPECT_EQ(*parsed->link_overrides[0].snapshot_crash_request, 42);
  EXPECT_FALSE(parsed->link_overrides[0].jitter_max.has_value());
  EXPECT_EQ(parsed->link_overrides[1].link, 3u);
  EXPECT_EQ(parsed->link_overrides[1].jitter_max, Minutes(1));
  ASSERT_EQ(parsed->link_overrides[1].downtime.size(), 1u);
  EXPECT_EQ(parsed->link_overrides[1].downtime[0].end, At(6));
  ASSERT_EQ(parsed->link_overrides[1].crashes.size(), 1u);
  EXPECT_EQ(parsed->link_overrides[1].recovery, CrashRecovery::kRevalidateAll);
}

TEST(FaultPlanTest, SerializationStaysV1WithoutOverrides) {
  FaultConfig config;
  config.loss_rate = 0.125;
  config.server_downtime = {{At(1), At(2)}};
  const std::string text = FaultPlan(config, At(100)).SerializeToString();
  EXPECT_EQ(text.rfind("#webcc-fault-plan v1", 0), 0u) << text;
  EXPECT_EQ(text.find("link "), std::string::npos) << text;
  EXPECT_EQ(text.find("server-mtbf"), std::string::npos) << text;
}

TEST(FaultPlanTest, V2KeepsGeneratorKnobsAndRederivesPerLinkWindows) {
  FaultConfig config;
  config.seed = 11;
  config.server_mtbf = Hours(8);
  config.server_mttr = Minutes(30);
  LinkFaultOverride over;
  over.link = 1;
  over.loss_rate = 0.5;
  config.link_overrides.push_back(over);

  const SimTime horizon = At(24 * 14);
  std::istringstream in(FaultPlan(config, horizon).SerializeToString());
  FaultPlanParseError error;
  const std::optional<FaultConfig> parsed = FaultPlan::Parse(in, &error);
  ASSERT_TRUE(parsed.has_value()) << error.line << ": " << error.message;
  // v2 keeps the exponential process: per-link windows cannot be
  // materialized into one shared list, they re-derive from forked seeds.
  EXPECT_EQ(parsed->server_mtbf, Hours(8));
  EXPECT_EQ(parsed->server_mttr, Minutes(30));

  for (uint32_t link = 0; link < 3; ++link) {
    const FaultPlan original(config.ForLink(link), horizon);
    const FaultPlan reloaded(parsed->ForLink(link), horizon);
    ASSERT_EQ(reloaded.server_downtime().size(), original.server_downtime().size()) << link;
    for (size_t i = 0; i < original.server_downtime().size(); ++i) {
      EXPECT_EQ(reloaded.server_downtime()[i].start, original.server_downtime()[i].start);
      EXPECT_EQ(reloaded.server_downtime()[i].end, original.server_downtime()[i].end);
    }
  }
}

TEST(FaultPlanTest, LinkKeysRequireV2Header) {
  const auto expect_reject = [](const std::string& text, size_t expect_line) {
    std::istringstream in(text);
    FaultPlanParseError error;
    EXPECT_FALSE(FaultPlan::Parse(in, &error).has_value()) << text;
    EXPECT_EQ(error.line, expect_line) << error.message;
  };
  // v2-only keys under the v1 header are rejected, line-numbered.
  expect_reject("#webcc-fault-plan v1\nlink 0 loss-rate 0.5\n", 2);
  expect_reject("#webcc-fault-plan v1\nseed 1\nserver-mtbf-seconds 60\n", 3);
  expect_reject("#webcc-fault-plan v1\nserver-mttr-seconds 60\n", 2);
  // Malformed link lines under v2: bad sub-key, bad values, bad index.
  expect_reject("#webcc-fault-plan v2\nlink 0 mystery 1\n", 2);
  expect_reject("#webcc-fault-plan v2\nlink 0 loss-rate 1.5\n", 2);
  expect_reject("#webcc-fault-plan v2\nlink 0 downtime 5 5\n", 2);
  expect_reject("#webcc-fault-plan v2\nlink 0 crash 5 0\n", 2);
  expect_reject("#webcc-fault-plan v2\nlink 9999999 loss-rate 0.5\n", 2);
  expect_reject("#webcc-fault-plan v2\nlink 0 recovery sideways\n", 2);
}

TEST(FaultPlanTest, ParseIsAllOrNothingWithLineNumbers) {
  const auto expect_reject = [](const std::string& text, size_t expect_line) {
    std::istringstream in(text);
    FaultPlanParseError error;
    EXPECT_FALSE(FaultPlan::Parse(in, &error).has_value()) << text;
    EXPECT_EQ(error.line, expect_line) << error.message;
  };
  expect_reject("not a fault plan\n", 1);
  expect_reject("", 0);
  expect_reject("#webcc-fault-plan v1\nmystery 1\n", 2);
  expect_reject("#webcc-fault-plan v1\nloss-rate 1.5\n", 2);
  expect_reject("#webcc-fault-plan v1\nseed 1\ndowntime 5\n", 3);
  expect_reject("#webcc-fault-plan v1\ncrash 10 0\n", 2);
  expect_reject("#webcc-fault-plan v1\nrecovery sideways\n", 2);
}

}  // namespace
}  // namespace webcc
