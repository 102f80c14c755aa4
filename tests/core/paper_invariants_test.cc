// Integration tests asserting the PAPER'S qualitative results — the shapes
// of Figures 2–8 — on reduced-size workloads. These are the contract the
// bench binaries then reproduce at full scale.

#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/core/simulation.h"
#include "src/workload/campus.h"
#include "src/workload/trace.h"
#include "src/workload/worrell.h"

namespace webcc {
namespace {

// Scaled-down Worrell workload (same change rate, fewer files/requests).
const Workload& SyntheticLoad() {
  static const Workload load = [] {
    WorrellConfig config;
    config.num_files = 300;
    config.duration = Days(28);
    config.requests_per_second = 0.08;
    config.seed = 2024;
    return GenerateWorrellWorkload(config);
  }();
  return load;
}

// Trace-driven workload compiled from a generated HCS trace — the full
// trace path, exactly as the paper's modified-workload simulator ran.
const Workload& TraceLoad() {
  static const Workload load = [] {
    const auto result = GenerateCampusWorkload(CampusServerProfile::Hcs());
    return CompileTrace(result.trace);
  }();
  return load;
}

double TotalMB(const SimulationResult& r) { return r.metrics.TotalMB(); }

// ---------- Base simulator (Figures 2 and 3) ----------

TEST(BaseSimulatorShape, InvalidationBeatsTimeBasedAtModerateParameters) {
  // Figure 2: "The invalidation protocol is superior to both TTL and Alex
  // until the update threshold or TTL is quite large."
  const auto& load = SyntheticLoad();
  const auto inval = RunInvalidation(load, SimulationConfig::Base(PolicyConfig::Invalidation()));
  const auto ttl48 = RunSimulation(load, SimulationConfig::Base(PolicyConfig::Ttl(Hours(48))));
  const auto alex20 = RunSimulation(load, SimulationConfig::Base(PolicyConfig::Alex(0.20)));
  EXPECT_LT(TotalMB(inval), TotalMB(ttl48));
  EXPECT_LT(TotalMB(inval), TotalMB(alex20));
}

TEST(BaseSimulatorShape, BandwidthDecreasesWithTtl) {
  const auto& load = SyntheticLoad();
  const auto config = SimulationConfig::Base(PolicyConfig::Ttl(Hours(1)));
  const auto series = SweepTtlHours(load, config, {25, 100, 250, 500});
  for (size_t i = 1; i < series.points.size(); ++i) {
    EXPECT_LT(series.points[i].result.metrics.total_bytes,
              series.points[i - 1].result.metrics.total_bytes)
        << "TTL " << series.points[i].param;
  }
}

TEST(BaseSimulatorShape, StaleRateIncreasesWithTtl) {
  // Figure 3: bandwidth savings buy stale hits.
  const auto& load = SyntheticLoad();
  const auto config = SimulationConfig::Base(PolicyConfig::Ttl(Hours(1)));
  const auto series = SweepTtlHours(load, config, {25, 100, 250, 500});
  for (size_t i = 1; i < series.points.size(); ++i) {
    EXPECT_GT(series.points[i].result.metrics.StaleRate(),
              series.points[i - 1].result.metrics.StaleRate());
  }
  // And the rates are substantial under Worrell's churn (tens of percent).
  EXPECT_GT(series.points.back().result.metrics.StaleRate(), 0.15);
}

TEST(BaseSimulatorShape, StaleRateIncreasesWithAlexThreshold) {
  const auto& load = SyntheticLoad();
  const auto config = SimulationConfig::Base(PolicyConfig::Alex(0));
  const auto series = SweepAlexThreshold(load, config, {10, 40, 80});
  EXPECT_LT(series.points[0].result.metrics.StaleRate(),
            series.points[1].result.metrics.StaleRate());
  EXPECT_LT(series.points[1].result.metrics.StaleRate(),
            series.points[2].result.metrics.StaleRate());
}

TEST(BaseSimulatorShape, AlexNeedsMoreBandwidthThanTtlAtMatchedStale) {
  // §4.0's surprise: "for a specified acceptable stale hit rate, TTL
  // provides greater bandwidth savings" under the base workload. Sweep TTL,
  // pick the point whose stale rate best matches Alex@40%, and compare
  // bandwidths there.
  const auto& load = SyntheticLoad();
  const auto alex =
      SweepAlexThreshold(load, SimulationConfig::Base(PolicyConfig::Alex(0)), {40});
  const double alex_stale = alex.points[0].result.metrics.StaleRate();

  const auto ttl = SweepTtlHours(load, SimulationConfig::Base(PolicyConfig::Ttl(Hours(1))),
                                 {25, 50, 75, 100, 125, 150, 200, 300});
  const SweepPoint* best = &ttl.points[0];
  for (const SweepPoint& point : ttl.points) {
    if (std::abs(point.result.metrics.StaleRate() - alex_stale) <
        std::abs(best->result.metrics.StaleRate() - alex_stale)) {
      best = &point;
    }
  }
  EXPECT_NEAR(best->result.metrics.StaleRate(), alex_stale, 0.05);  // matched regime
  EXPECT_GT(alex.points[0].result.metrics.total_bytes, best->result.metrics.total_bytes)
      << "matched TTL = " << best->param << "h";
}

TEST(BaseSimulatorShape, InvalidationConstantAcrossParameters) {
  const auto& load = SyntheticLoad();
  const auto a = RunInvalidation(load, SimulationConfig::Base(PolicyConfig::Ttl(Hours(10))));
  const auto b = RunInvalidation(load, SimulationConfig::Base(PolicyConfig::Alex(0.9)));
  EXPECT_EQ(a.metrics.total_bytes, b.metrics.total_bytes);
}

TEST(BaseSimulatorShape, BaseMissRatesHighForTimeBased) {
  // Figure 3: in the base simulator every expiry-triggered request is a full
  // transfer, so time-based miss rates are far from invalidation's.
  const auto& load = SyntheticLoad();
  const auto inval = RunInvalidation(load, SimulationConfig::Base(PolicyConfig::Invalidation()));
  const auto ttl = RunSimulation(load, SimulationConfig::Base(PolicyConfig::Ttl(Hours(50))));
  EXPECT_GT(ttl.metrics.MissRate(), 2.0 * inval.metrics.MissRate());
}

// ---------- Optimized simulator (Figures 4 and 5) ----------

TEST(OptimizedSimulatorShape, TimeBasedBeatsInvalidationNearlyEverywhere) {
  // Figure 4: "With this optimization, both TTL and Alex use less bandwidth
  // than the Invalidation Protocol in nearly all cases." TTL clears the bar
  // across the sweep; Alex clears it once its windows are long enough that
  // query traffic stops dominating (small thresholds sit within a modest
  // factor — invisible on the paper's log scale).
  const auto& load = SyntheticLoad();
  const auto inval =
      RunInvalidation(load, SimulationConfig::Optimized(PolicyConfig::Invalidation()));
  for (double hours : {50.0, 125.0, 250.0, 500.0}) {
    const auto ttl =
        RunSimulation(load, SimulationConfig::Optimized(PolicyConfig::Ttl(HoursF(hours))));
    EXPECT_LT(ttl.metrics.total_bytes, inval.metrics.total_bytes) << "ttl " << hours;
  }
  for (double pct : {50.0, 80.0, 100.0}) {
    const auto alex =
        RunSimulation(load, SimulationConfig::Optimized(PolicyConfig::Alex(pct / 100.0)));
    EXPECT_LT(alex.metrics.total_bytes, inval.metrics.total_bytes) << "alex " << pct;
  }
  const auto alex20 = RunSimulation(load, SimulationConfig::Optimized(PolicyConfig::Alex(0.20)));
  EXPECT_LT(static_cast<double>(alex20.metrics.total_bytes),
            1.25 * static_cast<double>(inval.metrics.total_bytes));
}

TEST(OptimizedSimulatorShape, Ttl100hSavesVsInvalidation) {
  // Figure 4's worked reference point: a 100 h TTL saves a meaningful slice
  // of the invalidation protocol's bandwidth (paper: ~32%; our calibration
  // lands double digits).
  const auto& load = SyntheticLoad();
  const auto inval =
      RunInvalidation(load, SimulationConfig::Optimized(PolicyConfig::Invalidation()));
  const auto ttl = RunSimulation(load, SimulationConfig::Optimized(PolicyConfig::Ttl(Hours(100))));
  const double saving = 1.0 - static_cast<double>(ttl.metrics.total_bytes) /
                                  static_cast<double>(inval.metrics.total_bytes);
  EXPECT_GT(saving, 0.10);
  EXPECT_LT(saving, 0.60);
}

TEST(OptimizedSimulatorShape, NeverTransmitsMoreFileBytesThanInvalidation) {
  // §4.1: "neither Alex nor TTL will ever transmit more file information
  // than the invalidation protocol."
  const auto& load = SyntheticLoad();
  const auto inval =
      RunInvalidation(load, SimulationConfig::Optimized(PolicyConfig::Invalidation()));
  for (double pct : {0.0, 10.0, 50.0, 100.0}) {
    const auto alex =
        RunSimulation(load, SimulationConfig::Optimized(PolicyConfig::Alex(pct / 100.0)));
    EXPECT_LE(alex.metrics.payload_bytes, inval.metrics.payload_bytes) << pct;
  }
  for (double hours : {1.0, 100.0, 500.0}) {
    const auto ttl =
        RunSimulation(load, SimulationConfig::Optimized(PolicyConfig::Ttl(HoursF(hours))));
    EXPECT_LE(ttl.metrics.payload_bytes, inval.metrics.payload_bytes) << hours;
  }
}

TEST(OptimizedSimulatorShape, MissRatesNearPerfect) {
  // Figure 5: with invalid copies left in place, all three protocols show
  // miss rates indistinguishable from invalidation's.
  const auto& load = SyntheticLoad();
  const auto inval =
      RunInvalidation(load, SimulationConfig::Optimized(PolicyConfig::Invalidation()));
  const auto ttl = RunSimulation(load, SimulationConfig::Optimized(PolicyConfig::Ttl(Hours(50))));
  const auto alex = RunSimulation(load, SimulationConfig::Optimized(PolicyConfig::Alex(0.2)));
  EXPECT_NEAR(ttl.metrics.MissRate(), inval.metrics.MissRate(), 0.01);
  EXPECT_NEAR(alex.metrics.MissRate(), inval.metrics.MissRate(), 0.01);
}

TEST(OptimizedSimulatorShape, StaleRatesUnchangedFromBase) {
  // Figure 5's caveat: "the stale hit rate remains unacceptably high" — the
  // optimization changes bytes, not staleness.
  const auto& load = SyntheticLoad();
  const auto base = RunSimulation(load, SimulationConfig::Base(PolicyConfig::Ttl(Hours(100))));
  const auto optimized =
      RunSimulation(load, SimulationConfig::Optimized(PolicyConfig::Ttl(Hours(100))));
  EXPECT_NEAR(base.metrics.StaleRate(), optimized.metrics.StaleRate(), 0.02);
  EXPECT_GT(optimized.metrics.StaleRate(), 0.05);
}

TEST(OptimizedSimulatorShape, OptimizedNeverCostsMoreThanBase) {
  const auto& load = SyntheticLoad();
  for (double pct : {10.0, 50.0, 90.0}) {
    const auto base =
        RunSimulation(load, SimulationConfig::Base(PolicyConfig::Alex(pct / 100.0)));
    const auto optimized =
        RunSimulation(load, SimulationConfig::Optimized(PolicyConfig::Alex(pct / 100.0)));
    EXPECT_LE(optimized.metrics.total_bytes, base.metrics.total_bytes) << pct;
  }
}

// ---------- Trace-driven simulator (Figures 6, 7, 8) ----------

TEST(TraceSimulatorShape, WeaklyConsistentBeatsInvalidationOnTraces) {
  // Figure 6: with trace workloads both Alex and TTL use less bandwidth
  // than invalidation for nearly all parameter settings.
  const auto& load = TraceLoad();
  const auto inval =
      RunInvalidation(load, SimulationConfig::TraceDriven(PolicyConfig::Invalidation()));
  for (double pct : {15.0, 25.0, 50.0, 100.0}) {
    const auto alex =
        RunSimulation(load, SimulationConfig::TraceDriven(PolicyConfig::Alex(pct / 100.0)));
    EXPECT_LT(alex.metrics.total_bytes, inval.metrics.total_bytes) << "alex " << pct;
  }
  for (double hours : {100.0, 250.0, 500.0}) {
    const auto ttl =
        RunSimulation(load, SimulationConfig::TraceDriven(PolicyConfig::Ttl(HoursF(hours))));
    EXPECT_LT(ttl.metrics.total_bytes, inval.metrics.total_bytes) << "ttl " << hours;
  }
}

TEST(TraceSimulatorShape, StaleRateUnderFivePercent) {
  // Figure 7 / §6: tunable to "a stale rate of less than 5%"; §4.2: "an
  // update threshold as low as 5% returns stale data less than 1% of the
  // time."
  const auto& load = TraceLoad();
  const auto alex5 = RunSimulation(load, SimulationConfig::TraceDriven(PolicyConfig::Alex(0.05)));
  EXPECT_LT(alex5.metrics.StaleRate(), 0.01);
  for (double pct : {10.0, 25.0, 50.0}) {
    const auto alex =
        RunSimulation(load, SimulationConfig::TraceDriven(PolicyConfig::Alex(pct / 100.0)));
    EXPECT_LT(alex.metrics.StaleRate(), 0.05) << pct;
  }
}

TEST(TraceSimulatorShape, MissRatesTiny) {
  // Figure 7: miss rates for all three protocols under 0.04%... at trace
  // scale; for our smaller synthetic trace allow an order more headroom but
  // require near-equality with invalidation.
  const auto& load = TraceLoad();
  const auto inval =
      RunInvalidation(load, SimulationConfig::TraceDriven(PolicyConfig::Invalidation()));
  const auto alex = RunSimulation(load, SimulationConfig::TraceDriven(PolicyConfig::Alex(0.1)));
  const auto ttl =
      RunSimulation(load, SimulationConfig::TraceDriven(PolicyConfig::Ttl(Hours(250))));
  EXPECT_NEAR(alex.metrics.MissRate(), inval.metrics.MissRate(), 0.005);
  EXPECT_NEAR(ttl.metrics.MissRate(), inval.metrics.MissRate(), 0.005);
}

TEST(TraceSimulatorShape, InvalidationAlwaysPerfectlyConsistent) {
  for (const auto* load : {&SyntheticLoad(), &TraceLoad()}) {
    for (const auto mode : {RefreshMode::kFullRefetch, RefreshMode::kConditionalGet}) {
      SimulationConfig config;
      config.policy = PolicyConfig::Invalidation();
      config.refresh_mode = mode;
      config.preload = true;
      EXPECT_EQ(RunSimulation(*load, config).metrics.stale_hits, 0u);
    }
  }
}

TEST(ServerLoadShape, AlexLoadDecreasesWithThreshold) {
  // Figure 8a: parameterization is critical; ops fall steeply as the
  // threshold rises.
  const auto& load = TraceLoad();
  const auto series = SweepAlexThreshold(
      load, SimulationConfig::TraceDriven(PolicyConfig::Alex(0)), {0, 5, 20, 64});
  for (size_t i = 1; i < series.points.size(); ++i) {
    EXPECT_LT(series.points[i].result.metrics.server_operations,
              series.points[i - 1].result.metrics.server_operations);
  }
}

TEST(ServerLoadShape, ThresholdZeroIsOrdersOfMagnitudeWorse) {
  // Figure 8a: threshold 0 "creates nearly two orders of magnitude more
  // server queries" than necessary.
  const auto& load = TraceLoad();
  const auto zero = RunSimulation(load, SimulationConfig::TraceDriven(PolicyConfig::Alex(0.0)));
  const auto inval =
      RunInvalidation(load, SimulationConfig::TraceDriven(PolicyConfig::Invalidation()));
  EXPECT_GT(zero.metrics.server_operations, 20 * inval.metrics.server_operations);
}

TEST(ServerLoadShape, AlexImposesLessLoadThanTtlAtMatchedStale) {
  // Figure 8 caption: "Alex imposes less load on the server than TTL" —
  // compare at parameter settings with matched stale rates: sweep TTL and
  // pick the point whose stale rate is closest to (but no better than)
  // Alex@25%'s, then Alex must need fewer server operations.
  const auto& load = TraceLoad();
  const auto alex = RunSimulation(load, SimulationConfig::TraceDriven(PolicyConfig::Alex(0.25)));
  const double alex_stale = alex.metrics.StaleRate();
  EXPECT_LE(alex_stale, 0.05);

  const auto ttl = SweepTtlHours(load, SimulationConfig::TraceDriven(PolicyConfig::Ttl(Hours(1))),
                                 {25, 50, 75, 100, 150, 200, 300, 400, 500});
  const SweepPoint* matched = nullptr;
  for (const SweepPoint& point : ttl.points) {
    // The cheapest TTL that is still at least as consistent as Alex.
    if (point.result.metrics.StaleRate() <= alex_stale) {
      matched = &point;
    }
  }
  ASSERT_NE(matched, nullptr);
  EXPECT_LT(alex.metrics.server_operations, matched->result.metrics.server_operations)
      << "matched TTL = " << matched->param << "h";
}

TEST(ServerLoadShape, AlexCrossoverWithInvalidationExists) {
  // Figure 8a: Alex matches the invalidation protocol's server load at a
  // sufficiently high threshold (paper: ≈64%) while staying clearly above
  // it at tiny thresholds.
  const auto& load = TraceLoad();
  const auto inval =
      RunInvalidation(load, SimulationConfig::TraceDriven(PolicyConfig::Invalidation()));
  const auto low = RunSimulation(load, SimulationConfig::TraceDriven(PolicyConfig::Alex(0.02)));
  EXPECT_GT(low.metrics.server_operations, inval.metrics.server_operations);
  const auto high = RunSimulation(load, SimulationConfig::TraceDriven(PolicyConfig::Alex(2.0)));
  // At a generous threshold the load approaches/falls below invalidation's.
  EXPECT_LE(high.metrics.server_operations, inval.metrics.server_operations * 3 / 2);
}

// ---------- Metamorphic properties ----------

TEST(MetamorphicTest, ScalingSizesScalesPayloadOnly) {
  WorrellConfig config;
  config.num_files = 100;
  config.duration = Days(7);
  config.requests_per_second = 0.05;
  config.seed = 31337;
  Workload load = GenerateWorrellWorkload(config);
  const auto before =
      RunSimulation(load, SimulationConfig::Optimized(PolicyConfig::Ttl(Hours(24))));
  for (auto& spec : load.objects) {
    spec.size_bytes *= 2;
  }
  for (auto& m : load.modifications) {
    if (m.new_size >= 0) {
      m.new_size *= 2;
    }
  }
  const auto after =
      RunSimulation(load, SimulationConfig::Optimized(PolicyConfig::Ttl(Hours(24))));
  EXPECT_EQ(after.metrics.payload_bytes, 2 * before.metrics.payload_bytes);
  EXPECT_EQ(after.metrics.control_bytes, before.metrics.control_bytes);
  EXPECT_EQ(after.metrics.stale_hits, before.metrics.stale_hits);
}

TEST(MetamorphicTest, MoreRequestsNeverReduceServerOps) {
  WorrellConfig config;
  config.num_files = 100;
  config.duration = Days(7);
  config.requests_per_second = 0.02;
  config.seed = 41;
  const Workload sparse = GenerateWorrellWorkload(config);
  config.requests_per_second = 0.08;
  const Workload dense = GenerateWorrellWorkload(config);
  const PolicyConfig policies[] = {PolicyConfig::Ttl(Hours(24)), PolicyConfig::Alex(0.1),
                                   PolicyConfig::Invalidation()};
  for (const PolicyConfig& policy : policies) {
    const auto a = RunSimulation(sparse, SimulationConfig::Optimized(policy));
    const auto b = RunSimulation(dense, SimulationConfig::Optimized(policy));
    EXPECT_GE(b.metrics.server_operations, a.metrics.server_operations);
  }
}

// Parameterized cross-protocol sanity over the whole grid.
struct GridParam {
  double threshold_pct;
  bool base_mode;
};

// Names the grid point: gtest's default byte dump would put the struct's
// uninitialized padding into every ctest name.
void PrintTo(const GridParam& param, std::ostream* os) {
  *os << "alex" << param.threshold_pct << (param.base_mode ? "-base" : "-optimized");
}

class ProtocolGridTest : public ::testing::TestWithParam<GridParam> {};

TEST_P(ProtocolGridTest, AccountingIdentitiesHold) {
  const auto [pct, base_mode] = GetParam();
  SimulationConfig config = base_mode
                                ? SimulationConfig::Base(PolicyConfig::Alex(pct / 100.0))
                                : SimulationConfig::Optimized(PolicyConfig::Alex(pct / 100.0));
  const auto result = RunSimulation(SyntheticLoad(), config);
  const auto& c = result.cache;
  // Request conservation.
  EXPECT_EQ(c.requests, c.hits_fresh + c.hits_validated + c.misses_cold + c.misses_refetched);
  // Stale hits can only be fresh hits.
  EXPECT_LE(c.stale_hits, c.hits_fresh);
  // The two ends of the link agree byte for byte.
  EXPECT_EQ(c.LinkBytes(), result.server.TotalBytes());
  // Every body the server shipped was either a miss at the cache or a
  // preload (none here after stats reset).
  EXPECT_EQ(result.server.files_transferred, c.Misses());
  // Control/payload decomposition is exact.
  EXPECT_EQ(result.metrics.control_bytes + result.metrics.payload_bytes,
            result.metrics.total_bytes);
  EXPECT_GE(result.metrics.payload_bytes, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolGridTest,
    ::testing::Values(GridParam{0, false}, GridParam{5, false}, GridParam{20, false},
                      GridParam{64, false}, GridParam{100, false}, GridParam{0, true},
                      GridParam{20, true}, GridParam{100, true}));

}  // namespace
}  // namespace webcc
