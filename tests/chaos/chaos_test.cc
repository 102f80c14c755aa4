#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/cache/policy_factory.h"
#include "src/chaos/campaign.h"
#include "src/chaos/generator.h"
#include "src/chaos/oracle.h"
#include "src/chaos/shrinker.h"
#include "src/core/simulation.h"
#include "src/workload/registry.h"
#include "tests/chaos/broken_policy.h"

namespace webcc {
namespace {

// --- Property: the oracle accepts the simulator as-is ---------------------

TEST(ChaosOracleTest, AcceptsFaultFreeTrialsAcross200Seeds) {
  // Trial index 0 is always a clean (fault-free or zero-knob) trial; 200
  // distinct campaign seeds give 200 distinct fault-free worlds. Any throw
  // here is a real consistency bug, not a flake — trials are deterministic.
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const TrialSpec spec = GenerateTrial(seed, 0);
    ASSERT_EQ(spec.kind, TrialKind::kClean);
    EXPECT_NO_THROW(RunTrialChecked(spec)) << spec.Describe();
  }
}

TEST(ChaosOracleTest, AcceptsGeneratedTrialsOfEveryKind) {
  // A contiguous index range cycles clean / crash-consistency / chaos kinds.
  for (uint64_t index = 0; index < 48; ++index) {
    const TrialSpec spec = GenerateTrial(0xFEED, index);
    EXPECT_NO_THROW(RunTrialChecked(spec)) << spec.Describe();
  }
}

TEST(ChaosGeneratorTest, TrialsArePureFunctionsOfSeedAndIndex) {
  for (uint64_t index : {0ull, 1ull, 2ull, 7ull}) {
    EXPECT_EQ(GenerateTrial(42, index).Describe(), GenerateTrial(42, index).Describe());
  }
  EXPECT_NE(GenerateTrial(42, 2).Describe(), GenerateTrial(43, 2).Describe());
}

// --- Workload sources: campus and trace-replay shapes ---------------------

TEST(ChaosGeneratorTest, CampaignPrefixCoversEveryWorkloadSourceAndShape) {
  // A 200-trial prefix of a fixed-seed campaign must draw from all three
  // sources and hit every campus mini-shape through both the ground-truth
  // and the trace-compiled path — otherwise the CLF/trace replay machinery
  // sits outside the oracle's reach.
  int by_source[3] = {0, 0, 0};
  std::set<std::string> campus_shapes;
  std::set<std::string> trace_shapes;
  for (uint64_t index = 0; index < 200; ++index) {
    const TrialSpec spec = GenerateTrial(0xC0DE, index);
    ++by_source[static_cast<int>(spec.workload_source)];
    if (spec.workload_source == WorkloadSource::kCampus) {
      campus_shapes.insert(spec.campus.name);
    } else if (spec.workload_source == WorkloadSource::kCampusTrace) {
      trace_shapes.insert(spec.campus.name);
    }
  }
  EXPECT_GT(by_source[static_cast<int>(WorkloadSource::kWorrell)], 100);
  EXPECT_GT(by_source[static_cast<int>(WorkloadSource::kCampus)], 10);
  EXPECT_GT(by_source[static_cast<int>(WorkloadSource::kCampusTrace)], 10);
  const std::set<std::string> all = {"das-mini", "fas-mini", "hcs-mini"};
  EXPECT_EQ(campus_shapes, all);
  EXPECT_EQ(trace_shapes, all);
}

TEST(ChaosOracleTest, AcceptsCampusAndTraceTrialsOfEachShape) {
  // One full oracle-checked run per (source, shape) pair, first occurrence
  // in the same fixed-seed campaign prefix the coverage test scans.
  std::set<std::string> done;
  for (uint64_t index = 0; index < 200 && done.size() < 6; ++index) {
    const TrialSpec spec = GenerateTrial(0xC0DE, index);
    if (spec.workload_source == WorkloadSource::kWorrell) {
      continue;
    }
    const std::string key =
        std::string(WorkloadSourceName(spec.workload_source)) + "/" + spec.campus.name;
    if (!done.insert(key).second) {
      continue;
    }
    EXPECT_NO_THROW(RunTrialChecked(spec)) << spec.Describe();
  }
  EXPECT_EQ(done.size(), 6u) << "campaign prefix missed a (source, shape) pair";
}

TEST(ChaosGeneratorTest, TraceWorkloadPreservesRequestsButCoarsensModifications) {
  // The CLF round trip keeps every request (one log line each) while the
  // compiled modification schedule only sees observed Last-Modified
  // transitions — the paper's observation-granularity loss. Ground truth
  // therefore never has fewer modification events than the trace inference.
  CampusServerProfile profile;
  TrialSpec probe;
  for (uint64_t index = 0; index < 200; ++index) {
    probe = GenerateTrial(0xC0DE, index);
    if (probe.workload_source == WorkloadSource::kCampusTrace) {
      profile = probe.campus;
      break;
    }
  }
  ASSERT_EQ(probe.workload_source, WorkloadSource::kCampusTrace);
  const Workload& truth = SharedCampusWorkload(profile);
  const Workload& replay = SharedCampusTraceWorkload(profile);
  EXPECT_EQ(truth.requests.size(), replay.requests.size());
  EXPECT_FALSE(replay.modifications.empty());
  EXPECT_GE(truth.modifications.size(), replay.modifications.size());
  EXPECT_NE(CampusWorkloadKey(profile), CampusTraceWorkloadKey(profile));
  // Registry identity: the same profile resolves to the same materialization.
  EXPECT_EQ(&replay, &SharedCampusTraceWorkload(profile));
}

// --- Campaign determinism -------------------------------------------------

TEST(ChaosCampaignTest, ParallelCampaignMatchesSerial) {
  ChaosOptions options;
  options.trials = 40;
  options.seed = 7;
  options.repro_dir.clear();  // no artifacts from tests
  ChaosOptions parallel = options;
  parallel.jobs = 8;
  const CampaignResult serial_result = RunChaosCampaign(options);
  const CampaignResult parallel_result = RunChaosCampaign(parallel);
  EXPECT_EQ(serial_result.violations.size(), parallel_result.violations.size());
  EXPECT_EQ(serial_result.Summary(), parallel_result.Summary());
  EXPECT_TRUE(serial_result.ok());
}

// --- The oracle catches a planted bug and the shrinker minimizes it -------

TrialSpec PlantBrokenTtl(uint64_t seed, uint64_t index) {
  TrialSpec spec = GenerateTrial(seed, index);
  // Honest declaration, dishonest implementation: the oracle checks serves
  // against the declared 30-minute window while the cache actually grants
  // 20x that.
  spec.config.policy = PolicyConfig::Ttl(Minutes(30));
  spec.config.policy_factory = [] {
    return std::make_unique<BrokenTtlPolicy>(Minutes(30), 20);
  };
  return spec;
}

TEST(ChaosShrinkerTest, BrokenPolicyIsFlaggedAndShrunkToASmallRepro) {
  constexpr uint64_t kMaxTrials = 25;
  std::optional<OracleViolation> violation;
  TrialSpec flagged;
  uint64_t flagged_at = 0;
  for (uint64_t index = 0; index < kMaxTrials && !violation.has_value(); ++index) {
    flagged = PlantBrokenTtl(0xBADF00D, index);
    violation = ProbeTrial(flagged);
    flagged_at = index;
  }
  ASSERT_TRUE(violation.has_value())
      << "a 20x-stretched TTL went unflagged for " << kMaxTrials << " trials";
  EXPECT_EQ(violation->invariant, "staleness-bound")
      << violation->message << " (trial " << flagged_at << ")";

  const ShrinkResult shrunk = ShrinkTrial(flagged, /*max_runs=*/200);
  ASSERT_TRUE(shrunk.confirmed);
  EXPECT_EQ(shrunk.violation.invariant, violation->invariant);
  EXPECT_LE(FaultEventCount(shrunk.minimal), 16u);
  EXPECT_LT(shrunk.minimal.request_limit, SharedTrialWorkload(shrunk.minimal).requests.size());

  // The minimal trial replays to the same violation, repeatedly.
  const std::optional<OracleViolation> replayed = ProbeTrial(shrunk.minimal);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->invariant, violation->invariant);
  EXPECT_EQ(replayed->message, shrunk.violation.message);
}

// --- Repro artifacts ------------------------------------------------------

TEST(ChaosReproTest, RenderParseRoundTripsTheTrial) {
  // A chaos-kind trial exercises every serialized field class: faults,
  // request limits, policy, and workload shape.
  for (uint64_t index : {2ull, 3ull, 6ull, 7ull}) {
    TrialSpec spec = GenerateTrial(0xAB, index);
    spec.request_limit = 500;
    const OracleViolation token{"staleness-bound", "round-trip fixture"};
    std::istringstream in(RenderRepro(spec, token));
    std::string error;
    const std::optional<TrialSpec> parsed = ParseRepro(in, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    // Rendering materializes generated downtime; compare against the same.
    TrialSpec materialized = spec;
    MaterializeFaultWindows(materialized);
    EXPECT_EQ(parsed->Describe(), materialized.Describe());
    EXPECT_EQ(parsed->campaign_seed, spec.campaign_seed);
    EXPECT_EQ(parsed->index, spec.index);
    EXPECT_EQ(parsed->request_limit, spec.request_limit);
  }
}

TEST(ChaosReproTest, CampusSpecsRoundTripWithSourceAndProfile) {
  // One campus and one campus-trace trial from the fixed-seed prefix; the
  // artifact must carry the source tag and the full profile, not the unused
  // worrell block.
  std::set<WorkloadSource> covered;
  for (uint64_t index = 0; index < 200 && covered.size() < 2; ++index) {
    TrialSpec spec = GenerateTrial(0xC0DE, index);
    if (spec.workload_source == WorkloadSource::kWorrell ||
        !covered.insert(spec.workload_source).second) {
      continue;
    }
    spec.request_limit = 400;
    const OracleViolation token{"staleness-bound", "round-trip fixture"};
    const std::string text = RenderRepro(spec, token);
    EXPECT_NE(text.find("workload-source " +
                        std::string(WorkloadSourceName(spec.workload_source))),
              std::string::npos);
    EXPECT_NE(text.find("campus-name " + spec.campus.name), std::string::npos);
    EXPECT_EQ(text.find("workload-files"), std::string::npos);
    std::istringstream in(text);
    std::string error;
    const std::optional<TrialSpec> parsed = ParseRepro(in, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    TrialSpec materialized = spec;
    MaterializeFaultWindows(materialized);
    EXPECT_EQ(parsed->Describe(), materialized.Describe());
    EXPECT_EQ(parsed->workload_source, spec.workload_source);
    EXPECT_EQ(parsed->campus.name, spec.campus.name);
    EXPECT_EQ(parsed->campus.num_files, spec.campus.num_files);
    EXPECT_EQ(parsed->campus.num_requests, spec.campus.num_requests);
    EXPECT_EQ(parsed->campus.total_changes, spec.campus.total_changes);
    EXPECT_EQ(parsed->campus.duration_days, spec.campus.duration_days);
    EXPECT_EQ(parsed->campus.seed, spec.campus.seed);
    EXPECT_EQ(parsed->request_limit, spec.request_limit);
  }
  EXPECT_EQ(covered.size(), 2u) << "prefix produced no campus / campus-trace trial";
}

TEST(ChaosReproTest, ParseIsAllOrNothing) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    std::string error;
    const std::optional<TrialSpec> spec = ParseRepro(in, &error);
    EXPECT_FALSE(spec.has_value());
    return error;
  };
  EXPECT_FALSE(parse("not a repro file\n").empty());
  EXPECT_FALSE(parse("").empty());

  TrialSpec spec = GenerateTrial(0xAB, 2);
  const OracleViolation token{"conservation", "fixture"};
  const std::string good = RenderRepro(spec, token);
  // An unknown key anywhere rejects the whole stream.
  const size_t nl = good.find('\n');
  ASSERT_NE(nl, std::string::npos);
  const std::string with_junk =
      good.substr(0, nl + 1) + "mystery-key 7\n" + good.substr(nl + 1);
  const std::string error = parse(with_junk);
  EXPECT_NE(error.find("mystery-key"), std::string::npos) << error;
  // A corrupted value does too.
  const std::string with_bad_value = good.substr(0, nl + 1) + "preload maybe\n";
  EXPECT_FALSE(parse(with_bad_value).empty());
}

TEST(ChaosReproTest, ReplayFromDiskRunsTheParsedTrial) {
  const TrialSpec spec = GenerateTrial(0xAB, 6);
  const OracleViolation token{"conservation", "fixture"};
  const std::string path = testing::TempDir() + "webcc-chaos-replay-test.repro";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << RenderRepro(spec, token);
  }
  const ReplayOutcome outcome = ReplayRepro(path);
  ASSERT_TRUE(outcome.parsed) << outcome.error;
  EXPECT_FALSE(outcome.description.empty());
  // A healthy simulator passes its own generated trial on replay.
  EXPECT_FALSE(outcome.violation.has_value());
  std::remove(path.c_str());
}

TEST(ChaosReproTest, ReplayReportsMissingFile) {
  const ReplayOutcome outcome = ReplayRepro("no/such/file.repro");
  EXPECT_FALSE(outcome.parsed);
  EXPECT_FALSE(outcome.error.empty());
}

TEST(ChaosReproTest, ReproCommandNamesTheTool) {
  const std::string cmd = ReproCommand("chaos-repros/seed-1-trial-2.repro");
  EXPECT_NE(cmd.find("webcc-chaos"), std::string::npos);
  EXPECT_NE(cmd.find("chaos-repros/seed-1-trial-2.repro"), std::string::npos);
}

// --- Crash-consistency trials actually exercise the snapshot cycle -------

TEST(ChaosOracleTest, CrashConsistencyTrialsCoverSnapshotCycle) {
  // Index 1 of every 4 is a crash-consistency trial; make sure the sampled
  // crash point lands inside the horizon often enough that invariant 4 runs
  // against real crashes, not no-ops.
  int with_crash_armed = 0;
  for (uint64_t index = 1; index < 40; index += 4) {
    const TrialSpec spec = GenerateTrial(0xFEED, index);
    ASSERT_EQ(spec.kind, TrialKind::kCrashConsistency);
    bool armed = spec.config.faults.snapshot_crash_request >= 0;
    for (const LinkFaultOverride& over : spec.config.faults.link_overrides) {
      // Fleet crash trials park the crash point on the targeted member's
      // link override; the base field stays -1.
      armed = armed || over.snapshot_crash_request.value_or(-1) >= 0;
    }
    if (armed) {
      ++with_crash_armed;
    }
  }
  EXPECT_GE(with_crash_armed, 8);
}

// --- Invariant 4 covers all four recovery modes (fixed twin specs) --------

// A crash-consistency spec on a hand-built small Worrell stream, so the
// twin comparison runs against a known workload rather than whatever the
// generator samples.
TrialSpec FixedCrashSpec(PolicyConfig policy, CrashRecovery recovery) {
  TrialSpec spec;
  spec.kind = TrialKind::kCrashConsistency;
  spec.workload.num_files = 60;
  spec.workload.duration = Days(8);
  spec.workload.requests_per_second = 0.05;
  spec.workload.num_clients = 32;
  spec.workload.seed = 1357;
  spec.config = SimulationConfig::Optimized(policy);
  spec.config.faults.armed = true;
  spec.config.faults.snapshot_crash_request = 500;
  spec.config.faults.crash_recovery = recovery;
  return spec;
}

TEST(RecoveryModeTest, CrashTwinHoldsForAllFourModesOnSingleCache) {
  // Field identity for trust-like recoveries, prefix identity plus the
  // first-post-crash-touch contract for revalidate-all and cold-start:
  // RunTrialChecked throws if the recovery semantics drift from the shadow
  // model, so all four declared modes passing IS the invariant-4 coverage.
  for (const CrashRecovery recovery :
       {CrashRecovery::kAuto, CrashRecovery::kTrustSnapshot, CrashRecovery::kRevalidateAll,
        CrashRecovery::kColdStart}) {
    for (const PolicyConfig& policy :
         {PolicyConfig::Invalidation(), PolicyConfig::Alex(0.2)}) {
      const TrialSpec spec = FixedCrashSpec(policy, recovery);
      EXPECT_NO_THROW(RunTrialChecked(spec)) << spec.Describe();
    }
  }
}

TEST(RecoveryModeTest, CrashTwinToleratesLossKillingTheRecoveryFetch) {
  // A lossy link on top of a cold/revalidate crash means the first
  // post-crash touch can fail outright instead of paying the refetch.
  // A failed serve hands the client no body, so the oracle must accept
  // it (found by a forced-fault campaign: seed 77 trial 5).
  for (const CrashRecovery recovery :
       {CrashRecovery::kRevalidateAll, CrashRecovery::kColdStart}) {
    TrialSpec spec = FixedCrashSpec(PolicyConfig::Alex(0.2), recovery);
    spec.config.faults.loss_rate = 0.4;
    EXPECT_NO_THROW(RunTrialChecked(spec)) << spec.Describe();

    TrialSpec fleet = FixedCrashSpec(PolicyConfig::Alex(0.2), CrashRecovery::kAuto);
    fleet.topology = Topology::kFleet;
    fleet.fleet_size = 3;
    fleet.config.faults.snapshot_crash_request = -1;
    LinkFaultOverride over;
    over.link = 1;
    over.snapshot_crash_request = 300;
    over.recovery = recovery;
    over.loss_rate = 0.6;
    fleet.config.faults.link_overrides.push_back(over);
    EXPECT_NO_THROW(RunTrialChecked(fleet)) << fleet.Describe();
  }
}

TEST(RecoveryModeTest, CrashTwinHoldsForFleetMemberUnderEveryMode) {
  // The crash point rides a member-targeted link override: only that
  // member runs the snapshot cycle; the untargeted siblings must stay
  // field-identical to their baseline twins.
  for (const CrashRecovery recovery :
       {CrashRecovery::kTrustSnapshot, CrashRecovery::kRevalidateAll,
        CrashRecovery::kColdStart}) {
    TrialSpec spec = FixedCrashSpec(PolicyConfig::Invalidation(), CrashRecovery::kAuto);
    spec.topology = Topology::kFleet;
    spec.fleet_size = 3;
    spec.config.faults.snapshot_crash_request = -1;
    LinkFaultOverride over;
    over.link = 1;
    over.snapshot_crash_request = 300;
    over.recovery = recovery;
    spec.config.faults.link_overrides.push_back(over);
    EXPECT_NO_THROW(RunTrialChecked(spec)) << spec.Describe();
  }
}

// --- Invariant 4's violation text, pinned ---------------------------------

// Relays every hook to `oracle`, letting `tamper` rewrite each serve first:
// how these tests make one twin differ at a known serve.
class TamperingRelay : public SimObserver {
 public:
  TamperingRelay(ChaosOracle& oracle, std::function<void(ServeObservation&)> tamper)
      : oracle_(oracle), tamper_(std::move(tamper)) {}
  void OnRunStart(const ProxyCache& cache, const OriginServer& server) override {
    oracle_.OnRunStart(cache, server);
  }
  void OnModification(ObjectId object, SimTime at) override {
    oracle_.OnModification(object, at);
  }
  void OnServe(const ServeObservation& observation) override {
    ServeObservation copy = observation;
    if (tamper_) {
      tamper_(copy);
    }
    oracle_.OnServe(copy);
  }
  void OnRunEnd(const ProxyCache& cache, const OriginServer& server) override {
    oracle_.OnRunEnd(cache, server);
  }

 private:
  ChaosOracle& oracle_;
  std::function<void(ServeObservation&)> tamper_;
};

struct ObservedRun {
  ChaosOracle oracle;
  SimulationResult result;
};

// One run of `config` over `load`, watched by an oracle that judges it
// against `config`'s declared policy.
ObservedRun RunObserved(const Workload& load, SimulationConfig config,
                        std::function<void(ServeObservation&)> tamper = nullptr) {
  ObservedRun run{ChaosOracle(config), {}};
  TamperingRelay relay(run.oracle, std::move(tamper));
  config.observer = &relay;
  run.result = RunSimulation(load, config);
  return run;
}

// RecoveryModeTest's fixed world under `policy`: the crash point sits at
// request 500 under `recovery`, or is disarmed when `crash` is false.
SimulationConfig TwinConfig(const PolicyConfig& policy, CrashRecovery recovery, bool crash) {
  SimulationConfig config = FixedCrashSpec(policy, recovery).config;
  if (!crash) {
    config.faults.snapshot_crash_request = -1;
  }
  return config;
}

const Workload& TwinWorkload() {
  return SharedTrialWorkload(FixedCrashSpec(PolicyConfig::Ttl(Hours(1)), CrashRecovery::kAuto));
}

// Rewrites the first validated hit at or after request `from` into a
// refetch: a serve-kind difference the oracle's own per-serve checks accept.
std::function<void(ServeObservation&)> RefetchFirstValidationFrom(uint64_t from) {
  auto done = std::make_shared<bool>(false);
  return [done, from](ServeObservation& o) {
    if (!*done && o.request_index >= from && o.result.kind == ServeKind::kHitValidated) {
      o.result.kind = ServeKind::kMissRefetched;
      *done = true;
    }
  };
}

// The twin's cache runs a 30-minute TTL behind the declared one-hour TTL:
// every expires_at differs, and no serve outlives the declared window.
void ShortenTtl(SimulationConfig& config) {
  config.policy_factory = [] { return MakePolicy(PolicyConfig::Ttl(Minutes(30))); };
}

template <typename Check>
OracleViolation ViolationOf(Check check) {
  try {
    check();
  } catch (const OracleViolation& violation) {
    return violation;
  }
  ADD_FAILURE() << "the twin comparison found no violation";
  return {};
}

TEST(ChaosOracleTest, CrashConsistencyNamesTheFirstServeKindDifference) {
  const SimulationConfig config =
      TwinConfig(PolicyConfig::Ttl(Hours(1)), CrashRecovery::kTrustSnapshot, false);
  const ObservedRun baseline = RunObserved(TwinWorkload(), config);
  const ObservedRun crashed = RunObserved(TwinWorkload(), config, RefetchFirstValidationFrom(100));
  const OracleViolation v = ViolationOf([&] {
    ChaosOracle::VerifyCrashConsistency(baseline.oracle, baseline.result, crashed.oracle,
                                        crashed.result);
  });
  EXPECT_EQ(v.invariant, "crash-consistency");
  EXPECT_EQ(v.message,
            "serve #155 (object 5, t=0+01:00:12): serve kind differs: baseline hit-validated, "
            "crashed miss-refetched");
}

TEST(ChaosOracleTest, CrashConsistencyNamesTheFirstEntryFieldDifference) {
  SimulationConfig config =
      TwinConfig(PolicyConfig::Ttl(Hours(1)), CrashRecovery::kTrustSnapshot, false);
  const ObservedRun baseline = RunObserved(TwinWorkload(), config);
  ShortenTtl(config);
  const ObservedRun crashed = RunObserved(TwinWorkload(), config);
  const OracleViolation v = ViolationOf([&] {
    ChaosOracle::VerifyCrashConsistency(baseline.oracle, baseline.result, crashed.oracle,
                                        crashed.result);
  });
  EXPECT_EQ(v.invariant, "crash-consistency");
  EXPECT_EQ(v.message,
            "serve #0 (object 13, t=0+00:00:57): entry field expires_at differs: baseline "
            "0+01:00:00, crashed 0+00:30:00");
}

TEST(ChaosOracleTest, CrashConsistencyNamesTheFirstFinalEntryDifference) {
  // A modification after the last request invalidates the most recently
  // served entry in the twin only: every serve matches, the final cache
  // does not.
  const SimulationConfig config =
      TwinConfig(PolicyConfig::Invalidation(), CrashRecovery::kTrustSnapshot, false);
  const Workload& load = TwinWorkload();
  Workload trailing = load;
  ModificationEvent mod;
  mod.at = load.requests.back().at + Seconds(1);
  mod.object_index = load.requests.back().object_index;
  trailing.modifications.push_back(mod);
  trailing.horizon = std::max(trailing.horizon, mod.at);
  const ObservedRun baseline = RunObserved(load, config);
  const ObservedRun crashed = RunObserved(trailing, config);
  const OracleViolation v = ViolationOf([&] {
    ChaosOracle::VerifyCrashConsistency(baseline.oracle, baseline.result, crashed.oracle,
                                        crashed.result);
  });
  EXPECT_EQ(v.invariant, "crash-consistency");
  EXPECT_EQ(v.message, "final entry #0: entry field valid differs: baseline 1, crashed 0");
}

TEST(ChaosOracleTest, CrashConsistencyNamesAByTypeStatDifference) {
  const SimulationConfig config =
      TwinConfig(PolicyConfig::Ttl(Hours(1)), CrashRecovery::kTrustSnapshot, false);
  const ObservedRun baseline = RunObserved(TwinWorkload(), config);
  ObservedRun crashed = RunObserved(TwinWorkload(), config);
  crashed.result.cache.by_type[1].validations += 1;
  const OracleViolation v = ViolationOf([&] {
    ChaosOracle::VerifyCrashConsistency(baseline.oracle, baseline.result, crashed.oracle,
                                        crashed.result);
  });
  EXPECT_EQ(v.invariant, "crash-consistency");
  EXPECT_EQ(v.message, "cache by_type[1] stat validations differs: baseline 2157, crashed 2158");
}

TEST(ChaosOracleTest, RecoveryDivergenceNamesPreCrashDifferences) {
  // Before the crash point the divergent modes still demand field identity,
  // under either flavor of the contract.
  for (const bool cold_start : {false, true}) {
    const CrashRecovery recovery =
        cold_start ? CrashRecovery::kColdStart : CrashRecovery::kRevalidateAll;
    const ObservedRun baseline = RunObserved(
        TwinWorkload(), TwinConfig(PolicyConfig::Ttl(Hours(1)), recovery, false));
    SimulationConfig config = TwinConfig(PolicyConfig::Ttl(Hours(1)), recovery, true);
    const ObservedRun kind_twin =
        RunObserved(TwinWorkload(), config, RefetchFirstValidationFrom(100));
    const OracleViolation kind = ViolationOf([&] {
      ChaosOracle::VerifyRecoveryDivergence(baseline.oracle, baseline.result, kind_twin.oracle,
                                            kind_twin.result, cold_start);
    });
    EXPECT_EQ(kind.invariant, "crash-recovery");
    EXPECT_EQ(kind.message,
              "serve #155 (object 5, t=0+01:00:12): serve kind differs: baseline hit-validated, "
              "crashed miss-refetched");

    ShortenTtl(config);
    const ObservedRun field_twin = RunObserved(TwinWorkload(), config);
    const OracleViolation field = ViolationOf([&] {
      ChaosOracle::VerifyRecoveryDivergence(baseline.oracle, baseline.result, field_twin.oracle,
                                            field_twin.result, cold_start);
    });
    EXPECT_EQ(field.invariant, "crash-recovery");
    EXPECT_EQ(field.message,
              "serve #0 (object 13, t=0+00:00:57): entry field expires_at differs: baseline "
              "0+01:00:00, crashed 0+00:30:00");
  }
}

TEST(ChaosOracleTest, RecoveryDivergenceNamesABrokenFirstTouchContract) {
  // A twin that recovered under a laxer mode than the one it is judged by:
  // trust-snapshot serves fresh hits revalidate-all forbids, and
  // revalidate-all validates where cold-start must miss.
  const PolicyConfig policy = PolicyConfig::Ttl(Hours(1));
  const ObservedRun baseline =
      RunObserved(TwinWorkload(), TwinConfig(policy, CrashRecovery::kTrustSnapshot, false));
  const ObservedRun trusted =
      RunObserved(TwinWorkload(), TwinConfig(policy, CrashRecovery::kTrustSnapshot, true));
  const OracleViolation fresh = ViolationOf([&] {
    ChaosOracle::VerifyRecoveryDivergence(baseline.oracle, baseline.result, trusted.oracle,
                                          trusted.result, /*cold_start=*/false);
  });
  EXPECT_EQ(fresh.invariant, "crash-recovery");
  EXPECT_EQ(fresh.message,
            "serve #500 (object 49, t=0+03:01:47): first touch after a revalidate-all crash "
            "served a fresh hit (the restored entry skipped revalidation)");

  const ObservedRun revalidated =
      RunObserved(TwinWorkload(), TwinConfig(policy, CrashRecovery::kRevalidateAll, true));
  const OracleViolation warm = ViolationOf([&] {
    ChaosOracle::VerifyRecoveryDivergence(baseline.oracle, baseline.result, revalidated.oracle,
                                          revalidated.result, /*cold_start=*/true);
  });
  EXPECT_EQ(warm.invariant, "crash-recovery");
  EXPECT_EQ(warm.message,
            "serve #500 (object 49, t=0+03:01:47): first touch after a cold-start crash must be "
            "a cold miss or a failed fetch, got hit-validated");
}

// --- Campaign determinism with pinned topologies --------------------------

TEST(ChaosCampaignTest, PinnedFleetCampaignIsJobsInvariant) {
  ChaosOptions options;
  options.trials = 12;
  options.seed = 11;
  options.repro_dir.clear();
  options.topology = Topology::kFleet;
  options.fleet_size = 3;
  ChaosOptions parallel = options;
  parallel.jobs = 8;
  const CampaignResult serial_result = RunChaosCampaign(options);
  const CampaignResult parallel_result = RunChaosCampaign(parallel);
  EXPECT_EQ(serial_result.Summary(), parallel_result.Summary());
  EXPECT_TRUE(serial_result.ok());
}

TEST(ChaosCampaignTest, PinnedHierarchyCampaignIsJobsInvariant) {
  ChaosOptions options;
  options.trials = 12;
  options.seed = 13;
  options.repro_dir.clear();
  options.topology = Topology::kHierarchy;
  ChaosOptions parallel = options;
  parallel.jobs = 8;
  const CampaignResult serial_result = RunChaosCampaign(options);
  const CampaignResult parallel_result = RunChaosCampaign(parallel);
  EXPECT_EQ(serial_result.Summary(), parallel_result.Summary());
  EXPECT_TRUE(serial_result.ok());
}

TEST(ChaosCampaignTest, ForcedLinkFaultsApplyToEveryTrial) {
  // Appending a forced member fault must not break any invariant, and the
  // campaign stays a pure function of its options.
  ChaosOptions options;
  options.trials = 8;
  options.seed = 17;
  options.repro_dir.clear();
  options.topology = Topology::kFleet;
  options.fleet_size = 3;
  LinkFaultOverride lossy;
  lossy.link = 1;
  lossy.loss_rate = 0.5;
  options.link_overrides.push_back(lossy);
  const CampaignResult first = RunChaosCampaign(options);
  const CampaignResult second = RunChaosCampaign(options);
  EXPECT_TRUE(first.ok()) << first.Summary();
  EXPECT_EQ(first.Summary(), second.Summary());
}

}  // namespace
}  // namespace webcc
