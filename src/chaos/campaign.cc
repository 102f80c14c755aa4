#include "src/chaos/campaign.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/chaos/shrinker.h"
#include "src/core/sweep_runner.h"
#include "src/util/check.h"
#include "src/util/str.h"
#include "src/workload/registry.h"

namespace webcc {

namespace {

// Mirrors simulation.cc's WorkloadHorizon: last scheduled event + 24h slack.
// Window materialization must use the exact horizon the simulator derives or
// the materialized schedule would differ from the one the run saw.
SimTime EffectiveHorizon(const Workload& load) {
  SimTime horizon = SimTime::Epoch();
  if (!load.requests.empty()) {
    horizon = std::max(horizon, load.requests.back().at);
  }
  if (!load.modifications.empty()) {
    horizon = std::max(horizon, load.modifications.back().at);
  }
  return horizon + Hours(24);
}

// Resolves the spec's effective workload: the registry-shared stream (from
// whichever source the spec selects), or a truncated copy (written to
// `storage`) when a request limit is set.
const Workload& ResolveWorkload(const TrialSpec& spec, Workload& storage) {
  const Workload& shared = SharedTrialWorkload(spec);
  if (spec.request_limit >= shared.requests.size()) {
    return shared;
  }
  storage = TruncateWorkload(shared, spec.request_limit);
  return storage;
}

// The recovery mode the snapshot restore will actually use. Mirrors
// ResolveCrashRecovery (replay.cc) without needing the live policy
// object: kAuto resolves by the DECLARED policy kind, which is faithful
// because only the invalidation policy answers UsesServerInvalidation()
// true and the adaptive tuner (whose answer could drift mid-run) never
// draws crash trials.
CrashRecovery ResolveRecovery(CrashRecovery declared, PolicyKind policy) {
  if (declared != CrashRecovery::kAuto) {
    return declared;
  }
  return policy == PolicyKind::kInvalidation ? CrashRecovery::kRevalidateAll
                                             : CrashRecovery::kTrustSnapshot;
}

// Invariant 4 dispatch: which twin comparison the resolved recovery mode's
// contract demands.
void CompareCrashTwin(CrashRecovery resolved, const ChaosOracle& baseline_oracle,
                      const SimulationResult& baseline_result, const ChaosOracle& oracle,
                      const SimulationResult& result) {
  switch (resolved) {
    case CrashRecovery::kAuto:  // resolved away by ResolveRecovery
    case CrashRecovery::kTrustSnapshot:
      ChaosOracle::VerifyCrashConsistency(baseline_oracle, baseline_result, oracle, result);
      return;
    case CrashRecovery::kRevalidateAll:
      ChaosOracle::VerifyRecoveryDivergence(baseline_oracle, baseline_result, oracle, result,
                                            /*cold_start=*/false);
      return;
    case CrashRecovery::kColdStart:
      ChaosOracle::VerifyRecoveryDivergence(baseline_oracle, baseline_result, oracle, result,
                                            /*cold_start=*/true);
      return;
  }
}

// Fleet trial: every member world carries its own oracle, judged against
// the member's derived link config (exactly what the world runs under).
// Crash trials rerun the fleet with the member-targeted crash point removed
// and compare member by member: the targeted member under its recovery
// mode's contract, every untargeted member field-identical (their link
// schedules are independent substreams, so the crash must not leak).
TrialRun RunFleetTrial(const TrialSpec& spec, const Workload& load) {
  const uint32_t members = spec.fleet_size < 2 ? 2 : spec.fleet_size;
  FleetConfig fleet;
  fleet.policy = spec.config.policy;
  fleet.num_caches = members;
  fleet.refresh_mode = spec.config.refresh_mode;
  fleet.preload = spec.config.preload;
  fleet.faults = spec.config.faults;
  fleet.keep_member_results = true;

  std::vector<ChaosOracle> oracles;
  oracles.reserve(members);
  for (uint32_t m = 0; m < members; ++m) {
    SimulationConfig member = spec.config;
    member.faults = spec.config.faults.ForLink(m);
    oracles.emplace_back(member);
  }
  fleet.member_observer = [&oracles](uint32_t m) -> SimObserver* { return &oracles[m]; };

  TrialRun run;
  run.fleet = RunFleetSimulation(load, fleet);
  WEBCC_CHECK_EQ(run.fleet.member_results.size(), members);
  for (uint32_t m = 0; m < members; ++m) {
    oracles[m].VerifyResult(run.fleet.member_results[m]);
  }

  if (spec.kind == TrialKind::kCrashConsistency) {
    FleetConfig baseline = fleet;
    baseline.faults.snapshot_crash_request = -1;
    for (LinkFaultOverride& link : baseline.faults.link_overrides) {
      link.snapshot_crash_request.reset();
    }
    std::vector<ChaosOracle> baseline_oracles;
    baseline_oracles.reserve(members);
    for (uint32_t m = 0; m < members; ++m) {
      SimulationConfig member = spec.config;
      member.faults = baseline.faults.ForLink(m);
      baseline_oracles.emplace_back(member);
    }
    baseline.member_observer = [&baseline_oracles](uint32_t m) -> SimObserver* {
      return &baseline_oracles[m];
    };
    const FleetResult baseline_result = RunFleetSimulation(load, baseline);
    WEBCC_CHECK_EQ(baseline_result.member_results.size(), members);
    for (uint32_t m = 0; m < members; ++m) {
      baseline_oracles[m].VerifyResult(baseline_result.member_results[m]);
      const FaultConfig member_faults = fleet.faults.ForLink(m);
      if (member_faults.snapshot_crash_request >= 0) {
        CompareCrashTwin(
            ResolveRecovery(member_faults.crash_recovery, spec.config.policy.kind),
            baseline_oracles[m], baseline_result.member_results[m], oracles[m],
            run.fleet.member_results[m]);
      } else {
        ChaosOracle::VerifyCrashConsistency(baseline_oracles[m],
                                            baseline_result.member_results[m], oracles[m],
                                            run.fleet.member_results[m]);
      }
    }
  }
  return run;
}

// Hierarchy trial: one oracle per leaf, in kHierarchyLeaf scope. Each leaf
// oracle gets the WHOLE tree's fault config (see the ChaosOracle ctor doc):
// a notice lost on the trunk link stales both leaves, so the zero-faults
// cleanliness verdict and the retry slack must see every link's knobs.
TrialRun RunHierarchyTrial(const TrialSpec& spec, const Workload& load) {
  HierarchyConfig tree;
  tree.policy = spec.config.policy;
  tree.refresh_mode = spec.config.refresh_mode;
  tree.preload = spec.config.preload;
  tree.faults = spec.config.faults;

  ChaosOracle oracle_a(spec.config, OracleScope::kHierarchyLeaf);
  ChaosOracle oracle_b(spec.config, OracleScope::kHierarchyLeaf);
  tree.leaf_observer_a = &oracle_a;
  tree.leaf_observer_b = &oracle_b;

  TrialRun run;
  run.hierarchy = RunHierarchySimulation(load, tree);
  oracle_a.VerifyLeafResult(run.hierarchy.l1a);
  oracle_b.VerifyLeafResult(run.hierarchy.l1b);
  if (run.hierarchy.LeafRequests() != run.hierarchy.requests) {
    throw OracleViolation{
        "conservation",
        StrFormat("hierarchy leaf split dropped requests: l1a=%llu + l1b=%llu != total=%llu",
                  static_cast<unsigned long long>(run.hierarchy.l1a.requests),
                  static_cast<unsigned long long>(run.hierarchy.l1b.requests),
                  static_cast<unsigned long long>(run.hierarchy.requests))};
  }
  return run;
}

}  // namespace

TrialRun RunTrialChecked(const TrialSpec& spec) {
  Workload storage;
  const Workload& load = ResolveWorkload(spec, storage);
  if (spec.topology == Topology::kFleet) {
    return RunFleetTrial(spec, load);
  }
  if (spec.topology == Topology::kHierarchy) {
    return RunHierarchyTrial(spec, load);
  }

  SimulationConfig config = spec.config;
  ChaosOracle oracle(config);
  config.observer = &oracle;
  TrialRun run;
  run.result = RunSimulation(load, config);
  oracle.VerifyResult(run.result);

  if (spec.kind == TrialKind::kCrashConsistency &&
      spec.config.faults.snapshot_crash_request >= 0) {
    // Invariant 4: compare the uninterrupted twin under the recovery mode's
    // contract.
    SimulationConfig baseline_config = spec.config;
    baseline_config.faults.snapshot_crash_request = -1;
    ChaosOracle baseline_oracle(baseline_config);
    baseline_config.observer = &baseline_oracle;
    const SimulationResult baseline_result = RunSimulation(load, baseline_config);
    baseline_oracle.VerifyResult(baseline_result);
    CompareCrashTwin(
        ResolveRecovery(spec.config.faults.crash_recovery, spec.config.policy.kind),
        baseline_oracle, baseline_result, oracle, run.result);
  }
  return run;
}

void MaterializeFaultWindows(TrialSpec& spec) {
  FaultConfig& faults = spec.config.faults;
  if (!faults.link_overrides.empty()) {
    // Per-link specs serialize as fault-plan v2, which keeps the MTBF/MTTR
    // generator knobs: every link derives its own window schedule from its
    // forked seed, which one shared materialized list cannot represent.
    return;
  }
  if (faults.server_mtbf <= SimDuration(0) || faults.server_mttr <= SimDuration(0)) {
    // One-sided configs generate nothing; normalize them to zero.
    faults.server_mtbf = SimDuration(0);
    faults.server_mttr = SimDuration(0);
    return;
  }
  Workload storage;
  const Workload& load = ResolveWorkload(spec, storage);
  FaultPlan plan(faults, EffectiveHorizon(load));
  faults.server_downtime = plan.server_downtime();
  faults.server_mtbf = SimDuration(0);
  faults.server_mttr = SimDuration(0);
}

namespace {

// Applies the campaign-wide topology pin and forced per-link faults to one
// generated trial. Both campaign phases regenerate specs through this
// transform, so the shrink/repro phase sees exactly the trial that ran.
TrialSpec PinnedTrial(const ChaosOptions& options, uint64_t index) {
  TrialSpec spec = GenerateTrial(options.seed, index);
  if (options.topology.has_value() && spec.topology != *options.topology) {
    if (*options.topology == Topology::kSingle) {
      // The collapsed cache has only the base link; a fleet trial's parked
      // per-member faults (including its snapshot-crash point) drop away,
      // exactly as the shrinker's topology-collapse pass does.
      spec.config.faults.link_overrides.clear();
    }
    if (*options.topology == Topology::kHierarchy) {
      // Hierarchy trials have no snapshot-crash twin; drop any crash point
      // the generator armed for a single/fleet trial.
      spec.config.faults.snapshot_crash_request = -1;
      for (LinkFaultOverride& over : spec.config.faults.link_overrides) {
        over.snapshot_crash_request.reset();
      }
    }
    spec.topology = *options.topology;
    spec.fleet_size = 0;
  }
  if (spec.topology == Topology::kFleet && options.fleet_size >= 2) {
    spec.fleet_size = options.fleet_size;
  }
  spec.config.faults.link_overrides.insert(spec.config.faults.link_overrides.end(),
                                           options.link_overrides.begin(),
                                           options.link_overrides.end());
  return spec;
}

}  // namespace

CampaignResult RunChaosCampaign(const ChaosOptions& options) {
  CampaignResult result;
  result.trials = options.trials;
  result.seed = options.seed;

  // Phase 1: trials sharded over the pool; each worker writes only its own
  // slot, so the violation set is --jobs-invariant.
  struct TrialOutcome {
    bool violated = false;
    OracleViolation violation;
  };
  std::vector<TrialOutcome> outcomes(options.trials);
  SweepRunner runner(options.jobs == 0 ? 1 : options.jobs);
  runner.ParallelFor(options.trials, [&options, &outcomes](size_t index) {
    const TrialSpec spec = PinnedTrial(options, index);
    const std::optional<OracleViolation> violation = ProbeTrial(spec);
    if (violation.has_value()) {
      outcomes[index] = TrialOutcome{true, *violation};
    }
  });

  // Phase 2 (serial, trial order): shrink and write repro artifacts.
  for (uint64_t index = 0; index < options.trials; ++index) {
    if (!outcomes[index].violated) {
      continue;
    }
    ChaosViolation violation;
    violation.spec = PinnedTrial(options, index);
    violation.violation = outcomes[index].violation;
    violation.minimal = violation.spec;
    MaterializeFaultWindows(violation.minimal);
    violation.minimal_violation = violation.violation;
    if (options.shrink) {
      ShrinkResult shrunk = ShrinkTrial(violation.spec, options.max_shrink_runs);
      violation.shrink_runs = shrunk.runs_used;
      if (shrunk.confirmed) {
        violation.minimal = std::move(shrunk.minimal);
        violation.minimal_violation = std::move(shrunk.violation);
      }
    }
    if (!options.repro_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(options.repro_dir, ec);
      const std::string path =
          options.repro_dir +
          StrFormat("/seed-%llu-trial-%llu.repro",
                    static_cast<unsigned long long>(options.seed),
                    static_cast<unsigned long long>(index));
      std::ofstream out(path, std::ios::trunc);
      if (out) {
        out << RenderRepro(violation.minimal, violation.minimal_violation);
        violation.repro_path = path;
      }
    }
    result.violations.push_back(std::move(violation));
  }
  return result;
}

std::string CampaignResult::Summary() const {
  std::string out = StrFormat("chaos campaign: seed=%llu trials=%llu violations=%zu\n",
                              static_cast<unsigned long long>(seed),
                              static_cast<unsigned long long>(trials), violations.size());
  if (violations.empty()) {
    out += "all invariants held\n";
    return out;
  }
  for (const ChaosViolation& v : violations) {
    out += StrFormat("\ntrial #%llu [%s] %s\n",
                     static_cast<unsigned long long>(v.spec.index),
                     v.violation.invariant.c_str(), v.violation.message.c_str());
    out += "  as generated: " + v.spec.Describe() + "\n";
    out += StrFormat("  minimal (%llu shrink runs, %llu fault events, %s requests): %s\n",
                     static_cast<unsigned long long>(v.shrink_runs),
                     static_cast<unsigned long long>(FaultEventCount(v.minimal)),
                     v.minimal.request_limit == kNoRequestLimit
                         ? "all"
                         : StrFormat("%llu", static_cast<unsigned long long>(
                                                 v.minimal.request_limit))
                               .c_str(),
                     v.minimal.Describe().c_str());
    if (!v.repro_path.empty()) {
      out += "  repro: " + v.repro_path + "\n";
      out += "  replay: " + ReproCommand(v.repro_path) + "\n";
    }
  }
  return out;
}

// --- Repro artifacts ------------------------------------------------------

namespace {

constexpr const char* kReproHeader = "#webcc-chaos-repro v1";
constexpr const char* kFaultPlanHeader = "#webcc-fault-plan v1";
constexpr const char* kFaultPlanHeaderV2 = "#webcc-fault-plan v2";

std::optional<TrialKind> ParseTrialKind(const std::string& name) {
  if (name == "clean") return TrialKind::kClean;
  if (name == "crash") return TrialKind::kCrashConsistency;
  if (name == "chaos") return TrialKind::kChaos;
  return std::nullopt;
}

std::optional<PolicyKind> ParsePolicyKind(const std::string& name) {
  if (name == "ttl") return PolicyKind::kFixedTtl;
  if (name == "alex") return PolicyKind::kAlex;
  if (name == "cern") return PolicyKind::kCernHttpd;
  if (name == "invalidation") return PolicyKind::kInvalidation;
  if (name == "adaptive") return PolicyKind::kAdaptiveTuner;
  return std::nullopt;
}

std::optional<WorkloadSource> ParseWorkloadSource(const std::string& name) {
  if (name == "worrell") return WorkloadSource::kWorrell;
  if (name == "campus") return WorkloadSource::kCampus;
  if (name == "campus-trace") return WorkloadSource::kCampusTrace;
  return std::nullopt;
}

}  // namespace

std::string RenderRepro(const TrialSpec& spec, const OracleViolation& violation) {
  TrialSpec copy = spec;
  // Repro files are always materialized: a generated downtime process would
  // re-roll against the reader's horizon; explicit windows round-trip.
  MaterializeFaultWindows(copy);

  std::ostringstream out;
  out << kReproHeader << "\n";
  out << "# " << copy.Describe() << "\n";
  out << "# violation: [" << violation.invariant << "] " << violation.message << "\n";
  out << "invariant " << violation.invariant << "\n";
  out << "campaign-seed " << copy.campaign_seed << "\n";
  out << "trial-index " << copy.index << "\n";
  out << "kind " << TrialKindName(copy.kind) << "\n";
  if (copy.topology != Topology::kSingle) {
    out << "topology " << TopologyName(copy.topology) << "\n";
    if (copy.topology == Topology::kFleet) {
      out << "fleet-size " << copy.fleet_size << "\n";
    }
  }
  if (copy.request_limit != kNoRequestLimit) {
    out << "request-limit " << copy.request_limit << "\n";
  }
  out << "workload-source " << WorkloadSourceName(copy.workload_source) << "\n";
  if (copy.workload_source == WorkloadSource::kWorrell) {
    const WorrellConfig& w = copy.workload;
    out << "workload-files " << w.num_files << "\n";
    out << "workload-duration-seconds " << w.duration.seconds() << "\n";
    out << "workload-min-lifetime-seconds " << w.min_lifetime.seconds() << "\n";
    out << "workload-max-lifetime-seconds " << w.max_lifetime.seconds() << "\n";
    out << StrFormat("workload-requests-per-second %.17g\n", w.requests_per_second);
    out << "workload-mean-file-bytes " << w.mean_file_bytes << "\n";
    out << StrFormat("workload-size-sigma %.17g\n", w.size_sigma);
    out << "workload-clients " << w.num_clients << "\n";
    out << "workload-seed " << w.seed << "\n";
  } else {
    const CampusServerProfile& c = copy.campus;
    out << "campus-name " << c.name << "\n";
    out << "campus-files " << c.num_files << "\n";
    out << "campus-requests " << c.num_requests << "\n";
    out << StrFormat("campus-remote-fraction %.17g\n", c.remote_fraction);
    out << "campus-total-changes " << c.total_changes << "\n";
    out << StrFormat("campus-mutable-fraction %.17g\n", c.mutable_fraction);
    out << StrFormat("campus-very-mutable-fraction %.17g\n", c.very_mutable_fraction);
    out << "campus-duration-days " << c.duration_days << "\n";
    out << StrFormat("campus-zipf-skew %.17g\n", c.zipf_skew);
    out << "campus-placement " << MutablePlacementName(c.mutable_placement) << "\n";
    out << "campus-seed " << c.seed << "\n";
  }
  const PolicyConfig& p = copy.config.policy;
  out << "policy-kind " << std::string(PolicyKindName(p.kind)) << "\n";
  out << "policy-ttl-seconds " << p.ttl.seconds() << "\n";
  out << StrFormat("policy-alex-threshold %.17g\n", p.alex_threshold);
  out << "policy-alex-min-seconds " << p.alex_min_validity.seconds() << "\n";
  out << "policy-alex-max-seconds " << p.alex_max_validity.seconds() << "\n";
  out << StrFormat("policy-cern-fraction %.17g\n", p.cern_lm_fraction);
  out << "policy-cern-default-ttl-seconds " << p.cern_default_ttl.seconds() << "\n";
  out << "policy-lease-seconds " << p.invalidation_lease.seconds() << "\n";
  out << "refresh "
      << (copy.config.refresh_mode == RefreshMode::kConditionalGet ? "conditional" : "full")
      << "\n";
  out << "preload " << (copy.config.preload ? 1 : 0) << "\n";
  out << "capacity-bytes " << copy.config.cache_capacity_bytes << "\n";
  // Windows are explicit now, so the plan's horizon is never consulted.
  FaultPlan plan(copy.config.faults, SimTime::Epoch());
  plan.Serialize(out);
  return out.str();
}

std::optional<TrialSpec> ParseRepro(std::istream& in, std::string* error) {
  const auto fail = [error](size_t line, const std::string& message) {
    if (error != nullptr) {
      *error = StrFormat("repro line %zu: %s", line, message.c_str());
    }
    return std::nullopt;
  };

  TrialSpec spec;
  std::string line;
  size_t line_no = 0;
  bool saw_header = false;
  bool saw_faults = false;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string trimmed(Trim(line));
    if (trimmed.empty()) {
      continue;
    }
    if (!saw_header) {
      if (trimmed != kReproHeader) {
        return fail(line_no, "expected \"" + std::string(kReproHeader) + "\" first");
      }
      saw_header = true;
      continue;
    }
    if (trimmed == kFaultPlanHeader || trimmed == kFaultPlanHeaderV2) {
      // Hand the rest of the stream (with whichever version header
      // re-attached) to the fault-plan parser; its all-or-nothing verdict
      // is ours.
      std::stringstream rest;
      rest << trimmed << "\n" << in.rdbuf();
      FaultPlanParseError plan_error;
      std::optional<FaultConfig> faults = FaultPlan::Parse(rest, &plan_error);
      if (!faults.has_value()) {
        return fail(line_no + plan_error.line,
                    "embedded fault plan: " + plan_error.message);
      }
      spec.config.faults = *faults;
      saw_faults = true;
      break;
    }
    if (trimmed[0] == '#') {
      continue;  // comment
    }
    const size_t space = trimmed.find(' ');
    if (space == std::string::npos) {
      return fail(line_no, "expected \"key value\"");
    }
    const std::string key = trimmed.substr(0, space);
    const std::string value(Trim(trimmed.substr(space + 1)));
    const auto as_int = [&](int64_t* dest) {
      std::optional<int64_t> parsed = ParseInt(value);
      if (parsed.has_value()) {
        *dest = *parsed;
      }
      return parsed.has_value();
    };
    const auto as_double = [&](double* dest) {
      std::optional<double> parsed = ParseDouble(value);
      if (parsed.has_value()) {
        *dest = *parsed;
      }
      return parsed.has_value();
    };
    int64_t n = 0;
    double d = 0.0;
    if (key == "invariant") {
      continue;  // informational: which invariant this artifact reproduces
    } else if (key == "campaign-seed") {
      if (!as_int(&n)) return fail(line_no, "bad campaign-seed");
      spec.campaign_seed = static_cast<uint64_t>(n);
    } else if (key == "trial-index") {
      if (!as_int(&n)) return fail(line_no, "bad trial-index");
      spec.index = static_cast<uint64_t>(n);
    } else if (key == "kind") {
      std::optional<TrialKind> kind = ParseTrialKind(value);
      if (!kind.has_value()) return fail(line_no, "unknown trial kind \"" + value + "\"");
      spec.kind = *kind;
    } else if (key == "topology") {
      std::optional<Topology> topology = ParseTopology(value);
      if (!topology.has_value()) {
        return fail(line_no, "unknown topology \"" + value + "\"");
      }
      spec.topology = *topology;
    } else if (key == "fleet-size") {
      if (!as_int(&n) || n < 2 || n > 4096) return fail(line_no, "bad fleet-size");
      spec.fleet_size = static_cast<uint32_t>(n);
    } else if (key == "request-limit") {
      if (!as_int(&n) || n < 0) return fail(line_no, "bad request-limit");
      spec.request_limit = static_cast<uint64_t>(n);
    } else if (key == "workload-source") {
      std::optional<WorkloadSource> source = ParseWorkloadSource(value);
      if (!source.has_value()) {
        return fail(line_no, "unknown workload source \"" + value + "\"");
      }
      spec.workload_source = *source;
    } else if (key == "campus-name") {
      if (value.empty()) return fail(line_no, "bad campus-name");
      spec.campus.name = value;
    } else if (key == "campus-files") {
      if (!as_int(&n) || n <= 0) return fail(line_no, "bad campus-files");
      spec.campus.num_files = static_cast<uint32_t>(n);
    } else if (key == "campus-requests") {
      if (!as_int(&n) || n <= 0) return fail(line_no, "bad campus-requests");
      spec.campus.num_requests = static_cast<uint64_t>(n);
    } else if (key == "campus-remote-fraction") {
      if (!as_double(&d) || d < 0.0 || d > 1.0) {
        return fail(line_no, "bad campus-remote-fraction");
      }
      spec.campus.remote_fraction = d;
    } else if (key == "campus-total-changes") {
      if (!as_int(&n) || n < 0) return fail(line_no, "bad campus-total-changes");
      spec.campus.total_changes = static_cast<uint64_t>(n);
    } else if (key == "campus-mutable-fraction") {
      if (!as_double(&d) || d < 0.0 || d > 1.0) {
        return fail(line_no, "bad campus-mutable-fraction");
      }
      spec.campus.mutable_fraction = d;
    } else if (key == "campus-very-mutable-fraction") {
      if (!as_double(&d) || d < 0.0 || d > 1.0) {
        return fail(line_no, "bad campus-very-mutable-fraction");
      }
      spec.campus.very_mutable_fraction = d;
    } else if (key == "campus-duration-days") {
      if (!as_int(&n) || n <= 0) return fail(line_no, "bad campus-duration-days");
      spec.campus.duration_days = static_cast<uint32_t>(n);
    } else if (key == "campus-zipf-skew") {
      if (!as_double(&d) || d < 0.0) return fail(line_no, "bad campus-zipf-skew");
      spec.campus.zipf_skew = d;
    } else if (key == "campus-placement") {
      std::optional<MutablePlacement> placement = ParseMutablePlacement(value);
      if (!placement.has_value()) {
        return fail(line_no, "unknown campus placement \"" + value + "\"");
      }
      spec.campus.mutable_placement = *placement;
    } else if (key == "campus-seed") {
      if (!as_int(&n)) return fail(line_no, "bad campus-seed");
      spec.campus.seed = static_cast<uint64_t>(n);
    } else if (key == "workload-files") {
      if (!as_int(&n) || n <= 0) return fail(line_no, "bad workload-files");
      spec.workload.num_files = static_cast<uint32_t>(n);
    } else if (key == "workload-duration-seconds") {
      if (!as_int(&n) || n <= 0) return fail(line_no, "bad workload-duration-seconds");
      spec.workload.duration = Seconds(n);
    } else if (key == "workload-min-lifetime-seconds") {
      if (!as_int(&n) || n < 0) return fail(line_no, "bad workload-min-lifetime-seconds");
      spec.workload.min_lifetime = Seconds(n);
    } else if (key == "workload-max-lifetime-seconds") {
      if (!as_int(&n) || n < 0) return fail(line_no, "bad workload-max-lifetime-seconds");
      spec.workload.max_lifetime = Seconds(n);
    } else if (key == "workload-requests-per-second") {
      if (!as_double(&d) || d <= 0.0) return fail(line_no, "bad workload-requests-per-second");
      spec.workload.requests_per_second = d;
    } else if (key == "workload-mean-file-bytes") {
      if (!as_int(&n) || n <= 0) return fail(line_no, "bad workload-mean-file-bytes");
      spec.workload.mean_file_bytes = n;
    } else if (key == "workload-size-sigma") {
      if (!as_double(&d) || d < 0.0) return fail(line_no, "bad workload-size-sigma");
      spec.workload.size_sigma = d;
    } else if (key == "workload-clients") {
      if (!as_int(&n) || n <= 0) return fail(line_no, "bad workload-clients");
      spec.workload.num_clients = static_cast<uint32_t>(n);
    } else if (key == "workload-seed") {
      if (!as_int(&n)) return fail(line_no, "bad workload-seed");
      spec.workload.seed = static_cast<uint64_t>(n);
    } else if (key == "policy-kind") {
      std::optional<PolicyKind> kind = ParsePolicyKind(value);
      if (!kind.has_value()) return fail(line_no, "unknown policy kind \"" + value + "\"");
      spec.config.policy.kind = *kind;
    } else if (key == "policy-ttl-seconds") {
      if (!as_int(&n) || n < 0) return fail(line_no, "bad policy-ttl-seconds");
      spec.config.policy.ttl = Seconds(n);
    } else if (key == "policy-alex-threshold") {
      if (!as_double(&d) || d < 0.0) return fail(line_no, "bad policy-alex-threshold");
      spec.config.policy.alex_threshold = d;
    } else if (key == "policy-alex-min-seconds") {
      if (!as_int(&n) || n < 0) return fail(line_no, "bad policy-alex-min-seconds");
      spec.config.policy.alex_min_validity = Seconds(n);
    } else if (key == "policy-alex-max-seconds") {
      if (!as_int(&n) || n < 0) return fail(line_no, "bad policy-alex-max-seconds");
      spec.config.policy.alex_max_validity = Seconds(n);
    } else if (key == "policy-cern-fraction") {
      if (!as_double(&d) || d < 0.0) return fail(line_no, "bad policy-cern-fraction");
      spec.config.policy.cern_lm_fraction = d;
    } else if (key == "policy-cern-default-ttl-seconds") {
      if (!as_int(&n) || n < 0) return fail(line_no, "bad policy-cern-default-ttl-seconds");
      spec.config.policy.cern_default_ttl = Seconds(n);
    } else if (key == "policy-lease-seconds") {
      if (!as_int(&n)) return fail(line_no, "bad policy-lease-seconds");
      spec.config.policy.invalidation_lease = Seconds(n);
    } else if (key == "refresh") {
      if (value == "conditional") {
        spec.config.refresh_mode = RefreshMode::kConditionalGet;
      } else if (value == "full") {
        spec.config.refresh_mode = RefreshMode::kFullRefetch;
      } else {
        return fail(line_no, "unknown refresh mode \"" + value + "\"");
      }
    } else if (key == "preload") {
      if (!as_int(&n) || (n != 0 && n != 1)) return fail(line_no, "bad preload");
      spec.config.preload = n == 1;
    } else if (key == "capacity-bytes") {
      if (!as_int(&n) || n < 0) return fail(line_no, "bad capacity-bytes");
      spec.config.cache_capacity_bytes = n;
    } else {
      return fail(line_no, "unknown key \"" + key + "\"");
    }
  }
  if (!saw_header) {
    return fail(0, "empty stream (no \"" + std::string(kReproHeader) + "\")");
  }
  if (!saw_faults) {
    return fail(0, "missing embedded \"" + std::string(kFaultPlanHeader) + "\" section");
  }
  if (spec.topology == Topology::kFleet && spec.fleet_size < 2) {
    return fail(0, "fleet topology requires \"fleet-size\" >= 2");
  }
  return spec;
}

std::string ReproCommand(const std::string& repro_path) {
  return "webcc-chaos --replay=" + repro_path;
}

ReplayOutcome ReplayRepro(const std::string& path) {
  ReplayOutcome outcome;
  std::ifstream in(path);
  if (!in) {
    outcome.error = "could not open " + path;
    return outcome;
  }
  std::optional<TrialSpec> spec = ParseRepro(in, &outcome.error);
  if (!spec.has_value()) {
    return outcome;
  }
  outcome.parsed = true;
  outcome.description = spec->Describe();
  outcome.violation = ProbeTrial(*spec);
  return outcome;
}

}  // namespace webcc
