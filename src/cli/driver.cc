#include "src/cli/driver.h"

#include <array>
#include <ostream>

#include "src/cli/args.h"
#include "src/core/experiment.h"
#include "src/core/fleet.h"
#include "src/core/hierarchy.h"
#include "src/core/report.h"
#include "src/core/sweep_runner.h"
#include "src/core/simulation.h"
#include "src/util/str.h"
#include "src/workload/analyzer.h"
#include "src/workload/campus.h"
#include "src/workload/clf.h"
#include "src/workload/trace.h"
#include "src/workload/worrell.h"

namespace webcc {

namespace {

constexpr std::string_view kHelp = R"(webcc_sim — Web cache-consistency simulator
(Gwertzman & Seltzer, USENIX '96 reproduction)

Workload selection:
  --workload=worrell|das|fas|hcs|trace   (default: worrell)
  --trace-file=PATH      trace to replay when --workload=trace
  --trace-format=webcc|clf               trace file format (default: webcc)
  --local-suffix=SUF     CLF: hosts ending in SUF count as local clients
  --files=N --days=N --rps=X --seed=N    Worrell workload overrides

Protocol selection:
  --policy=ttl|alex|squid|cern|adaptive|invalidation   (default: alex)
  --ttl-hours=N          TTL for --policy=ttl            (default: 48)
  --threshold=PCT        update threshold for alex/squid (default: 10)
  --min-hours=N          squid refresh_pattern min       (default: 1)
  --max-hours=N          squid refresh_pattern max       (default: 72)
  --lm-fraction=F        CERN Last-Modified fraction     (default: 0.1)
  --target-stale=PCT     adaptive tuner stale target     (default: 2)

Simulation mode:
  --mode=base|optimized  full re-fetch vs conditional GET (default: optimized)
  --no-preload           start with a cold cache
  --capacity-bytes=N     LRU-bounded cache (default: unbounded)

Topologies (default: one collapsed cache; not combinable with --sweep,
--analyze, or --capacity-bytes):
  --fleet=N              N sibling caches, clients sharded across members
  --hierarchy            two-level tree: server -> L2 -> L1a / L1b

Per-link fault overrides (comma-separated TARGET:VALUE entries; fleet
targets are member indices 0..N-1, tier targets are l2|l1a|l1b; scalar
overrides replace the base knob for that link, crash schedules append):
  --fleet-loss-rate=M:F  per-member message loss in [0, 1]
  --fleet-jitter=M:DUR   per-member invalidation delivery jitter cap
  --fleet-crash=M:DUR    crash member M at sim time DUR (dark for
                         --crash-outage, default 10m)
  --tier-loss-rate=LINK:F, --tier-jitter=LINK:DUR, --tier-crash=LINK:DUR
                         the same knobs for the tree's three edges; a crash
                         hits the link's cache endpoint

Sweeps (prints a figure series instead of one run):
  --sweep=alex|ttl       sweep the paper's parameter axis
  --jobs=N               run sweep points on N threads; 0 = auto, i.e. the
                         WEBCC_JOBS env var or the hardware thread count
                         (default: 0; results are identical for any N)
  --csv=PATH             also write the series as CSV
  --chart                also draw ASCII charts of the series

Fault injection (durations take s/m/h/d suffixes, e.g. 90s, 15m, 1.5h):
  --loss-rate=F          per-message loss probability in [0, 1] (default: 0)
  --fault-seed=N         seed for loss/jitter/downtime draws
  --jitter=DUR           max invalidation delivery jitter   (default: 0s)
  --downtime-start=DUR   origin outage start (with --downtime)
  --downtime=DUR         origin outage length               (default: none)
  --mtbf=DUR --mttr=DUR  generated origin up/down process   (default: off)
  --cache-crash=DUR      crash the cache at this sim time   (default: never)
  --crash-at-request=N   save a snapshot, then crash+restart in place
                         just before the Nth request        (default: never)
  --crash-outage=DUR     crash-to-restart dark window       (default: 10m)
  --recovery=auto|trust|revalidate|cold   snapshot handling on restart
  --retry-max=N          fetch attempts per exchange        (default: 4)
  --retry-timeout=DUR    per-attempt timeout                (default: 4s)
  --retry-backoff=DUR    initial exponential backoff        (default: 2s)
  --retry-jitter[=BOOL]  full-jitter backoff: each wait drawn uniformly
                         from [0, backoff] (seeded; default: off, which
                         keeps golden outputs bit-identical)
  --lease=DUR            invalidation lease / stale window  (default: none)
  --inval-retry=DUR      invalidation redelivery cadence    (default: 5m)

Analysis (no simulation):
  --analyze              print Table-1-style mutability statistics and the
                         file-type mix of the selected workload, then exit

Extra output:
  --by-type              after a single run, print the per-file-type
                         breakdown (requests, stale, misses, payload)

Other:
  --help                 this text
)";

std::optional<Workload> BuildWorkload(ArgParser& args, std::ostream& err) {
  const std::string kind = ToLower(args.GetString("workload", "worrell"));
  if (kind == "worrell") {
    WorrellConfig config;
    config.num_files = static_cast<uint32_t>(args.GetInt("files", config.num_files));
    config.duration = Days(args.GetInt("days", 56));
    config.requests_per_second = args.GetDouble("rps", config.requests_per_second);
    config.seed = static_cast<uint64_t>(args.GetInt("seed", static_cast<int64_t>(config.seed)));
    return GenerateWorrellWorkload(config);
  }
  if (kind == "das" || kind == "fas" || kind == "hcs") {
    CampusServerProfile profile = kind == "das"   ? CampusServerProfile::Das()
                                  : kind == "fas" ? CampusServerProfile::Fas()
                                                  : CampusServerProfile::Hcs();
    profile.seed = static_cast<uint64_t>(args.GetInt("seed", static_cast<int64_t>(profile.seed)));
    return CompileTrace(GenerateCampusWorkload(profile).trace);
  }
  if (kind == "trace") {
    const std::string path = args.GetString("trace-file", "");
    if (path.empty()) {
      err << "error: --workload=trace requires --trace-file=PATH\n";
      return std::nullopt;
    }
    const std::string format = ToLower(args.GetString("trace-format", "webcc"));
    if (format == "clf") {
      ClfParseOptions options;
      options.local_suffix = args.GetString("local-suffix", "");
      ClfReadStats stats;
      const auto trace = ReadClfTraceFile(path, options, &stats);
      if (!trace) {
        err << "error: cannot open " << path << "\n";
        return std::nullopt;
      }
      if (trace->records.empty()) {
        err << "error: no usable CLF records in " << path << " (" << stats.skipped_malformed
            << " malformed, " << stats.skipped_status << " non-2xx/304 skipped)\n";
        return std::nullopt;
      }
      err << "clf: " << stats.parsed << " records (" << stats.skipped_malformed
          << " malformed, " << stats.skipped_status << " skipped by status)\n";
      return CompileTrace(*trace);
    }
    if (format != "webcc") {
      err << "error: unknown --trace-format '" << format << "'\n";
      return std::nullopt;
    }
    TraceParseError parse_error;
    const auto trace = ReadTraceFile(path, &parse_error);
    if (!trace) {
      err << "error: " << path << ":" << parse_error.line << ": " << parse_error.message << "\n";
      return std::nullopt;
    }
    return CompileTrace(*trace);
  }
  err << "error: unknown --workload '" << kind << "'\n";
  return std::nullopt;
}

}  // namespace

std::optional<PolicyConfig> ParsePolicyFlags(ArgParser& args, std::ostream& err) {
  const std::string kind = ToLower(args.GetString("policy", "alex"));
  if (kind == "ttl") {
    return PolicyConfig::Ttl(HoursF(args.GetDouble("ttl-hours", 48.0)));
  }
  if (kind == "alex") {
    return PolicyConfig::Alex(args.GetDouble("threshold", 10.0) / 100.0);
  }
  if (kind == "squid") {
    return PolicyConfig::SquidRefreshPattern(HoursF(args.GetDouble("min-hours", 1.0)),
                                             args.GetDouble("threshold", 10.0),
                                             HoursF(args.GetDouble("max-hours", 72.0)));
  }
  if (kind == "cern") {
    return PolicyConfig::Cern(args.GetDouble("lm-fraction", 0.1),
                              HoursF(args.GetDouble("ttl-hours", 48.0)));
  }
  if (kind == "adaptive") {
    AdaptiveTunerPolicy::Options options;
    options.target_stale_rate = args.GetDouble("target-stale", 2.0) / 100.0;
    return PolicyConfig::Adaptive(options);
  }
  if (kind == "invalidation") {
    return PolicyConfig::Invalidation(args.GetDuration("lease", SimDuration(0)));
  }
  err << "error: unknown --policy '" << kind << "'\n";
  return std::nullopt;
}

namespace {

// Consumes the fault-injection flags into `config.faults`. Returns false
// (with a one-line error) on out-of-range values.
bool BuildFaults(ArgParser& args, SimulationConfig& config, std::ostream& err) {
  FaultConfig& faults = config.faults;
  faults.loss_rate = args.GetDouble("loss-rate", 0.0);
  if (faults.loss_rate < 0.0 || faults.loss_rate > 1.0) {
    err << "error: --loss-rate must be in [0, 1]\n";
    return false;
  }
  faults.seed = static_cast<uint64_t>(
      args.GetInt("fault-seed", static_cast<int64_t>(faults.seed)));
  faults.jitter_max = args.GetDuration("jitter", SimDuration(0));
  const SimDuration downtime = args.GetDuration("downtime", SimDuration(0));
  const SimDuration downtime_start = args.GetDuration("downtime-start", SimDuration(0));
  if (downtime > SimDuration(0)) {
    const SimTime start = SimTime::Epoch() + downtime_start;
    faults.server_downtime.push_back({start, start + downtime});
  }
  faults.server_mtbf = args.GetDuration("mtbf", SimDuration(0));
  faults.server_mttr = args.GetDuration("mttr", SimDuration(0));
  if ((faults.server_mtbf > SimDuration(0)) != (faults.server_mttr > SimDuration(0))) {
    err << "error: --mtbf and --mttr must be given together\n";
    return false;
  }
  if (args.Has("cache-crash")) {
    CacheCrashEvent crash;
    crash.at = SimTime::Epoch() + args.GetDuration("cache-crash", SimDuration(0));
    crash.outage = args.GetDuration("crash-outage", Minutes(10));
    faults.cache_crashes.push_back(crash);
  }
  const int64_t crash_at_request = args.GetInt("crash-at-request", -1);
  if (args.Has("crash-at-request") && crash_at_request < 0) {
    err << "error: --crash-at-request must be >= 0\n";
    return false;
  }
  faults.snapshot_crash_request = crash_at_request;
  const std::string recovery = ToLower(args.GetString("recovery", "auto"));
  if (recovery == "auto") {
    faults.crash_recovery = CrashRecovery::kAuto;
  } else if (recovery == "trust") {
    faults.crash_recovery = CrashRecovery::kTrustSnapshot;
  } else if (recovery == "revalidate") {
    faults.crash_recovery = CrashRecovery::kRevalidateAll;
  } else if (recovery == "cold") {
    faults.crash_recovery = CrashRecovery::kColdStart;
  } else {
    err << "error: --recovery expects auto, trust, revalidate, or cold\n";
    return false;
  }
  const int64_t retry_max = args.GetInt("retry-max", faults.retry.max_attempts);
  if (retry_max < 1 || retry_max > 100) {
    err << "error: --retry-max must be in [1, 100]\n";
    return false;
  }
  faults.retry.max_attempts = static_cast<int>(retry_max);
  faults.retry.timeout = args.GetDuration("retry-timeout", faults.retry.timeout);
  faults.retry.initial_backoff = args.GetDuration("retry-backoff", faults.retry.initial_backoff);
  faults.retry.full_jitter = args.GetBool("retry-jitter", faults.retry.full_jitter);
  faults.invalidation_retry_interval =
      args.GetDuration("inval-retry", faults.invalidation_retry_interval);
  return true;
}

LinkFaultOverride& OverrideFor(std::vector<LinkFaultOverride>& overrides, uint32_t link) {
  for (LinkFaultOverride& over : overrides) {
    if (over.link == link) {
      return over;
    }
  }
  overrides.push_back({});
  overrides.back().link = link;
  return overrides.back();
}

}  // namespace

// Malformed member indices, link names, durations, and out-of-range values
// all get the one-line error + exit 2 contract (the caller maps false to 2).
bool ParseTopologyFaultFlags(ArgParser& args, FaultConfig& faults, CliTopologySelection& topo,
                             std::ostream& err) {
  const bool hierarchy = args.GetBool("hierarchy");
  const int64_t fleet = args.GetInt("fleet", 0);
  if (args.Has("fleet") && (fleet < 2 || fleet > 4096)) {
    err << "error: --fleet expects a member count in [2, 4096]\n";
    return false;
  }
  if (hierarchy && args.Has("fleet")) {
    err << "error: --fleet and --hierarchy are mutually exclusive\n";
    return false;
  }
  topo.mode = hierarchy           ? CliTopology::kHierarchy
              : args.Has("fleet") ? CliTopology::kFleet
                                  : CliTopology::kSingle;
  topo.fleet_size = topo.mode == CliTopology::kFleet ? static_cast<uint32_t>(fleet) : 0;

  struct Knob {
    const char* flag;
    enum Kind { kLoss, kJitter, kCrash } kind;
    bool fleet_scoped;
  };
  constexpr Knob kKnobs[] = {
      {"fleet-loss-rate", Knob::kLoss, true}, {"fleet-jitter", Knob::kJitter, true},
      {"fleet-crash", Knob::kCrash, true},    {"tier-loss-rate", Knob::kLoss, false},
      {"tier-jitter", Knob::kJitter, false},  {"tier-crash", Knob::kCrash, false},
  };
  const SimDuration crash_outage = args.GetDuration("crash-outage", Minutes(10));
  for (const Knob& knob : kKnobs) {
    if (!args.Has(knob.flag)) {
      continue;
    }
    const std::string text = args.GetString(knob.flag, "");
    if (knob.fleet_scoped && topo.mode != CliTopology::kFleet) {
      err << "error: --" << knob.flag << " requires --fleet=N\n";
      return false;
    }
    if (!knob.fleet_scoped && topo.mode != CliTopology::kHierarchy) {
      err << "error: --" << knob.flag << " requires --hierarchy\n";
      return false;
    }
    for (const std::string_view entry : Split(text, ',')) {
      const size_t colon = entry.find(':');
      if (colon == std::string_view::npos || colon == 0 || colon + 1 >= entry.size()) {
        err << "error: --" << knob.flag << " entries look like TARGET:VALUE, got '" << entry
            << "'\n";
        return false;
      }
      const std::string target(entry.substr(0, colon));
      const std::string value(entry.substr(colon + 1));
      uint32_t link = 0;
      if (knob.fleet_scoped) {
        const std::optional<int64_t> member = ParseInt(target);
        if (!member || *member < 0 || *member >= fleet) {
          err << "error: --" << knob.flag << " member index '" << target << "' is not in [0, "
              << fleet << ")\n";
          return false;
        }
        link = static_cast<uint32_t>(*member);
      } else if (target == "l2") {
        link = static_cast<uint32_t>(HierarchyLink::kServerL2);
      } else if (target == "l1a") {
        link = static_cast<uint32_t>(HierarchyLink::kL2L1a);
      } else if (target == "l1b") {
        link = static_cast<uint32_t>(HierarchyLink::kL2L1b);
      } else {
        err << "error: --" << knob.flag << " link '" << target << "' is not l2, l1a, or l1b\n";
        return false;
      }
      LinkFaultOverride& over = OverrideFor(faults.link_overrides, link);
      switch (knob.kind) {
        case Knob::kLoss: {
          const std::optional<double> rate = ParseDouble(value);
          // The negated >= form also rejects NaN, which strtod parses.
          if (!rate || !(*rate >= 0.0 && *rate <= 1.0)) {
            err << "error: --" << knob.flag << " loss rate '" << value
                << "' must be in [0, 1]\n";
            return false;
          }
          over.loss_rate = *rate;
          break;
        }
        case Knob::kJitter: {
          const std::optional<SimDuration> jitter = ArgParser::ParseDurationText(value);
          if (!jitter) {
            err << "error: --" << knob.flag
                << " expects a duration like 90s, 15m, or 1.5h; got '" << value << "'\n";
            return false;
          }
          over.jitter_max = *jitter;
          break;
        }
        case Knob::kCrash: {
          const std::optional<SimDuration> at = ArgParser::ParseDurationText(value);
          if (!at) {
            err << "error: --" << knob.flag
                << " expects a duration like 90s, 15m, or 1.5h; got '" << value << "'\n";
            return false;
          }
          over.crashes.push_back({SimTime::Epoch() + *at, crash_outage});
          break;
        }
      }
    }
  }
  return true;
}

namespace {

// One row per cache: the per-tier/per-member failure-spread columns.
void AddSpreadRow(TextTable& table, const std::string& name, const CacheStats& stats) {
  table.AddRow({name, StrFormat("%llu", static_cast<unsigned long long>(stats.requests)),
                StrFormat("%llu", static_cast<unsigned long long>(stats.stale_hits)),
                StrFormat("%llu", static_cast<unsigned long long>(stats.degraded_serves)),
                StrFormat("%llu", static_cast<unsigned long long>(stats.failed_requests)),
                StrFormat("%llu", static_cast<unsigned long long>(stats.crashes)),
                StrFormat("%lld", static_cast<long long>(stats.unavailable_seconds))});
}

int RunFleetMode(const Workload& load, const SimulationConfig& config,
                 const CliTopologySelection& topo, const std::string& mode,
                 std::ostream& out) {
  FleetConfig fleet;
  fleet.policy = config.policy;
  fleet.num_caches = topo.fleet_size;
  fleet.refresh_mode = config.refresh_mode;
  fleet.preload = config.preload;
  fleet.faults = config.faults;
  const FleetResult result = RunFleetSimulation(load, fleet);

  out << "policy:   " << result.policy_desc << "  (" << mode << " retrieval, fleet of "
      << result.num_caches << ")\n\n";
  out << StrFormat("fleet: %llu requests, %llu stale hits, %llu misses, %s on the links\n",
                   static_cast<unsigned long long>(result.requests),
                   static_cast<unsigned long long>(result.stale_hits),
                   static_cast<unsigned long long>(result.misses),
                   FormatBytes(static_cast<double>(result.total_link_bytes)).c_str());
  out << StrFormat("subscriptions: %zu peak concurrent, %zu at end of run\n",
                   result.peak_subscriptions, result.final_subscriptions);
  if (fleet.faults.Enabled()) {
    out << StrFormat("failure spread: %u dark members, worst member stale rate %s\n",
                     result.DarkMembers(),
                     FormatPercent(result.WorstMemberStaleRate(), 2).c_str());
  }
  out << "\n";
  TextTable table;
  table.SetTitle("Per-member spread:");
  table.SetHeader({"Member", "Requests", "Stale", "Degraded", "Failed", "Crashes", "Dark s"});
  for (const FleetMemberSummary& m : result.members) {
    table.AddRow({StrFormat("%u", m.member),
                  StrFormat("%llu", static_cast<unsigned long long>(m.requests)),
                  StrFormat("%llu", static_cast<unsigned long long>(m.stale_hits)),
                  StrFormat("%llu", static_cast<unsigned long long>(m.degraded_serves)),
                  StrFormat("%llu", static_cast<unsigned long long>(m.failed_requests)),
                  StrFormat("%llu", static_cast<unsigned long long>(m.crashes)),
                  StrFormat("%lld", static_cast<long long>(m.unavailable_seconds))});
  }
  table.Render(out);
  return 0;
}

int RunHierarchyMode(const Workload& load, const SimulationConfig& config,
                     const std::string& mode, std::ostream& out) {
  HierarchyConfig tree;
  tree.policy = config.policy;
  tree.refresh_mode = config.refresh_mode;
  tree.preload = config.preload;
  tree.faults = config.faults;
  const HierarchyResult result = RunHierarchySimulation(load, tree);

  out << "policy:   " << result.policy_desc << "  (" << mode
      << " retrieval, two-level tree)\n\n";
  out << StrFormat("tree: %llu requests, %llu leaf stale hits, %llu leaf misses, %s on the "
                   "links\n",
                   static_cast<unsigned long long>(result.requests),
                   static_cast<unsigned long long>(result.LeafStaleHits()),
                   static_cast<unsigned long long>(result.LeafMisses()),
                   FormatBytes(static_cast<double>(result.TotalLinkBytes())).c_str());
  out << StrFormat("worst leaf stale rate %s, %u dark tiers, fan-out x%.2f\n",
                   FormatPercent(result.WorstLeafStaleRate(), 2).c_str(), result.DarkTiers(),
                   result.FanOutAmplification());
  if (result.child_invalidations_sent > 0 || result.pending_child_invalidations > 0) {
    out << StrFormat(
        "child invalidations: %llu sent, %llu delivered, %llu dropped, %llu queued, "
        "%llu redelivered, %zu still pending\n",
        static_cast<unsigned long long>(result.child_invalidations_sent),
        static_cast<unsigned long long>(result.child_invalidations_delivered),
        static_cast<unsigned long long>(result.child_invalidations_dropped),
        static_cast<unsigned long long>(result.child_invalidations_queued),
        static_cast<unsigned long long>(result.child_invalidations_redelivered),
        result.pending_child_invalidations);
  }
  out << "\n";
  TextTable table;
  table.SetTitle("Per-tier spread:");
  table.SetHeader({"Tier", "Requests", "Stale", "Degraded", "Failed", "Crashes", "Dark s"});
  AddSpreadRow(table, "L2", result.l2);
  AddSpreadRow(table, "L1a", result.l1a);
  AddSpreadRow(table, "L1b", result.l1b);
  table.Render(out);
  return 0;
}

}  // namespace

std::string CliHelpText() { return std::string(kHelp); }

int RunCliDriver(const std::vector<std::string>& args_vec, std::ostream& out,
                 std::ostream& err) {
  ArgParser args(args_vec);
  if (!args.ok()) {
    err << "error: " << args.error() << "\n";
    return 2;
  }
  if (args.GetBool("help")) {
    out << kHelp;
    return 0;
  }

  const auto load = BuildWorkload(args, err);
  if (!load) {
    return 2;
  }
  const auto policy = ParsePolicyFlags(args, err);
  if (!policy) {
    return 2;
  }

  SimulationConfig config;
  config.policy = *policy;
  const std::string mode = ToLower(args.GetString("mode", "optimized"));
  if (mode == "base") {
    config.refresh_mode = RefreshMode::kFullRefetch;
  } else if (mode == "optimized") {
    config.refresh_mode = RefreshMode::kConditionalGet;
  } else {
    err << "error: unknown --mode '" << mode << "'\n";
    return 2;
  }
  config.preload = !args.GetBool("no-preload");
  config.cache_capacity_bytes = args.GetInt("capacity-bytes", 0);
  if (config.cache_capacity_bytes < 0) {
    err << "error: --capacity-bytes must be >= 0\n";
    return 2;
  }
  if (!BuildFaults(args, config, err)) {
    return 2;
  }
  CliTopologySelection topo;
  if (!ParseTopologyFaultFlags(args, config.faults, topo, err)) {
    return 2;
  }

  const std::string sweep = ToLower(args.GetString("sweep", ""));
  const int64_t jobs_flag = args.GetInt("jobs", 0);
  if (jobs_flag < 0 || jobs_flag > 4096) {
    err << "error: --jobs must be in [0, 4096]\n";
    return 2;
  }
  const std::string csv = args.GetString("csv", "");
  const bool chart = args.GetBool("chart");
  const bool analyze = args.GetBool("analyze");
  const bool by_type = args.GetBool("by-type");

  if (!args.ok()) {
    err << "error: " << args.error() << "\n";
    return 2;
  }
  const auto unused = args.UnusedFlags();
  if (!unused.empty()) {
    err << "error: unknown flag --" << unused.front() << " (see --help)\n";
    return 2;
  }
  if (topo.mode != CliTopology::kSingle) {
    const char* topo_flag = topo.mode == CliTopology::kFleet ? "--fleet" : "--hierarchy";
    if (!sweep.empty()) {
      err << "error: " << topo_flag << " cannot be combined with --sweep\n";
      return 2;
    }
    if (analyze) {
      err << "error: " << topo_flag << " cannot be combined with --analyze\n";
      return 2;
    }
    if (config.cache_capacity_bytes > 0) {
      err << "error: " << topo_flag << " cannot be combined with --capacity-bytes\n";
      return 2;
    }
  }

  out << "workload: " << load->name << " — " << load->objects.size() << " objects, "
      << load->requests.size() << " requests, " << load->modifications.size()
      << " modifications\n";

  if (analyze) {
    const MutabilityStats stats = AnalyzeWorkloadMutability(*load);
    TextTable table;
    table.SetTitle("Mutability statistics:");
    table.SetHeader({"Files", "Requests", "% Remote", "Changes", "% Mutable",
                     "% Very Mutable"});
    table.AddRow({StrFormat("%llu", static_cast<unsigned long long>(stats.files)),
                  StrFormat("%llu", static_cast<unsigned long long>(stats.requests)),
                  FormatPercent(stats.remote_fraction, 0),
                  StrFormat("%llu", static_cast<unsigned long long>(stats.total_changes)),
                  FormatPercent(stats.mutable_fraction, 2),
                  FormatPercent(stats.very_mutable_fraction, 2)});
    table.Render(out);

    TextTable mix;
    mix.SetTitle("File-type mix:");
    mix.SetHeader({"Type", "Objects", "% of requests"});
    std::array<uint64_t, kNumFileTypes> object_counts{};
    std::array<uint64_t, kNumFileTypes> request_counts{};
    for (const ObjectSpec& spec : load->objects) {
      ++object_counts[static_cast<size_t>(spec.type)];
    }
    for (const RequestEvent& req : load->requests) {
      ++request_counts[static_cast<size_t>(load->objects[req.object_index].type)];
    }
    for (int t = 0; t < kNumFileTypes; ++t) {
      mix.AddRow({std::string(FileTypeName(static_cast<FileType>(t))),
                  StrFormat("%llu", static_cast<unsigned long long>(object_counts[t])),
                  FormatPercent(load->requests.empty()
                                    ? 0.0
                                    : static_cast<double>(request_counts[t]) /
                                          static_cast<double>(load->requests.size()),
                                1)});
    }
    out << "\n";
    mix.Render(out);
    return 0;
  }

  if (!sweep.empty()) {
    const auto inval = RunInvalidation(*load, config);
    SweepRunner runner(static_cast<size_t>(jobs_flag));
    SweepSeries series;
    if (sweep == "alex") {
      series = runner.SweepAlexThreshold(*load, config, PaperThresholdPercents());
    } else if (sweep == "ttl") {
      series = runner.SweepTtlHours(*load, config, PaperTtlHours());
    } else {
      err << "error: --sweep expects 'alex' or 'ttl'\n";
      return 2;
    }
    const TextTable bandwidth = BandwidthFigure("Bandwidth", series, inval.metrics);
    const TextTable rates = MissRateFigure("Miss/stale rates", series, inval.metrics);
    const TextTable ops = ServerLoadFigure("Server load", series, inval.metrics);
    bandwidth.Render(out);
    out << "\n";
    rates.Render(out);
    out << "\n";
    ops.Render(out);
    if (chart) {
      out << "\n"
          << FigureChart("Bandwidth", series, inval.metrics, FigureMetric::kBandwidthMB) << "\n"
          << FigureChart("Stale rate", series, inval.metrics, FigureMetric::kStalePercent)
          << "\n"
          << FigureChart("Server load", series, inval.metrics, FigureMetric::kServerOps);
    }
    if (!csv.empty()) {
      if (!WriteCsvFile(bandwidth, csv)) {
        err << "error: cannot write " << csv << "\n";
        return 1;
      }
      out << "\n[bandwidth series written to " << csv << "]\n";
    }
    return 0;
  }

  if (topo.mode == CliTopology::kFleet) {
    return RunFleetMode(*load, config, topo, mode, out);
  }
  if (topo.mode == CliTopology::kHierarchy) {
    return RunHierarchyMode(*load, config, mode, out);
  }

  const SimulationResult result = RunSimulation(*load, config);
  out << "policy:   " << result.policy_desc << "  (" << mode << " retrieval, "
      << (config.preload ? "warm" : "cold") << " cache)\n\n";
  out << result.metrics.Summary() << "\n";
  if (config.faults.Enabled()) {
    out << "faults:   " << result.metrics.FailureSummary() << "\n";
  }
  out << StrFormat("traffic breakdown: %.3f MB payload + %.3f MB control\n",
                   result.metrics.PayloadMB(),
                   static_cast<double>(result.metrics.control_bytes) / 1e6);
  out << StrFormat("cache: %llu fresh hits, %llu validated hits, %llu cold + %llu refetch "
                   "misses, %llu evictions\n",
                   static_cast<unsigned long long>(result.cache.hits_fresh),
                   static_cast<unsigned long long>(result.cache.hits_validated),
                   static_cast<unsigned long long>(result.cache.misses_cold),
                   static_cast<unsigned long long>(result.cache.misses_refetched),
                   static_cast<unsigned long long>(result.cache.evictions));
  if (by_type) {
    out << "\n";
    TypeBreakdownTable(result.cache).Render(out);
  }
  return 0;
}

}  // namespace webcc
