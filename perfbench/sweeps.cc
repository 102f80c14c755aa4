// paper-sweep and churn-sweep: protocol sweeps through SweepRunner.
//
// paper-sweep is the optimized-simulator Worrell sweep (Figures 4-5) plus the
// trace-driven sweeps over the three campus traces (Figures 6-8): per
// workload, invalidation, 21 Alex thresholds and 21 TTLs. It reads ~85x as
// often as it writes, so fresh hits and the replay loop dominate.
//
// churn-sweep keeps the Worrell generator but takes ~10x the objects and
// lifetimes of hours, so modifications are about as many as requests: every
// write fans out an invalidation, and the cache index and subscription
// registry outgrow L2. A read-path gain that costs the write path shows here.
//
// The traced run attaches one PointProbe (SimObserver) and one TimedPolicy
// decorator per sweep point through SweepPointSpec, so the hooks share no
// mutable state across threads.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "src/cache/policy_factory.h"
#include "src/core/experiment.h"
#include "src/core/sweep_runner.h"
#include "src/workload/campus.h"
#include "src/workload/trace.h"
#include "src/workload/worrell.h"
#include "trace.h"

namespace perfbench {
namespace {

using webcc::CacheEntry;
using webcc::ConsistencyPolicy;
using webcc::FetchInfo;
using webcc::PolicyConfig;
using webcc::SimTime;
using webcc::SimulationConfig;
using webcc::SweepPointSpec;
using webcc::Workload;

struct SweepLoad {
  Workload load;
  std::vector<SweepPointSpec> specs;
  uint64_t events_per_point = 0;  // requests + modifications
};

std::vector<SweepPointSpec> PointSpecs(const SimulationConfig& base,
                                       const std::vector<double>& alex_percents,
                                       const std::vector<double>& ttl_hours) {
  std::vector<SweepPointSpec> specs;
  SweepPointSpec inval{0.0, base};
  inval.config.policy = PolicyConfig::Invalidation();
  specs.push_back(inval);
  for (const double pct : alex_percents) {
    SweepPointSpec spec{pct, base};
    spec.config.policy = PolicyConfig::Alex(pct / 100.0);
    specs.push_back(spec);
  }
  for (const double hours : ttl_hours) {
    SweepPointSpec spec{hours, base};
    spec.config.policy = PolicyConfig::Ttl(webcc::HoursF(hours));
    specs.push_back(spec);
  }
  return specs;
}

SweepLoad MakeLoad(Workload load, std::vector<SweepPointSpec> specs) {
  SweepLoad out{std::move(load), std::move(specs), 0};
  out.events_per_point = out.load.RequestCount() + out.load.ModificationCount();
  return out;
}

std::vector<SweepLoad> BuildLoads(const std::string& workload, uint64_t seed) {
  std::vector<SweepLoad> loads;
  const auto optimized = SimulationConfig::Optimized(PolicyConfig::Invalidation());
  if (workload == "paper-sweep") {
    webcc::WorrellConfig worrell;
    worrell.seed = MixSeed(worrell.seed, seed);
    loads.push_back(MakeLoad(GenerateWorrellWorkload(worrell),
                             PointSpecs(optimized, webcc::PaperThresholdPercents(),
                                        webcc::PaperTtlHours())));
    const auto trace_driven = SimulationConfig::TraceDriven(PolicyConfig::Invalidation());
    for (webcc::CampusServerProfile profile : webcc::CampusServerProfile::AllTable1()) {
      profile.seed = MixSeed(profile.seed, seed);
      loads.push_back(MakeLoad(CompileTrace(GenerateCampusWorkload(profile).trace),
                               PointSpecs(trace_driven, webcc::PaperThresholdPercents(),
                                          webcc::PaperTtlHours())));
    }
  } else {
    // 20k objects living 30-330 min under 2 req/s for 14 days: ~2.4 M
    // requests and ~2.2 M modifications.
    webcc::WorrellConfig churn;
    churn.num_files = 20000;
    churn.duration = webcc::Days(14);
    churn.min_lifetime = webcc::Minutes(30);
    churn.max_lifetime = webcc::Minutes(330);
    churn.requests_per_second = 2.0;
    churn.seed = MixSeed(churn.seed, seed);
    loads.push_back(MakeLoad(GenerateWorrellWorkload(churn),
                             PointSpecs(optimized, {0, 10, 40, 100}, {0, 0.5, 2, 8})));
  }
  return loads;
}

// --- Traced-run hooks -------------------------------------------------------

// A sweep task's start is not visible from outside SweepRunner; the nearest
// observable instant is the end of the previous point on the same worker
// (or the Run call's start for a worker's first point), since pool workers
// pull the next task immediately.
std::atomic<uint64_t> g_run_generation{0};
std::atomic<int64_t> g_run_start_ns{0};

struct WorkerMark {
  uint64_t generation = 0;
  int64_t last_end_ns = 0;
};
thread_local WorkerMark t_worker;

int64_t TaskStartNs() {
  const uint64_t generation = g_run_generation.load(std::memory_order_relaxed);
  return t_worker.generation == generation ? t_worker.last_end_ns
                                           : g_run_start_ns.load(std::memory_order_relaxed);
}

// Per-event and per-policy-call timings are sampled: a clock read costs tens
// of nanoseconds, as much as the replay step it would time, so only one
// interval in kSampleEvery is timed, net of the clock's own cost.
constexpr uint64_t kSampleEvery = 16;

struct PointProbe final : webcc::SimObserver {
  uint64_t parent_span = 0;
  int64_t key = 0;
  int64_t task_start_ns = 0;
  int64_t run_start_ns = 0;
  int64_t run_end_ns = 0;
  const void* worker = nullptr;
  uint64_t events = 0;
  int64_t sample_start_ns = -1;  // >= 0 while an interval is being timed
  LogHistogram fresh;
  LogHistogram validated;
  LogHistogram fetched;
  LogHistogram modify;
  uint64_t policy_calls = 0;
  int64_t policy_sampled_ns = 0;

  void OnRunStart(const webcc::ProxyCache&, const webcc::OriginServer&) override {
    run_start_ns = NowNs();
    task_start_ns = TaskStartNs();
  }
  // A sampled interval starts at one callback and ends at the next, so it
  // covers the replay step that produced the second callback.
  void OnModification(webcc::ObjectId, SimTime) override { Tick(modify); }
  void OnServe(const webcc::ServeObservation& observation) override {
    switch (observation.result.kind) {
      case webcc::ServeKind::kHitFresh:
        Tick(fresh);
        break;
      case webcc::ServeKind::kHitValidated:
        Tick(validated);
        break;
      default:
        Tick(fetched);
        break;
    }
  }
  void OnRunEnd(const webcc::ProxyCache&, const webcc::OriginServer&) override {
    run_end_ns = NowNs();
    worker = &t_worker;
    t_worker = WorkerMark{g_run_generation.load(std::memory_order_relaxed), run_end_ns};
    if (Tracer::enabled()) {
      const uint64_t id = Tracer::NewId();
      Tracer::Record(Span{"point", id, parent_span, key, task_start_ns, run_end_ns, 0});
      Tracer::Record(Span{"point.setup", Tracer::NewId(), id, key, task_start_ns, run_start_ns, 0});
      Tracer::Record(Span{"point.replay", Tracer::NewId(), id, key, run_start_ns, run_end_ns, 0});
    }
  }

 private:
  void Tick(LogHistogram& kind) {
    if (sample_start_ns >= 0) {
      kind.Record(NowNs() - sample_start_ns - ClockCostNs());
      sample_start_ns = -1;
    }
    if (++events % kSampleEvery == 0) {
      sample_start_ns = NowNs();
    }
  }
};

// Forwards every call to the real policy and times the ones the replay
// makes per request. The trait queries are forwarded untimed: the cache
// reads them once at construction to pick its column fast path, and the
// traced run must take the same path as the untraced one.
class TimedPolicy final : public ConsistencyPolicy {
 public:
  TimedPolicy(std::unique_ptr<ConsistencyPolicy> inner, PointProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  webcc::PolicyKind kind() const override { return inner_->kind(); }
  webcc::ValidityModel validity_model() const override { return inner_->validity_model(); }
  bool UsesServerInvalidation() const override { return inner_->UsesServerInvalidation(); }
  bool WantsServeFeedback() const override { return inner_->WantsServeFeedback(); }
  std::string Describe() const override { return inner_->Describe(); }

  bool IsValid(const CacheEntry& entry, SimTime now) const override {
    const int64_t t0 = Begin();
    const bool valid = inner_->IsValid(entry, now);
    End(t0);
    return valid;
  }
  void OnFetch(CacheEntry& entry, SimTime now, const FetchInfo& info) override {
    const int64_t t0 = Begin();
    inner_->OnFetch(entry, now, info);
    End(t0);
  }
  void OnValidate(CacheEntry& entry, SimTime now) override {
    const int64_t t0 = Begin();
    inner_->OnValidate(entry, now);
    End(t0);
  }
  void OnValidationOutcome(const CacheEntry& entry, bool was_modified,
                           SimTime server_last_modified, SimTime now) override {
    const int64_t t0 = Begin();
    inner_->OnValidationOutcome(entry, was_modified, server_last_modified, now);
    End(t0);
  }

 private:
  // Counts every call; times one in kSampleEvery (returns -1 otherwise).
  int64_t Begin() const {
    return ++probe_->policy_calls % kSampleEvery == 0 ? NowNs() : -1;
  }
  void End(int64_t t0) const {
    if (t0 >= 0) {
      probe_->policy_sampled_ns += std::max<int64_t>(0, NowNs() - t0 - ClockCostNs());
    }
  }

  std::unique_ptr<ConsistencyPolicy> inner_;
  PointProbe* probe_;
};

// Per-layer figures of one traced pass (sums over its points).
struct TracedPass {
  std::vector<double> point_s;
  std::vector<double> point_setup_ms;
  int64_t replay_ns = 0;
  uint64_t replay_events = 0;
  double busy_s = 0;
  double capacity_s = 0;  // jobs x Run wall
  double tail_s = 0;
  LogHistogram fresh, validated, fetched, modify;
  uint64_t policy_calls = 0;
  int64_t policy_ns = 0;
  uint64_t requests = 0;
  uint64_t hits_fresh = 0;
  uint64_t invalidations_sent = 0;
  uint64_t ims_queries = 0;
};

struct PassOutcome {
  double wall_s = 0;
  uint64_t events = 0;
  std::vector<uint64_t> digests;  // one per point; 0 for a point that threw
  bool threw = false;
};

PassOutcome RunPass(webcc::SweepRunner& runner, const std::vector<SweepLoad>& loads,
                    TracedPass* traced, uint64_t parent_span) {
  PassOutcome out;
  const int64_t pass_start = NowNs();
  for (size_t l = 0; l < loads.size(); ++l) {
    const SweepLoad& sweep = loads[l];
    ScopedSpan span("sweep", parent_span, static_cast<int64_t>(l));
    std::vector<SweepPointSpec> specs = sweep.specs;
    std::vector<std::unique_ptr<PointProbe>> probes;
    if (traced != nullptr) {
      for (size_t p = 0; p < specs.size(); ++p) {
        probes.push_back(std::make_unique<PointProbe>());
        PointProbe* probe = probes.back().get();
        probe->parent_span = span.id();
        probe->key = static_cast<int64_t>(p);
        specs[p].config.observer = probe;
        specs[p].config.policy_factory = [policy = specs[p].config.policy, probe] {
          return std::make_unique<TimedPolicy>(webcc::MakePolicy(policy), probe);
        };
      }
    }
    const int64_t run_start = NowNs();
    g_run_start_ns.store(run_start, std::memory_order_relaxed);
    g_run_generation.fetch_add(1, std::memory_order_relaxed);
    webcc::SweepSeries series;
    try {
      series = runner.Run(sweep.load.name, "param", sweep.load, specs);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: sweep over %s threw: %s\n", sweep.load.name.c_str(),
                   e.what());
      out.threw = true;
    }
    const int64_t run_end = NowNs();
    out.events += sweep.events_per_point * specs.size();
    for (size_t p = 0; p < specs.size(); ++p) {
      out.digests.push_back(p < series.points.size() ? DigestResult(series.points[p].result) : 0);
    }
    if (traced == nullptr || series.points.size() != specs.size()) {
      continue;
    }
    // Pool accounting for this Run call: busy time against jobs x wall, and
    // the tail after the first worker ran out of work for good.
    std::vector<std::pair<const void*, int64_t>> last_end_by_worker;
    for (size_t p = 0; p < specs.size(); ++p) {
      const PointProbe& probe = *probes[p];
      const webcc::SimulationResult& result = series.points[p].result;
      traced->point_s.push_back(static_cast<double>(probe.run_end_ns - probe.task_start_ns) / 1e9);
      traced->point_setup_ms.push_back(
          static_cast<double>(probe.run_start_ns - probe.task_start_ns) / 1e6);
      traced->busy_s += static_cast<double>(probe.run_end_ns - probe.task_start_ns) / 1e9;
      traced->replay_ns += probe.run_end_ns - probe.run_start_ns;
      traced->replay_events += probe.events;
      traced->fresh.Merge(probe.fresh);
      traced->validated.Merge(probe.validated);
      traced->fetched.Merge(probe.fetched);
      traced->modify.Merge(probe.modify);
      traced->policy_calls += probe.policy_calls;
      traced->policy_ns += probe.policy_sampled_ns * static_cast<int64_t>(kSampleEvery);
      traced->requests += result.cache.requests;
      traced->hits_fresh += result.cache.hits_fresh;
      traced->invalidations_sent += result.server.invalidations_sent;
      traced->ims_queries += result.server.ims_queries;
      auto it = std::find_if(last_end_by_worker.begin(), last_end_by_worker.end(),
                             [&](const auto& w) { return w.first == probe.worker; });
      if (it == last_end_by_worker.end()) {
        last_end_by_worker.emplace_back(probe.worker, probe.run_end_ns);
      } else {
        it->second = std::max(it->second, probe.run_end_ns);
      }
    }
    int64_t first_idle = run_end;
    for (const auto& w : last_end_by_worker) {
      first_idle = std::min(first_idle, w.second);
    }
    if (last_end_by_worker.size() < runner.jobs()) {
      first_idle = run_start;  // a worker never got a point
    }
    traced->tail_s += static_cast<double>(run_end - first_idle) / 1e9;
    traced->capacity_s += static_cast<double>(runner.jobs()) *
                          static_cast<double>(run_end - run_start) / 1e9;
  }
  out.wall_s = static_cast<double>(NowNs() - pass_start) / 1e9;
  return out;
}

}  // namespace

Report RunSweepWorkload(const RunOptions& options) {
  Report report;
  ScopedSpan run("run", 0);
  const uint64_t root = run.id();

  // Set-up: generate (and for campus traces, render and recompile) every
  // workload three times; the median is the set-up time. The previous copy
  // is freed first, outside the timing, so only one is ever resident.
  std::vector<double> setup_s;
  std::vector<SweepLoad> loads;
  for (int i = 0; i < 3; ++i) {
    loads.clear();
    ScopedSpan span("setup", root, i);
    const int64_t t0 = NowNs();
    loads = BuildLoads(options.workload, options.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  for (const SweepLoad& sweep : loads) {
    const std::string problem = sweep.load.Validate();
    if (!problem.empty()) {
      report.Fail("generated workload " + sweep.load.name + " is invalid: " + problem);
    }
  }

  std::string golden_error;
  const std::vector<uint64_t> reference = ReferenceDigests(
      options,
      [&] {
        ScopedSpan span("reference", root);
        webcc::SweepRunner serial(1);
        PassOutcome pass = RunPass(serial, loads, nullptr, span.id());
        return pass.threw ? std::vector<uint64_t>{} : pass.digests;
      },
      &golden_error);
  if (!golden_error.empty()) {
    report.Fail(golden_error);
  }

  webcc::SweepRunner runner(SweepJobs());
  std::vector<double> rates;
  std::vector<double> traced_walls;
  std::vector<double> untraced_walls;
  std::vector<TracedPass> traced_passes;
  const auto check = [&](const PassOutcome& pass) {
    report.attempted += pass.digests.size();
    for (size_t i = 0; i < pass.digests.size(); ++i) {
      if (!golden_error.empty() || i >= reference.size() || pass.digests[i] != reference[i]) {
        ++report.failed;
      }
    }
  };

  // Measured phase: whole passes until the time is spent. The traced run
  // alternates untraced and traced passes so their ratio is the tracing
  // overhead on this machine at this moment.
  const int64_t deadline = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (int pass = 0;; ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    ScopedSpan span(traced ? "pass.traced" : "pass", root, pass);
    TracedPass layer;
    const PassOutcome outcome = RunPass(runner, loads, traced ? &layer : nullptr, span.id());
    check(outcome);
    if (traced) {
      traced_walls.push_back(outcome.wall_s);
      traced_passes.push_back(std::move(layer));
    } else {
      untraced_walls.push_back(outcome.wall_s);
      rates.push_back(static_cast<double>(outcome.events) / outcome.wall_s);
    }
    const bool enough = options.trace ? !traced_passes.empty() : !rates.empty();
    if (enough && NowNs() >= deadline) {
      break;
    }
  }
  if (report.failed > 0) {
    report.Fail(std::to_string(report.failed) + " sweep points missed their reference digest");
  }

  if (!options.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("work_per_s", Median(rates), "1/s");
    return report;
  }

  TracedPass all;
  std::vector<double> busy;
  std::vector<double> tail;
  std::vector<double> policy_ns;
  for (const TracedPass& p : traced_passes) {
    all.point_s.insert(all.point_s.end(), p.point_s.begin(), p.point_s.end());
    all.point_setup_ms.insert(all.point_setup_ms.end(), p.point_setup_ms.begin(),
                              p.point_setup_ms.end());
    all.replay_ns += p.replay_ns;
    all.replay_events += p.replay_events;
    all.fresh.Merge(p.fresh);
    all.validated.Merge(p.validated);
    all.fetched.Merge(p.fetched);
    all.modify.Merge(p.modify);
    busy.push_back(p.capacity_s > 0 ? p.busy_s / p.capacity_s : 0.0);
    tail.push_back(p.tail_s);
    policy_ns.push_back(static_cast<double>(p.policy_ns));
  }
  const TracedPass& last = traced_passes.back();
  report.Add("workload.generate_s", Median(setup_s), "s");
  report.Add("core.point_s.p50", Quantile(all.point_s, 0.5), "s");
  report.Add("core.point_s.p90", Quantile(all.point_s, 0.9), "s");
  report.Add("core.replay_ns_per_event",
             all.replay_events == 0 ? 0.0
                                    : static_cast<double>(all.replay_ns) /
                                          static_cast<double>(all.replay_events),
             "ns");
  report.Add("core.point_setup_ms.p50", Quantile(all.point_setup_ms, 0.5), "ms");
  report.Add("core.pool.busy_share", Median(busy), "fraction");
  report.Add("core.pool.tail_s", Median(tail), "s");
  report.Add("cache.serve_ns.fresh.p50", all.fresh.Quantile(0.5), "ns");
  report.Add("cache.serve_ns.fresh.p99", all.fresh.Quantile(0.99), "ns");
  report.Add("cache.serve_ns.validated.p50", all.validated.Quantile(0.5), "ns");
  report.Add("cache.serve_ns.validated.p99", all.validated.Quantile(0.99), "ns");
  report.Add("cache.serve_ns.fetched.p50", all.fetched.Quantile(0.5), "ns");
  report.Add("cache.policy.calls", static_cast<double>(last.policy_calls), "count");
  report.Add("cache.policy.ns", Median(policy_ns), "ns");
  report.Add("cache.fresh_share",
             last.requests == 0 ? 0.0
                                : static_cast<double>(last.hits_fresh) /
                                      static_cast<double>(last.requests),
             "fraction");
  report.Add("origin.modify_ns.p50", all.modify.Quantile(0.5), "ns");
  report.Add("origin.modify_ns.p99", all.modify.Quantile(0.99), "ns");
  report.Add("origin.invalidations_sent", static_cast<double>(last.invalidations_sent), "count");
  report.Add("origin.ims_queries", static_cast<double>(last.ims_queries), "count");
  report.Add("trace.overhead_share", Median(traced_walls) / Median(untraced_walls) - 1.0,
             "fraction");
  return report;
}

}  // namespace perfbench
