// serve-overload: the wall-clock ServeFrontend driven open loop above its
// capacity.
//
// It is the only lock-per-request path (admission, breaker, metrics and the
// world lock), so without it the serve layer goes unmeasured. A fixed pool
// (workers_min == workers_max) with zero modeled service time makes the
// frontend's own code the bottleneck. The benchmark's single generator thread
// offers requests at a fixed rate from object ids it generated itself, and
// times each request from when it was due, so a stalled generator shows as
// lag instead of silently lowering the offered load.
//
// A run is a series of one-second phases, each with a fresh frontend, so
// set-up and throughput are medians over several samples.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "src/serve/frontend.h"
#include "src/util/rng.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr double kOfferedPerSecond = 700'000.0;
constexpr int64_t kPhaseNs = 1'000'000'000;
constexpr int64_t kSnapshotEveryNs = 100'000'000;
constexpr size_t kQueueDepth = 1024;
// The generator counts as behind when it offered less than this share of its
// schedule.
constexpr double kBehindShare = 0.95;

struct Phase {
  double generate_s = 0;  // arrival ids + frontend construction (population seeding)
  double setup_s = 0;     // generate_s + Start
  double ok_per_s = 0;
  uint64_t scheduled = 0;
  uint64_t offered = 0;
  bool checks_ok = true;
  webcc::ServeMetricsSnapshot snapshot;
  LogHistogram lag_ns;
  LogHistogram submit_ns;  // traced phases only
  std::vector<double> snapshot_us;
};

Phase RunPhase(const RunOptions& options, int index, bool traced, uint64_t parent,
               Report& report) {
  Phase phase;
  webcc::ServeFrontendOptions serve;
  serve.world.seed = MixSeed(serve.world.seed, options.seed);
  serve.service_time_ns = 0;
  serve.workers_min = serve.workers_max = ServeWorkers();
  serve.queue_depth = kQueueDepth;

  std::unique_ptr<webcc::ServeFrontend> frontend;
  std::vector<webcc::ObjectId> ids;
  {
    ScopedSpan span("serve.setup", parent, index);
    const int64_t t0 = NowNs();
    phase.scheduled = static_cast<uint64_t>(kOfferedPerSecond * kPhaseNs / 1e9);
    webcc::Rng rng(MixSeed(0x6c6f6164, options.seed) + static_cast<uint64_t>(index));
    ids.reserve(phase.scheduled);
    for (uint64_t i = 0; i < phase.scheduled; ++i) {
      ids.push_back(static_cast<webcc::ObjectId>(rng.UniformInt(0, serve.world.num_files - 1)));
    }
    frontend = std::make_unique<webcc::ServeFrontend>(serve, webcc::RealWallClock());
    phase.generate_s = static_cast<double>(NowNs() - t0) / 1e9;
    frontend->Start();
    phase.setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  }

  const int64_t begin = NowNs();
  const int64_t end = begin + kPhaseNs;
  const double gap_ns = 1e9 / kOfferedPerSecond;
  {
    ScopedSpan span("serve.load", parent, index);
    int64_t next_snapshot = begin + kSnapshotEveryNs;
    for (uint64_t i = 0; i < phase.scheduled; ++i) {
      const int64_t due = begin + static_cast<int64_t>(static_cast<double>(i) * gap_ns);
      int64_t now = NowNs();
      while (now < due) {  // arrivals ~2 us apart: spin, sleeping is far coarser
        now = NowNs();
      }
      if (now >= end) {
        break;
      }
      if (now >= next_snapshot) {
        ScopedSpan snap("serve.snapshot", span.id(), index);
        (void)frontend->Snapshot();
        const int64_t after = NowNs();
        phase.snapshot_us.push_back(static_cast<double>(after - now) / 1e3);
        next_snapshot += kSnapshotEveryNs;
        now = after;
      }
      phase.lag_ns.Record(now - due);
      (void)frontend->SubmitRequest(ids[i]);  // a shed is counted by admission
      if (traced) {
        phase.submit_ns.Record(NowNs() - now - ClockCostNs());
      }
      ++phase.offered;
    }
  }
  {
    ScopedSpan span("serve.drain", parent, index);
    frontend->Stop();
  }
  const int64_t stopped = NowNs();
  phase.snapshot = frontend->Snapshot();
  const webcc::ServeMetricsSnapshot& s = phase.snapshot;
  phase.ok_per_s = static_cast<double>(s.served_ok) / (static_cast<double>(stopped - begin) / 1e9);

  const auto require = [&](bool ok, const char* what) {
    if (!ok) {
      phase.checks_ok = false;
      report.Fail("phase " + std::to_string(index) + ": " + what);
    }
  };
  require(s.offered == phase.offered, "frontend offered count differs from the generator's");
  require(s.OutcomeTotal() == s.admitted, "OutcomeTotal() != admitted");
  require(s.admitted + s.shed_queue_full == s.offered, "admitted + shed != offered");
  require(s.attempts_past_deadline == 0, "attempts_past_deadline != 0");
  require(s.queue_depth_peak <= s.queue_capacity, "queue_depth_peak > queue_capacity");
  return phase;
}

}  // namespace

Report RunServeWorkload(const RunOptions& options) {
  Report report;
  ScopedSpan run("run", 0);
  std::vector<Phase> untraced;
  std::vector<Phase> traced;
  const int64_t deadline = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (int index = 0;; ++index) {
    const bool is_traced = options.trace && index % 2 == 1;
    ScopedSpan span(is_traced ? "phase.traced" : "phase", run.id(), index);
    Phase phase = RunPhase(options, index, is_traced, span.id(), report);
    report.attempted += phase.offered;
    report.failed += phase.checks_ok ? 0 : phase.offered;
    (is_traced ? traced : untraced).push_back(std::move(phase));
    const bool enough = options.trace ? !traced.empty() : untraced.size() >= 2;
    if (enough && NowNs() + kPhaseNs >= deadline) {
      break;
    }
  }

  const auto median_of = [](const std::vector<Phase>& phases, auto field) {
    std::vector<double> values;
    for (const Phase& p : phases) {
      values.push_back(field(p));
    }
    return Median(values);
  };
  LogHistogram lag;
  std::vector<double> offered_share;
  for (const auto* phases : {&untraced, &traced}) {
    for (const Phase& p : *phases) {
      lag.Merge(p.lag_ns);
      offered_share.push_back(static_cast<double>(p.offered) / static_cast<double>(p.scheduled));
    }
  }
  if (Median(offered_share) < kBehindShare) {
    char note[160];
    std::snprintf(note, sizeof(note),
                  "generator fell behind: offered %.3f of schedule, p99 lag %.3f ms",
                  Median(offered_share), lag.Quantile(0.99) / 1e6);
    report.notes.push_back(note);
  }

  if (!options.trace) {
    report.Add("setup_s", median_of(untraced, [](const Phase& p) { return p.setup_s; }), "s");
    report.Add("work_per_s", median_of(untraced, [](const Phase& p) { return p.ok_per_s; }),
               "1/s");
    return report;
  }

  LogHistogram submit;
  std::vector<double> snapshot_us;
  uint64_t requests = 0;
  uint64_t fresh = 0;
  for (const Phase& p : traced) {
    submit.Merge(p.submit_ns);
    snapshot_us.insert(snapshot_us.end(), p.snapshot_us.begin(), p.snapshot_us.end());
    requests += p.snapshot.cache.requests;
    fresh += p.snapshot.cache.hits_fresh;
  }
  report.Add("workload.generate_s", median_of(traced, [](const Phase& p) { return p.generate_s; }),
             "s");
  report.Add("serve.submit_ns.p50", submit.Quantile(0.5), "ns");
  report.Add("serve.submit_ns.p99", submit.Quantile(0.99), "ns");
  report.Add("serve.shed_share", median_of(traced, [](const Phase& p) {
               return static_cast<double>(p.snapshot.shed_queue_full) /
                      static_cast<double>(std::max<uint64_t>(p.snapshot.offered, 1));
             }),
             "fraction");
  report.Add("serve.queue_depth_peak", median_of(traced, [](const Phase& p) {
               return static_cast<double>(p.snapshot.queue_depth_peak);
             }),
             "count");
  report.Add("serve.workers_peak", median_of(traced, [](const Phase& p) {
               return static_cast<double>(p.snapshot.workers_peak);
             }),
             "count");
  report.Add("serve.latency_mean_us", median_of(traced, [](const Phase& p) {
               return static_cast<double>(p.snapshot.MeanLatencyNanos()) / 1e3;
             }),
             "us");
  report.Add("serve.snapshot_us", Median(snapshot_us), "us");
  report.Add("serve.fresh_share",
             requests == 0 ? 0.0 : static_cast<double>(fresh) / static_cast<double>(requests),
             "fraction");
  report.Add("serve.generator_lag_ms.p99", lag.Quantile(0.99) / 1e6, "ms");
  report.Add("serve.offered_share", Median(offered_share), "fraction");
  // Serve throughput is the timed quantity here, so the overhead is the
  // untraced ok rate over the traced one.
  report.Add("trace.overhead_share",
             median_of(untraced, [](const Phase& p) { return p.ok_per_s; }) /
                     median_of(traced, [](const Phase& p) { return p.ok_per_s; }) -
                 1.0,
             "fraction");
  return report;
}

}  // namespace perfbench
