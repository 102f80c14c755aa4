// chaos-campaign: RunChaosCampaign over all three trial kinds and all three
// topologies.
//
// It is the only workload that takes the SimEngine/event-queue faulted
// path, fleet and hierarchy replay, and the oracle's shadow model. A
// campaign's trials reuse a couple dozen workloads through the process-wide
// registry, so set-up materializes them all before the timed phase.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <map>

#include "bench.h"
#include "src/chaos/campaign.h"
#include "src/core/sweep_runner.h"
#include "trace.h"

namespace perfbench {
namespace {

using webcc::Topology;
using webcc::TrialKind;

// One campaign takes about a second on three jobs, so a run measures many.
constexpr uint64_t kTrials = 1000;

struct TrialTiming {
  double run_ms = 0;
  double generate_us = 0;
  TrialKind kind = TrialKind::kClean;
  Topology topology = Topology::kSingle;
  bool violated = false;
};

const char* KindKey(TrialKind kind) {
  switch (kind) {
    case TrialKind::kClean:
      return "clean";
    case TrialKind::kCrashConsistency:
      return "crash";
    case TrialKind::kChaos:
      return "chaos";
  }
  return "?";
}

// Draws every trial and materializes its workload through the registry;
// returns the seconds it took. `covered` collects the kinds and topologies.
double MaterializeCampaign(uint64_t campaign_seed, std::map<std::string, int>& covered) {
  const int64_t t0 = NowNs();
  for (uint64_t i = 0; i < kTrials; ++i) {
    const webcc::TrialSpec spec = webcc::GenerateTrial(campaign_seed, i);
    (void)webcc::SharedTrialWorkload(spec);
    ++covered[KindKey(spec.kind)];
    ++covered[webcc::TopologyName(spec.topology)];
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// The registry keeps each workload for the life of the process, so a repeat
// set-up in-process would find everything built. A forked child starts from
// the parent's empty registry instead. Call only while the process has a
// single thread. Returns the child's set-up seconds, or -1.
double TimeSetupInChild(uint64_t campaign_seed) {
  int fds[2];
  if (pipe(fds) != 0) {
    return -1;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    close(fds[0]);
    std::map<std::string, int> covered;
    const double seconds = MaterializeCampaign(campaign_seed, covered);
    const bool sent = write(fds[1], &seconds, sizeof(seconds)) == sizeof(seconds);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1;
  if (read(fds[0], &seconds, sizeof(seconds)) != sizeof(seconds)) {
    seconds = -1;
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? seconds : -1;
}

uint64_t SummaryDigest(const webcc::CampaignResult& result) {
  const auto violations = static_cast<uint64_t>(result.violations.size());
  return Digest().Add(result.Summary()).Add(violations).value();
}

}  // namespace

Report RunChaosWorkload(const RunOptions& options) {
  Report report;
  ScopedSpan run("run", 0);
  webcc::ChaosOptions chaos;
  chaos.trials = kTrials;
  chaos.seed = MixSeed(chaos.seed, options.seed);
  chaos.jobs = SweepJobs();
  chaos.repro_dir = "";

  // Set-up: draw every trial and materialize its workload, twice in forked
  // children and once for real; the median is the set-up time.
  std::vector<double> setup_samples;
  for (int i = 0; i < 2; ++i) {
    ScopedSpan span("setup.child", run.id(), i);
    const double seconds = TimeSetupInChild(chaos.seed);
    if (seconds < 0) {
      report.Fail("set-up in a child process failed");
    } else {
      setup_samples.push_back(seconds);
    }
  }
  {
    ScopedSpan span("setup", run.id());
    std::map<std::string, int> covered;
    setup_samples.push_back(MaterializeCampaign(chaos.seed, covered));
    if (covered.size() != 6) {
      report.Fail("campaign does not cover every trial kind and topology");
    }
  }
  const double setup_s = Median(setup_samples);

  std::string golden_error;
  const std::vector<uint64_t> reference = ReferenceDigests(
      options,
      [&] {
        ScopedSpan span("reference", run.id());
        webcc::ChaosOptions serial = chaos;
        serial.jobs = 1;
        return std::vector<uint64_t>{SummaryDigest(webcc::RunChaosCampaign(serial))};
      },
      &golden_error);
  if (!golden_error.empty()) {
    report.Fail(golden_error);
  }

  webcc::SweepRunner runner(SweepJobs());
  std::vector<double> rates;
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::vector<TrialTiming> timings;
  const int64_t deadline = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (int pass = 0;; ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    ScopedSpan span(traced ? "pass.traced" : "pass", run.id(), pass);
    const int64_t t0 = NowNs();
    report.attempted += kTrials;
    if (!traced) {
      const webcc::CampaignResult result = webcc::RunChaosCampaign(chaos);
      const double wall = static_cast<double>(NowNs() - t0) / 1e9;
      untraced_walls.push_back(wall);
      rates.push_back(static_cast<double>(kTrials) / wall);
      report.failed += result.violations.size();
      if (!result.ok()) {
        report.Fail(result.Summary());
      } else if (!golden_error.empty() || SummaryDigest(result) != reference.front()) {
        report.failed += kTrials;  // a clean campaign whose summary differs from the reference
      }
    } else {
      // The campaign's trial phase, run by hand so each trial is timed:
      // GenerateTrial then RunTrialChecked, sharded over the same pool size.
      std::vector<TrialTiming> slots(kTrials);
      runner.ParallelFor(kTrials, [&](size_t i) {
        ScopedSpan trial("trial", span.id(), static_cast<int64_t>(i));
        TrialTiming& slot = slots[i];
        const int64_t g0 = NowNs();
        webcc::TrialSpec spec;
        {
          ScopedSpan generate("trial.generate", trial.id(), static_cast<int64_t>(i));
          spec = webcc::GenerateTrial(chaos.seed, i);
        }
        const int64_t r0 = NowNs();
        {
          ScopedSpan replay("trial.run", trial.id(), static_cast<int64_t>(i));
          try {
            (void)webcc::RunTrialChecked(spec);
          } catch (const webcc::OracleViolation&) {
            slot.violated = true;
          }
        }
        slot.run_ms = static_cast<double>(NowNs() - r0) / 1e6;
        slot.generate_us = static_cast<double>(r0 - g0) / 1e3;
        slot.kind = spec.kind;
        slot.topology = spec.topology;
      });
      traced_walls.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      for (const TrialTiming& slot : slots) {
        report.failed += slot.violated ? 1 : 0;
      }
      timings.insert(timings.end(), slots.begin(), slots.end());
    }
    const bool enough = options.trace ? !traced_walls.empty() : !rates.empty();
    if (enough && NowNs() >= deadline) {
      break;
    }
  }
  if (report.failed > 0) {
    report.Fail(std::to_string(report.failed) + " chaos trials violated an invariant or "
                "missed the reference summary");
  }

  if (!options.trace) {
    report.Add("setup_s", setup_s, "s");
    report.Add("work_per_s", Median(rates), "1/s");
    return report;
  }

  // Oracle cost: checked against unchecked replays of the same single-cache
  // specs, alternating which goes first. Their statistics must agree, since
  // the oracle only observes.
  int64_t checked_ns = 0;
  int64_t unchecked_ns = 0;
  {
    ScopedSpan span("oracle-share", run.id());
    uint64_t sampled = 0;
    for (uint64_t i = 0; i < kTrials && sampled < 100; ++i) {
      const webcc::TrialSpec spec = webcc::GenerateTrial(chaos.seed, i);
      if (spec.topology != Topology::kSingle) {
        continue;
      }
      ++sampled;
      webcc::SimulationResult checked;
      webcc::SimulationResult unchecked;
      for (int order = 0; order < 2; ++order) {
        const int64_t t0 = NowNs();
        if ((order == 0) == (sampled % 2 == 0)) {
          checked = webcc::RunTrialChecked(spec).result;
          checked_ns += NowNs() - t0;
        } else {
          unchecked = webcc::RunSimulation(webcc::SharedTrialWorkload(spec), spec.config);
          unchecked_ns += NowNs() - t0;
        }
      }
      ++report.attempted;
      if (DigestResult(checked) != DigestResult(unchecked)) {
        ++report.failed;
        report.Fail("trial " + std::to_string(i) + ": checked and unchecked replays differ");
      }
    }
  }

  std::map<std::string, std::vector<double>> by_class;
  std::vector<double> generate_us;
  for (const TrialTiming& t : timings) {
    by_class[KindKey(t.kind)].push_back(t.run_ms);
    by_class[webcc::TopologyName(t.topology)].push_back(t.run_ms);
    generate_us.push_back(t.generate_us);
  }
  report.Add("workload.generate_s", setup_s, "s");
  for (const char* key : {"clean", "crash", "chaos", "single", "fleet", "hierarchy"}) {
    report.Add(std::string("chaos.trial_ms.p50.") + key, Median(by_class[key]), "ms");
  }
  report.Add("chaos.oracle_share",
             checked_ns == 0 ? 0.0
                             : static_cast<double>(checked_ns - unchecked_ns) /
                                   static_cast<double>(checked_ns),
             "fraction");
  report.Add("chaos.generate_us.p50", Median(generate_us), "us");
  report.Add("trace.overhead_share", Median(traced_walls) / Median(untraced_walls) - 1.0,
             "fraction");
  return report;
}

}  // namespace perfbench
