// Deterministic fault injection (paper §1/§6 made measurable).
//
// The invalidation protocol is perfectly consistent only while every notice
// is delivered and every endpoint is reachable; the paper names unreachable
// caches and server failures as its weakness but the simulator modeled a
// perfect network. FaultPlan supplies the imperfect one: seeded per-message
// loss on the cache<->origin link, delivery-latency jitter, origin-server
// downtime windows (explicit or generated from MTBF/MTTR), and cache
// crash/restart events recovered through the snapshot machinery.
//
// Determinism argument: a FaultPlan is constructed per simulation run from a
// 64-bit seed and consulted only from that run's single-threaded event
// order, with independent forked RNG substreams for window generation,
// message loss, and jitter. Equal (config, workload) therefore reproduces
// every fault decision bit-for-bit, for any --jobs count — sweep workers own
// disjoint runs and never share a plan. The no-op guarantee (an armed plan
// with all knobs zero changes nothing) is asserted field-exactly in
// tests/core/fault_simulation_test.cc.

#ifndef WEBCC_SRC_SIM_FAULT_PLAN_H_
#define WEBCC_SRC_SIM_FAULT_PLAN_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/util/rng.h"
#include "src/util/sim_time.h"

namespace webcc {

// Half-open span [start, end) during which the origin answers nothing.
struct DowntimeWindow {
  SimTime start;
  SimTime end;

  bool Contains(SimTime t) const { return start <= t && t < end; }
};

// A cache crash at `at`; the cache is dark for `outage`, then restarts and
// recovers from its last on-disk snapshot.
struct CacheCrashEvent {
  SimTime at;
  SimDuration outage = Minutes(10);
};

// Bounded retry with exponential backoff, the upstreams' answer to a lossy
// link. One exchange = one request plus one reply, each of which can be
// lost; a lost exchange costs `timeout` before the next attempt is sent.
struct RetryPolicy {
  int max_attempts = 4;  // total tries; 1 = no retry
  SimDuration timeout = Seconds(4);
  SimDuration initial_backoff = Seconds(2);
  double backoff_multiplier = 2.0;
  SimDuration max_backoff = Minutes(2);
  // Full jitter (AWS style): each backoff is drawn uniformly from
  // [0, BackoffAfter(failed)] out of the plan's dedicated RNG substream
  // instead of taken deterministically at the exponential value. Off by
  // default — with it off the plan draws nothing, so every existing
  // fig9/chaos schedule stays bit-identical.
  bool full_jitter = false;

  // Backoff after the `failed`-th failed attempt (1-based): a capped
  // exponential initial_backoff * multiplier^(failed-1). This is the
  // deterministic value; FaultPlan::Backoff applies full_jitter on top.
  [[nodiscard]] SimDuration BackoffAfter(int failed) const;
};

// How a restarted cache treats its recovered snapshot. Mirrors
// SnapshotRecovery (src/cache/snapshot.h) plus a lost-disk mode; its own
// enum because the sim layer sits below the cache layer.
enum class CrashRecovery {
  kAuto,           // revalidate-all for invalidation policies, trust otherwise
  kTrustSnapshot,  // restore validity exactly as saved
  kRevalidateAll,  // conservative: first touch revalidates every entry
  kColdStart,      // the disk died with the process: restart empty
};

// Stable wire names for CrashRecovery ("auto", "trust", "revalidate",
// "cold") — used by the CLI and the fault-plan serialization below.
const char* CrashRecoveryName(CrashRecovery recovery);
std::optional<CrashRecovery> ParseCrashRecovery(const std::string& name);

// Per-link knob overrides for the fleet and hierarchy topologies. A link is
// one upstream<->cache edge, addressed by index: fleet member i for the
// (origin, fleet-i) link, or a HierarchyLink value (src/core/hierarchy.h)
// for the tree's three edges. Unset fields inherit the base FaultConfig;
// `downtime` and `crashes` APPEND to the base schedule — a base outage is
// the origin itself going dark (every link sees it), an override outage is
// that one link's own partition.
struct LinkFaultOverride {
  uint32_t link = 0;
  std::optional<double> loss_rate;
  std::optional<SimDuration> jitter_max;
  std::vector<DowntimeWindow> downtime;
  std::vector<CacheCrashEvent> crashes;
  std::optional<CrashRecovery> recovery;
  std::optional<int64_t> snapshot_crash_request;
};

struct FaultConfig {
  // Arms the fault machinery even when every knob is zero — used by the
  // no-op property tests. Enabled() decides only whether a link's FaultPlan
  // takes its faulted branches (the upstreams, the origin, FaultedLink);
  // the replay loop is the same either way.
  bool armed = false;
  uint64_t seed = 0x5eedFA17;

  // Per-message loss probability on the cache<->origin link (requests,
  // replies, and invalidation notices alike).
  double loss_rate = 0.0;

  // Extra delivery latency for invalidation notices, uniform in
  // [0, jitter_max]. Zero = synchronous delivery (the pre-fault model).
  SimDuration jitter_max = SimDuration(0);

  // Origin downtime: explicit windows, and/or windows generated from an
  // exponential failure/repair process (both zero = none generated).
  std::vector<DowntimeWindow> server_downtime;
  SimDuration server_mtbf = SimDuration(0);  // mean time between failures
  SimDuration server_mttr = SimDuration(0);  // mean time to repair

  // Cache crash/restart schedule.
  std::vector<CacheCrashEvent> cache_crashes;
  CrashRecovery crash_recovery = CrashRecovery::kAuto;

  RetryPolicy retry;
  // Server-side redelivery cadence for queued invalidations.
  SimDuration invalidation_retry_interval = Minutes(5);

  // Chaos-harness crash point: when >= 0, the cache runs an *in-place*
  // snapshot->crash->restore cycle immediately before serving the request
  // with this replay index (0-based), losing no simulated time. This is the
  // arbitrary-event-index crash hook the consistency oracle's invariant 4
  // compares against an uninterrupted run, so — unlike cache_crashes — it is
  // deliberately NOT part of Enabled(): setting it must not arm the link's
  // faulted branches.
  int64_t snapshot_crash_request = -1;

  // Per-link overrides (fleet members, hierarchy edges). The single-cache
  // simulators ignore them; RunFleetSimulation / RunHierarchySimulation fold
  // them in via ForLink(). A non-empty list counts as Enabled().
  std::vector<LinkFaultOverride> link_overrides;

  // Derives link `link`'s own config: the base knobs with this link's
  // overrides folded in and the seed forked into an independent per-link
  // SplitMix64 substream — each link draws unrelated loss/jitter/window
  // schedules from the one campaign-visible seed. Pure and deterministic;
  // the result carries no link_overrides of its own.
  [[nodiscard]] FaultConfig ForLink(uint32_t link) const;

  [[nodiscard]] bool Enabled() const;
};

// Line-numbered reason a serialized fault plan was rejected (line 0 = the
// stream as a whole, e.g. a missing header).
struct FaultPlanParseError {
  size_t line = 0;
  std::string message;
};

// The materialized fault schedule for one run. Single-threaded use only —
// one plan per simulated world, exactly like the engine it rides on.
class FaultPlan {
 public:
  // `horizon` bounds generated downtime windows; pass the workload horizon.
  FaultPlan(const FaultConfig& config, SimTime horizon);

  const FaultConfig& config() const { return config_; }
  // config().Enabled(), read once at construction: the upstreams and the
  // origin ask on every exchange.
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Merged, sorted, non-overlapping origin downtime.
  const std::vector<DowntimeWindow>& server_downtime() const { return windows_; }
  // Sorted crash schedule with overlapping outages merged: a crash that
  // starts strictly before the previous restart joins that outage, which
  // then ends at the later of the two restarts. (ForLink appends a link's
  // override crashes to the base schedule, so windows can overlap.) A crash
  // exactly at the previous restart stays a separate crash.
  const std::vector<CacheCrashEvent>& cache_crashes() const { return crashes_; }

  [[nodiscard]] bool ServerUp(SimTime t) const;
  // Earliest time >= t at which the origin is up (t itself when up).
  [[nodiscard]] SimTime NextServerUp(SimTime t) const;

  // One per-message loss draw. Never draws when loss_rate == 0, so arming
  // the plan with loss disabled is a true no-op.
  [[nodiscard]] bool LoseMessage();

  // One delivery-jitter draw in [0, jitter_max]; zero when disabled.
  [[nodiscard]] SimDuration Jitter();

  // The backoff to wait after the `failed`-th failed attempt: the retry
  // policy's deterministic BackoffAfter, full-jittered from the plan's own
  // substream when retry.full_jitter is set. Never draws with jitter off,
  // so arming a plan without the knob cannot perturb any other stream.
  [[nodiscard]] SimDuration Backoff(int failed);

  // Totals for reports and tests.
  [[nodiscard]] uint64_t messages_lost() const { return messages_lost_; }
  [[nodiscard]] int64_t TotalDowntimeSeconds() const;

  // Writes the plan as a versioned key/value text block. Plans without link
  // overrides keep the v1 header ("#webcc-fault-plan v1") byte-for-byte:
  // downtime is serialized *materialized* — the merged windows_, with
  // mtbf/mttr zeroed — so a schedule generated from an exponential process
  // round-trips exactly instead of being re-rolled against a different
  // horizon on reload. Plans with link overrides emit the v2 header and
  // `link <idx> <key> ...` lines, and keep the mtbf/mttr *generator* knobs
  // instead of materializing: each link re-derives its own window schedule
  // from its forked seed, which one shared materialized list cannot
  // represent (same-horizon reload reproduces it exactly). Reconstructing a
  // FaultPlan from the parsed config reproduces identical loss/jitter
  // draws: those substreams depend only on the seed, which travels with
  // the plan.
  void Serialize(std::ostream& out) const;
  [[nodiscard]] std::string SerializeToString() const;

  // All-or-nothing parse of a serialized plan (mirrors snapshot.cc): any
  // unknown key, malformed value, or missing header rejects the whole
  // stream with a line-numbered error and returns nullopt. Stops at end of
  // stream; keys may appear in any order.
  static std::optional<FaultConfig> Parse(std::istream& in,
                                          FaultPlanParseError* error = nullptr);

 private:
  FaultConfig config_;
  bool enabled_;
  std::vector<DowntimeWindow> windows_;
  std::vector<CacheCrashEvent> crashes_;
  Rng loss_rng_;
  Rng jitter_rng_;
  Rng backoff_rng_;
  uint64_t messages_lost_ = 0;
};

// Outcome of driving one request/reply exchange through the fault model.
struct ExchangeOutcome {
  bool ok = false;        // a reply made it back within the retry budget
  int attempts = 1;       // exchanges sent (retries = attempts - 1)
  SimDuration elapsed;    // timeouts + backoff accumulated before the verdict
};

// Runs one upstream exchange under `plan` with the plan's bounded retry.
// `fetch(at)` performs the server-side work for an attempt whose request got
// through at time `at`; it may run several times (a reply lost after the
// server processed the request is re-asked — exactly how a real retransmit
// duplicates server work), and only the last invocation's result counts.
template <typename Fetch>
ExchangeOutcome RunFaultedExchange(FaultPlan& plan, SimTime now, Fetch&& fetch) {
  const RetryPolicy& retry = plan.config().retry;
  ExchangeOutcome out;
  SimDuration elapsed(0);
  const int budget = retry.max_attempts < 1 ? 1 : retry.max_attempts;
  for (int attempt = 1; attempt <= budget; ++attempt) {
    out.attempts = attempt;
    const SimTime at = now + elapsed;
    if (plan.ServerUp(at) && !plan.LoseMessage()) {
      fetch(at);
      if (!plan.LoseMessage()) {
        out.ok = true;
        out.elapsed = elapsed;
        return out;
      }
    }
    elapsed += retry.timeout;
    if (attempt < budget) {
      elapsed += plan.Backoff(attempt);
    }
  }
  out.elapsed = elapsed;
  return out;
}

}  // namespace webcc

#endif  // WEBCC_SRC_SIM_FAULT_PLAN_H_
