// Overload-robust live serving frontend.
//
// Promotes the live simulator's world (src/core/live_simulation.h) into a
// real-time serving mode: the same seeded population, origin model, and
// ProxyCache, but driven by an elastic thread pool at wall-clock request
// rates instead of a single-threaded event loop. The discrete-event engine
// still owns logical time — each request maps its wall-clock arrival onto
// the simulated clock (`time_scale` sim-seconds per wall-second), advances
// the engine to that instant under the world lock, and then serves through
// the ordinary ProxyCache path.
//
// Robustness machinery, in request order:
//
//   1. Admission: a bounded queue (AdmissionController). When
//      queued+running reaches `queue_depth` the request is rejected
//      immediately and counted (`shed_queue_full`) — the frontend never
//      grows an unbounded backlog under overload.
//   2. Deadline: every admitted request carries an absolute wall-clock
//      deadline. A request whose deadline passes while still queued is
//      dropped without touching the origin; the retry loop never schedules
//      a backoff that would start an attempt past the deadline, so a
//      request overruns its budget by at most one retry step
//      (`attempts_past_deadline` stays zero by construction and counts
//      violations if the code regresses).
//   3. Circuit breaker: consecutive origin failures open the breaker;
//      open-state requests skip the origin entirely and fall through to the
//      degraded path; after a cooldown a single half-open probe decides
//      between closing and re-opening.
//   4. Serve-stale degradation: origin-failed requests are absorbed by
//      ProxyCache's stale-if-error path, bounded by
//      CacheConfig::stale_serve_bound and counted per serve with the actual
//      staleness age observed.
//
// Lock discipline: `cache_mu_` guards the simulated world (engine, origin,
// mutator, gate, cache) — everything inherited from the single-threaded
// simulator. The admission controller is lock-free; the breaker and
// metrics each carry their own internal lock and are never called with
// `cache_mu_` held in a way that nests locks in both orders; modeled sleeps
// always happen with no lock held.

#ifndef WEBCC_SRC_SERVE_FRONTEND_H_
#define WEBCC_SRC_SERVE_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "src/cache/origin_upstream.h"
#include "src/cache/proxy_cache.h"
#include "src/core/live_simulation.h"
#include "src/origin/mutator.h"
#include "src/origin/server.h"
#include "src/serve/admission.h"
#include "src/serve/breaker.h"
#include "src/serve/deadline.h"
#include "src/serve/metrics.h"
#include "src/serve/origin_gate.h"
#include "src/serve/wall_clock.h"
#include "src/sim/engine.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace webcc {

struct ServeFrontendOptions {
  // The simulated world: population, policy, seed. Request-rate and
  // duration fields inside are ignored — arrivals come from RunOfferedLoad
  // (or SubmitRequest) on the wall clock.
  LiveSimulationConfig world;

  // Simulated seconds that elapse per wall-clock second. The default
  // compresses an hour of cache consistency dynamics (TTL expiry, object
  // rewrites) into each served second.
  double time_scale = 3600.0;

  // Stale-if-error bound forwarded to CacheConfig::stale_serve_bound
  // (simulated time). Zero = unbounded.
  SimDuration stale_serve_bound = Hours(2);

  // Elastic worker pool.
  size_t workers_min = 1;
  size_t workers_max = 8;
  int64_t worker_idle_timeout_ms = 200;

  // Admission queue capacity: max requests queued or in service.
  size_t queue_depth = 64;

  // Per-request wall-clock budget from admission to final outcome.
  int64_t deadline_ns = 50'000'000;

  // Retry/backoff schedule for origin-failed attempts; each retry is
  // admitted only if its backoff fits the remaining deadline budget.
  ServeRetryConfig retry;

  // Modeled origin service time per successful origin contact and modeled
  // discovery cost of a failed contact (both wall nanos, slept with no lock
  // held). These give the frontend a finite capacity so overload is real.
  int64_t service_time_ns = 1'000'000;
  int64_t fail_timeout_ns = 5'000'000;

  // Circuit breaker tuning.
  int breaker_failure_threshold = 5;
  int64_t breaker_cooldown_ns = 100'000'000;

  // Origin outage injection, relative to Start() (wall nanos).
  // outage_start_ns < 0 disables.
  int64_t outage_start_ns = -1;
  int64_t outage_duration_ns = 0;
};

class ServeFrontend {
 public:
  // `clock` must outlive the frontend; pass RealWallClock() in production
  // and a ManualWallClock in deterministic tests.
  ServeFrontend(const ServeFrontendOptions& options, WallClock* clock);
  ~ServeFrontend();
  ServeFrontend(const ServeFrontend&) = delete;
  ServeFrontend& operator=(const ServeFrontend&) = delete;

  // Arms the outage window and spins up the worker pool. Must be called
  // exactly once, before any SubmitRequest/RunOfferedLoad, from the owning
  // thread.
  void Start();

  // Offers one request for `object`. Returns false (and counts a shed) if
  // the admission queue is full. Thread-safe after Start().
  bool SubmitRequest(ObjectId object);

  // Offers a uniform-random open-loop load of `requests_per_second` for
  // `duration_ns` wall nanos from the calling thread, invoking
  // `on_snapshot` every `snapshot_interval_ns` (0 = never). Arrival pacing
  // keeps the offered schedule even when submission falls behind, so the
  // offered count approximates rate x duration regardless of shedding.
  void RunOfferedLoad(double requests_per_second, int64_t duration_ns,
                      int64_t snapshot_interval_ns,
                      const std::function<void(const ServeMetricsSnapshot&)>& on_snapshot);

  // Drains every admitted request and stops the pool. Idempotent.
  void Stop();

  // Coherent point-in-time metrics. Thread-safe.
  [[nodiscard]] ServeMetricsSnapshot Snapshot();

  [[nodiscard]] const ServeFrontendOptions& options() const { return options_; }

 private:
  struct ServeRequest {
    ObjectId object = 0;
    uint64_t sequence = 0;
    int64_t enqueued_ns = 0;
    int64_t deadline_ns = 0;
  };

  // Worker-side request lifecycle: deadline check, breaker gate, world
  // advance + cache serve under the lock, modeled sleeps outside it,
  // budget-gated retries.
  void ProcessRequest(const ServeRequest& request);

  // Maps a wall-clock instant onto the simulated clock. Pure: reads only
  // start_ns_ (atomic) and options_.
  [[nodiscard]] SimTime SimTimeFor(int64_t now_ns) const;

  const ServeFrontendOptions options_;
  WallClock* clock_;

  // Guards the simulated world below (engine, server, mutator, upstream,
  // gate, cache, sim_now). Declared inner to the worker pool's mutex: pool
  // entry points (Submit, Shutdown, threads) must never be called with
  // cache_mu_ held — Shutdown joins workers that themselves need cache_mu_
  // to drain, so nesting that way deadlocks. webcc-analyze pass 5 turns
  // this declaration into a lock-order edge and fails on the reverse
  // nesting.
  std::mutex cache_mu_ WEBCC_ACQUIRED_AFTER(ElasticThreadPool::mu_);
  SimEngine engine_ WEBCC_GUARDED_BY(cache_mu_);
  OriginServer server_ WEBCC_GUARDED_BY(cache_mu_);
  std::unique_ptr<ModificationProcess> mutator_ WEBCC_GUARDED_BY(cache_mu_);
  OriginUpstream upstream_ WEBCC_GUARDED_BY(cache_mu_);
  OriginGate gate_ WEBCC_GUARDED_BY(cache_mu_);
  std::unique_ptr<ProxyCache> cache_ WEBCC_GUARDED_BY(cache_mu_);
  // High-water mark of the engine advance: RunUntil targets must never go
  // backwards even though worker wall-clock reads race.
  SimTime sim_now_ WEBCC_GUARDED_BY(cache_mu_);

  AdmissionController admission_;
  CircuitBreaker breaker_;
  ServeMetrics metrics_;
  std::unique_ptr<ElasticThreadPool> pool_;

  std::atomic<int64_t> start_ns_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> sequence_{0};
};

}  // namespace webcc

#endif  // WEBCC_SRC_SERVE_FRONTEND_H_
