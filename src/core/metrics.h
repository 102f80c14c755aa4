// Consistency metrics: the quantities the paper's figures plot.
//
//   * total bytes exchanged to maintain consistency — invalidation messages,
//     stale-data checks, and file data movement (paper §3's replacement for
//     Worrell's hops*bytes metric);
//   * cache miss rate — misses counted only when a body is transferred;
//   * stale hit rate — locally served bodies older than the server's copy;
//   * server operations — document requests + staleness queries +
//     invalidation messages (Figure 8).

#ifndef WEBCC_SRC_CORE_METRICS_H_
#define WEBCC_SRC_CORE_METRICS_H_

#include <cstdint>
#include <string>

#include "src/cache/proxy_cache.h"
#include "src/origin/server.h"

namespace webcc {

struct ConsistencyMetrics {
  uint64_t requests = 0;
  uint64_t cache_misses = 0;    // body transfers (paper §4.1)
  uint64_t stale_hits = 0;
  uint64_t validations = 0;     // IMS queries issued
  uint64_t invalidations = 0;   // invalidation notices sent by the server
  uint64_t files_transferred = 0;
  uint64_t server_operations = 0;

  int64_t control_bytes = 0;    // request lines, queries, 304s, invalidations
  int64_t payload_bytes = 0;    // document bodies
  int64_t total_bytes = 0;

  // Latency proxy: mean upstream round trips per client request (0 = every
  // request answered from the cache without contact). The optimized
  // retrieval trades exactly this for its bandwidth savings (§2/§3).
  double mean_round_trips = 0.0;

  // Failure-aware columns (all zero in a fault-free run; see
  // docs/ROBUSTNESS.md for the definitions).
  uint64_t degraded_serves = 0;          // stale-if-error local serves
  uint64_t failed_requests = 0;          // requests with nothing to serve
  uint64_t upstream_retries = 0;         // extra fetch attempts beyond the first
  uint64_t invalidations_lost = 0;       // notices lost in transit
  uint64_t invalidations_queued = 0;     // notices parked for an unreachable cache
  uint64_t invalidations_redelivered = 0;  // parked notices later delivered
  uint64_t cache_crashes = 0;
  int64_t unavailable_seconds = 0;       // cache crash-to-restart dark time
  int64_t retry_wait_seconds = 0;        // timeout+backoff the clients absorbed

  double MissRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(cache_misses) / static_cast<double>(requests);
  }
  double StaleRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(stale_hits) / static_cast<double>(requests);
  }
  double TotalMB() const { return static_cast<double>(total_bytes) / 1e6; }
  double PayloadMB() const { return static_cast<double>(payload_bytes) / 1e6; }

  // A one-line summary for logs and examples.
  std::string Summary() const;
  // One line of failure accounting (for fault-injected runs).
  std::string FailureSummary() const;
};

// Derives the merged metrics for a single-cache (collapsed) configuration
// from the two endpoints' own accounting. The cross-checks between the two
// views (server vs cache byte counts must agree) are asserted in tests.
ConsistencyMetrics ComputeMetrics(const ServerStats& server, const CacheStats& cache);

// --- Conservation laws (chaos oracle invariant 3) ---
//
// Signed gaps, zero when the books balance. Both laws are exact per run
// (not statistical): every request resolves to exactly one serve kind, and
// every invalidation notice put on the wire resolves to exactly one
// delivery outcome or is still in jittered flight.

// requests - (hits + misses + degraded + failed).
int64_t RequestConservationGap(const CacheStats& cache);

// sent - (lost + delivered + undeliverable + in_flight). `in_flight` is the
// same cache's OriginServer::InvalidationsInFlight gauge. Only meaningful
// when the stats were not reset mid-flight (warmup == 0), which chaos trials
// ensure.
int64_t InvalidationConservationGap(const ServerStats& server, int64_t in_flight);

}  // namespace webcc

#endif  // WEBCC_SRC_CORE_METRICS_H_
