// Upstream: where a cache gets bytes from.
//
// A ProxyCache talks to an Upstream — either the origin server (via
// OriginUpstream in src/cache/origin_upstream.h) or another ProxyCache
// (hierarchical caching, the Figure 1 ablation). The interface mirrors the
// two request shapes the paper's protocols need (full GET and combined
// "send if changed since" query) plus invalidation interest registration.

#ifndef WEBCC_SRC_CACHE_UPSTREAM_H_
#define WEBCC_SRC_CACHE_UPSTREAM_H_

#include <cstdint>
#include <optional>

#include "src/origin/object.h"
#include "src/origin/server.h"
#include "src/util/sim_time.h"

namespace webcc {

class Upstream {
 public:
  struct FullReply {
    int64_t body_bytes = 0;
    uint64_t version = 0;
    SimTime last_modified;
    std::optional<SimTime> expires;  // server-asserted lifetime, if any
    // How many FURTHER levels this fetch had to contact beyond the link to
    // this upstream (0 when the upstream answered from its own state).
    // Feeds the round-trip/latency accounting: the paper's optimization
    // explicitly "increased latency on subsequent accesses" (§2).
    int upstream_hops = 0;
    // Fault channel. ok=false means no reply survived the retry budget (link
    // loss or origin downtime); the other fields are then meaningless.
    // attempts counts exchanges sent, fetch_delay the timeout+backoff spent.
    bool ok = true;
    int attempts = 1;
    SimDuration fetch_delay;
  };

  struct CondReply {
    bool modified = false;
    int64_t body_bytes = 0;  // 0 when not modified
    uint64_t version = 0;
    SimTime last_modified;
    std::optional<SimTime> expires;
    int upstream_hops = 0;
    bool ok = true;
    int attempts = 1;
    SimDuration fetch_delay;
  };

  virtual ~Upstream() = default;

  // Unconditional document fetch.
  virtual FullReply FetchFull(ObjectId id, SimTime now) = 0;

  // "Send this file if it has changed since" — held_version identifies the
  // copy the requester holds.
  virtual CondReply FetchIfModified(ObjectId id, uint64_t held_version, SimTime now) = 0;

  // Registers `sink` to be notified when `id` changes. Only meaningful for
  // invalidation-protocol configurations.
  virtual void SubscribeInvalidation(InvalidationSink* sink, ObjectId id) = 0;
  virtual void UnsubscribeInvalidation(InvalidationSink* sink, ObjectId id) = 0;
};

}  // namespace webcc

#endif  // WEBCC_SRC_CACHE_UPSTREAM_H_
