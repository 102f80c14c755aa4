#include "src/chaos/oracle.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "src/core/metrics.h"
#include "src/util/check.h"
#include "src/util/str.h"

namespace webcc {

namespace {

const char* ServeKindName(ServeKind kind) {
  switch (kind) {
    case ServeKind::kHitFresh:
      return "hit-fresh";
    case ServeKind::kHitValidated:
      return "hit-validated";
    case ServeKind::kMissCold:
      return "miss-cold";
    case ServeKind::kMissRefetched:
      return "miss-refetched";
    case ServeKind::kDegraded:
      return "degraded";
    case ServeKind::kFailed:
      return "failed";
  }
  return "?";
}

// Context prefix for per-serve messages.
std::string Where(const ServeObservation& o) {
  return StrFormat("request #%llu (object %u, t=%s, %s)",
                   static_cast<unsigned long long>(o.request_index),
                   static_cast<unsigned>(o.object), o.at.ToString().c_str(),
                   ServeKindName(o.result.kind));
}

}  // namespace

PersistedEntry PersistedEntry::Of(const CacheEntry& entry) {
  PersistedEntry p;
  p.object = entry.object;
  p.type = entry.type;
  p.valid = entry.valid;
  p.size_bytes = entry.size_bytes;
  p.version = entry.version;
  p.last_modified = entry.last_modified;
  p.fetched_at = entry.fetched_at;
  p.validated_at = entry.validated_at;
  p.expires_at = entry.expires_at;
  return p;
}

ServeRecord ServeRecord::Of(const ServeObservation& o) {
  ServeRecord r;
  r.object = o.object;
  r.kind = o.result.kind;
  r.stale = o.result.stale;
  r.hops = o.result.hops;
  r.link_bytes = o.result.link_bytes;
  r.at = o.at;
  if (o.entry != nullptr) {
    r.has_entry = true;
    r.entry = PersistedEntry::Of(*o.entry);
  }
  return r;
}

static_assert(std::is_trivially_copyable_v<ServeRecord>);

SimDuration ChaosOracle::MaxExchangeElapsed(const RetryPolicy& retry) {
  const int budget = retry.max_attempts < 1 ? 1 : retry.max_attempts;
  SimDuration elapsed(0);
  for (int attempt = 1; attempt <= budget; ++attempt) {
    elapsed += retry.timeout;
    if (attempt < budget) {
      elapsed += retry.BackoffAfter(attempt);
    }
  }
  return elapsed;
}

ChaosOracle::ChaosOracle(const SimulationConfig& config, OracleScope scope,
                         OracleRecord record)
    : config_(config), scope_(scope), record_(record) {
  config_.observer = nullptr;
  config_.policy_factory = nullptr;
  // Conservation laws compare the final stats against the full serve log; a
  // mid-run stats reset would unbalance them by design, not by bug.
  WEBCC_CHECK_EQ(config_.warmup.seconds(), 0);

  const FaultConfig& faults = config_.faults;
  zero_faults_ = !faults.Enabled();
  invalidation_never_stale_ =
      config_.policy.kind == PolicyKind::kInvalidation && zero_faults_;
  switch (config_.policy.kind) {
    case PolicyKind::kFixedTtl:
    case PolicyKind::kAlex:
    case PolicyKind::kCernHttpd:
      has_window_bound_ = true;
      break;
    case PolicyKind::kInvalidation:
      // A lease is a promised staleness bound; lease-free invalidation is
      // valid-until-notified with no window to check.
      has_window_bound_ = config_.policy.invalidation_lease > SimDuration(0);
      break;
    case PolicyKind::kAdaptiveTuner:
      has_window_bound_ = false;  // the window is the tuner's moving target
      break;
  }
  if (scope_ == OracleScope::kHierarchyLeaf) {
    // Each tier can age a body by its own window before handing it down, so
    // the one-policy window recomputation does not bound a leaf serve.
    has_window_bound_ = false;
  }
  // Loss and downtime stretch an exchange by timeouts and backoff before it
  // succeeds or degrades; that is the only fault-induced slack a fresh serve
  // can legitimately pick up. Crashes and jitter never delay a fetch. Any
  // link's override can add loss or a partition window, so they count too.
  bool delayed_fetches = faults.loss_rate > 0.0 || !faults.server_downtime.empty() ||
                         (faults.server_mtbf > SimDuration(0) &&
                          faults.server_mttr > SimDuration(0));
  for (const LinkFaultOverride& link : faults.link_overrides) {
    delayed_fetches = delayed_fetches || link.loss_rate.value_or(0.0) > 0.0 ||
                      !link.downtime.empty();
  }
  slack_ = faults.Enabled() && delayed_fetches ? MaxExchangeElapsed(faults.retry)
                                               : SimDuration(0);
}

void ChaosOracle::Fail(const char* invariant, std::string message) {
  throw OracleViolation{invariant, std::move(message)};
}

void ChaosOracle::OnModification(ObjectId object, SimTime at) {
  shadow_.RecordModification(object, at);
}

SimDuration ChaosOracle::RecomputeWindow(const CacheEntry& entry) const {
  const PolicyConfig& p = config_.policy;
  // The Alex-family age at the entry's last validation. Identical arithmetic
  // to the policies' OnFetch (alex_policy.cc / cern_policy.cc): OnFetch runs
  // with now == validated_at and the reply's last_modified.
  SimDuration age = entry.validated_at - entry.last_modified;
  if (age < SimDuration(0)) {
    age = SimDuration(0);
  }
  switch (p.kind) {
    case PolicyKind::kFixedTtl:
      return p.ttl;
    case PolicyKind::kAlex:
      return std::clamp(age.ScaledBy(p.alex_threshold), p.alex_min_validity,
                        p.alex_max_validity);
    case PolicyKind::kCernHttpd:
      return age.ScaledBy(p.cern_lm_fraction);
    case PolicyKind::kInvalidation:
      return p.invalidation_lease;
    case PolicyKind::kAdaptiveTuner:
      break;
  }
  WEBCC_CHECK(false);  // has_window_bound_ gates every caller
  return SimDuration(0);
}

void ChaosOracle::OnServe(const ServeObservation& o) {
  ++serve_count_;
  if (record_ == OracleRecord::kTwinLog) {
    serves_.push_back(ServeRecord::Of(o));
  }

  // Invariant 5: the version ceiling. The origin numbers versions
  // 1 + change-count, so nothing downstream — at any tier, after any crash,
  // restore, or redelivery — can hold a version past what the origin has
  // produced by now. A violation is a copy from the future.
  const CacheEntry* entry = o.entry;
  if (entry != nullptr) {
    const uint64_t ceiling = 1 + shadow_.ModificationCount(o.object);
    if (entry->version > ceiling) {
      Fail("version-conservation",
           Where(o) + StrFormat(": entry version %llu exceeds the origin's newest "
                                "possible version %llu (%llu modifications applied)",
                                static_cast<unsigned long long>(entry->version),
                                static_cast<unsigned long long>(ceiling),
                                static_cast<unsigned long long>(
                                    shadow_.ModificationCount(o.object))));
    }
  }

  // Stale-flag cross-check: the simulator's verdict vs the shadow model's.
  const bool entry_stale =
      entry != nullptr && shadow_.WouldBeStale(o.object, entry->last_modified);
  switch (o.result.kind) {
    case ServeKind::kHitFresh:
    case ServeKind::kDegraded:
      if (entry == nullptr) {
        Fail("stale-flag", Where(o) + ": served from the cache but no entry remains");
      }
      if (o.result.stale != entry_stale) {
        Fail("stale-flag",
             Where(o) + StrFormat(": simulator flagged stale=%d but the shadow model says %d "
                                  "(entry last_modified=%s)",
                                  o.result.stale ? 1 : 0, entry_stale ? 1 : 0,
                                  entry->last_modified.ToString().c_str()));
      }
      break;
    case ServeKind::kHitValidated:
    case ServeKind::kMissCold:
    case ServeKind::kMissRefetched:
      // The simulator only flags locally-served copies stale, never a body
      // it just brought in.
      if (o.result.stale) {
        Fail("stale-flag", Where(o) + ": a just-fetched/validated serve was flagged stale");
      }
      // Against the origin a fetched body must be the newest version; a
      // hierarchy leaf fetches through its parent, whose policy-fresh copy
      // may already be stale in truth — there the ceiling check above is
      // the binding one.
      if (entry_stale && scope_ == OracleScope::kSingleTier) {
        Fail("stale-flag",
             Where(o) + ": the just-fetched/validated copy is older than the newest "
                        "applied modification");
      }
      break;
    case ServeKind::kFailed:
      if (o.result.stale) {
        Fail("stale-flag", Where(o) + ": a failed request (no body served) was flagged stale");
      }
      break;
  }

  if (!o.result.stale) {
    return;
  }
  // Invariant 2: invalidation with a perfect network is perfectly consistent.
  if (invalidation_never_stale_) {
    Fail("invalidation-consistency",
         Where(o) + ": stale serve under the invalidation protocol with zero injected faults");
  }
  // Invariant 1: a FRESH stale serve is bounded by the declared window.
  // Degraded serves are exempt — stale-if-error trades exactly this away.
  if (o.result.kind == ServeKind::kHitFresh && has_window_bound_) {
    const std::optional<SimTime> went_bad =
        shadow_.FirstModificationAfter(o.object, entry->last_modified);
    WEBCC_CHECK(went_bad.has_value());  // stale implies a newer applied mod
    const SimDuration staleness = o.at - *went_bad;
    const SimDuration window = RecomputeWindow(*entry);
    const SimDuration bound = window + slack_ + Seconds(1);
    if (staleness > bound) {
      Fail("staleness-bound",
           Where(o) +
               StrFormat(": body stale for %s but policy %s promises at most %s "
                         "(window %s + fault slack %s + 1s); entry validated_at=%s "
                         "last_modified=%s expires_at=%s",
                         staleness.ToString().c_str(),
                         std::string(PolicyKindName(config_.policy.kind)).c_str(),
                         bound.ToString().c_str(), window.ToString().c_str(),
                         slack_.ToString().c_str(), entry->validated_at.ToString().c_str(),
                         entry->last_modified.ToString().c_str(),
                         entry->expires_at.ToString().c_str()));
    }
  }
}

void ChaosOracle::OnRunEnd(const ProxyCache& cache, const OriginServer& server) {
  if (record_ == OracleRecord::kTwinLog) {
    cache.ForEachEntry(
        [this](const CacheEntry& entry) { final_entries_.push_back(PersistedEntry::Of(entry)); });
  }
  // A cache below another cache has no origin ledger of its own; its
  // in-flight notices are the parent's to count.
  const CacheId id = server.IdOf(&cache);
  invalidations_in_flight_ = id == kInvalidCacheId ? 0 : server.InvalidationsInFlight(id);
  run_ended_ = true;
}

void ChaosOracle::VerifyResult(const SimulationResult& result) const {
  WEBCC_CHECK(run_ended_);  // RunSimulation fires OnRunEnd before returning
  const CacheStats& cache = result.cache;
  const ServerStats& server = result.server;

  // Invariant 3: the books balance exactly.
  if (cache.requests != serve_count_) {
    Fail("conservation",
         StrFormat("stats saw %llu requests but the observer saw %llu serves",
                   static_cast<unsigned long long>(cache.requests),
                   static_cast<unsigned long long>(serve_count_)));
  }
  if (const int64_t gap = RequestConservationGap(cache); gap != 0) {
    Fail("conservation",
         StrFormat("requests=%llu but serve kinds sum to %llu (gap %lld)",
                   static_cast<unsigned long long>(cache.requests),
                   static_cast<unsigned long long>(cache.ServeKindTotal()),
                   static_cast<long long>(gap)));
  }
  if (const int64_t gap = InvalidationConservationGap(server, invalidations_in_flight_);
      gap != 0) {
    Fail("conservation",
         StrFormat("invalidation ledger unbalanced: sent=%llu lost=%llu delivered=%llu "
                   "undeliverable=%llu in-flight=%lld (gap %lld)",
                   static_cast<unsigned long long>(server.invalidations_sent),
                   static_cast<unsigned long long>(server.invalidations_lost),
                   static_cast<unsigned long long>(server.invalidations_delivered),
                   static_cast<unsigned long long>(server.invalidations_undeliverable),
                   static_cast<long long>(invalidations_in_flight_),
                   static_cast<long long>(gap)));
  }
  if (cache.stale_hits > cache.hits_fresh + cache.degraded_serves) {
    Fail("conservation",
         StrFormat("stale_hits=%llu exceeds the local serves that can be stale (%llu)",
                   static_cast<unsigned long long>(cache.stale_hits),
                   static_cast<unsigned long long>(cache.hits_fresh + cache.degraded_serves)));
  }
  uint64_t type_requests = 0;
  uint64_t type_stale = 0;
  for (const CacheStats::TypeCounters& t : cache.by_type) {
    type_requests += t.requests;
    type_stale += t.stale_hits;
  }
  // Failed serves never reach a typed entry, so the per-type ledger covers
  // exactly the non-failed requests.
  if (type_requests != cache.requests - cache.failed_requests ||
      type_stale != cache.stale_hits) {
    Fail("conservation",
         StrFormat("per-type counters do not sum to the totals: requests %llu vs %llu, "
                   "stale %llu vs %llu",
                   static_cast<unsigned long long>(type_requests),
                   static_cast<unsigned long long>(cache.requests - cache.failed_requests),
                   static_cast<unsigned long long>(type_stale),
                   static_cast<unsigned long long>(cache.stale_hits)));
  }

  if (!zero_faults_) {
    return;
  }
  // Zero-fault cleanliness: with no injected faults, every failure counter
  // is zero and the two byte ledgers agree to the byte. The in-place
  // snapshot crash cycle (invariant 4's hook) accounts exactly one crash
  // with zero dark time.
  const int64_t scr = config_.faults.snapshot_crash_request;
  const uint64_t expected_crashes =
      (scr >= 0 && static_cast<uint64_t>(scr) < serve_count_) ? 1 : 0;
  const auto expect_zero = [](const char* field, uint64_t value) {
    if (value != 0) {
      Fail("zero-fault", StrFormat("fault-free run has %s=%llu", field,
                                   static_cast<unsigned long long>(value)));
    }
  };
  expect_zero("upstream_retries", cache.upstream_retries);
  expect_zero("retry_wait_seconds", static_cast<uint64_t>(cache.retry_wait_seconds));
  expect_zero("degraded_serves", cache.degraded_serves);
  expect_zero("failed_requests", cache.failed_requests);
  expect_zero("invalidations_dropped", cache.invalidations_dropped);
  expect_zero("unavailable_seconds", static_cast<uint64_t>(cache.unavailable_seconds));
  expect_zero("invalidations_lost", server.invalidations_lost);
  expect_zero("invalidations_queued", server.invalidations_queued);
  expect_zero("invalidations_redelivered", server.invalidations_redelivered);
  expect_zero("invalidations_undeliverable", server.invalidations_undeliverable);
  expect_zero("invalidations_in_flight", static_cast<uint64_t>(invalidations_in_flight_));
  if (cache.crashes != expected_crashes) {
    Fail("zero-fault",
         StrFormat("fault-free run has crashes=%llu, expected %llu",
                   static_cast<unsigned long long>(cache.crashes),
                   static_cast<unsigned long long>(expected_crashes)));
  }
  if (server.TotalBytes() != cache.LinkBytes()) {
    Fail("zero-fault",
         StrFormat("byte ledgers disagree: server counted %lld, cache counted %lld",
                   static_cast<long long>(server.TotalBytes()),
                   static_cast<long long>(cache.LinkBytes())));
  }
}

namespace {

// Context prefix for twin-comparison messages. Built only on the failure
// path: the comparisons run once per serve, and a formatted time costs
// more than the comparison itself.
std::string ServeWhere(size_t index, const ServeRecord& r) {
  return StrFormat("serve #%zu (object %u, t=%s)", index, static_cast<unsigned>(r.object),
                   r.at.ToString().c_str());
}

// Equality over the persisted entry fields. `where()` renders the message
// prefix once a field differs.
template <typename Where>
void CheckPersistedEntryFields(const char* invariant, const Where& where,
                               const PersistedEntry& a, const PersistedEntry& b) {
  const auto fail = [&](const char* field, const std::string& lhs, const std::string& rhs) {
    throw OracleViolation{
        invariant,
        where() + StrFormat(": entry field %s differs: baseline %s, crashed %s", field,
                            lhs.c_str(), rhs.c_str())};
  };
  const auto num = [](int64_t v) { return StrFormat("%lld", static_cast<long long>(v)); };
  if (a.object != b.object) fail("object", num(a.object), num(b.object));
  if (a.type != b.type) {
    fail("type", num(static_cast<int64_t>(a.type)), num(static_cast<int64_t>(b.type)));
  }
  if (a.size_bytes != b.size_bytes) fail("size_bytes", num(a.size_bytes), num(b.size_bytes));
  if (a.version != b.version) {
    fail("version", num(static_cast<int64_t>(a.version)), num(static_cast<int64_t>(b.version)));
  }
  if (a.last_modified != b.last_modified) {
    fail("last_modified", a.last_modified.ToString(), b.last_modified.ToString());
  }
  if (a.fetched_at != b.fetched_at) {
    fail("fetched_at", a.fetched_at.ToString(), b.fetched_at.ToString());
  }
  if (a.validated_at != b.validated_at) {
    fail("validated_at", a.validated_at.ToString(), b.validated_at.ToString());
  }
  if (a.expires_at != b.expires_at) {
    fail("expires_at", a.expires_at.ToString(), b.expires_at.ToString());
  }
  if (a.valid != b.valid) fail("valid", num(a.valid ? 1 : 0), num(b.valid ? 1 : 0));
}

void CheckStatField(const char* scope, const char* field, uint64_t baseline, uint64_t crashed) {
  if (baseline != crashed) {
    throw OracleViolation{
        "crash-consistency",
        StrFormat("%s stat %s differs: baseline %llu, crashed %llu", scope, field,
                  static_cast<unsigned long long>(baseline),
                  static_cast<unsigned long long>(crashed))};
  }
}

// CheckStatField for one by_type row; the scope is formatted only on failure.
void CheckTypeStatField(size_t type, const char* field, uint64_t baseline, uint64_t crashed) {
  if (baseline != crashed) {
    CheckStatField(StrFormat("cache by_type[%zu]", type).c_str(), field, baseline, crashed);
  }
}

// Serve-record equality for the twin-run comparisons: verdict fields plus
// the persisted entry state of serve #`index`. `invariant` names the check
// that throws.
void CompareServeRecords(const char* invariant, size_t index, const ServeRecord& a,
                         const ServeRecord& b) {
  const auto where = [&] { return ServeWhere(index, a); };
  const auto fail = [&](const std::string& message) {
    throw OracleViolation{invariant, where() + message};
  };
  if (a.object != b.object || a.at != b.at) {
    fail(": replay streams diverged (object/time mismatch)");
  }
  if (a.kind != b.kind) {
    fail(StrFormat(": serve kind differs: baseline %s, crashed %s", ServeKindName(a.kind),
                   ServeKindName(b.kind)));
  }
  if (a.stale != b.stale) {
    fail(StrFormat(": stale flag differs: baseline %d, crashed %d", a.stale ? 1 : 0,
                   b.stale ? 1 : 0));
  }
  if (a.link_bytes != b.link_bytes) {
    fail(StrFormat(": link bytes differ: baseline %lld, crashed %lld",
                   static_cast<long long>(a.link_bytes), static_cast<long long>(b.link_bytes)));
  }
  if (a.hops != b.hops) {
    fail(StrFormat(": hops differ: baseline %d, crashed %d", a.hops, b.hops));
  }
  if (a.has_entry != b.has_entry) {
    fail(StrFormat(": entry presence differs: baseline %d, crashed %d", a.has_entry ? 1 : 0,
                   b.has_entry ? 1 : 0));
  }
  if (a.has_entry) {
    CheckPersistedEntryFields(invariant, where, a.entry, b.entry);
  }
}

}  // namespace

void ChaosOracle::VerifyCrashConsistency(const ChaosOracle& baseline,
                                         const SimulationResult& baseline_result,
                                         const ChaosOracle& crashed,
                                         const SimulationResult& crashed_result) {
  WEBCC_CHECK(baseline.run_ended_);
  WEBCC_CHECK(crashed.run_ended_);
  WEBCC_CHECK(baseline.record_ == OracleRecord::kTwinLog);
  WEBCC_CHECK(crashed.record_ == OracleRecord::kTwinLog);

  // Serve logs, request by request.
  if (baseline.serves_.size() != crashed.serves_.size()) {
    Fail("crash-consistency",
         StrFormat("serve logs differ in length: baseline %zu, crashed %zu",
                   baseline.serves_.size(), crashed.serves_.size()));
  }
  for (size_t i = 0; i < baseline.serves_.size(); ++i) {
    CompareServeRecords("crash-consistency", i, baseline.serves_[i], crashed.serves_[i]);
  }

  // Final cache contents, in LRU order (restore preserves it).
  if (baseline.final_entries_.size() != crashed.final_entries_.size()) {
    Fail("crash-consistency",
         StrFormat("final entry counts differ: baseline %zu, crashed %zu",
                   baseline.final_entries_.size(), crashed.final_entries_.size()));
  }
  for (size_t i = 0; i < baseline.final_entries_.size(); ++i) {
    CheckPersistedEntryFields(
        "crash-consistency", [i] { return StrFormat("final entry #%zu", i); },
        baseline.final_entries_[i], crashed.final_entries_[i]);
  }

  // Statistics, field by field. The crash cycle itself accounts exactly one
  // extra crash with zero dark time; everything else must be identical.
  const int64_t scr = crashed.config_.faults.snapshot_crash_request;
  const uint64_t allowance =
      (scr >= 0 && static_cast<uint64_t>(scr) < crashed.serve_count_) ? 1 : 0;
  const CacheStats& bc = baseline_result.cache;
  const CacheStats& cc = crashed_result.cache;
  if (cc.crashes != bc.crashes + allowance) {
    Fail("crash-consistency",
         StrFormat("crash counter off: baseline %llu + %llu cycle != crashed %llu",
                   static_cast<unsigned long long>(bc.crashes),
                   static_cast<unsigned long long>(allowance),
                   static_cast<unsigned long long>(cc.crashes)));
  }
  CheckStatField("cache", "requests", bc.requests, cc.requests);
  CheckStatField("cache", "hits_fresh", bc.hits_fresh, cc.hits_fresh);
  CheckStatField("cache", "hits_validated", bc.hits_validated, cc.hits_validated);
  CheckStatField("cache", "misses_cold", bc.misses_cold, cc.misses_cold);
  CheckStatField("cache", "misses_refetched", bc.misses_refetched, cc.misses_refetched);
  CheckStatField("cache", "stale_hits", bc.stale_hits, cc.stale_hits);
  CheckStatField("cache", "validations_sent", bc.validations_sent, cc.validations_sent);
  CheckStatField("cache", "full_fetches", bc.full_fetches, cc.full_fetches);
  CheckStatField("cache", "invalidations_received", bc.invalidations_received,
                 cc.invalidations_received);
  CheckStatField("cache", "invalidations_dropped", bc.invalidations_dropped,
                 cc.invalidations_dropped);
  CheckStatField("cache", "evictions", bc.evictions, cc.evictions);
  CheckStatField("cache", "upstream_retries", bc.upstream_retries, cc.upstream_retries);
  CheckStatField("cache", "retry_wait_seconds", static_cast<uint64_t>(bc.retry_wait_seconds),
                 static_cast<uint64_t>(cc.retry_wait_seconds));
  CheckStatField("cache", "degraded_serves", bc.degraded_serves, cc.degraded_serves);
  CheckStatField("cache", "failed_requests", bc.failed_requests, cc.failed_requests);
  CheckStatField("cache", "unavailable_seconds",
                 static_cast<uint64_t>(bc.unavailable_seconds),
                 static_cast<uint64_t>(cc.unavailable_seconds));
  CheckStatField("cache", "bytes_to_upstream", static_cast<uint64_t>(bc.bytes_to_upstream),
                 static_cast<uint64_t>(cc.bytes_to_upstream));
  CheckStatField("cache", "bytes_from_upstream",
                 static_cast<uint64_t>(bc.bytes_from_upstream),
                 static_cast<uint64_t>(cc.bytes_from_upstream));
  CheckStatField("cache", "total_hops", bc.total_hops, cc.total_hops);
  CheckStatField("cache", "max_hops", static_cast<uint64_t>(bc.max_hops),
                 static_cast<uint64_t>(cc.max_hops));
  for (size_t t = 0; t < bc.by_type.size(); ++t) {
    const CacheStats::TypeCounters& x = bc.by_type[t];
    const CacheStats::TypeCounters& y = cc.by_type[t];
    CheckTypeStatField(t, "requests", x.requests, y.requests);
    CheckTypeStatField(t, "stale_hits", x.stale_hits, y.stale_hits);
    CheckTypeStatField(t, "misses", x.misses, y.misses);
    CheckTypeStatField(t, "validations", x.validations, y.validations);
    CheckTypeStatField(t, "payload_bytes", static_cast<uint64_t>(x.payload_bytes),
                       static_cast<uint64_t>(y.payload_bytes));
  }
  const ServerStats& bs = baseline_result.server;
  const ServerStats& cs = crashed_result.server;
  CheckStatField("server", "get_requests", bs.get_requests, cs.get_requests);
  CheckStatField("server", "ims_queries", bs.ims_queries, cs.ims_queries);
  CheckStatField("server", "ims_not_modified", bs.ims_not_modified, cs.ims_not_modified);
  CheckStatField("server", "invalidations_sent", bs.invalidations_sent, cs.invalidations_sent);
  CheckStatField("server", "invalidation_retries", bs.invalidation_retries,
                 cs.invalidation_retries);
  CheckStatField("server", "invalidations_lost", bs.invalidations_lost, cs.invalidations_lost);
  CheckStatField("server", "invalidations_queued", bs.invalidations_queued,
                 cs.invalidations_queued);
  CheckStatField("server", "invalidations_redelivered", bs.invalidations_redelivered,
                 cs.invalidations_redelivered);
  CheckStatField("server", "invalidations_delivered", bs.invalidations_delivered,
                 cs.invalidations_delivered);
  CheckStatField("server", "invalidations_undeliverable", bs.invalidations_undeliverable,
                 cs.invalidations_undeliverable);
  CheckStatField("server", "files_transferred", bs.files_transferred, cs.files_transferred);
  CheckStatField("server", "bytes_sent", static_cast<uint64_t>(bs.bytes_sent),
                 static_cast<uint64_t>(cs.bytes_sent));
  CheckStatField("server", "bytes_received", static_cast<uint64_t>(bs.bytes_received),
                 static_cast<uint64_t>(cs.bytes_received));
}

void ChaosOracle::VerifyRecoveryDivergence(const ChaosOracle& baseline,
                                           const SimulationResult& baseline_result,
                                           const ChaosOracle& crashed,
                                           const SimulationResult& crashed_result,
                                           bool cold_start) {
  WEBCC_CHECK(baseline.run_ended_);
  WEBCC_CHECK(crashed.run_ended_);
  WEBCC_CHECK(baseline.record_ == OracleRecord::kTwinLog);
  WEBCC_CHECK(crashed.record_ == OracleRecord::kTwinLog);

  const int64_t scr = crashed.config_.faults.snapshot_crash_request;
  if (scr < 0 || static_cast<uint64_t>(scr) >= crashed.serve_count_) {
    // The crash point never fired: the twins ran identical configurations
    // and must be field-identical regardless of recovery mode.
    VerifyCrashConsistency(baseline, baseline_result, crashed, crashed_result);
    return;
  }
  if (baseline.serves_.size() != crashed.serves_.size()) {
    Fail("crash-recovery",
         StrFormat("serve logs differ in length: baseline %zu, crashed %zu",
                   baseline.serves_.size(), crashed.serves_.size()));
  }

  const size_t crash_index = static_cast<size_t>(scr);
  std::vector<bool> touched;  // objects first served after the crash point
  for (size_t i = 0; i < baseline.serves_.size(); ++i) {
    const ServeRecord& a = baseline.serves_[i];
    const ServeRecord& b = crashed.serves_[i];
    if (i < crash_index) {
      // Before the crash the runs are the same program: full field identity.
      CompareServeRecords("crash-recovery", i, a, b);
      continue;
    }
    // After it the serve outcomes legitimately diverge, but the replay
    // stream is the workload's and may not.
    if (a.object != b.object || a.at != b.at) {
      throw OracleViolation{"crash-recovery",
                            ServeWhere(i, a) + ": replay streams diverged (object/time mismatch)"};
    }
    const size_t object = static_cast<size_t>(b.object);
    if (object >= touched.size()) {
      touched.resize(object + 1, false);
    }
    if (touched[object]) {
      continue;
    }
    touched[object] = true;
    // The recovery-mode contract at the object's first post-crash touch.
    if (cold_start) {
      // The disk died with the process: nothing survived to serve from, so
      // the first touch is a cold miss — or a failed serve when another
      // armed fault (link loss, origin downtime) kills the refetch itself.
      // A failure hands the client no body, so it cannot break consistency.
      if (b.kind != ServeKind::kMissCold && b.kind != ServeKind::kFailed) {
        throw OracleViolation{
            "crash-recovery",
            ServeWhere(i, a) + StrFormat(": first touch after a cold-start crash must be a "
                                         "cold miss or a failed fetch, got %s",
                                         ServeKindName(b.kind))};
      }
    } else {
      // Revalidate-all: every restored entry comes back invalid, so the
      // first touch must validate or miss — never serve the copy as fresh.
      if (b.kind == ServeKind::kHitFresh) {
        throw OracleViolation{
            "crash-recovery",
            ServeWhere(i, a) + ": first touch after a revalidate-all crash served a fresh hit "
                               "(the restored entry skipped revalidation)"};
      }
    }
  }

  // The cycle accounts exactly one crash with zero dark time; request
  // volume is the workload's and cannot change.
  const CacheStats& bc = baseline_result.cache;
  const CacheStats& cc = crashed_result.cache;
  if (cc.crashes != bc.crashes + 1) {
    throw OracleViolation{
        "crash-recovery",
        StrFormat("crash counter off: baseline %llu + 1 cycle != crashed %llu",
                  static_cast<unsigned long long>(bc.crashes),
                  static_cast<unsigned long long>(cc.crashes))};
  }
  if (bc.requests != cc.requests) {
    throw OracleViolation{
        "crash-recovery",
        StrFormat("request counts differ: baseline %llu, crashed %llu",
                  static_cast<unsigned long long>(bc.requests),
                  static_cast<unsigned long long>(cc.requests))};
  }
  if (bc.unavailable_seconds != cc.unavailable_seconds) {
    throw OracleViolation{
        "crash-recovery",
        StrFormat("the in-place cycle must lose no simulated time: baseline dark %llds, "
                  "crashed dark %llds",
                  static_cast<long long>(bc.unavailable_seconds),
                  static_cast<long long>(cc.unavailable_seconds))};
  }
}

void ChaosOracle::VerifyLeafResult(const CacheStats& leaf) const {
  WEBCC_CHECK(run_ended_);
  if (leaf.requests != serve_count_) {
    Fail("conservation",
         StrFormat("leaf stats saw %llu requests but the observer saw %llu serves",
                   static_cast<unsigned long long>(leaf.requests),
                   static_cast<unsigned long long>(serve_count_)));
  }
  if (const int64_t gap = RequestConservationGap(leaf); gap != 0) {
    Fail("conservation",
         StrFormat("leaf requests=%llu but serve kinds sum to %llu (gap %lld)",
                   static_cast<unsigned long long>(leaf.requests),
                   static_cast<unsigned long long>(leaf.ServeKindTotal()),
                   static_cast<long long>(gap)));
  }
  if (leaf.stale_hits > leaf.hits_fresh + leaf.degraded_serves) {
    Fail("conservation",
         StrFormat("leaf stale_hits=%llu exceeds the local serves that can be stale (%llu)",
                   static_cast<unsigned long long>(leaf.stale_hits),
                   static_cast<unsigned long long>(leaf.hits_fresh + leaf.degraded_serves)));
  }
  uint64_t type_requests = 0;
  uint64_t type_stale = 0;
  for (const CacheStats::TypeCounters& t : leaf.by_type) {
    type_requests += t.requests;
    type_stale += t.stale_hits;
  }
  if (type_requests != leaf.requests - leaf.failed_requests ||
      type_stale != leaf.stale_hits) {
    Fail("conservation",
         StrFormat("leaf per-type counters do not sum to the totals: requests %llu vs %llu, "
                   "stale %llu vs %llu",
                   static_cast<unsigned long long>(type_requests),
                   static_cast<unsigned long long>(leaf.requests - leaf.failed_requests),
                   static_cast<unsigned long long>(type_stale),
                   static_cast<unsigned long long>(leaf.stale_hits)));
  }
  if (!zero_faults_) {
    return;
  }
  // A fault-free tree degrades nowhere; hierarchy trials never use the
  // in-place crash point, so the crash counter is clean too.
  const auto expect_zero = [](const char* field, uint64_t value) {
    if (value != 0) {
      Fail("zero-fault", StrFormat("fault-free leaf has %s=%llu", field,
                                   static_cast<unsigned long long>(value)));
    }
  };
  expect_zero("upstream_retries", leaf.upstream_retries);
  expect_zero("degraded_serves", leaf.degraded_serves);
  expect_zero("failed_requests", leaf.failed_requests);
  expect_zero("invalidations_dropped", leaf.invalidations_dropped);
  expect_zero("crashes", leaf.crashes);
  expect_zero("unavailable_seconds", static_cast<uint64_t>(leaf.unavailable_seconds));
}

}  // namespace webcc
