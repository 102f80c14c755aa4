// The model-based consistency oracle (chaos harness, docs/ROBUSTNESS.md).
//
// A ChaosOracle rides a simulation run as its SimObserver and re-checks the
// run against an independent shadow model of ground truth. It enforces four
// invariants:
//
//   1. staleness-bound — a stale body served as a FRESH hit under a
//      window-bounded policy (ttl / alex / cern / invalidation-with-lease)
//      has been stale for at most the policy's validity window, recomputed
//      from the declared PolicyConfig, plus the worst-case fault-induced
//      retry slack. (Degraded stale-if-error serves are exempt: they are the
//      deliberate availability-over-consistency trade.) Alongside it rides
//      the stale-flag cross-check: the simulator's own per-serve stale
//      verdict must agree with the shadow model on every serve.
//   2. invalidation-consistency — under the invalidation protocol with zero
//      injected faults, no serve is ever stale (the paper's "perfect
//      consistency" claim, checked, not assumed).
//   3. conservation — the books balance exactly: every request resolves to
//      exactly one serve kind, every invalidation notice put on the wire
//      resolves to exactly one delivery outcome (or is still in jittered
//      flight), per-type counters sum to the totals, and a fault-free run
//      shows zero failure accounting with byte-identical server/cache
//      ledgers.
//   4. crash-consistency — a run that snapshots, crashes, and restores
//      in-place at an arbitrary request index is compared against the
//      uninterrupted twin under the semantics of its recovery mode:
//      trust-snapshot (and auto resolving to it) demands field identity —
//      same serve log, same final entries (persisted fields), same
//      statistics up to the crash counter itself; revalidate-all and
//      cold-start legitimately diverge after the crash point, so the twin
//      check becomes pre-crash prefix identity plus the recovery-mode
//      contract at each object's first post-crash touch (never a fresh hit
//      after revalidate-all, always a cold miss after cold-start) with
//      invariants 1–3 still enforced on the crashed run in full.
//   5. version-conservation (cross-tier) — no cache at any tier ever serves
//      a version newer than the origin had produced by that instant. In a
//      hierarchy this ceiling upper-bounds every ancestor's knowledge, so a
//      leaf can never appear fresher than what its parent could have
//      delivered.
//
// Violations are reported by throwing OracleViolation, which propagates out
// of RunSimulation; the campaign layer (campaign.h) is the only place
// allowed to catch it.

#ifndef WEBCC_SRC_CHAOS_ORACLE_H_
#define WEBCC_SRC_CHAOS_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/shadow_model.h"
#include "src/core/simulation.h"

namespace webcc {

// One invariant violation. `invariant` is a stable slug ("staleness-bound",
// "stale-flag", "invalidation-consistency", "conservation", "zero-fault",
// "crash-consistency", "crash-recovery", "version-conservation") that
// shrinking uses to decide whether a simplified trial still reproduces the
// SAME failure.
struct OracleViolation {
  std::string invariant;
  std::string message;
};

// The persisted entry fields (snapshot.cc's 9 columns): what a snapshot
// restore brings back, so exactly what the crash-twin comparisons compare.
// serve_count and serves_since_validation are in-memory only — a restore
// legitimately resets them, and no non-adaptive policy reads them.
struct PersistedEntry {
  ObjectId object = kInvalidObjectId;
  FileType type = FileType::kOther;
  bool valid = true;
  int64_t size_bytes = 0;
  uint64_t version = 0;
  SimTime last_modified;
  SimTime fetched_at;
  SimTime validated_at;
  SimTime expires_at;

  static PersistedEntry Of(const CacheEntry& entry);
};

// One logged serve: the verdict fields the twins must agree on plus the
// serving entry's persisted state. Trivially copyable, so the log grows by
// memcpy.
struct ServeRecord {
  ObjectId object = 0;
  ServeKind kind = ServeKind::kHitFresh;
  bool stale = false;
  bool has_entry = false;  // false when nothing was cached afterwards
  int hops = 0;
  int64_t link_bytes = 0;
  SimTime at;
  PersistedEntry entry;  // meaningful only when has_entry

  static ServeRecord Of(const ServeObservation& observation);
};

// What an oracle keeps of its run beyond the per-serve checks.
enum class OracleRecord {
  // The serve log and the final cache contents, as PersistedEntry rows:
  // what VerifyCrashConsistency and VerifyRecoveryDivergence compare.
  kTwinLog,
  // A serve count only — all that invariants 1–3 and 5 read. For oracles
  // no twin comparison ever reads.
  kCountOnly,
};

// Where in a topology the observed cache sits — it changes what a serve can
// legitimately look like.
enum class OracleScope {
  // The cache fetches directly from the origin (single cache, fleet
  // member): a just-fetched body is always current, and the staleness-age
  // bound is the policy's own window.
  kSingleTier,
  // A hierarchy leaf fetches through a parent cache, which may serve its
  // own policy-fresh-but-truth-stale copy: a just-fetched body can arrive
  // already stale (that is the topology's nature, not a bug), and staleness
  // windows compound per tier, so the single-policy window recomputation is
  // unsound and invariant 1 is not checked here. Invariant 2 still holds —
  // synchronous invalidation is perfectly consistent through the whole
  // tree — as do the stale-flag cross-check on local serves and the
  // cross-tier version-conservation ceiling.
  kHierarchyLeaf,
};

class ChaosOracle : public SimObserver {
 public:
  // `config` is the trial's declared configuration: the oracle checks the
  // run against config.policy and config.faults, NOT against whatever policy
  // object actually ran — which is how a deliberately broken policy behind
  // an honest-looking config gets caught. Conservation checks require
  // warmup == 0 (chaos trials never warm up); checked. For per-link
  // topologies pass the WHOLE-world fault config (link overrides included):
  // zero-faults cleanliness and retry slack must see every link's knobs,
  // because any link's faults can reach this cache's serves.
  //
  // `record` says whether the run is logged for a twin comparison; only
  // an oracle built with kTwinLog may be passed to VerifyCrashConsistency or
  // VerifyRecoveryDivergence (checked).
  explicit ChaosOracle(const SimulationConfig& config,
                       OracleScope scope = OracleScope::kSingleTier,
                       OracleRecord record = OracleRecord::kTwinLog);

  // --- SimObserver ---
  void OnModification(ObjectId object, SimTime at) override;
  void OnServe(const ServeObservation& observation) override;
  void OnRunEnd(const ProxyCache& cache, const OriginServer& server) override;

  // Invariant 3 (and the zero-fault cleanliness checks): call once after
  // RunSimulation returns, with its result.
  void VerifyResult(const SimulationResult& result) const;

  // The leaf-shaped slice of VerifyResult for hierarchy tiers: request/serve
  // conservation and the per-type ledger against this leaf's CacheStats,
  // plus the zero-fault failure-counter cleanliness when the whole tree ran
  // fault-free. The origin's ServerStats ledger spans all three links, so
  // the byte-ledger and invalidation-ledger checks live with the caller.
  void VerifyLeafResult(const CacheStats& leaf) const;

  // Invariant 4, trust-snapshot flavor: `crashed` ran the same trial as
  // `baseline` plus an in-place snapshot->crash->restore cycle
  // (faults.snapshot_crash_request >= 0) whose recovery restores validity
  // verbatim, so the twin must be field-identical. Throws on the first
  // field difference.
  static void VerifyCrashConsistency(const ChaosOracle& baseline,
                                     const SimulationResult& baseline_result,
                                     const ChaosOracle& crashed,
                                     const SimulationResult& crashed_result);

  // Invariant 4 for the divergent recovery modes (revalidate-all, and
  // cold-start when `cold_start`): serve-by-serve field identity up to the
  // crash point, aligned replay streams throughout, and the recovery-mode
  // contract at each object's first post-crash touch — revalidate-all may
  // never serve a fresh hit first (the restored entry must revalidate),
  // cold-start must take a cold miss (the disk died). The crash cycle
  // accounts exactly one crash with zero dark time; invariants 1–3 are the
  // crashed oracle's own job and are not repeated here.
  static void VerifyRecoveryDivergence(const ChaosOracle& baseline,
                                       const SimulationResult& baseline_result,
                                       const ChaosOracle& crashed,
                                       const SimulationResult& crashed_result,
                                       bool cold_start);

  // Worst-case elapsed time one upstream exchange can absorb under `retry`
  // before reporting failure: the staleness-bound's fault-induced slack.
  static SimDuration MaxExchangeElapsed(const RetryPolicy& retry);

 private:
  [[noreturn]] static void Fail(const char* invariant, std::string message);

  // The validity window config_.policy promises for an entry in this state —
  // the recomputation invariant 1 measures against.
  [[nodiscard]] SimDuration RecomputeWindow(const CacheEntry& entry) const;

  SimulationConfig config_;  // observer/policy_factory cleared
  OracleScope scope_ = OracleScope::kSingleTier;
  bool zero_faults_ = false;
  bool invalidation_never_stale_ = false;
  bool has_window_bound_ = false;
  SimDuration slack_;

  ShadowModel shadow_;
  OracleRecord record_ = OracleRecord::kTwinLog;
  uint64_t serve_count_ = 0;
  // Kept only under kTwinLog.
  std::vector<ServeRecord> serves_;
  std::vector<PersistedEntry> final_entries_;  // LRU order, most recent first
  int64_t invalidations_in_flight_ = 0;
  bool run_ended_ = false;
};

}  // namespace webcc

#endif  // WEBCC_SRC_CHAOS_ORACLE_H_
