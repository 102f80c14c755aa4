#include "src/sim/fault_plan.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "src/util/check.h"
#include "src/util/str.h"

namespace webcc {

namespace {

// Distinct SplitMix64 stream tags so loss, jitter, and window generation use
// unrelated substreams of the one user-visible seed.
constexpr uint64_t kLossStream = 0x6c6f7373;    // "loss"
constexpr uint64_t kJitterStream = 0x6a697474;  // "jitt"
constexpr uint64_t kWindowStream = 0x77696e64;  // "wind"
constexpr uint64_t kLinkStream = 0x6c696e6b;    // "link" — per-link seed forks
constexpr uint64_t kBackoffStream = 0x626b6f66;  // "bkof" — retry full jitter

// Links are fleet members or hierarchy edges; 4096 matches the sweep
// executor's --jobs ceiling and bounds repro-file parsing.
constexpr uint64_t kMaxLinks = 4096;

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  SplitMix64 mix(seed ^ (tag * 0x9e3779b97f4a7c15ULL));
  return mix.Next();
}

// Merges overlapping/adjacent windows into a sorted disjoint list.
std::vector<DowntimeWindow> Normalize(std::vector<DowntimeWindow> windows) {
  std::erase_if(windows, [](const DowntimeWindow& w) { return w.end <= w.start; });
  std::sort(windows.begin(), windows.end(), [](const DowntimeWindow& a, const DowntimeWindow& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.end < b.end;
  });
  std::vector<DowntimeWindow> merged;
  for (const DowntimeWindow& w : windows) {
    if (!merged.empty() && w.start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, w.end);
    } else {
      merged.push_back(w);
    }
  }
  return merged;
}

}  // namespace

SimDuration RetryPolicy::BackoffAfter(int failed) const {
  WEBCC_CHECK(failed >= 1) << "BackoffAfter: attempt index is 1-based";
  double backoff = static_cast<double>(initial_backoff.seconds());
  for (int i = 1; i < failed; ++i) {
    backoff *= backoff_multiplier;
    if (backoff >= static_cast<double>(max_backoff.seconds())) break;
  }
  const double capped = std::min(backoff, static_cast<double>(max_backoff.seconds()));
  return SecondsF(capped);
}

bool FaultConfig::Enabled() const {
  return armed || loss_rate > 0.0 || jitter_max > SimDuration(0) || !server_downtime.empty() ||
         (server_mtbf > SimDuration(0) && server_mttr > SimDuration(0)) ||
         !cache_crashes.empty() || !link_overrides.empty();
}

FaultConfig FaultConfig::ForLink(uint32_t link) const {
  FaultConfig derived = *this;
  derived.link_overrides.clear();
  // Fork the seed per link so sibling links draw unrelated loss/jitter
  // sequences and independent MTBF/MTTR window schedules from one seed.
  derived.seed = SubSeed(seed, kLinkStream + link);
  for (const LinkFaultOverride& over : link_overrides) {
    if (over.link != link) {
      continue;
    }
    if (over.loss_rate.has_value()) {
      derived.loss_rate = *over.loss_rate;
    }
    if (over.jitter_max.has_value()) {
      derived.jitter_max = *over.jitter_max;
    }
    derived.server_downtime.insert(derived.server_downtime.end(), over.downtime.begin(),
                                   over.downtime.end());
    derived.cache_crashes.insert(derived.cache_crashes.end(), over.crashes.begin(),
                                 over.crashes.end());
    if (over.recovery.has_value()) {
      derived.crash_recovery = *over.recovery;
    }
    if (over.snapshot_crash_request.has_value()) {
      derived.snapshot_crash_request = *over.snapshot_crash_request;
    }
  }
  return derived;
}

FaultPlan::FaultPlan(const FaultConfig& config, SimTime horizon)
    : config_(config),
      enabled_(config.Enabled()),
      loss_rng_(SubSeed(config.seed, kLossStream)),
      jitter_rng_(SubSeed(config.seed, kJitterStream)),
      backoff_rng_(SubSeed(config.seed, kBackoffStream)) {
  WEBCC_CHECK(config_.loss_rate >= 0.0 && config_.loss_rate <= 1.0)
      << "FaultConfig.loss_rate must be in [0, 1]";
  WEBCC_CHECK(config_.jitter_max >= SimDuration(0)) << "FaultConfig.jitter_max must be >= 0";
  std::vector<DowntimeWindow> windows = config_.server_downtime;
  if (config_.server_mtbf > SimDuration(0) && config_.server_mttr > SimDuration(0)) {
    // Alternating exponential up/down process from its own substream, so
    // toggling loss or jitter never re-rolls the downtime schedule.
    Rng window_rng(SubSeed(config_.seed, kWindowStream));
    SimTime t = SimTime::Epoch();
    while (t < horizon) {
      const double up = window_rng.Exponential(static_cast<double>(config_.server_mtbf.seconds()));
      const double down = window_rng.Exponential(static_cast<double>(config_.server_mttr.seconds()));
      const SimTime start = t + SecondsF(up);
      if (start >= horizon) break;
      const SimTime end = std::min(horizon, start + std::max(Seconds(1), SecondsF(down)));
      windows.push_back({start, end});
      t = end;
    }
  }
  windows_ = Normalize(std::move(windows));
  // Crash events must be ordered for the simulator's schedule walk.
  std::sort(config_.cache_crashes.begin(), config_.cache_crashes.end(),
            [](const CacheCrashEvent& a, const CacheCrashEvent& b) { return a.at < b.at; });
  for (const CacheCrashEvent& crash : config_.cache_crashes) {
    if (!crashes_.empty() && crash.at < crashes_.back().at + crashes_.back().outage) {
      CacheCrashEvent& open = crashes_.back();
      open.outage = std::max(open.outage, crash.at + crash.outage - open.at);
    } else {
      crashes_.push_back(crash);
    }
  }
}

bool FaultPlan::ServerUp(SimTime t) const {
  // Find the first window ending after t; t is down iff that window started.
  auto it = std::upper_bound(windows_.begin(), windows_.end(), t,
                             [](SimTime at, const DowntimeWindow& w) { return at < w.end; });
  return it == windows_.end() || t < it->start;
}

SimTime FaultPlan::NextServerUp(SimTime t) const {
  auto it = std::upper_bound(windows_.begin(), windows_.end(), t,
                             [](SimTime at, const DowntimeWindow& w) { return at < w.end; });
  if (it == windows_.end() || t < it->start) return t;
  return it->end;
}

bool FaultPlan::LoseMessage() {
  if (config_.loss_rate <= 0.0) return false;  // no draw: arming stays a no-op
  const bool lost = loss_rng_.Bernoulli(config_.loss_rate);
  if (lost) ++messages_lost_;
  return lost;
}

SimDuration FaultPlan::Jitter() {
  if (config_.jitter_max <= SimDuration(0)) return SimDuration(0);
  return Seconds(jitter_rng_.UniformInt(0, config_.jitter_max.seconds()));
}

SimDuration FaultPlan::Backoff(int failed) {
  const SimDuration backoff = config_.retry.BackoffAfter(failed);
  if (!config_.retry.full_jitter || backoff <= SimDuration(0)) {
    return backoff;  // no draw: the legacy deterministic schedule, bit-exact
  }
  return Seconds(backoff_rng_.UniformInt(0, backoff.seconds()));
}

int64_t FaultPlan::TotalDowntimeSeconds() const {
  int64_t total = 0;
  for (const DowntimeWindow& w : windows_) total += (w.end - w.start).seconds();
  return total;
}

namespace {

constexpr char kFaultPlanHeader[] = "#webcc-fault-plan v1";
constexpr char kFaultPlanHeaderV2[] = "#webcc-fault-plan v2";

std::optional<uint64_t> ParseU64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  uint64_t value = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

}  // namespace

const char* CrashRecoveryName(CrashRecovery recovery) {
  switch (recovery) {
    case CrashRecovery::kAuto:
      return "auto";
    case CrashRecovery::kTrustSnapshot:
      return "trust";
    case CrashRecovery::kRevalidateAll:
      return "revalidate";
    case CrashRecovery::kColdStart:
      return "cold";
  }
  return "auto";
}

std::optional<CrashRecovery> ParseCrashRecovery(const std::string& name) {
  if (name == "auto") return CrashRecovery::kAuto;
  if (name == "trust") return CrashRecovery::kTrustSnapshot;
  if (name == "revalidate") return CrashRecovery::kRevalidateAll;
  if (name == "cold") return CrashRecovery::kColdStart;
  return std::nullopt;
}

void FaultPlan::Serialize(std::ostream& out) const {
  const bool v2 = !config_.link_overrides.empty();
  out << (v2 ? kFaultPlanHeaderV2 : kFaultPlanHeader) << "\n";
  out << "armed " << (config_.armed ? 1 : 0) << "\n";
  out << "seed " << config_.seed << "\n";
  out << StrFormat("loss-rate %.17g\n", config_.loss_rate);
  out << "jitter-max-seconds " << config_.jitter_max.seconds() << "\n";
  out << "retry-max-attempts " << config_.retry.max_attempts << "\n";
  out << "retry-timeout-seconds " << config_.retry.timeout.seconds() << "\n";
  out << "retry-initial-backoff-seconds " << config_.retry.initial_backoff.seconds() << "\n";
  out << StrFormat("retry-backoff-multiplier %.17g\n", config_.retry.backoff_multiplier);
  out << "retry-max-backoff-seconds " << config_.retry.max_backoff.seconds() << "\n";
  // Emitted only when armed: plans without jitter keep their historical
  // byte-exact serialization (repro files hash-compare across versions).
  if (config_.retry.full_jitter) {
    out << "retry-full-jitter 1\n";
  }
  out << "invalidation-retry-seconds " << config_.invalidation_retry_interval.seconds() << "\n";
  out << "recovery " << CrashRecoveryName(config_.crash_recovery) << "\n";
  out << "snapshot-crash-request " << config_.snapshot_crash_request << "\n";
  if (v2) {
    // v2 keeps the generator knobs: ForLink() re-derives each link's own
    // window schedule from its forked seed, which one shared materialized
    // list cannot represent. Same-horizon reload reproduces it exactly.
    if (config_.server_mtbf > SimDuration(0) && config_.server_mttr > SimDuration(0)) {
      out << "server-mtbf-seconds " << config_.server_mtbf.seconds() << "\n";
      out << "server-mttr-seconds " << config_.server_mttr.seconds() << "\n";
    }
    for (const DowntimeWindow& w : config_.server_downtime) {
      out << "downtime " << (w.start - SimTime::Epoch()).seconds() << " "
          << (w.end - SimTime::Epoch()).seconds() << "\n";
    }
  } else {
    // Materialized downtime: the merged windows_, which already fold any
    // MTBF/MTTR-generated schedule in. No mtbf/mttr keys exist in v1 —
    // re-rolling an exponential process against a reloaded horizon is
    // exactly the round-trip bug this serialization fixes.
    for (const DowntimeWindow& w : windows_) {
      out << "downtime " << (w.start - SimTime::Epoch()).seconds() << " "
          << (w.end - SimTime::Epoch()).seconds() << "\n";
    }
  }
  for (const CacheCrashEvent& crash : config_.cache_crashes) {
    out << "crash " << (crash.at - SimTime::Epoch()).seconds() << " " << crash.outage.seconds()
        << "\n";
  }
  if (v2) {
    std::vector<LinkFaultOverride> overrides = config_.link_overrides;
    std::stable_sort(overrides.begin(), overrides.end(),
                     [](const LinkFaultOverride& a, const LinkFaultOverride& b) {
                       return a.link < b.link;
                     });
    for (const LinkFaultOverride& over : overrides) {
      if (over.loss_rate.has_value()) {
        out << StrFormat("link %u loss-rate %.17g\n", over.link, *over.loss_rate);
      }
      if (over.jitter_max.has_value()) {
        out << "link " << over.link << " jitter-max-seconds " << over.jitter_max->seconds()
            << "\n";
      }
      for (const DowntimeWindow& w : over.downtime) {
        out << "link " << over.link << " downtime " << (w.start - SimTime::Epoch()).seconds()
            << " " << (w.end - SimTime::Epoch()).seconds() << "\n";
      }
      for (const CacheCrashEvent& crash : over.crashes) {
        out << "link " << over.link << " crash " << (crash.at - SimTime::Epoch()).seconds() << " "
            << crash.outage.seconds() << "\n";
      }
      if (over.recovery.has_value()) {
        out << "link " << over.link << " recovery " << CrashRecoveryName(*over.recovery) << "\n";
      }
      if (over.snapshot_crash_request.has_value()) {
        out << "link " << over.link << " snapshot-crash-request " << *over.snapshot_crash_request
            << "\n";
      }
    }
  }
}

std::string FaultPlan::SerializeToString() const {
  std::ostringstream out;
  Serialize(out);
  return out.str();
}

std::optional<FaultConfig> FaultPlan::Parse(std::istream& in, FaultPlanParseError* error) {
  auto fail = [error](size_t line, std::string message) -> std::optional<FaultConfig> {
    if (error != nullptr) *error = {line, std::move(message)};
    return std::nullopt;
  };
  std::string line;
  size_t line_no = 0;
  // Header first: skip leading blank lines only. v1 and v2 differ only in
  // the keys they admit — v2 adds per-link override lines and the mtbf/mttr
  // generator knobs.
  bool saw_header = false;
  bool v2 = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    if (Trim(line) == kFaultPlanHeaderV2) {
      v2 = true;
    } else if (Trim(line) != kFaultPlanHeader) {
      return fail(line_no, StrFormat("expected header '%s' or '%s'", kFaultPlanHeader,
                                     kFaultPlanHeaderV2));
    }
    saw_header = true;
    break;
  }
  if (!saw_header) return fail(0, StrFormat("missing header '%s'", kFaultPlanHeader));

  FaultConfig config;
  // The serialized form carries an explicit schedule; defaults that would
  // regenerate or reorder it must not leak in.
  config.server_downtime.clear();
  config.cache_crashes.clear();
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const std::vector<std::string_view> tokens = SplitWhitespace(trimmed);
    const std::string_view key = tokens.front();
    auto want = [&](size_t values) { return tokens.size() == values + 1; };
    auto int_value = [&](size_t i) { return ParseInt(tokens[i]); };
    if (key == "armed" && want(1)) {
      const auto v = int_value(1);
      if (!v || (*v != 0 && *v != 1)) return fail(line_no, "armed must be 0 or 1");
      config.armed = *v == 1;
    } else if (key == "seed" && want(1)) {
      const auto v = ParseU64(tokens[1]);
      if (!v) return fail(line_no, "seed must be an unsigned 64-bit integer");
      config.seed = *v;
    } else if (key == "loss-rate" && want(1)) {
      const auto v = ParseDouble(tokens[1]);
      if (!v || *v < 0.0 || *v > 1.0) return fail(line_no, "loss-rate must be in [0, 1]");
      config.loss_rate = *v;
    } else if (key == "jitter-max-seconds" && want(1)) {
      const auto v = int_value(1);
      if (!v || *v < 0) return fail(line_no, "jitter-max-seconds must be >= 0");
      config.jitter_max = Seconds(*v);
    } else if (key == "retry-max-attempts" && want(1)) {
      const auto v = int_value(1);
      if (!v || *v < 1) return fail(line_no, "retry-max-attempts must be >= 1");
      config.retry.max_attempts = static_cast<int>(*v);
    } else if (key == "retry-timeout-seconds" && want(1)) {
      const auto v = int_value(1);
      if (!v || *v < 0) return fail(line_no, "retry-timeout-seconds must be >= 0");
      config.retry.timeout = Seconds(*v);
    } else if (key == "retry-initial-backoff-seconds" && want(1)) {
      const auto v = int_value(1);
      if (!v || *v < 0) return fail(line_no, "retry-initial-backoff-seconds must be >= 0");
      config.retry.initial_backoff = Seconds(*v);
    } else if (key == "retry-backoff-multiplier" && want(1)) {
      const auto v = ParseDouble(tokens[1]);
      if (!v || *v < 1.0) return fail(line_no, "retry-backoff-multiplier must be >= 1");
      config.retry.backoff_multiplier = *v;
    } else if (key == "retry-max-backoff-seconds" && want(1)) {
      const auto v = int_value(1);
      if (!v || *v < 0) return fail(line_no, "retry-max-backoff-seconds must be >= 0");
      config.retry.max_backoff = Seconds(*v);
    } else if (key == "retry-full-jitter" && want(1)) {
      const auto v = int_value(1);
      if (!v || (*v != 0 && *v != 1)) return fail(line_no, "retry-full-jitter must be 0 or 1");
      config.retry.full_jitter = *v == 1;
    } else if (key == "invalidation-retry-seconds" && want(1)) {
      const auto v = int_value(1);
      if (!v || *v < 1) return fail(line_no, "invalidation-retry-seconds must be >= 1");
      config.invalidation_retry_interval = Seconds(*v);
    } else if (key == "recovery" && want(1)) {
      const auto v = ParseCrashRecovery(std::string(tokens[1]));
      if (!v) return fail(line_no, "recovery must be auto|trust|revalidate|cold");
      config.crash_recovery = *v;
    } else if (key == "snapshot-crash-request" && want(1)) {
      const auto v = int_value(1);
      if (!v || *v < -1) return fail(line_no, "snapshot-crash-request must be >= -1");
      config.snapshot_crash_request = *v;
    } else if (key == "downtime" && want(2)) {
      const auto start = int_value(1);
      const auto end = int_value(2);
      if (!start || !end || *start < 0 || *end <= *start) {
        return fail(line_no, "downtime needs 0 <= start < end");
      }
      config.server_downtime.push_back(
          {SimTime::Epoch() + Seconds(*start), SimTime::Epoch() + Seconds(*end)});
    } else if (key == "crash" && want(2)) {
      const auto at = int_value(1);
      const auto outage = int_value(2);
      if (!at || !outage || *at < 0 || *outage < 1) {
        return fail(line_no, "crash needs at >= 0 and outage >= 1");
      }
      config.cache_crashes.push_back({SimTime::Epoch() + Seconds(*at), Seconds(*outage)});
    } else if (key == "server-mtbf-seconds" && want(1)) {
      if (!v2) return fail(line_no, "server-mtbf-seconds needs the v2 header");
      const auto v = int_value(1);
      if (!v || *v < 0) return fail(line_no, "server-mtbf-seconds must be >= 0");
      config.server_mtbf = Seconds(*v);
    } else if (key == "server-mttr-seconds" && want(1)) {
      if (!v2) return fail(line_no, "server-mttr-seconds needs the v2 header");
      const auto v = int_value(1);
      if (!v || *v < 0) return fail(line_no, "server-mttr-seconds must be >= 0");
      config.server_mttr = Seconds(*v);
    } else if (key == "link" && tokens.size() >= 3) {
      if (!v2) return fail(line_no, "link overrides need the v2 header");
      const auto idx = ParseU64(tokens[1]);
      if (!idx || *idx >= kMaxLinks) {
        return fail(line_no, StrFormat("link index must be in [0, %llu)",
                                       static_cast<unsigned long long>(kMaxLinks)));
      }
      // Same-link lines accumulate into one override; serialization groups
      // them, so a round trip preserves the schedule exactly.
      LinkFaultOverride* over = nullptr;
      for (LinkFaultOverride& existing : config.link_overrides) {
        if (existing.link == static_cast<uint32_t>(*idx)) {
          over = &existing;
          break;
        }
      }
      if (over == nullptr) {
        config.link_overrides.push_back({});
        over = &config.link_overrides.back();
        over->link = static_cast<uint32_t>(*idx);
      }
      const std::string_view sub = tokens[2];
      auto link_want = [&](size_t values) { return tokens.size() == values + 3; };
      if (sub == "loss-rate" && link_want(1)) {
        const auto v = ParseDouble(tokens[3]);
        if (!v || *v < 0.0 || *v > 1.0) return fail(line_no, "link loss-rate must be in [0, 1]");
        over->loss_rate = *v;
      } else if (sub == "jitter-max-seconds" && link_want(1)) {
        const auto v = ParseInt(tokens[3]);
        if (!v || *v < 0) return fail(line_no, "link jitter-max-seconds must be >= 0");
        over->jitter_max = Seconds(*v);
      } else if (sub == "downtime" && link_want(2)) {
        const auto start = ParseInt(tokens[3]);
        const auto end = ParseInt(tokens[4]);
        if (!start || !end || *start < 0 || *end <= *start) {
          return fail(line_no, "link downtime needs 0 <= start < end");
        }
        over->downtime.push_back(
            {SimTime::Epoch() + Seconds(*start), SimTime::Epoch() + Seconds(*end)});
      } else if (sub == "crash" && link_want(2)) {
        const auto at = ParseInt(tokens[3]);
        const auto outage = ParseInt(tokens[4]);
        if (!at || !outage || *at < 0 || *outage < 1) {
          return fail(line_no, "link crash needs at >= 0 and outage >= 1");
        }
        over->crashes.push_back({SimTime::Epoch() + Seconds(*at), Seconds(*outage)});
      } else if (sub == "recovery" && link_want(1)) {
        const auto v = ParseCrashRecovery(std::string(tokens[3]));
        if (!v) return fail(line_no, "link recovery must be auto|trust|revalidate|cold");
        over->recovery = *v;
      } else if (sub == "snapshot-crash-request" && link_want(1)) {
        const auto v = ParseInt(tokens[3]);
        if (!v || *v < -1) return fail(line_no, "link snapshot-crash-request must be >= -1");
        over->snapshot_crash_request = *v;
      } else {
        return fail(line_no,
                    StrFormat("unknown or malformed link key '%s'", std::string(sub).c_str()));
      }
    } else {
      return fail(line_no, StrFormat("unknown or malformed line '%s'", std::string(key).c_str()));
    }
  }
  return config;
}

}  // namespace webcc
