#include "src/cache/snapshot.h"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "src/util/check.h"
#include "src/util/str.h"

namespace webcc {

void SaveCacheSnapshot(const ProxyCache& cache, std::ostream& os) {
  os << "#webcc-cache-snapshot v1\n";
  os << "#cache " << cache.name() << "\n";
  os << "# object type size version last_modified fetched_at validated_at expires_at valid\n";
  cache.ForEachEntry([&os](const CacheEntry& entry) {
    os << entry.object << ' ' << static_cast<int>(entry.type) << ' ' << entry.size_bytes << ' '
       << entry.version << ' ' << entry.last_modified.seconds() << ' '
       << entry.fetched_at.seconds() << ' ' << entry.validated_at.seconds() << ' '
       << entry.expires_at.seconds() << ' ' << (entry.valid ? 1 : 0) << '\n';
  });
}

bool SaveCacheSnapshotFile(const ProxyCache& cache, const std::string& path) {
  // Atomic replace: stream to a sibling temp file, verify the stream, then
  // rename over the target. A crash or I/O error mid-write leaves the
  // previous snapshot untouched — the all-or-nothing loader should never
  // even see a torn file, let alone have to reject one. The temp lives in
  // the same directory so the rename cannot cross filesystems.
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream os(tmp_path, std::ios::trunc);
    if (!os) {
      return false;
    }
    SaveCacheSnapshot(cache, os);
    os.flush();
    if (!os) {
      os.close();
      std::remove(tmp_path.c_str());
      return false;
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

int64_t LoadCacheSnapshot(ProxyCache& cache, std::istream& is, SnapshotRecovery recovery,
                          SnapshotParseError* error) {
  auto fail = [&](size_t line, std::string message) -> int64_t {
    if (error != nullptr) {
      error->line = line;
      error->message = std::move(message);
    }
    return -1;
  };

  // Two phases: parse and validate the ENTIRE file first, then restore.
  // A truncated or corrupt snapshot must leave the cache untouched — a
  // mid-file error after restoring half the entries would be silent partial
  // state, the worst recovery outcome.
  std::vector<CacheEntry> entries;
  std::unordered_set<ObjectId> seen;
  std::string line;
  size_t line_no = 0;
  bool saw_magic = false;
  bool saw_any_line = false;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty()) {
      continue;
    }
    if (!saw_any_line) {
      saw_any_line = true;
      saw_magic = trimmed == "#webcc-cache-snapshot v1";
      if (!saw_magic) {
        return fail(line_no, "missing '#webcc-cache-snapshot v1' header");
      }
      continue;
    }
    if (trimmed.front() == '#') {
      continue;
    }
    const auto fields = SplitWhitespace(trimmed);
    if (fields.size() != 9) {
      return fail(line_no, StrFormat("expected 9 fields, got %zu", fields.size()));
    }
    std::optional<int64_t> parsed[9];
    for (size_t i = 0; i < 9; ++i) {
      parsed[i] = ParseInt(fields[i]);
      if (!parsed[i]) {
        return fail(line_no, StrFormat("field %zu is not an integer", i + 1));
      }
    }
    // Ids index the cache's dense slot table, so one outside the world the
    // cache serves (or kInvalidObjectId and up, when it has no oracle) would
    // either trip an invariant or grow that table without bound.
    const int64_t id_limit = cache.oracle() != nullptr
                                 ? static_cast<int64_t>(cache.oracle()->size())
                                 : static_cast<int64_t>(kInvalidObjectId);
    if (*parsed[0] < 0 || *parsed[0] >= id_limit) {
      return fail(line_no, StrFormat("object id %lld out of range [0, %lld)",
                                     static_cast<long long>(*parsed[0]),
                                     static_cast<long long>(id_limit)));
    }
    if (*parsed[1] < 0 || *parsed[1] >= kNumFileTypes) {
      return fail(line_no, "file type out of range");
    }
    if (*parsed[2] < 0) {
      return fail(line_no, "negative size");
    }
    if (*parsed[8] != 0 && *parsed[8] != 1) {
      return fail(line_no, "valid flag must be 0 or 1");
    }
    CacheEntry entry;
    entry.object = static_cast<ObjectId>(*parsed[0]);
    entry.type = static_cast<FileType>(*parsed[1]);
    entry.size_bytes = *parsed[2];
    entry.version = static_cast<uint64_t>(*parsed[3]);
    entry.last_modified = SimTime(*parsed[4]);
    entry.fetched_at = SimTime(*parsed[5]);
    entry.validated_at = SimTime(*parsed[6]);
    entry.expires_at = SimTime(*parsed[7]);
    entry.valid = *parsed[8] == 1;
    if (recovery == SnapshotRecovery::kRevalidateAll) {
      entry.valid = false;
    }
    if (!seen.insert(entry.object).second) {
      return fail(line_no, StrFormat("duplicate object id %lld",
                                     static_cast<long long>(*parsed[0])));
    }
    if (cache.Contains(entry.object)) {
      return fail(line_no, StrFormat("object id %lld already cached",
                                     static_cast<long long>(*parsed[0])));
    }
    entries.push_back(entry);
  }
  if (!saw_any_line) {
    return fail(0, "empty snapshot (missing '#webcc-cache-snapshot v1' header)");
  }
  for (const CacheEntry& entry : entries) {
    cache.RestoreEntry(entry);
  }
  return static_cast<int64_t>(entries.size());
}

int64_t SnapshotCrashCycle(ProxyCache& cache, SimTime now, SnapshotRecovery recovery,
                           bool cold_start) {
  std::stringstream snapshot;
  SaveCacheSnapshot(cache, snapshot);
  cache.Crash(now);
  cache.Restart(now);
  if (cold_start) {
    return 0;
  }
  SnapshotParseError error;
  const int64_t restored = LoadCacheSnapshot(cache, snapshot, recovery, &error);
  // We wrote this snapshot ourselves an instant ago; failing to reload it is
  // a bug in the save/load pair, not a recoverable runtime condition.
  WEBCC_CHECK(restored >= 0) << "SnapshotCrashCycle: reload failed at line " << error.line << ": "
                             << error.message;
  return restored;
}

int64_t LoadCacheSnapshotFile(ProxyCache& cache, const std::string& path,
                              SnapshotRecovery recovery, SnapshotParseError* error) {
  std::ifstream is(path);
  if (!is) {
    if (error != nullptr) {
      error->line = 0;
      error->message = "cannot open " + path;
    }
    return -1;
  }
  return LoadCacheSnapshot(cache, is, recovery, error);
}

}  // namespace webcc
