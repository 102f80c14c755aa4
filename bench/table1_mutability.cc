// Table 1: mutability statistics for the campus servers (DAS, FAS, HCS).
//
// The generator synthesizes each server's one-month trace calibrated to the
// paper's row; this binary then re-derives the statistics two ways:
//   * from the trace, via Last-Modified transition inference — the paper's
//     own measurement methodology; and
//   * from ground truth, to expose the observation-granularity gap.
//
// Note: the paper's (total changes, % mutable, % very mutable) triples are
// mutually over-constrained for DAS and HCS under the literal definitions
// (">1 change" / ">5 changes" per file need more change events than the
// reported totals), so the generator holds the change totals exact and backs
// off the file counts minimally; the residual shows up below as measured-vs-
// paper deltas in the %-mutable columns.

#include "bench/bench_common.h"
#include "src/workload/analyzer.h"

int main() {
  using namespace webcc;
  using namespace webcc::bench;

  std::printf("=== Table 1: mutability statistics (one-month campus traces) ===\n\n");

  std::vector<MutabilityStats> observed;
  std::vector<MutabilityStats> truth;
  for (const auto& profile : CampusServerProfile::AllTable1()) {
    const auto result = GenerateCampusWorkload(profile);
    MutabilityStats from_trace = AnalyzeTraceMutability(result.trace);
    from_trace.server = profile.name;
    observed.push_back(from_trace);
    truth.push_back(AnalyzeWorkloadMutability(result.workload));
  }

  std::printf("--- measured from the rendered trace (log-based inference, paper's method) ---\n");
  Emit(Table1Mutability(observed, PaperTable1Targets()), "table1_mutability_observed");

  std::printf("--- ground truth (server-side modification schedule) ---\n");
  Emit(Table1Mutability(truth, PaperTable1Targets()), "table1_mutability_truth");

  for (size_t i = 0; i < truth.size(); ++i) {
    const CampusServerProfile profile = CampusServerProfile::AllTable1()[i];
    std::printf("%s: per-day change probability %.2f%% (paper quotes 1.8%% for HCS and the "
                "Bestavros range 0.5-2.0%%)\n",
                truth[i].server.c_str(),
                truth[i].PerDayChangeProbability(profile.duration_days) * 100.0);
  }
  return 0;
}
