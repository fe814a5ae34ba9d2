// Layer-by-layer replay of one extraction, for the traced runs.
//
// Drives the same inputs through each module's public functions in the
// order the testbed's module-level path (TestbedOptions::cache_functions =
// false) calls them, with a span around every call: the shallow battery,
// then for each MiniC file in the deep budget parse, lower, dataflow,
// intervals, one symx::Explore per entry and the dynamic interpreter
// trials. The counts come from the layers' own return values.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "src/clair/testbed.h"
#include "src/metrics/extract.h"

namespace perfbench {

// Summed symx::SymExecResult fields and interpreter runs of a replay.
struct ReplayCounts {
  uint64_t entries = 0;
  uint64_t paths = 0;
  uint64_t solver_queries = 0;
  uint64_t range_pruned = 0;
  uint64_t sat_conflicts = 0;
  uint64_t vuln_sites = 0;
  uint64_t path_limit_hits = 0;  // Entries that exhausted max_paths.
  uint64_t interp_runs = 0;
  uint64_t stage_errors = 0;     // Parse/lower errors and analysis throws.

  void Add(const ReplayCounts& other);
};

// Replays the extraction of `files` under `options`. Symexec entry spans are
// named `<unit>:<entry>`, file spans carry `<unit>/<path>`.
ReplayCounts ReplayExtraction(const std::vector<metrics::SourceFile>& files,
                              const clair::TestbedOptions& options,
                              const std::string& unit, Recorder& recorder);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
