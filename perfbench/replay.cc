#include "perfbench/replay.h"

#include <exception>
#include <optional>

#include "src/dataflow/analyses.h"
#include "src/dataflow/intervals.h"
#include "src/lang/interp.h"
#include "src/lang/ir.h"
#include "src/lang/parser.h"
#include "src/metrics/callgraph.h"
#include "src/support/deadline.h"
#include "src/support/rng.h"
#include "src/symexec/executor.h"

namespace perfbench {
namespace {

// Entry functions, chosen as symx::SymexFeatures and the testbed's dynamic
// stage choose them: main when present, else the first `cap` call-graph
// roots.
std::vector<std::string> EntryFunctions(const lang::IrModule& module, size_t cap) {
  if (module.FindFunction("main") != nullptr) {
    return {"main"};
  }
  std::vector<std::string> entries = metrics::CallGraph(module).Roots();
  if (entries.size() > cap) {
    entries.resize(cap);
  }
  return entries;
}

// The testbed's dynamic-trace stage: `trials` interpreter runs per entry on
// inputs drawn exactly as the testbed draws them.
void ReplayDynamic(const lang::IrModule& module, const clair::TestbedOptions& options,
                   uint64_t seed, const std::string& unit, Recorder& recorder,
                   ReplayCounts& counts) {
  support::Deadline deadline(options.stage_step_budget, options.stage_wall_ms);
  lang::InterpOptions interp_options;
  interp_options.max_steps = 1 << 14;
  interp_options.deadline = &deadline;
  support::Rng rng(seed);
  for (const auto& entry : EntryFunctions(module, 8)) {
    for (int t = 0; t < options.dynamic_trials; ++t) {
      std::vector<int64_t> inputs;
      for (int i = 0; i < 16; ++i) {
        inputs.push_back(rng.NextBool(0.7)
                             ? static_cast<int64_t>(rng.NextBelow(32))
                             : static_cast<int64_t>(rng.NextBelow(1 << 12)) - 2048);
      }
      Recorder::Scope span(recorder, "lang.interp", unit);
      lang::Execute(module, entry, {0, 1, 2, 3}, std::move(inputs), interp_options);
      ++counts.interp_runs;
    }
  }
}

}  // namespace

void ReplayCounts::Add(const ReplayCounts& other) {
  entries += other.entries;
  paths += other.paths;
  solver_queries += other.solver_queries;
  range_pruned += other.range_pruned;
  sat_conflicts += other.sat_conflicts;
  vuln_sites += other.vuln_sites;
  path_limit_hits += other.path_limit_hits;
  interp_runs += other.interp_runs;
  stage_errors += other.stage_errors;
}

ReplayCounts ReplayExtraction(const std::vector<metrics::SourceFile>& files,
                              const clair::TestbedOptions& options,
                              const std::string& unit, Recorder& recorder) {
  ReplayCounts counts;
  {
    Recorder::Scope span(recorder, "metrics.extract", unit);
    metrics::ExtractAppFeatures(files);
  }
  int deep_attempted = 0;
  for (const auto& file : files) {
    if (deep_attempted >= options.deep_analysis_max_files) {
      break;
    }
    if (file.language != metrics::Language::kMiniC) {
      continue;
    }
    const int attempt_index = deep_attempted++;
    const std::string file_unit = unit + "/" + file.path;
    std::optional<lang::TranslationUnit> parsed;
    {
      Recorder::Scope span(recorder, "lang.parse", file_unit);
      auto result = lang::Parse(file.text);
      if (result.ok()) {
        parsed.emplace(std::move(result).value());
      }
    }
    if (!parsed.has_value()) {
      ++counts.stage_errors;
      continue;
    }
    std::optional<lang::IrModule> module;
    {
      Recorder::Scope span(recorder, "lang.lower", file_unit);
      auto result = lang::LowerToIr(*parsed);
      if (result.ok()) {
        module.emplace(std::move(result).value());
      }
    }
    if (!module.has_value()) {
      ++counts.stage_errors;
      continue;
    }
    try {
      Recorder::Scope span(recorder, "dataflow.fixpoint", file_unit);
      support::Deadline deadline(options.stage_step_budget, options.stage_wall_ms);
      dataflow::DataflowFeatures(*module, &deadline);
    } catch (const std::exception&) {
      ++counts.stage_errors;
    }
    try {
      Recorder::Scope span(recorder, "dataflow.intervals", file_unit);
      support::Deadline deadline(options.stage_step_budget, options.stage_wall_ms);
      dataflow::IntervalOptions interval_options;
      interval_options.deadline = &deadline;
      dataflow::IntervalFeatures(*module, interval_options);
    } catch (const std::exception&) {
      ++counts.stage_errors;
    }
    const auto& sx = options.symexec;
    const std::vector<std::string> entries = EntryFunctions(
        *module, sx.max_entries > 0 ? static_cast<size_t>(sx.max_entries) : SIZE_MAX);
    for (size_t i = 0; i < entries.size(); ++i) {
      symx::SymExecOptions entry_options = sx;
      entry_options.watchdog_steps = options.stage_step_budget;
      entry_options.rng_seed = support::Rng::TaskSeed(sx.rng_seed, i);
      try {
        Recorder::Scope span(recorder, "symexec.explore", unit + ":" + entries[i]);
        const symx::SymExecResult result = symx::Explore(*module, entries[i], entry_options);
        ++counts.entries;
        counts.paths += result.paths_explored;
        counts.solver_queries += result.solver_queries;
        counts.range_pruned += result.range_pruned;
        counts.sat_conflicts += result.sat_conflicts;
        counts.vuln_sites += result.vulns.size();
        counts.path_limit_hits += result.path_limit_hit ? 1 : 0;
      } catch (const std::exception&) {
        ++counts.stage_errors;
      }
    }
    try {
      ReplayDynamic(*module, options,
                    support::Rng::TaskSeed(options.dynamic_seed,
                                           static_cast<uint64_t>(attempt_index)),
                    file_unit, recorder, counts);
    } catch (const std::exception&) {
      ++counts.stage_errors;
    }
  }
  return counts;
}

}  // namespace perfbench
