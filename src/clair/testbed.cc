#include "src/clair/testbed.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/clair/serialize.h"
#include "src/corpus/history.h"
#include "src/dataflow/analyses.h"
#include "src/dataflow/intervals.h"
#include "src/lang/interp.h"
#include "src/lang/parser.h"
#include "src/metrics/callgraph.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"

namespace clair {
namespace {

// Salts separating the payload namespaces inside the shared RowCache /
// per-file FeatureCache: the same token hash must never alias a dataflow
// row with an interval row.
constexpr uint64_t kFileRowSalt = 0x8f11e50a7c01ULL;
constexpr uint64_t kDataflowRowSalt = 0xda7af10aULL;
constexpr uint64_t kIntervalsRowSalt = 0x17e2f0a1ULL;
constexpr uint64_t kSymexecRowSalt = 0x53e7ecULL;
constexpr uint64_t kDynamicRowSalt = 0xd59a1cULL;

// FNV-1a over the 8 little-endian bytes of `value`, chained from `hash`.
uint64_t MixU64(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash = (hash ^ ((value >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
  }
  return hash;
}

// Content addresses of one parsed file's payload units (see incremental.h).
// Built only when the function cache is admitted.
class UnitKeys {
 public:
  UnitKeys(const FileFunctionIndex& index, uint64_t options_fp)
      : index_(index), options_fp_(options_fp) {
    for (const auto& fp : index.functions) {
      hash_by_name_[fp.name] = fp.token_hash;
    }
  }

  // A per-function payload is keyed by the function's body-token hash. Empty
  // for a function the token index does not know: computed, never cached.
  std::optional<uint64_t> Function(uint64_t salt, const std::string& name) const {
    const auto it = hash_by_name_.find(name);
    if (it == hash_by_name_.end()) {
      return std::nullopt;
    }
    return MixU64(MixU64(salt, it->second), options_fp_);
  }

  // An entry's exploration is a function of everything reachable from it:
  // each reachable function's body-token hash, the file preamble (global
  // initializers), the entry's RNG seed, and the options fingerprint.
  uint64_t Closure(const metrics::CallGraph& graph, const std::string& entry,
                   uint64_t rng_seed) const {
    uint64_t key = MixU64(kSymexecRowSalt, options_fp_);
    key = MixU64(key, index_.preamble_hash);
    key = Fnv1a64(entry, key);
    key = MixU64(key, rng_seed);
    for (const auto& name : graph.ReachableFrom(entry)) {  // Sorted set.
      key = Fnv1a64(name, key);
      const auto it = hash_by_name_.find(name);
      key = MixU64(key, it != hash_by_name_.end() ? it->second : 0x9e3779b97f4a7c15ULL);
    }
    return key;
  }

  // The trace stream depends on every function the entries reach, so a
  // dynamic battery is keyed by the file's full token hash.
  uint64_t Dynamic(uint64_t seed) const {
    return MixU64(MixU64(MixU64(kDynamicRowSalt, options_fp_), index_.file_token_hash), seed);
  }

 private:
  const FileFunctionIndex& index_;
  uint64_t options_fp_;
  std::map<std::string, uint64_t> hash_by_name_;
};

// §5.3's dynamic-trace extension, one file's payload: execute the module's
// entry functions on random inputs and summarise runtime behaviour as
// {1 if any run, runs, fault rate, abort rate, mean steps, branch density,
// sink events per run, steps ticked on `deadline`}. The interpreter halts a
// trial gracefully when `deadline` expires; the expiry is then re-raised
// here so the stage wrapper records a timeout instead of caching a
// partially-sampled row.
std::vector<double> DynamicPayload(const lang::IrModule& module, int trials, uint64_t seed,
                                   support::Deadline& deadline) {
  const uint64_t before = deadline.steps_used();
  support::Rng rng(seed);
  long long runs = 0;
  long long faults = 0;
  long long aborted = 0;
  long long steps = 0;
  long long branches = 0;
  long long sink_events = 0;
  lang::InterpOptions interp_options;
  interp_options.max_steps = 1 << 14;
  interp_options.deadline = &deadline;
  // The root cap bounds per-file cost on large modules.
  for (const auto& entry : metrics::EntryFunctions(module, 8)) {
    for (int t = 0; t < trials; ++t) {
      std::vector<int64_t> inputs;
      for (int i = 0; i < 16; ++i) {
        inputs.push_back(rng.NextBool(0.7)
                             ? static_cast<int64_t>(rng.NextBelow(32))
                             : static_cast<int64_t>(rng.NextBelow(1 << 12)) - 2048);
      }
      const auto trace =
          lang::Execute(module, entry, {0, 1, 2, 3}, std::move(inputs), interp_options);
      deadline.ThrowIfExpired("dynamic");
      ++runs;
      steps += static_cast<long long>(trace.steps);
      branches += static_cast<long long>(trace.branches);
      sink_events += static_cast<long long>(trace.sink_values.size());
      if (trace.outcome == lang::ExecOutcome::kOutOfBounds ||
          trace.outcome == lang::ExecOutcome::kDivisionByZero) {
        ++faults;
      } else if (trace.outcome == lang::ExecOutcome::kAborted) {
        ++aborted;
      }
    }
  }
  const double ticked = static_cast<double>(deadline.steps_used() - before);
  if (runs == 0) {
    return {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, ticked};
  }
  return {1.0,
          static_cast<double>(runs),
          static_cast<double>(faults) / runs,
          static_cast<double>(aborted) / runs,
          static_cast<double>(steps) / runs,
          steps > 0 ? static_cast<double>(branches) / static_cast<double>(steps) : 0.0,
          static_cast<double>(sink_events) / runs,
          ticked};
}

// The dynamic fold: one file's payload as "dynamic.*" features (none when no
// entry ran).
metrics::FeatureVector DynamicFeatures(const std::vector<double>& row) {
  metrics::FeatureVector fv;
  if (row[0] > 0.0) {
    fv.Set("dynamic.runs", row[1]);
    fv.Set("dynamic.fault_rate", row[2]);
    fv.Set("dynamic.abort_rate", row[3]);
    fv.Set("dynamic.mean_steps", row[4]);
    fv.Set("dynamic.branch_density", row[5]);
    fv.Set("dynamic.sink_events_per_run", row[6]);
  }
  return fv;
}

}  // namespace

Testbed::Testbed(const corpus::EcosystemGenerator& ecosystem, TestbedOptions options)
    : ecosystem_(ecosystem),
      options_(options),
      fn_cache_(1 << 18, options.function_cache_max_bytes) {}

// Retry-and-degrade wrapper around one deep-analysis stage. Failure modes
// are normalised here: an Error result, an InjectedFault, a watchdog
// DeadlineExceeded, and any other std::exception all count a failed
// attempt. Each retry runs under the next ScopedAttempt salt, so injected
// verdicts re-roll (transient faults recover; rate-1.0 faults fail every
// attempt and degrade). Provenance is stamped into the row as sparse
// `robust.*` features — absent on clean rows, so fault-free output is
// byte-identical to a build without this layer.
template <typename T, typename Fn>
std::optional<T> Testbed::GuardStage(StageKind stage, metrics::FeatureVector& features,
                                     Fn&& run) const {
  StageCounters& counters = stage_counters_[static_cast<int>(stage)];
  const int max_attempts = std::max(options_.stage_retries, 0) + 1;
  const auto start = std::chrono::steady_clock::now();
  std::optional<T> result;
  int failed_attempts = 0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    counters.attempts.fetch_add(1, std::memory_order_relaxed);
    if (attempt > 0) {
      counters.retries.fetch_add(1, std::memory_order_relaxed);
    }
    bool injected = false;
    bool timeout = false;
    try {
      support::FaultInjector::ScopedAttempt salt(static_cast<uint32_t>(attempt));
      auto outcome = run(attempt);
      if (outcome.ok()) {
        result.emplace(std::move(outcome).value());
      } else {
        // Sites whose substrate reports failure as an error value rather
        // than a throw (the parser, lowering) tag injected faults by
        // message so the taxonomy still separates them from organic errors.
        injected = support::StartsWith(outcome.error().message(), "injected fault");
      }
    } catch (const support::InjectedFault&) {
      injected = true;
    } catch (const support::DeadlineExceeded&) {
      timeout = true;
    } catch (const std::exception&) {
      // Organic analyzer failure: counted below, row continues.
    }
    if (result.has_value()) {
      break;
    }
    ++failed_attempts;
    counters.failures.fetch_add(1, std::memory_order_relaxed);
    if (injected) {
      counters.injected.fetch_add(1, std::memory_order_relaxed);
    }
    if (timeout) {
      counters.timeouts.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  counters.wall_nanos.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()),
      std::memory_order_relaxed);
  const std::string prefix = std::string("robust.") + StageName(stage);
  if (failed_attempts > 0) {
    features.Add(prefix + "_failures", static_cast<double>(failed_attempts));
  }
  if (!result.has_value()) {
    counters.degraded.fetch_add(1, std::memory_order_relaxed);
    features.Add(prefix + "_degraded", 1.0);
    return std::nullopt;
  }
  if (failed_attempts > 0) {
    counters.recovered.fetch_add(1, std::memory_order_relaxed);
    features.Add(prefix + "_retries", static_cast<double>(failed_attempts));
  }
  return result;
}

uint64_t Testbed::OptionsFingerprint() const {
  // Canonical text encoding of every option that changes extraction output.
  // min_history_years, threads, and checkpoint_path are deliberately
  // excluded: selection does not change a row's content, worker count never
  // changes results, and checkpointing only persists them. The active
  // fault-injection config is included (fingerprint 0 when no site is
  // armed), so faulted runs never share cached rows with clean ones.
  const auto& sx = options_.symexec;
  const std::string encoding = support::Format(
      "df=%d sx=%d dyn=%d trials=%d dseed=%llu deep=%d "
      "width=%d paths=%llu steps=%llu total=%llu queries=%llu depth=%d "
      "array=%d nodes=%llu conflicts=%llu cap=%llu exploit=%d "
      "retries=%d budget=%llu wall=%d faults=%016llx",
      options_.with_dataflow, options_.with_symexec, options_.with_dynamic,
      options_.dynamic_trials,
      static_cast<unsigned long long>(options_.dynamic_seed),
      options_.deep_analysis_max_files, sx.width,
      static_cast<unsigned long long>(sx.max_paths),
      static_cast<unsigned long long>(sx.max_steps_per_path),
      static_cast<unsigned long long>(sx.max_total_steps),
      static_cast<unsigned long long>(sx.max_solver_queries), sx.max_call_depth,
      sx.max_symbolic_array, static_cast<unsigned long long>(sx.max_expr_nodes),
      static_cast<unsigned long long>(sx.solver_conflict_budget),
      static_cast<unsigned long long>(sx.exploit_exact_cap),
      sx.exploit_sample_trials, options_.stage_retries,
      static_cast<unsigned long long>(options_.stage_step_budget),
      options_.stage_wall_ms,
      static_cast<unsigned long long>(support::FaultInjector::Global().Fingerprint()));
  return Fnv1a64(encoding);
}

// Lookup-or-compute of one payload unit: the only place the function
// tiers are read, written, and counted. Exact by construction — every
// payload is a pure function of its key's content and round-trips doubles
// exactly — so a hit is bit-identical to a recomputation. A compute that
// throws caches nothing.
template <typename Value, typename Compute>
bool Testbed::CachedUnit(ContentCache<Value>& cache, Tier tier,
                         std::optional<uint64_t> key, Value* out, Compute&& compute) const {
  if (key.has_value() && cache.Lookup(*key, out)) {
    reused_[tier].fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  *out = compute();
  computed_[tier].fetch_add(1, std::memory_order_relaxed);
  if (key.has_value()) {
    cache.Insert(*key, *out);
  }
  return false;
}

metrics::FeatureVector Testbed::ExtractFeatures(
    const std::vector<metrics::SourceFile>& files) const {
  // Cache admission: the function-granular tiers (AST artifacts, file rows,
  // payloads) are read and written only when enabled and no fault site is
  // armed, so injected verdicts always run against freshly computed units
  // and a faulted run never stores or serves a cached one. Nothing else
  // differs: both ways walk the same stages and folds.
  const bool admitted =
      options_.cache_functions && support::FaultInjector::Global().Fingerprint() == 0;
  const uint64_t options_fp =
      options_.cache_features || admitted ? OptionsFingerprint() : 0;
  uint64_t cache_key = 0;
  if (options_.cache_features) {
    cache_key = HashSourceFiles(files, options_fp);
    metrics::FeatureVector cached;
    if (cache_.Lookup(cache_key, &cached)) {
      return cached;
    }
  }
  metrics::FileRowFn file_row;
  if (admitted) {
    file_row = [&](const metrics::SourceFile& file) {
      uint64_t key = Fnv1a64(file.path, kFileRowSalt);
      key = MixU64(key, static_cast<uint64_t>(file.language));
      key = Fnv1a64(file.text, key);
      metrics::FeatureVector row;
      CachedUnit(file_cache_, kFileRows, key, &row,
                 [&] { return metrics::ExtractFileFeatures(file); });
      return row;
    };
  }
  metrics::FeatureVector features = metrics::ExtractAppFeatures(files, file_row);
  if (!options_.with_dataflow && !options_.with_symexec && !options_.with_dynamic) {
    if (options_.cache_features) {
      cache_.Insert(cache_key, features);
    }
    return features;
  }
  // Deep-analysis budget (see TestbedOptions): the first
  // `deep_analysis_max_files` MiniC files in order consume the budget,
  // parse/lower failures included. Each file walks the extraction stage DAG
  // (stage_graph.h): hard edges gate — a parse or lower failure skips the
  // file's remaining stages without attempting them — while analysis
  // failures are soft: GuardStage degrades that stage for that file and the
  // walk continues, so the app row always completes.
  const StageGraph& graph = StageGraph::Extraction();
  int deep_attempted = 0;
  int deep_done = 0;
  for (const auto& file : files) {
    if (deep_attempted >= options_.deep_analysis_max_files) {
      break;
    }
    if (file.language != metrics::Language::kMiniC) {
      continue;
    }
    const int attempt_index = deep_attempted++;
    // Per-file tracker: feature assembly and prediction are per-request
    // stages owned by the caller (or the scheduler), so they are disabled
    // here; configuration switches disable their analyses the same way.
    StageTracker tracker(graph);
    tracker.Disable(StageKind::kFeatures);
    tracker.Disable(StageKind::kPredict);
    if (!options_.with_dataflow) {
      tracker.Disable(StageKind::kDataflow);
      tracker.Disable(StageKind::kIntervals);
    }
    if (!options_.with_symexec) {
      tracker.Disable(StageKind::kSymexec);
    }
    if (!options_.with_dynamic) {
      tracker.Disable(StageKind::kDynamic);
    }
    // Parse artifacts are immutable and shared: an admitted extraction
    // serves them from the AST cache (a warm re-score of an unchanged file
    // never re-parses), and keys the file's payload units by its token index.
    std::shared_ptr<const lang::TranslationUnit> unit;
    std::shared_ptr<const lang::IrModule> module;
    std::shared_ptr<const ParsedFile> parsed;
    std::optional<UnitKeys> keys;
    for (StageKind stage = tracker.NextRunnable(); stage != StageKind::kCount;
         stage = tracker.NextRunnable()) {
      tracker.MarkRunning(stage);
      std::optional<metrics::FeatureVector> analysis;
      bool ok = false;
      switch (stage) {
        case StageKind::kParse: {
          auto res = GuardStage<std::shared_ptr<const lang::TranslationUnit>>(
              stage, features,
              [&](int) -> support::Result<std::shared_ptr<const lang::TranslationUnit>> {
                if (admitted) {
                  parsed = ast_cache_.Get(file);
                  if (parsed->unit != nullptr) {
                    return parsed->unit;
                  }
                  // Negative results are cached too; the original message is
                  // not retained (nothing downstream consumes it).
                  return support::Error(support::Error::Code::kParseError,
                                        "parse failed");
                }
                auto fresh = lang::Parse(file.text);
                if (!fresh.ok()) {
                  return std::move(fresh).error();
                }
                return std::make_shared<const lang::TranslationUnit>(
                    std::move(fresh).value());
              });
          if (res.has_value()) {
            unit = std::move(*res);
          }
          ok = unit != nullptr;
          break;
        }
        case StageKind::kLower: {
          auto res = GuardStage<std::shared_ptr<const lang::IrModule>>(
              stage, features,
              [&](int) -> support::Result<std::shared_ptr<const lang::IrModule>> {
                if (admitted) {
                  if (parsed->module != nullptr) {
                    return parsed->module;
                  }
                  return support::Error(support::Error::Code::kInternal,
                                        "lowering failed");
                }
                auto fresh = lang::LowerToIr(*unit);
                if (!fresh.ok()) {
                  return std::move(fresh).error();
                }
                return std::make_shared<const lang::IrModule>(
                    std::move(fresh).value());
              });
          if (res.has_value()) {
            module = std::move(*res);
            if (admitted) {
              keys.emplace(parsed->index, options_fp);
            }
          }
          ok = module != nullptr;
          break;
        }
        case StageKind::kDataflow:
          analysis = GuardStage<metrics::FeatureVector>(
              stage, features, [&](int) -> support::Result<metrics::FeatureVector> {
                support::Deadline deadline = StageDeadline();
                dataflow::FunctionPayloadFn payload;
                if (keys.has_value()) {
                  payload = [&](const lang::IrFunction& fn) {
                    std::vector<double> row;
                    CachedUnit(fn_cache_, kDataflowFns, keys->Function(kDataflowRowSalt, fn.name),
                               &row, [&] { return dataflow::DataflowPayload(fn); });
                    return row;
                  };
                }
                return dataflow::DataflowFeatures(*module, &deadline,
                                                  dataflow::DefaultDataflowMode(), payload);
              });
          break;
        case StageKind::kIntervals:
          analysis = GuardStage<metrics::FeatureVector>(
              stage, features, [&](int) -> support::Result<metrics::FeatureVector> {
                support::Deadline deadline = StageDeadline();
                dataflow::IntervalOptions interval_options;
                interval_options.deadline = &deadline;
                dataflow::FunctionPayloadFn payload;
                if (keys.has_value()) {
                  payload = [&](const lang::IrFunction& fn) {
                    const auto compute = [&] {
                      return dataflow::IntervalPayload(fn, interval_options);
                    };
                    std::vector<double> row;
                    // A hit replays the payload's recorded step delta, so
                    // warm and cold runs expire a tight budget at the same
                    // logical point.
                    if (CachedUnit(fn_cache_, kIntervalFns,
                                   keys->Function(kIntervalsRowSalt, fn.name), &row, compute)) {
                      deadline.TickOrThrow("intervals", static_cast<uint64_t>(row.back()));
                    }
                    return row;
                  };
                }
                return dataflow::IntervalFeatures(*module, interval_options, payload);
              });
          break;
        case StageKind::kSymexec:
          analysis = GuardStage<metrics::FeatureVector>(
              stage, features, [&](int attempt) -> support::Result<metrics::FeatureVector> {
                // Symexec fans its entries out to pool workers, which do not
                // inherit this thread's ScopedAttempt salt — the retry
                // attempt rides in the options instead (see
                // SymExecOptions::fault_salt).
                symx::SymExecOptions symexec_options = options_.symexec;
                symexec_options.watchdog_steps = options_.stage_step_budget;
                symexec_options.fault_salt = static_cast<uint32_t>(attempt);
                symx::EntryPayloadFn entry_payload;
                if (keys.has_value()) {
                  entry_payload = [&, call_graph = metrics::CallGraph(*module)](
                                      const std::string& entry,
                                      const symx::SymExecOptions& entry_options) {
                    std::vector<double> row;
                    CachedUnit(fn_cache_, kSymexecEntries,
                               keys->Closure(call_graph, entry, entry_options.rng_seed), &row,
                               [&] { return symx::ExplorePayload(*module, entry, entry_options); });
                    return row;
                  };
                }
                return symx::SymexFeatures(*module, symexec_options, entry_payload);
              });
          break;
        case StageKind::kDynamic:
          analysis = GuardStage<metrics::FeatureVector>(
              stage, features, [&](int) -> support::Result<metrics::FeatureVector> {
                support::Deadline deadline = StageDeadline();
                // Seeded by attempt index, so a file's dynamic stream is a
                // function of its position among deep candidates, not of
                // earlier parse outcomes.
                const uint64_t seed = support::Rng::TaskSeed(
                    options_.dynamic_seed, static_cast<uint64_t>(attempt_index));
                const auto compute = [&] {
                  return DynamicPayload(*module, options_.dynamic_trials, seed, deadline);
                };
                if (!keys.has_value()) {
                  return DynamicFeatures(compute());
                }
                std::vector<double> row;
                if (CachedUnit(fn_cache_, kDynamicFiles, keys->Dynamic(seed), &row, compute)) {
                  deadline.TickOrThrow("dynamic", static_cast<uint64_t>(row.back()));
                }
                return DynamicFeatures(row);
              });
          break;
        case StageKind::kFeatures:
        case StageKind::kPredict:
        case StageKind::kCount:
          break;  // Disabled above; unreachable.
      }
      if (analysis.has_value()) {
        features.MergeSum(*analysis);
        ok = true;
      }
      if (ok) {
        tracker.MarkDone(stage);
      } else {
        tracker.MarkFailed(stage);
      }
    }
    if (tracker.state(StageKind::kLower) == StageState::kDone) {
      ++deep_done;
    }
  }
  features.Set("deep.files_attempted", static_cast<double>(deep_attempted));
  features.Set("deep.files_analyzed", static_cast<double>(deep_done));

  // Density features: most raw counts scale with application size, which
  // makes them proxies for LoC; dividing by kLoC isolates the *style* signal
  // (how guard-poor, taint-heavy, or smell-ridden the code is per unit of
  // code) — the quantity the paper wants beyond Figure 2's size baseline.
  const double kloc = std::max(features.Get("loc.code") / 1000.0, 1e-3);
  for (const char* name :
       {"lint.total", "lint.unchecked-input-index", "lint.non-constant-divisor",
        "smell.total", "smell.magic_numbers", "mccabe.total", "shin.branches",
        "shin.functions", "dataflow.input_sites", "dataflow.tainted_instructions",
        "dataflow.tainted_sinks", "dataflow.tainted_array_indices", "ai.possible_oob",
        "ai.possible_div0", "symx.vuln_sites"}) {
    if (features.Has(name)) {
      features.Set(std::string(name) + "_per_kloc", features.Get(name) / kloc);
    }
  }
  // Guardedness: share of array accesses the interval analysis could prove
  // safe (1.0 = fully defensive code).
  const double accesses = features.Get("ai.array_accesses");
  if (accesses > 0.0) {
    features.Set("ai.proven_ratio", features.Get("ai.proven_in_bounds") / accesses);
  }
  const double divisions = features.Get("ai.divisions");
  if (divisions > 0.0) {
    features.Set("ai.proven_div_ratio",
                 features.Get("ai.proven_nonzero_divisor") / divisions);
  }
  if (options_.cache_features) {
    cache_.Insert(cache_key, features);
  }
  return features;
}

std::vector<AppRecord> Testbed::Collect() const {
  const auto selected =
      ecosystem_.database().AppsWithConvergingHistory(options_.min_history_years);
  std::vector<const corpus::AppSpec*> specs;
  specs.reserve(selected.size());
  std::vector<std::string> names;
  for (const auto& app : selected) {
    const corpus::AppSpec* spec = ecosystem_.FindSpec(app);
    if (spec != nullptr) {
      specs.push_back(spec);
      names.push_back(app);
    }
  }
  // Checkpoint resume: load every intact block from a previous interrupted
  // sweep (the tolerant loader drops truncated tails), keyed by app name.
  // Resumed rows are returned verbatim — record serialization round-trips
  // doubles exactly, so the resumed sweep is byte-identical to an
  // uninterrupted one.
  std::unordered_map<std::string, AppRecord> resumed;
  std::unique_ptr<std::ofstream> checkpoint;
  std::mutex checkpoint_mutex;
  if (!options_.checkpoint_path.empty()) {
    bool needs_newline = false;
    {
      std::ifstream in(options_.checkpoint_path, std::ios::binary);
      if (in) {
        std::ostringstream buffer;
        buffer << in.rdbuf();
        const std::string text = buffer.str();
        needs_newline = !text.empty() && text.back() != '\n';
        CheckpointLoadStats load_stats;
        for (auto& record : LoadCheckpoint(text, &load_stats)) {
          // Last block wins: a re-extraction appended after a source change
          // (the splice protocol below) supersedes the stale block for the
          // same app.
          std::string name = record.name;
          resumed.insert_or_assign(std::move(name), std::move(record));
        }
        // Damage is recoverable (dropped apps recompute below) but never
        // silent: torn tails and corrupt blocks land in run_report().
        checkpoint_dropped_.fetch_add(load_stats.dropped_blocks,
                                      std::memory_order_relaxed);
      }
    }
    checkpoint = std::make_unique<std::ofstream>(
        options_.checkpoint_path, std::ios::binary | std::ios::app);
    if (!*checkpoint) {
      checkpoint.reset();  // Unwritable path: degrade to an unsaved sweep.
    } else if (needs_newline) {
      // A kill mid-line left the file without its trailing newline; close
      // the wounded line so the next block starts clean (the loader drops
      // the orphan).
      (*checkpoint) << '\n';
      checkpoint->flush();
    }
  }
  // One task per app: source synthesis + the full extraction battery. Every
  // input is per-app deterministic (GenerateSources forks a per-app stream,
  // ExtractFeatures derives per-index seeds), and ParallelMap collects in
  // index order, so the matrix is bit-identical at any worker count.
  std::unique_ptr<support::ThreadPool> dedicated;
  if (options_.threads > 0) {
    dedicated = std::make_unique<support::ThreadPool>(options_.threads);
  }
  support::ThreadPool& pool =
      dedicated != nullptr ? *dedicated : support::ThreadPool::Global();
  auto records = pool.ParallelMap<AppRecord>(specs.size(), [&](size_t i) {
    std::optional<std::vector<metrics::SourceFile>> files;
    if (const auto it = resumed.find(names[i]); it != resumed.end()) {
      // Splice protocol: a checkpointed row is reused only while its source
      // digest still matches the sources this sweep would extract from.
      // Legacy blocks (digest 0) are trusted verbatim; a mismatch means the
      // corpus moved under the checkpoint (e.g. a version_lag change), so
      // the row is re-extracted — through the warm function-granular caches,
      // so only changed functions pay — and appended last-wins.
      if (it->second.source_digest == 0) {
        apps_from_checkpoint_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
      files = SourcesFor(*specs[i]);
      if (HashSourceFiles(*files, 0) == it->second.source_digest) {
        apps_from_checkpoint_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
      checkpoint_stale_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!files.has_value()) {
      files = SourcesFor(*specs[i]);
    }
    AppRecord record = ExtractRecordFromFiles(*specs[i], *files);
    if (checkpoint != nullptr) {
      const std::string block = SaveCheckpointRecord(record);
      std::lock_guard<std::mutex> lock(checkpoint_mutex);
      (*checkpoint) << block;
      checkpoint->flush();
      checkpoint_appends_.fetch_add(1, std::memory_order_relaxed);
    }
    return record;
  });
  apps_total_.fetch_add(records.size(), std::memory_order_relaxed);
  return records;
}

std::vector<metrics::SourceFile> Testbed::SourcesFor(const corpus::AppSpec& spec) const {
  if (options_.version_lag <= 0) {
    return ecosystem_.GenerateSources(spec);
  }
  const corpus::VersionHistory history = corpus::VersionHistory::ForApp(ecosystem_, spec);
  const size_t head = history.head_version();
  const size_t lag =
      std::min<size_t>(static_cast<size_t>(options_.version_lag), head);
  return history.Materialize(head - lag);
}

AppRecord Testbed::ExtractRecord(const corpus::AppSpec& spec) const {
  return ExtractRecordFromFiles(spec, SourcesFor(spec));
}

AppRecord Testbed::ExtractRecordFromFiles(
    const corpus::AppSpec& spec,
    const std::vector<metrics::SourceFile>& files) const {
  AppRecord record;
  record.name = spec.name;
  record.features = ExtractFeatures(files);
  // Content-only digest (no options/fault fingerprint): rows extracted under
  // different configurations from the same sources agree on it, so digest
  // equality means exactly "same input tree".
  record.source_digest = HashSourceFiles(files, 0);
  record.labels = ecosystem_.database().Summarize(record.name);
  return record;
}

IncrementalStats Testbed::incremental_stats() const {
  const auto computed = [&](Tier tier) { return computed_[tier].load(std::memory_order_relaxed); };
  const auto reused = [&](Tier tier) { return reused_[tier].load(std::memory_order_relaxed); };
  IncrementalStats s;
  s.files_parsed = ast_cache_.misses();
  s.parse_reused = ast_cache_.hits();
  s.file_rows_computed = computed(kFileRows);
  s.file_rows_reused = reused(kFileRows);
  s.fn_dataflow_computed = computed(kDataflowFns);
  s.fn_dataflow_reused = reused(kDataflowFns);
  s.fn_intervals_computed = computed(kIntervalFns);
  s.fn_intervals_reused = reused(kIntervalFns);
  s.symexec_entries_computed = computed(kSymexecEntries);
  s.symexec_entries_reused = reused(kSymexecEntries);
  s.dynamic_files_computed = computed(kDynamicFiles);
  s.dynamic_files_reused = reused(kDynamicFiles);
  return s;
}

support::Result<FunctionCorpusStats> Testbed::CollectFunctionRows(
    ml::FeatureStoreWriter& writer) const {
  FunctionRankOptions options;
  options.min_history_years = options_.min_history_years;
  options.threads = options_.threads;
  options.version_lag =
      options_.version_lag > 0 ? static_cast<size_t>(options_.version_lag) : 0;
  return clair::CollectFunctionRows(ecosystem_, options, writer);
}

RunReport Testbed::run_report() const {
  RunReport report;
  for (int i = 0; i < kStageKindCount; ++i) {
    const StageCounters& c = stage_counters_[i];
    StageReport stage;
    stage.attempts = c.attempts.load(std::memory_order_relaxed);
    stage.failures = c.failures.load(std::memory_order_relaxed);
    stage.injected = c.injected.load(std::memory_order_relaxed);
    stage.timeouts = c.timeouts.load(std::memory_order_relaxed);
    stage.retries = c.retries.load(std::memory_order_relaxed);
    stage.recovered = c.recovered.load(std::memory_order_relaxed);
    stage.degraded = c.degraded.load(std::memory_order_relaxed);
    stage.wall_seconds = static_cast<double>(c.wall_nanos.load(std::memory_order_relaxed)) * 1e-9;
    if (stage.attempts > 0) {
      report.stages[StageName(static_cast<StageKind>(i))] = stage;
    }
  }
  report.apps_total = apps_total_.load(std::memory_order_relaxed);
  report.apps_from_checkpoint = apps_from_checkpoint_.load(std::memory_order_relaxed);
  report.checkpoint_appends = checkpoint_appends_.load(std::memory_order_relaxed);
  report.checkpoint_dropped_blocks = checkpoint_dropped_.load(std::memory_order_relaxed);
  report.checkpoint_stale_records = checkpoint_stale_.load(std::memory_order_relaxed);
  const FeatureCacheStats cache_stats = cache_.stats();
  report.rows_from_cache = cache_stats.hits;
  report.cache_misses = cache_stats.misses;
  report.cache_entries = cache_stats.entries;
  report.cache_coalesced_fills = cache_stats.coalesced_fills;
  report.cache_integrity_rejects = cache_stats.integrity_rejects +
                                   file_cache_.stats().integrity_rejects +
                                   fn_cache_.stats().integrity_rejects;
  report.cache_evictions = cache_stats.evictions + file_cache_.stats().evictions +
                           fn_cache_.stats().evictions;
  return report;
}

}  // namespace clair
