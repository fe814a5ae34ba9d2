#include "perfbench/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "src/clair/function_rank.h"
#include "src/clair/hypothesis.h"
#include "src/metrics/extract.h"
#include "src/ml/feature_store.h"
#include "src/ml/tree.h"
#include "src/support/thread_pool.h"

namespace perfbench {
namespace {

double Ratio(uint64_t part, uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

}  // namespace

void Result::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) {
    failures.push_back(what);
  }
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

corpus::CorpusOptions CorpusFor(const Config& config, int mature, int immature) {
  corpus::CorpusOptions options;
  options.mature_apps = mature;
  options.immature_apps = immature;
  options.seed = config.corpus_seed;
  options.size_scale = Config::kSizeScale;
  return options;
}

clair::TestbedOptions SweepOptions() {
  clair::TestbedOptions options;
  options.deep_analysis_max_files = 1;
  return options;
}

clair::TestbedOptions CacheOff(clair::TestbedOptions options) {
  options.cache_features = false;
  options.cache_functions = false;
  return options;
}

Sweep RunSweep(const clair::Testbed& testbed, Recorder& recorder) {
  Sweep sweep;
  Recorder::Scope span(recorder, "clair.collect");
  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = Clock::now();
  sweep.records = testbed.Collect();
  sweep.wall_s = SecondsBetween(t0, Clock::now());
  sweep.cpu_s = ProcessCpuSeconds() - cpu0;
  return sweep;
}

Training Train(std::vector<clair::AppRecord> records, int folds, Recorder& recorder) {
  Training training;
  const auto t0 = Clock::now();
  clair::PipelineOptions options;
  options.cv_folds = folds;
  const clair::TrainingPipeline pipeline(std::move(records), options);
  std::vector<clair::HypothesisReport> reports;
  {
    Recorder::Scope span(recorder, "ml.cv");
    reports = pipeline.EvaluateAll();
  }
  {
    Recorder::Scope span(recorder, "ml.train_final");
    training.model = pipeline.TrainFinal(reports);
  }
  training.seconds = SecondsBetween(t0, Clock::now());
  for (const auto& report : reports) {
    training.cv_auc += report.best.auc;
  }
  if (!reports.empty()) {
    training.cv_auc /= static_cast<double>(reports.size());
  }
  return training;
}

Ranking RankFunctions(const clair::Testbed& testbed, const std::string& store_path,
                      Recorder& recorder) {
  Ranking ranking;
  auto writer = ml::FeatureStoreWriter::Create(store_path, metrics::FunctionFeatureNames(),
                                               clair::FunctionClassNames());
  if (!writer.ok()) {
    ranking.error = "store create: " + writer.error().message();
    return ranking;
  }
  support::Result<clair::FunctionCorpusStats> stats = clair::FunctionCorpusStats{};
  {
    Recorder::Scope span(recorder, "metrics.function_rows");
    stats = testbed.CollectFunctionRows(*writer.value());
  }
  if (!stats.ok()) {
    ranking.error = "function rows: " + stats.error().message();
    return ranking;
  }
  {
    Recorder::Scope span(recorder, "ml.store_write");
    auto finished = writer.value()->Finish();
    if (!finished.ok()) {
      ranking.error = "store finish: " + finished.error().message();
      return ranking;
    }
  }
  auto store = ml::FeatureStore::Open(store_path);
  if (!store.ok()) {
    ranking.error = "store open: " + store.error().message();
    return ranking;
  }
  ml::ForestOptions forest_options;
  forest_options.num_trees = 48;
  forest_options.seed = 2017;
  ml::RandomForestClassifier forest(forest_options);
  {
    Recorder::Scope span(recorder, "ml.train_streaming");
    forest.TrainStreaming(store.value());
  }
  ranking.rows = stats.value().functions;
  ranking.k = stats.value().positives;
  if (ranking.k == 0) {
    ranking.error = "no positive function rows";
    return ranking;
  }
  const std::vector<size_t> ks = {ranking.k};
  std::vector<ml::RankingMetrics> metrics;
  {
    Recorder::Scope span(recorder, "ml.rank");
    metrics = clair::EvaluateRanking(forest, store.value(), ks);
  }
  if (metrics.size() != 1) {
    ranking.error = "ranking returned no metrics";
    return ranking;
  }
  ranking.precision = metrics[0].precision;
  return ranking;
}

SmallModel TrainSmallModel(const Config& config, Recorder& recorder) {
  constexpr int kTrainRepeats = 5;
  SmallModel small;
  small.ecosystem = std::make_unique<corpus::EcosystemGenerator>(
      CorpusFor(config, Config::kSmallMatureApps, Config::kSmallImmatureApps));
  small.testbed = std::make_unique<clair::Testbed>(*small.ecosystem, SweepOptions());
  small.sweep = RunSweep(*small.testbed, recorder);
  for (int i = 0; i < kTrainRepeats; ++i) {
    small.training = Train(small.sweep.records, 5, recorder);
    small.repeats.push_back({{}, small.training.seconds, small.training.cv_auc});
  }
  return small;
}

void ModelTimes::Add(const Sweep& sweep) {
  sweep_s.push_back(sweep.wall_s);
  sweep_cpu_s.push_back(sweep.cpu_s);
}

void ModelTimes::Add(const Training& training) {
  train_s.push_back(training.seconds);
  cv_auc.push_back(training.cv_auc);
}

void ModelTimes::Add(const SmallModel& small) {
  Add(small.sweep);
  for (const Training& training : small.repeats) {
    Add(training);
  }
}

void ReportModels(const ModelTimes& times, Result& result) {
  for (const double auc : times.cv_auc) {
    if (auc != times.cv_auc.front()) {
      result.Fail("cv_auc differs between trainings of one run");
      break;
    }
  }
  result.Set("sweep_s", Median(times.sweep_s), "s", times.sweep_s.size());
  result.Set("sweep_cpu_s", Median(times.sweep_cpu_s), "CPU-s", times.sweep_cpu_s.size());
  result.Set("train_s", Median(times.train_s), "s", times.train_s.size());
  result.Set("cv_auc", times.cv_auc.empty() ? 0.0 : times.cv_auc.front(), "fraction",
             times.cv_auc.size());
}

void ReportLatencies(const std::vector<double>& latency_ms, size_t within_limit,
                     Result& result) {
  result.Set("p50_ms", Percentile(latency_ms, 0.50), "ms", latency_ms.size());
  result.Set("p95_ms", Percentile(latency_ms, 0.95), "ms", latency_ms.size());
  result.Set("slo_frac",
             latency_ms.empty() ? 0.0
                                : static_cast<double>(within_limit) /
                                      static_cast<double>(latency_ms.size()),
             "fraction", latency_ms.size());
}

void ReportRanking(const Ranking& ranking, Result& result) {
  ++result.attempted;
  if (!ranking.error.empty()) {
    result.Fail("ranking: " + ranking.error);
  }
  result.Set("topk_precision", ranking.precision, "fraction", ranking.k);
}

void CheckRows(const std::vector<clair::AppRecord>& records, Result& result) {
  for (const auto& record : records) {
    ++result.attempted;
    for (const auto& [name, value] : record.features.values()) {
      if (name.starts_with("robust.") && name.ends_with("_degraded") && value > 0.0) {
        result.Fail("row " + record.name + ": " + name);
        break;
      }
    }
  }
}

clair::SecurityReport Score(const clair::Testbed& testbed, const clair::TrainedModel& model,
                            const std::string& subject,
                            const std::vector<metrics::SourceFile>& files,
                            Recorder& recorder) {
  if (!recorder.enabled()) {
    return clair::SecurityEvaluator(model, testbed).Evaluate(subject, files);
  }
  clair::SecurityReport report;
  report.subject = subject;
  {
    Recorder::Scope span(recorder, "clair.extract", subject);
    report.features = testbed.ExtractFeatures(files);
  }
  double weighted = 0.0;
  double weight_total = 0.0;
  for (const auto& hypothesis : clair::StandardHypotheses()) {
    const clair::HypothesisModel* bundle = model.ForHypothesis(hypothesis.id);
    if (bundle == nullptr) {
      continue;
    }
    clair::HypothesisPrediction prediction;
    prediction.hypothesis_id = hypothesis.id;
    {
      Recorder::Scope span(recorder, "ml.predict", subject);
      prediction.risk = bundle->PredictRisk(report.features);
    }
    const double weight = clair::HypothesisSeverityWeight(hypothesis.id);
    weighted += weight * prediction.risk;
    weight_total += weight;
    report.predictions.push_back(std::move(prediction));
  }
  report.overall_risk = weight_total > 0.0 ? weighted / weight_total : 0.0;
  return report;
}

std::string CompareReports(const clair::SecurityReport& report,
                           const clair::SecurityReport& reference) {
  if (report.features.values() != reference.features.values()) {
    return "feature row differs";
  }
  if (report.predictions.size() != reference.predictions.size()) {
    return "hypothesis count differs";
  }
  for (size_t i = 0; i < report.predictions.size(); ++i) {
    const auto& got = report.predictions[i];
    const auto& want = reference.predictions[i];
    if (got.hypothesis_id != want.hypothesis_id || got.risk != want.risk) {
      return "risk of " + want.hypothesis_id + " differs";
    }
  }
  if (report.overall_risk != reference.overall_risk) {
    return "overall risk differs";
  }
  return {};
}

void ReportSelfSeconds(const Recorder& recorder, const std::vector<std::string>& names,
                       Result& result) {
  const auto totals = TotalsByName(recorder);
  for (const auto& name : names) {
    const auto it = totals.find(name);
    if (it == totals.end()) {
      continue;
    }
    Metric& metric = result.metrics[name + "_s"];
    metric.value += it->second.self_seconds;
    metric.unit = "s";
    metric.samples += it->second.calls;
  }
}

std::vector<const corpus::AppSpec*> SelectedApps(const corpus::EcosystemGenerator& eco) {
  std::vector<const corpus::AppSpec*> specs;
  for (const auto& name : eco.database().AppsWithConvergingHistory(
           clair::TestbedOptions{}.min_history_years)) {
    if (const corpus::AppSpec* spec = eco.FindSpec(name)) {
      specs.push_back(spec);
    }
  }
  return specs;
}

namespace {

double ReplaySweep(const corpus::EcosystemGenerator& eco,
                   const std::vector<const corpus::AppSpec*>& specs, Recorder& recorder,
                   std::vector<ReplayCounts>& counts) {
  counts.assign(specs.size(), ReplayCounts{});
  const clair::TestbedOptions options = SweepOptions();
  const auto t0 = Clock::now();
  support::ParallelFor(specs.size(), [&](size_t i) {
    Recorder::Scope app(recorder, "clair.app", specs[i]->name);
    std::vector<metrics::SourceFile> files;
    {
      Recorder::Scope span(recorder, "corpus.generate", specs[i]->name);
      files = eco.GenerateSources(*specs[i]);
    }
    counts[i] = ReplayExtraction(files, options, specs[i]->name, recorder);
  });
  return SecondsBetween(t0, Clock::now());
}

// Time at the end of the traced sweep when some worker had no app left
// while others were still running one.
double PoolTailSeconds(const Recorder& recorder) {
  std::map<uint32_t, double> last_end;
  double end = 0.0;
  for (const Span& span : recorder.spans()) {
    if (span.name == "clair.app") {
      last_end[span.thread] = std::max(last_end[span.thread], span.end);
      end = std::max(end, span.end);
    }
  }
  double first_idle = end;
  for (const auto& [thread, t] : last_end) {
    first_idle = std::min(first_idle, t);
  }
  return end - first_idle;
}

}  // namespace

void TraceSweep(const Config& config, const corpus::EcosystemGenerator& eco,
                const Sweep& sweep, Result& result) {
  const std::vector<const corpus::AppSpec*> specs = SelectedApps(eco);
  Recorder off(false);
  std::vector<ReplayCounts> counts;
  const double untraced_s = ReplaySweep(eco, specs, off, counts);
  Recorder trace(true);
  const double traced_s = ReplaySweep(eco, specs, trace, counts);
  result.Set("bench.trace_overhead_frac", traced_s / untraced_s - 1.0, "fraction", 1);
  std::printf("replayed sweep of %zu apps: %.3f s untraced, %.3f s traced\n", specs.size(),
              untraced_s, traced_s);

  // The replay must see the symexec work the sweep's rows report.
  std::map<std::string, const clair::AppRecord*> by_name;
  for (const auto& row : sweep.records) {
    by_name[row.name] = &row;
  }
  ReplayCounts total;
  for (size_t i = 0; i < specs.size(); ++i) {
    const ReplayCounts& c = counts[i];
    total.Add(c);
    ++result.attempted;
    const auto it = by_name.find(specs[i]->name);
    if (it == by_name.end()) {
      result.Fail("replay " + specs[i]->name + ": no sweep row");
    } else if (c.stage_errors > 0 ||
               it->second->features.Get("symx.entries") != static_cast<double>(c.entries) ||
               it->second->features.Get("symx.paths") != static_cast<double>(c.paths) ||
               it->second->features.Get("symx.solver_queries") !=
                   static_cast<double>(c.solver_queries)) {
      result.Fail("replay " + specs[i]->name + ": symexec counts differ from the row");
    }
  }
  const auto count = [&](const char* metric, uint64_t value) {
    result.Set(metric, static_cast<double>(value), "count");
  };
  count("symexec.entries", total.entries);
  count("symexec.paths", total.paths);
  count("symexec.solver_queries", total.solver_queries);
  count("symexec.range_pruned", total.range_pruned);
  count("symexec.sat_conflicts", total.sat_conflicts);
  count("symexec.vuln_sites", total.vuln_sites);
  count("lang.interp_runs", total.interp_runs);
  result.Set("symexec.prune_frac",
             Ratio(total.range_pruned, total.range_pruned + total.solver_queries), "fraction");
  result.Set("symexec.path_limit_frac", Ratio(total.path_limit_hits, total.entries),
             "fraction", total.entries);

  ReportSelfSeconds(trace,
                    {"corpus.generate", "lang.parse", "lang.lower", "lang.interp",
                     "metrics.extract", "dataflow.fixpoint", "dataflow.intervals",
                     "symexec.explore"},
                    result);
  double layer_self = 0.0;
  for (const auto& [span_name, t] : TotalsByName(trace)) {
    layer_self += t.self_seconds;
  }
  const double symexec_self = result.metrics["symexec.explore_s"].value;
  result.Set("symexec.self_share", layer_self > 0.0 ? symexec_self / layer_self : 0.0,
             "fraction");
  const auto slowest_entry = SlowestUnits(trace, "symexec.explore", 1);
  const auto slowest_app = SlowestUnits(trace, "clair.app", 1);
  result.Set("symexec.entry_max_s", slowest_entry.empty() ? 0.0 : slowest_entry[0].seconds,
             "s");
  result.Set("clair.app_max_s", slowest_app.empty() ? 0.0 : slowest_app[0].seconds, "s");
  result.Set("support.pool_tail_s", PoolTailSeconds(trace), "s");
  result.Set("support.pool_busy_frac",
             sweep.cpu_s / (sweep.wall_s * static_cast<double>(config.workers)), "fraction");
  std::printf("symexec.explore self time: %.3f of %.3f s summed layer self time (%.1f%%)\n",
              symexec_self, layer_self, 100.0 * result.metrics["symexec.self_share"].value);
  PrintSlowest(trace, "clair.app", "apps", 8);
  PrintSlowest(trace, "symexec.explore", "symexec entries", 8);
}

void ReportService(const ServiceTimes& times, Result& result) {
  const auto& service = times.service_ms;
  result.Set("clair.service_p50_ms", Median(service), "ms", service.size());
  result.Set("clair.service_max_ms",
             service.empty() ? 0.0 : *std::max_element(service.begin(), service.end()), "ms",
             service.size());
  if (!times.wait_ms.empty()) {
    result.Set("clair.queue_wait_p50_ms", Percentile(times.wait_ms, 0.50), "ms",
               times.wait_ms.size());
    result.Set("clair.queue_wait_p95_ms", Percentile(times.wait_ms, 0.95), "ms",
               times.wait_ms.size());
  }
}

TestbedSnapshot Snapshot(const clair::Testbed& testbed) {
  return {testbed.run_report(), testbed.incremental_stats()};
}

void ReportTestbedDelta(const TestbedSnapshot& before, const TestbedSnapshot& after,
                        Result& result) {
  for (const char* stage : {"parse", "lower", "dataflow", "intervals", "symexec", "dynamic"}) {
    const auto wall = [&](const clair::RunReport& report) {
      const auto it = report.stages.find(stage);
      return it != report.stages.end() ? it->second.wall_seconds : 0.0;
    };
    result.Set(std::string("clair.stage.") + stage + "_s",
               wall(after.report) - wall(before.report), "s");
  }
  const auto reuse = [&](const char* name, uint64_t clair::IncrementalStats::*reused,
                         uint64_t clair::IncrementalStats::*computed) {
    const uint64_t r = after.incremental.*reused - before.incremental.*reused;
    const uint64_t c = after.incremental.*computed - before.incremental.*computed;
    result.Set(std::string("clair.reuse.") + name + "_frac", Ratio(r, r + c), "fraction",
               r + c);
  };
  using S = clair::IncrementalStats;
  reuse("parse", &S::parse_reused, &S::files_parsed);
  reuse("file_rows", &S::file_rows_reused, &S::file_rows_computed);
  reuse("fn_dataflow", &S::fn_dataflow_reused, &S::fn_dataflow_computed);
  reuse("fn_intervals", &S::fn_intervals_reused, &S::fn_intervals_computed);
  reuse("symexec", &S::symexec_entries_reused, &S::symexec_entries_computed);
  reuse("dynamic", &S::dynamic_files_reused, &S::dynamic_files_computed);
  result.Set("clair.cache_evictions",
             static_cast<double>(after.report.cache_evictions -
                                 before.report.cache_evictions),
             "count");
}

void PrintSlowest(const Recorder& recorder, const std::string& name,
                  const std::string& title, size_t n) {
  const auto units = SlowestUnits(recorder, name, n);
  std::printf("slowest %s (%s spans, by duration)\n", title.c_str(), name.c_str());
  for (size_t i = 0; i < units.size(); ++i) {
    std::printf("  %2zu  %-48s %9.4f s  (self %.4f s)\n", i + 1, units[i].unit.c_str(),
                units[i].seconds, units[i].self_seconds);
  }
}

}  // namespace perfbench
