// Steps the three workloads share: the corpora, training with cross-
// validation, LEOPARD-style function ranking, output comparisons, and the
// per-layer metrics read from spans and from the testbed's own counters.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/replay.h"
#include "perfbench/trace.h"
#include "src/clair/evaluator.h"
#include "src/clair/pipeline.h"
#include "src/clair/testbed.h"
#include "src/corpus/ecosystem.h"

namespace perfbench {

corpus::CorpusOptions CorpusFor(const Config& config, int mature, int immature);

// Testbed options of the training sweeps: deep budget 1, default caches,
// the process-wide pool.
clair::TestbedOptions SweepOptions();

// The same extraction with every cache off: the module-level reference path
// the output checks compare against.
clair::TestbedOptions CacheOff(clair::TestbedOptions options);

// A cold Testbed::Collect, timed.
struct Sweep {
  std::vector<clair::AppRecord> records;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};
Sweep RunSweep(const clair::Testbed& testbed, Recorder& recorder);

// EvaluateAll + TrainFinal over `records`.
struct Training {
  clair::TrainedModel model;
  double seconds = 0.0;
  double cv_auc = 0.0;  // Mean over hypotheses of the best learner's CV AUC.
};
Training Train(std::vector<clair::AppRecord> records, int folds, Recorder& recorder);

// Function rows into an ml::FeatureStore at `store_path`, a 48-tree forest
// trained from the store, and top-K precision at K = positive rows.
struct Ranking {
  double precision = 0.0;
  size_t k = 0;
  size_t rows = 0;
  std::string error;  // Non-empty when a step failed.
};
Ranking RankFunctions(const clair::Testbed& testbed, const std::string& store_path,
                      Recorder& recorder);

// The small model of ci_rescore and score_stream: a 48 + 8-app corpus swept
// at deep budget 1 and trained with 5-fold CV, as examples/ci_risk_gate.
// Training takes about 0.2 s, too short to time once, so it is repeated on
// the same rows and every repeat's time is kept. Held by unique_ptr members
// so that moving it keeps the testbed's reference to the ecosystem valid.
struct SmallModel {
  std::unique_ptr<corpus::EcosystemGenerator> ecosystem;
  std::unique_ptr<clair::Testbed> testbed;  // The sweep's; ranking reuses it.
  Sweep sweep;
  Training training;             // The last repeat's.
  std::vector<Training> repeats;  // Every repeat's seconds and cv_auc.
};
SmallModel TrainSmallModel(const Config& config, Recorder& recorder);

// The sweeps and trainings of a run, as ReportModels summarises them.
struct ModelTimes {
  std::vector<double> sweep_s;
  std::vector<double> sweep_cpu_s;
  std::vector<double> train_s;
  std::vector<double> cv_auc;

  void Add(const Sweep& sweep);
  void Add(const Training& training);
  void Add(const SmallModel& small);
};

// sweep_s, sweep_cpu_s and train_s as medians, and cv_auc, which every
// training of a run must reproduce exactly (a difference is a failed check).
void ReportModels(const ModelTimes& times, Result& result);

// p50_ms and p95_ms over every operation's latency, and slo_frac:
// `within_limit`, the operations served correctly within
// Config::kLatencyLimitMs, over the operations sent.
void ReportLatencies(const std::vector<double>& latency_ms, size_t within_limit,
                     Result& result);

// topk_precision; a failed ranking step counts as a failed operation.
void ReportRanking(const Ranking& ranking, Result& result);

// Counts every row as an operation and every row whose extraction degraded
// a stage (`robust.*_degraded` > 0) as a failed one.
void CheckRows(const std::vector<clair::AppRecord>& records, Result& result);

// Scores `files` as developer code: SecurityEvaluator::Evaluate as a user
// calls it when `recorder` is disabled. When tracing, Evaluate taken apart:
// the testbed's extraction (`clair.extract`) and each hypothesis model's
// PredictRisk (`ml.predict`), folded into the same severity-weighted risk,
// without the contributing features.
clair::SecurityReport Score(const clair::Testbed& testbed, const clair::TrainedModel& model,
                            const std::string& subject,
                            const std::vector<metrics::SourceFile>& files,
                            Recorder& recorder);

// Empty when `report` equals the synchronous reference bit for bit.
std::string CompareReports(const clair::SecurityReport& report,
                           const clair::SecurityReport& reference);

// Per-layer metrics from spans: the summed self seconds of every span name
// listed, added to `<name>_s` (several recorders may feed one layer).
void ReportSelfSeconds(const Recorder& recorder, const std::vector<std::string>& names,
                       Result& result);

// The apps Collect sweeps (those with a converging CVE history).
std::vector<const corpus::AppSpec*> SelectedApps(const corpus::EcosystemGenerator& eco);

// The layer view of a training sweep: the sweep replayed on the pool, one
// task per selected app as Collect runs it, first untraced and then traced
// (the difference is bench.trace_overhead_frac). Reports every corpus,
// lang, metrics, dataflow and symexec metric, clair.app_max_s and the
// support.* pool metrics, prints the slowest apps and symexec entries, and
// checks each app's summed symx::SymExecResult counts against its row of
// `sweep`.
void TraceSweep(const Config& config, const corpus::EcosystemGenerator& eco,
                const Sweep& sweep, Result& result);

// Per scoring operation (an app, a commit or a request): its service time,
// and for the open loop the time it waited in the queue. The closed loops
// have no queue and leave `wait_ms` empty.
struct ServiceTimes {
  std::vector<double> service_ms;
  std::vector<double> wait_ms;
};
// clair.service_p50_ms and clair.service_max_ms, and
// clair.queue_wait_p{50,95}_ms when there are waits.
void ReportService(const ServiceTimes& times, Result& result);

// clair.stage.*_s, clair.reuse.*_frac and clair.cache_evictions from the
// difference of two snapshots of the testbed's counters.
struct TestbedSnapshot {
  clair::RunReport report;
  clair::IncrementalStats incremental;
};
TestbedSnapshot Snapshot(const clair::Testbed& testbed);
void ReportTestbedDelta(const TestbedSnapshot& before, const TestbedSnapshot& after,
                        Result& result);

// Prints the `n` slowest units of spans called `name`.
void PrintSlowest(const Recorder& recorder, const std::string& name,
                  const std::string& title, size_t n);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
