// cold_corpus: the paper's whole loop from nothing, as a batch job with no
// arrivals. Each pass builds the 164 + 24-app ecosystem and, on a fresh
// testbed, runs a cold sweep (every cache is written, none is read),
// cross-validation and training of every standard hypothesis x learner, and
// LEOPARD-style function ranking. After each of the first two passes every
// app is scored as developer code with that pass's model on another fresh
// testbed, so every score is a cold extraction as well. Symexec is about 85%
// of the serial sweep, so every extraction change and every scheduling
// change shows here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "perfbench/bench.h"
#include "perfbench/common.h"
#include "src/clair/serialize.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"

namespace perfbench {
namespace {

// The set-up is everything before the first pass: the corpus definition
// and the sources of every app the scored passes score. It is built
// kSetupRepeats times and setup_s is the median; each pass then builds its
// own corpus definition inside loop_s.
constexpr int kSetupRepeats = 5;
// Passes per run: one per kSecondsPerPass of --seconds, at least
// kMinPasses. A fixed count keeps the work (and the peak RSS) of a run
// independent of how fast it goes. loop_s and the sweep metrics are
// medians over the passes; the sweep's wall time is set by its slowest
// symexec entries, so it needs several.
constexpr int kMinPasses = 3;
constexpr double kSecondsPerPass = 7.5;
// Passes whose model also scores every app (p50_ms, p95_ms, slo_frac). Two
// give 376 latencies, each app timed twice; scoring the apps one at a time
// costs about as much as a serial sweep.
constexpr int kScoredPasses = 2;
constexpr size_t kCheckedApps = 8;

std::unique_ptr<corpus::EcosystemGenerator> MakeEcosystem(const Config& config) {
  return std::make_unique<corpus::EcosystemGenerator>(
      CorpusFor(config, Config::kMatureApps, Config::kImmatureApps));
}

// The developer code the scored passes score: every app's sources, in spec
// order, one app per pool task.
std::vector<std::vector<metrics::SourceFile>> GenerateApps(
    const corpus::EcosystemGenerator& eco) {
  std::vector<std::vector<metrics::SourceFile>> apps(eco.specs().size());
  support::ParallelFor(apps.size(),
                       [&](size_t i) { apps[i] = eco.GenerateSources(eco.specs()[i]); });
  return apps;
}

// Scores every app of the ecosystem with `model` on a fresh testbed with the
// sweep's options, so no score reads a cache the sweep wrote. A closed
// loop: one app at a time, each due when the previous one is done, so its
// latency is its service time.
void ScoreApps(const corpus::EcosystemGenerator& eco,
               const std::vector<std::vector<metrics::SourceFile>>& apps,
               const clair::TrainedModel& model, Recorder& recorder, Result& result,
               ServiceTimes& times, size_t& within_limit) {
  const clair::Testbed testbed(eco, SweepOptions());
  for (size_t i = 0; i < apps.size(); ++i) {
    const corpus::AppSpec& spec = eco.specs()[i];
    const auto t0 = Clock::now();
    const clair::SecurityReport report = Score(testbed, model, spec.name, apps[i], recorder);
    const double ms = 1e3 * SecondsBetween(t0, Clock::now());
    times.service_ms.push_back(ms);
    ++result.attempted;
    if (report.predictions.size() != model.models().size() ||
        !std::isfinite(report.overall_risk) || report.overall_risk < 0.0 ||
        report.overall_risk > 1.0) {
      result.Fail("score " + spec.name + ": malformed report");
    } else if (ms <= Config::kLatencyLimitMs) {
      ++within_limit;
    }
  }
}

// Re-extracts a seeded sample of apps through the module-level path on a
// fresh cache-off testbed, one app per pool task, and byte-compares the
// rows with the sweep's.
void CheckSampleRows(const Config& config, const corpus::EcosystemGenerator& eco,
                     const std::vector<clair::AppRecord>& rows, Result& result) {
  const clair::Testbed reference(eco, CacheOff(SweepOptions()));
  std::map<std::string, const clair::AppRecord*> by_name;
  for (const auto& row : rows) {
    by_name[row.name] = &row;
  }
  std::vector<const corpus::AppSpec*> specs = SelectedApps(eco);
  support::Rng rng(config.seed);
  rng.Shuffle(specs);
  specs.resize(std::min(specs.size(), kCheckedApps));
  std::vector<std::string> errors(specs.size());
  support::ParallelFor(specs.size(), [&](size_t i) {
    const auto it = by_name.find(specs[i]->name);
    if (it == by_name.end()) {
      errors[i] = "missing from the sweep";
    } else if (clair::SaveRecords({reference.ExtractRecord(*specs[i])}) !=
               clair::SaveRecords({*it->second})) {
      errors[i] = "row differs from the module-level path";
    }
  });
  for (size_t i = 0; i < specs.size(); ++i) {
    ++result.attempted;
    if (!errors[i].empty()) {
      result.Fail("check " + specs[i]->name + ": " + errors[i]);
    }
  }
}

}  // namespace

void RunColdCorpus(const Config& config, Result& result) {
  Recorder recorder(config.trace);
  // The traced run makes one pass, so its spans describe one loop.
  const int passes =
      config.trace
          ? 1
          : std::max(kMinPasses, static_cast<int>(std::ceil(config.seconds / kSecondsPerPass)));
  std::vector<double> setup_s;
  std::vector<double> loop_s;
  ModelTimes models;
  ServiceTimes scored;
  size_t within_limit = 0;
  Ranking ranking;
  Sweep first_sweep;
  TestbedSnapshot before;  // The first pass's testbed, around its sweep.
  TestbedSnapshot after;
  std::unique_ptr<corpus::EcosystemGenerator> eco;
  std::vector<std::vector<metrics::SourceFile>> apps;
  for (int i = 0; i < kSetupRepeats; ++i) {
    eco.reset();
    apps.clear();
    const auto t0 = Clock::now();
    eco = MakeEcosystem(config);
    apps = GenerateApps(*eco);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  for (int pass = 0; pass < passes; ++pass) {
    eco.reset();
    const auto t0 = Clock::now();
    eco = MakeEcosystem(config);
    const clair::Testbed testbed(*eco, SweepOptions());
    if (pass == 0) {
      before = Snapshot(testbed);
    }
    Sweep sweep = RunSweep(testbed, recorder);
    if (pass == 0) {
      after = Snapshot(testbed);
    }
    const Training training = Train(sweep.records, 10, recorder);
    const Ranking pass_ranking =
        RankFunctions(testbed, config.scratch + "/function_rows.clfs", recorder);
    loop_s.push_back(SecondsBetween(t0, Clock::now()));

    models.Add(sweep);
    models.Add(training);
    CheckRows(sweep.records, result);
    std::printf("pass %d: loop_s %.4f sweep_s %.4f sweep_cpu_s %.4f train_s %.4f\n", pass,
                loop_s.back(), sweep.wall_s, sweep.cpu_s, training.seconds);
    if (pass == 0) {
      ranking = pass_ranking;
      first_sweep = std::move(sweep);
    } else if (pass_ranking.precision != ranking.precision) {
      result.Fail("topk_precision differs between passes of one run");
    }
    if (pass < kScoredPasses) {
      ScoreApps(*eco, apps, training.model, recorder, result, scored, within_limit);
    }
  }
  CheckSampleRows(config, *eco, first_sweep.records, result);
  ReportRanking(ranking, result);
  std::printf("cold_corpus: %d passes; %zu function rows ranked at K=%zu; "
              "%zu cold scores on the first %d\n",
              passes, ranking.rows, ranking.k, scored.service_ms.size(),
              std::min(passes, kScoredPasses));

  if (config.trace) {
    ReportTestbedDelta(before, after, result);
    ReportService(scored, result);
    ReportSelfSeconds(recorder,
                      {"ml.cv", "ml.train_final", "metrics.function_rows", "ml.store_write",
                       "ml.train_streaming", "ml.rank", "ml.predict", "clair.extract"},
                      result);
    TraceSweep(config, *eco, first_sweep, result);
    return;
  }
  result.Set("setup_s", Median(setup_s), "s", setup_s.size());
  result.Set("loop_s", Median(loop_s), "s", loop_s.size());
  ReportModels(models, result);
  ReportLatencies(scored.service_ms, within_limit, result);
}

}  // namespace perfbench
