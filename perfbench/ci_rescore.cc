// ci_rescore: a closed loop with one client, the warm per-commit CI gate.
// A small model is trained as examples/ci_risk_gate trains it. Every
// version of the 8 apps of the 164 + 24-app ecosystem with the longest
// commit streams is materialized, and version 0 of each is scored on a gate
// testbed at the default deep budget of 3. The timed operations are the
// later versions, scored one at a time in commit order through
// SecurityEvaluator::Evaluate on that warm testbed. The function-granular
// caches serve nearly all deep work, so this loads diff planning, cache
// reads, the changed functions' batteries and predict: the read side of
// the caches that cold_corpus only writes. Deep budget 3 rather than 8
// keeps symexec stragglers out of the tail.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <tuple>

#include "perfbench/bench.h"
#include "perfbench/common.h"
#include "src/clair/incremental.h"
#include "src/corpus/history.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"

namespace perfbench {
namespace {

constexpr size_t kCiApps = 8;
// The whole set-up (model, versions, warm gates) is built this many times
// and setup_s is the median.
constexpr int kSetupRepeats = 2;
// Passes over the whole commit stream, each on its own gate warmed during
// set-up; passes stop early once the window is used up.
constexpr size_t kPasses = 3;
constexpr size_t kCheckedCommits = 8;

struct CiApp {
  std::string name;
  std::vector<std::vector<metrics::SourceFile>> versions;  // 0 .. HEAD.
  std::vector<cvedb::DayStamp> days;  // Day of commit k, which makes version k + 1.
};

// Every version of the kCiApps apps with the longest commit streams,
// materialized one version per pool task.
std::vector<CiApp> MaterializeApps(const corpus::EcosystemGenerator& eco) {
  std::vector<corpus::VersionHistory> histories;
  for (const auto& spec : eco.specs()) {
    histories.push_back(corpus::VersionHistory::ForApp(eco, spec));
  }
  std::sort(histories.begin(), histories.end(),
            [](const corpus::VersionHistory& a, const corpus::VersionHistory& b) {
              return a.commits().size() != b.commits().size()
                         ? a.commits().size() > b.commits().size()
                         : a.spec().name < b.spec().name;
            });
  histories.resize(std::min(histories.size(), kCiApps));
  std::vector<CiApp> apps(histories.size());
  std::vector<std::pair<size_t, size_t>> jobs;
  for (size_t a = 0; a < histories.size(); ++a) {
    apps[a].name = histories[a].spec().name;
    apps[a].versions.resize(histories[a].num_versions());
    for (const corpus::Commit& commit : histories[a].commits()) {
      apps[a].days.push_back(commit.day);
    }
    for (size_t v = 0; v < histories[a].num_versions(); ++v) {
      jobs.emplace_back(a, v);
    }
  }
  support::ParallelFor(jobs.size(), [&](size_t i) {
    const auto [a, v] = jobs[i];
    apps[a].versions[v] = histories[a].Materialize(v);
  });
  return apps;
}

// Commit arrival order: every app's commits merged by day stamp (ties by
// app), as they would reach one CI service. A seeded interleaving would
// make the cost of a pass a property of the seed.
std::vector<std::pair<size_t, size_t>> CommitOrder(const std::vector<CiApp>& apps) {
  std::vector<std::tuple<cvedb::DayStamp, size_t, size_t>> commits;
  for (size_t a = 0; a < apps.size(); ++a) {
    for (size_t v = 1; v < apps[a].versions.size(); ++v) {
      commits.emplace_back(apps[a].days[v - 1], a, v);
    }
  }
  std::stable_sort(commits.begin(), commits.end());
  std::vector<std::pair<size_t, size_t>> order;
  for (const auto& [day, a, v] : commits) {
    order.emplace_back(a, v);
  }
  return order;
}

// `count` gates, each its own testbed at the default options, warmed by
// scoring version 0 of every app: one (gate, app) warm-up per pool task.
std::vector<std::unique_ptr<clair::Testbed>> MakeGates(const corpus::EcosystemGenerator& eco,
                                                       const clair::TrainedModel& model,
                                                       const std::vector<CiApp>& apps,
                                                       size_t count) {
  std::vector<std::unique_ptr<clair::Testbed>> gates;
  for (size_t g = 0; g < count; ++g) {
    gates.push_back(std::make_unique<clair::Testbed>(eco, clair::TestbedOptions{}));
  }
  support::ParallelFor(count * apps.size(), [&](size_t i) {
    const CiApp& app = apps[i % apps.size()];
    clair::SecurityEvaluator(model, *gates[i / apps.size()]).Evaluate(app.name, app.versions[0]);
  });
  return gates;
}

// The gates borrow the model and the ecosystem, so a Setup stays where it
// was built.
struct Setup {
  SmallModel small;
  std::unique_ptr<corpus::EcosystemGenerator> ecosystem;  // 164 + 24 apps.
  std::vector<CiApp> apps;
  std::vector<std::unique_ptr<clair::Testbed>> gates;
};

std::unique_ptr<Setup> MakeSetup(const Config& config, size_t gates, Recorder& recorder) {
  auto setup = std::make_unique<Setup>();
  setup->small = TrainSmallModel(config, recorder);
  {
    Recorder::Scope span(recorder, "corpus.generate", "ecosystem");
    setup->ecosystem = std::make_unique<corpus::EcosystemGenerator>(
        CorpusFor(config, Config::kMatureApps, Config::kImmatureApps));
  }
  {
    Recorder::Scope span(recorder, "corpus.generate", "versions");
    setup->apps = MaterializeApps(*setup->ecosystem);
  }
  setup->gates = MakeGates(*setup->ecosystem, setup->small.training.model, setup->apps, gates);
  return setup;
}

std::string CommitName(const CiApp& app, size_t version) {
  return support::Format("%s@%zu", app.name.c_str(), version);
}

// The positions in the commit stream whose reports the output check keeps.
std::vector<bool> SampledPositions(size_t commits, uint64_t seed) {
  std::vector<size_t> positions(commits);
  std::iota(positions.begin(), positions.end(), 0);
  support::Rng rng(seed);
  rng.Shuffle(positions);
  std::vector<bool> sampled(commits, false);
  for (size_t i = 0; i < std::min(commits, kCheckedCommits); ++i) {
    sampled[positions[i]] = true;
  }
  return sampled;
}

struct SampledCommit {
  size_t app = 0;
  size_t version = 0;
  clair::SecurityReport warm;
};

// Compares sampled warm reports with a fresh cache-off testbed, one commit
// per pool task.
void CheckCommits(const Setup& setup, const std::vector<SampledCommit>& sampled,
                  Result& result) {
  const clair::Testbed reference(*setup.ecosystem, CacheOff(clair::TestbedOptions{}));
  const clair::SecurityEvaluator evaluator(setup.small.training.model, reference);
  std::vector<std::string> errors(sampled.size());
  support::ParallelFor(sampled.size(), [&](size_t i) {
    const CiApp& app = setup.apps[sampled[i].app];
    errors[i] = CompareReports(sampled[i].warm,
                               evaluator.Evaluate(app.name, app.versions[sampled[i].version]));
  });
  for (size_t i = 0; i < sampled.size(); ++i) {
    ++result.attempted;
    if (!errors[i].empty()) {
      result.Fail("check " + CommitName(setup.apps[sampled[i].app], sampled[i].version) +
                  ": " + errors[i]);
    }
  }
}

bool SaneReport(const clair::SecurityReport& report, const clair::TrainedModel& model) {
  return report.predictions.size() == model.models().size() &&
         std::isfinite(report.overall_risk);
}

}  // namespace

void RunCiRescore(const Config& config, Result& result) {
  Recorder recorder(config.trace);
  // The traced run builds one set-up and makes one pass over the commit
  // stream, so its spans and counter deltas describe one pass.
  const int setups = config.trace ? 1 : kSetupRepeats;
  const size_t passes = config.trace ? 1 : kPasses;
  std::vector<double> setup_s;
  ModelTimes models;
  std::unique_ptr<Setup> owned;
  for (int i = 0; i < setups; ++i) {
    owned.reset();
    const auto t0 = Clock::now();
    owned = MakeSetup(config, passes, recorder);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    models.Add(owned->small);
    CheckRows(owned->small.sweep.records, result);
  }
  const Setup& setup = *owned;
  const clair::TrainedModel& model = setup.small.training.model;

  // Each pass scores every commit in order on its own warm gate. The
  // traced run also plans each commit's function diff, as a CI caller
  // would beside the gate (it is not on Evaluate's path).
  const auto order = CommitOrder(setup.apps);
  const std::vector<bool> keep = SampledPositions(order.size(), config.seed);
  std::vector<SampledCommit> sampled;
  ServiceTimes times;
  std::vector<double> pass_s;
  size_t within_limit = 0;
  const TestbedSnapshot before = Snapshot(*setup.gates[0]);
  const auto window0 = Clock::now();
  for (size_t pass = 0; pass < passes; ++pass) {
    if (pass > 0 && SecondsBetween(window0, Clock::now()) >= config.seconds) {
      break;
    }
    const clair::Testbed& gate = *setup.gates[pass];
    const auto p0 = Clock::now();
    for (size_t i = 0; i < order.size(); ++i) {
      const auto [a, v] = order[i];
      const CiApp& app = setup.apps[a];
      const std::string unit = CommitName(app, v);
      Recorder::Scope commit(recorder, "clair.commit", unit);
      if (recorder.enabled()) {
        Recorder::Scope span(recorder, "clair.diff", unit);
        clair::PlanFunctionDiff(app.versions[v - 1], app.versions[v]);
      }
      const auto c0 = Clock::now();
      clair::SecurityReport report = Score(gate, model, app.name, app.versions[v], recorder);
      const double ms = 1e3 * SecondsBetween(c0, Clock::now());
      times.service_ms.push_back(ms);
      ++result.attempted;
      if (!SaneReport(report, model)) {
        result.Fail("commit " + unit + ": malformed report");
      } else if (ms <= Config::kLatencyLimitMs) {
        ++within_limit;
      }
      if (pass == 0 && keep[i]) {
        sampled.push_back({a, v, std::move(report)});
      }
    }
    pass_s.push_back(SecondsBetween(p0, Clock::now()));
  }
  const TestbedSnapshot after = Snapshot(*setup.gates[0]);
  CheckCommits(setup, sampled, result);
  ReportRanking(
      RankFunctions(*setup.small.testbed, config.scratch + "/function_rows.clfs", recorder),
      result);
  std::printf("ci_rescore: %zu apps, %zu passes over %zu commits each\n", setup.apps.size(),
              pass_s.size(), order.size());

  if (config.trace) {
    ReportTestbedDelta(before, after, result);
    ReportService(times, result);
    ReportSelfSeconds(recorder,
                      {"corpus.generate", "clair.extract", "ml.predict", "ml.cv",
                       "ml.train_final", "metrics.function_rows", "ml.store_write",
                       "ml.train_streaming", "ml.rank"},
                      result);
    const auto totals = TotalsByName(recorder);
    std::printf("clair.diff (PlanFunctionDiff): %.3f s over %zu commits; %llu symexec entries "
                "explored, not served from cache\n",
                totals.count("clair.diff") != 0 ? totals.at("clair.diff").self_seconds : 0.0,
                order.size(),
                static_cast<unsigned long long>(after.incremental.symexec_entries_computed -
                                                before.incremental.symexec_entries_computed));
    PrintSlowest(recorder, "clair.commit", "commits", 8);
    TraceSweep(config, *setup.small.ecosystem, setup.small.sweep, result);
    return;
  }
  result.Set("setup_s", Median(setup_s), "s", setup_s.size());
  result.Set("loop_s", Median(pass_s), "s", pass_s.size());
  ReportModels(models, result);
  ReportLatencies(times.service_ms, within_limit, result);
}

}  // namespace perfbench
