// score_stream: an open loop at a fixed rate, developers' score requests
// arriving independently. One generator thread submits one single-file
// MiniC subject (60-300 lines, random style) to clair::Scheduler every
// 1/rate seconds whether or not earlier requests are done; every fifth
// request repeats an earlier subject, so the row-cache hit and coalescing
// paths run. Latency runs from each request's due time. This is the only
// workload that runs the scheduler's waves, coalescing and batched predict,
// and it exposes cross-request blocking: the coordinator runs one wave at a
// time, so requests arriving during a slow subject's wave wait behind it.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/common.h"
#include "src/clair/hypothesis.h"
#include "src/clair/scheduler.h"
#include "src/corpus/codegen.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;
constexpr uint64_t kSubjectSalt = 0x5c0e57ea;

// Subject `index` of the pool. The pool and its order are a function of
// the corpus seed alone, so every run sends the same subjects in the same
// order and `--seed` decides which earlier requests repeat. Where the slow
// subjects fall in the stream sets how many requests queue behind them, so
// a seeded order would make p95 a property of the seed.
std::vector<metrics::SourceFile> MakeSubject(const Config& config, size_t index) {
  support::Rng rng(support::Rng::TaskSeed(config.corpus_seed ^ kSubjectSalt, index));
  corpus::AppStyle style;
  style.complexity = rng.NextDouble();
  style.unsafety = rng.NextDouble();
  style.taintiness = rng.NextDouble();
  const int lines = 60 + static_cast<int>(rng.NextBelow(241));
  metrics::SourceFile file;
  file.path = support::Format("subject_%zu.c", index);
  file.language = metrics::Language::kMiniC;
  file.text = corpus::GenerateMiniCFile(rng, style, lines);
  return {file};
}

struct Stream {
  std::vector<std::vector<metrics::SourceFile>> subjects;
  std::vector<size_t> requests;  // Subject index per request, in send order.
};

// rate x seconds requests; request i % 5 == 4 repeats an earlier one.
Stream MakeStream(const Config& config) {
  Stream stream;
  const size_t total =
      std::max<size_t>(5, static_cast<size_t>(Config::kRequestsPerSecond * config.seconds));
  support::Rng rng(config.seed);
  for (size_t i = 0; i < total; ++i) {
    if (i % 5 == 4) {
      stream.requests.push_back(stream.requests[rng.NextBelow(stream.requests.size())]);
    } else {
      stream.requests.push_back(stream.subjects.size());
      stream.subjects.push_back(MakeSubject(config, stream.subjects.size()));
    }
  }
  return stream;
}

// The scheduler borrows the testbed and the model, so a Setup stays where
// it was built.
struct Setup {
  SmallModel small;
  Stream stream;
  std::unique_ptr<clair::Testbed> testbed;
  std::unique_ptr<clair::Scheduler> scheduler;
};

std::unique_ptr<Setup> MakeSetup(const Config& config, Recorder& recorder) {
  auto setup = std::make_unique<Setup>();
  setup->small = TrainSmallModel(config, recorder);
  {
    Recorder::Scope span(recorder, "corpus.generate", "subjects");
    setup->stream = MakeStream(config);
  }
  setup->testbed =
      std::make_unique<clair::Testbed>(*setup->small.ecosystem, clair::TestbedOptions{});
  setup->scheduler =
      std::make_unique<clair::Scheduler>(*setup->testbed, setup->small.training.model);
  return setup;
}

struct Served {
  std::vector<clair::ScoreResult> results;
  std::vector<Clock::time_point> due;
  double late_max_ms = 0.0;
};

// The open loop: submit request i at start + i / rate, then collect.
Served Serve(Setup& setup) {
  Served served;
  const auto& stream = setup.stream;
  std::vector<uint64_t> ids(stream.requests.size());
  const auto start = Clock::now();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / Config::kRequestsPerSecond));
  for (size_t i = 0; i < stream.requests.size(); ++i) {
    const auto due = start + interval * static_cast<int64_t>(i);
    std::this_thread::sleep_until(due);
    clair::ScoreRequest request;
    request.subject = support::Format("subject_%zu", stream.requests[i]);
    request.files = stream.subjects[stream.requests[i]];
    ids[i] = setup.scheduler->Submit(std::move(request));
    served.late_max_ms =
        std::max(served.late_max_ms, 1e3 * SecondsBetween(due, Clock::now()));
    served.due.push_back(due);
  }
  for (const uint64_t id : ids) {
    served.results.push_back(setup.scheduler->Wait(id));
  }
  return served;
}

double LatencyMs(const Served& served, size_t i) {
  return 1e3 * SecondsBetween(served.due[i], served.results[i].resolved_at);
}

// Checks every served result against synchronous SecurityEvaluator::Evaluate
// on a cache-off testbed, bit for bit; the references are computed one
// distinct subject per pool task. Returns per-request correctness.
std::vector<bool> CheckServed(const Setup& setup, const Served& served, Result& result) {
  const clair::Testbed reference(*setup.small.ecosystem, CacheOff(clair::TestbedOptions{}));
  const clair::SecurityEvaluator evaluator(setup.small.training.model, reference);
  const auto& subjects = setup.stream.subjects;
  std::vector<clair::SecurityReport> expected(subjects.size());
  support::ParallelFor(subjects.size(), [&](size_t s) {
    expected[s] = evaluator.Evaluate(support::Format("subject_%zu", s), subjects[s]);
  });
  std::vector<bool> correct(served.results.size(), false);
  for (size_t i = 0; i < served.results.size(); ++i) {
    const clair::ScoreResult& got = served.results[i];
    ++result.attempted;
    if (got.state != clair::RequestState::kDone) {
      result.Fail(support::Format("request %zu ended %s", i,
                                  clair::RequestStateName(got.state)));
      continue;
    }
    clair::SecurityReport as_report;
    as_report.features = got.features;
    for (size_t h = 0; h < got.hypothesis_ids.size(); ++h) {
      clair::HypothesisPrediction prediction;
      prediction.hypothesis_id = got.hypothesis_ids[h];
      prediction.risk = got.hypothesis_risks[h];
      as_report.predictions.push_back(std::move(prediction));
    }
    as_report.overall_risk = got.overall_risk;
    const std::string diff =
        CompareReports(as_report, expected[setup.stream.requests[i]]);
    if (!diff.empty()) {
      result.Fail(support::Format("request %zu: %s", i, diff.c_str()));
      continue;
    }
    correct[i] = true;
  }
  return correct;
}

// The traced run's layer view of the served stream: one span per request
// from its due time to its resolution, and each distinct subject's service
// time, scored synchronously and alone on a cache-off testbed. Queue wait =
// latency - service; a repeated subject is served from the row cache or
// coalesced onto its leader, so its whole latency is wait.
void ReportRequestLayers(const Setup& setup, const Served& served, Recorder& recorder,
                         Result& result) {
  for (size_t i = 0; i < served.results.size(); ++i) {
    recorder.Record("clair.request",
                    support::Format("%zu:%s", i, served.results[i].subject.c_str()),
                    served.due[i], served.results[i].resolved_at);
  }
  const clair::Testbed reference(*setup.small.ecosystem, CacheOff(clair::TestbedOptions{}));
  std::map<size_t, double> service_ms;
  ServiceTimes times;
  for (size_t i = 0; i < served.results.size(); ++i) {
    const size_t s = setup.stream.requests[i];
    double service = 0.0;
    if (service_ms.count(s) == 0) {
      const std::string& subject = served.results[i].subject;
      const auto t0 = Clock::now();
      {
        Recorder::Scope span(recorder, "clair.service", subject);
        Score(reference, setup.small.training.model, subject, setup.stream.subjects[s],
              recorder);
      }
      service = service_ms[s] = 1e3 * SecondsBetween(t0, Clock::now());
      times.service_ms.push_back(service);
    }
    times.wait_ms.push_back(std::max(0.0, LatencyMs(served, i) - service));
  }
  ReportService(times, result);
  const clair::SchedulerStats stats = setup.scheduler->stats();
  result.Set("clair.sched.waves", static_cast<double>(stats.waves), "count");
  result.Set("clair.sched.wave_size",
             static_cast<double>(stats.submitted) /
                 std::max(1.0, static_cast<double>(stats.waves)),
             "count");
  result.Set("clair.sched.coalesced", static_cast<double>(stats.coalesced), "count");
  PrintSlowest(recorder, "clair.request", "requests", 8);
  PrintSlowest(recorder, "clair.service", "subjects (synchronous service)", 8);
}

}  // namespace

void RunScoreStream(const Config& config, Result& result) {
  Recorder recorder(config.trace);
  // The traced run builds one set-up, so its spans describe one.
  const int setups = config.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  ModelTimes models;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < setups; ++i) {
    setup.reset();
    const auto t0 = Clock::now();
    setup = MakeSetup(config, recorder);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    models.Add(setup->small);
    CheckRows(setup->small.sweep.records, result);
  }
  const TestbedSnapshot before = Snapshot(*setup->testbed);
  const Served served = Serve(*setup);
  const TestbedSnapshot after = Snapshot(*setup->testbed);
  const std::vector<bool> correct = CheckServed(*setup, served, result);

  std::vector<double> latency_ms;
  size_t within_limit = 0;
  auto last = served.due.front();
  for (size_t i = 0; i < served.results.size(); ++i) {
    latency_ms.push_back(LatencyMs(served, i));
    last = std::max(last, served.results[i].resolved_at);
    if (correct[i] && latency_ms.back() <= Config::kLatencyLimitMs) {
      ++within_limit;
    }
  }
  ReportRanking(
      RankFunctions(*setup->small.testbed, config.scratch + "/function_rows.clfs", recorder),
      result);
  std::printf("score_stream: %zu requests at %.0f/s over %zu subjects, %llu waves, "
              "generator at most %.3f ms late\n",
              latency_ms.size(), Config::kRequestsPerSecond, setup->stream.subjects.size(),
              static_cast<unsigned long long>(setup->scheduler->stats().waves),
              served.late_max_ms);

  if (config.trace) {
    ReportTestbedDelta(before, after, result);
    ReportRequestLayers(*setup, served, recorder, result);
    ReportSelfSeconds(recorder,
                      {"corpus.generate", "clair.extract", "ml.predict", "ml.cv",
                       "ml.train_final", "metrics.function_rows", "ml.store_write",
                       "ml.train_streaming", "ml.rank"},
                      result);
    TraceSweep(config, *setup->small.ecosystem, setup->small.sweep, result);
    return;
  }
  result.Set("setup_s", Median(setup_s), "s", setup_s.size());
  result.Set("loop_s", SecondsBetween(served.due.front(), last), "s", 1);
  ReportModels(models, result);
  ReportLatencies(latency_ms, within_limit, result);
}

}  // namespace perfbench
