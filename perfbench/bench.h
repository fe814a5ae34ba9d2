// Shared declarations of the end-to-end benchmark: run configuration, the
// result a workload reports, and small timing/statistics helpers.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// The pinned configuration. Every number a run prints is only meaningful
// together with these values, so they are echoed in the provenance line.
struct Config {
  std::string workload;
  // Seeds the traffic of a run: the request order and repeats of
  // score_stream, the commit interleaving of ci_rescore, and which rows and
  // commits the output checks sample.
  uint64_t seed = 0;
  // Seeds the synthetic ecosystem and the score_stream subjects. Held apart
  // from `seed` because the corpus decides where the symexec stragglers
  // fall: the slowest entry is netparse09:filter_state_19 at 20170508 and
  // fastmail86:compute_level_17 at 4242, with serial sweeps of 10.1 and
  // 15.8 s. A corpus seed is a different workload, not run-to-run noise.
  uint64_t corpus_seed = 20170508;
  double seconds = 0.0;  // Length of the timed window.
  bool trace = false;    // Per-layer (traced) run instead of the timed one.
  int workers = 1;       // Size of the one process-wide pool.
  std::string scratch;   // Per-process mkdtemp directory, removed on exit.

  static constexpr double kSizeScale = 0.01;
  static constexpr int kMatureApps = 164;
  static constexpr int kImmatureApps = 24;
  // The small model of ci_rescore and score_stream (as examples/ci_risk_gate).
  static constexpr int kSmallMatureApps = 48;
  static constexpr int kSmallImmatureApps = 8;
  static constexpr double kRequestsPerSecond = 10.0;
  static constexpr double kLatencyLimitMs = 1000.0;
};

// One reported number. `samples` is how many measurements it summarises.
struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

// What a run measured. An untraced run sets exactly the end-to-end metrics
// of BENCHMARK.json, a traced run the per-layer metrics its workload
// exercises; perfbench/run.py fills in the rest and checks names and units.
struct Result {
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;  // Operations: apps, commits or requests.
  uint64_t failed = 0;     // Failed operations plus failed output checks.
  std::vector<std::string> failures;  // First few failure descriptions.

  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  void Fail(const std::string& what);
};

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double ProcessCpuSeconds();  // User + system time of every thread so far.
double PeakRssMib();
// Linear-interpolated percentile, p in [0, 1]; 0 for an empty input.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// Workload entry points. Each fills `result` with either the end-to-end
// metrics (config.trace == false) or the per-layer ones, and counts every
// operation it attempts and every failed operation or output check.
void RunColdCorpus(const Config& config, Result& result);
void RunCiRescore(const Config& config, Result& result);
void RunScoreStream(const Config& config, Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
