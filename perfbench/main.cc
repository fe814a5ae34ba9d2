// End-to-end benchmark of the paper's loop. Usage:
//
//   clairbench --workload <cold_corpus|ci_rescore|score_stream> --seed <n>
//              --seconds <s> --trace <0|1> [--corpus-seed <n>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics. Human-readable lines
// (provenance, each measured metric with its unit and sample count,
// slowest-unit tables) come first; the last line of stdout is one JSON
// object with the keys correct, attempted, failed and metrics, where each
// metric carries its value, unit and sample count. perfbench/run.py builds
// this binary, runs it, and checks its metrics against BENCHMARK.json at
// the repository root, which lists the workloads and metrics.
#include <stdlib.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "perfbench/bench.h"
#include "src/clair/testbed.h"
#include "src/support/thread_pool.h"

namespace perfbench {
namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

int Usage(const char* message) {
  std::fprintf(stderr,
               "clairbench: %s\n"
               "usage: clairbench --workload <cold_corpus|ci_rescore|score_stream> "
               "--seed <n> --seconds <s> --trace <0|1> [--corpus-seed <n>]\n",
               message);
  return 2;
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = value;
  return true;
}

// Removes the per-process scratch directory on every exit path.
class ScratchDir {
 public:
  ScratchDir() {
    char pattern[] = ".clairbench.XXXXXX";
    if (mkdtemp(pattern) != nullptr) {
      path_ = std::filesystem::absolute(pattern).string();
    }
  }
  ~ScratchDir() {
    if (!path_.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(path_, ignored);
    }
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' ? value : fallback;
}

void PrintProvenance(const Config& config) {
  std::printf(
      "provenance {\"git_sha\": \"%s\", \"src_digest\": \"%s\", \"nproc\": %u, "
      "\"workers\": %d, \"workload\": \"%s\", \"seed\": %llu, \"corpus_seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"size_scale\": %g, \"apps\": \"%d+%d\", "
      "\"small_apps\": \"%d+%d\", \"deep_budget_sweep\": 1, \"deep_budget_gate\": %d, "
      "\"rate_per_s\": %g, \"latency_limit_ms\": %g, \"optimized\": %s, \"ndebug\": %s, "
      "\"valid\": %s}\n",
      EnvOr("CLAIRBENCH_GIT_SHA", "unknown").c_str(),
      EnvOr("CLAIRBENCH_SRC_DIGEST", "unknown").c_str(),
      std::thread::hardware_concurrency(), config.workers, config.workload.c_str(),
      static_cast<unsigned long long>(config.seed),
      static_cast<unsigned long long>(config.corpus_seed), config.seconds,
      config.trace ? 1 : 0, Config::kSizeScale, Config::kMatureApps,
      Config::kImmatureApps, Config::kSmallMatureApps, Config::kSmallImmatureApps,
      clair::TestbedOptions{}.deep_analysis_max_files, Config::kRequestsPerSecond,
      Config::kLatencyLimitMs, kOptimized ? "true" : "false", kNdebug ? "true" : "false",
      kOptimized ? "true" : "false");
}

// Prints every measured metric, then the JSON line. A metric whose value is
// not finite counts as a failed check and is reported as 0.
void PrintResult(Result& result) {
  for (auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.Fail("metric " + name + " is not finite");
      metric.value = 0.0;
    }
    std::printf("metric %-34s %16.6f %-8s (n=%zu)\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples);
  }
  std::printf("fail_frac %.6f (%llu of %llu operations)\n",
              result.attempted > 0
                  ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
                  : 0.0,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const auto& failure : result.failures) {
    std::printf("failure: %s\n", failure.c_str());
  }
  if (!kOptimized) {
    std::printf("invalid: the benchmark binary was built without optimisation\n");
  }
  std::string json = "{\"correct\": ";
  json += result.failed == 0 && kOptimized ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(result.attempted, 1));
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\", \"samples\": " +
            std::to_string(metric.samples) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  Config config;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseU64(value, &number)) {
      config.seed = number;
      have_seed = true;
    } else if (flag == "--corpus-seed" && ParseU64(value, &number)) {
      config.corpus_seed = number;
    } else if (flag == "--seconds" && ParseU64(value, &number) && number >= 1 &&
               number <= 3600) {
      config.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && (std::strcmp(value, "0") == 0 ||
                                     std::strcmp(value, "1") == 0)) {
      config.trace = value[0] == '1';
      have_trace = true;
    } else {
      return Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  void (*run)(const Config&, Result&) = nullptr;
  if (config.workload == "cold_corpus") {
    run = RunColdCorpus;
  } else if (config.workload == "ci_rescore") {
    run = RunCiRescore;
  } else if (config.workload == "score_stream") {
    run = RunScoreStream;
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }

  // One process-wide pool, pinned by CLAIR_THREADS (run.py sets it) and
  // never larger than the number of hardware threads.
  const int hardware = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  config.workers = std::min(support::ResolveThreadCount(0), hardware);
  support::ThreadPool::SetGlobalThreads(config.workers);
  ScratchDir scratch;
  if (scratch.path().empty()) {
    std::fprintf(stderr, "clairbench: cannot create a scratch directory\n");
    return 1;
  }
  config.scratch = scratch.path();
  PrintProvenance(config);

  Result result;
  try {
    run(config, result);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "clairbench: %s failed: %s\n", config.workload.c_str(), error.what());
    return 1;
  }
  if (!config.trace) {
    result.Set("peak_rss_mib", PeakRssMib(), "MiB", 1);
  }
  PrintResult(result);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
