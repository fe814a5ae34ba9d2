// Sharded fleet sweeps (ctest labels: chaos).
//
// The acceptance contract under test:
//   - the merged output of a sharded sweep — records, function-row store,
//     and the record-derived robustness fold — is byte-identical to a
//     1-process sweep at any shard count and worker count;
//   - seeded worker_crash / heartbeat_loss chaos (kill schedules, lost
//     leases, stolen shards) loses zero rows and changes zero bytes, and
//     the damage is surfaced (crash counts, revocations, dropped
//     checkpoint blocks), never silently absorbed;
//   - rate-1 crash schedules still terminate via the inline fallback;
//   - the fork/exec transport (real subprocesses re-exec'ing this binary
//     through ShardWorkerMain) produces the same bytes as the simulated
//     transport.
//
// This binary defines its own main: it must be re-exec-able as a shard
// worker before gtest ever initializes.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/clair/run_report.h"
#include "src/clair/serialize.h"
#include "src/clair/shard.h"
#include "src/clair/shard_worker.h"
#include "src/clair/testbed.h"
#include "src/corpus/ecosystem.h"
#include "src/metrics/extract.h"
#include "src/support/fault_injection.h"
#include "src/support/scratch_dir.h"
#include "src/support/strings.h"

namespace clair {
namespace shard_test {

// Shared by the tests and by worker mode in main(): a fork/exec worker
// must reconstruct the exact ecosystem + testbed config the coordinator
// used, and this pair of functions is that contract.
corpus::CorpusOptions SmallCorpus() {
  corpus::CorpusOptions options;
  options.mature_apps = 12;
  options.immature_apps = 2;
  options.size_scale = 0.01;
  return options;
}

TestbedOptions SmallTestbed() {
  TestbedOptions options;
  options.deep_analysis_max_files = 1;
  options.cache_features = false;
  return options;
}

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Per-process scratch directory: this binary's CLAIR_THREADS twin runs
// concurrently under `ctest -j`, so fixed names would collide.
const support::ScratchDir& Scratch() {
  static const support::ScratchDir dir("shard_test");
  return dir;
}

std::string MakeWorkDir(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = Scratch().File(std::string(info->test_suite_name()) + "_" +
                                         info->name() + "_" + name);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

class ShardSweepTest : public ::testing::Test {
 protected:
  // One 1-process reference sweep for the whole suite: its record bytes,
  // store bytes, and robustness fold are what every sharded configuration
  // must reproduce exactly.
  static void SetUpTestSuite() {
    ecosystem_ = new corpus::EcosystemGenerator(SmallCorpus());
    const Testbed testbed(*ecosystem_, SmallTestbed());
    const auto records = testbed.Collect();
    ASSERT_GT(records.size(), 0u);
    baseline_records_ = new std::string(SaveRecords(records));
    baseline_fold_ = new std::string(SaveRunReport(SummarizeRecordRobustness(records)));
    const std::string store_path = Scratch().File("shard_baseline.clfs");
    auto writer = ml::FeatureStoreWriter::Create(
        store_path, metrics::FunctionFeatureNames(), FunctionClassNames(),
        ml::FeatureStoreOptions{});
    ASSERT_TRUE(writer.ok()) << writer.error().ToString();
    const auto stats = testbed.CollectFunctionRows(*writer.value());
    ASSERT_TRUE(stats.ok()) << stats.error().ToString();
    ASSERT_GT(stats.value().functions, 0u);
    ASSERT_TRUE(writer.value()->Finish().ok());
    baseline_store_ = new std::string(ReadFile(store_path));
  }

  static void TearDownTestSuite() {
    delete baseline_store_;
    delete baseline_fold_;
    delete baseline_records_;
    delete ecosystem_;
    ecosystem_ = nullptr;
  }

  static ShardSweepResult RunSweep(ShardSweepOptions options,
                                   std::unique_ptr<WorkerTransport> transport = nullptr) {
    options.testbed = SmallTestbed();
    ShardCoordinator coordinator(*ecosystem_, std::move(options),
                                 std::move(transport));
    auto result = coordinator.Run();
    EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().ToString());
    return result.ok() ? std::move(result).value() : ShardSweepResult{};
  }

  static void ExpectMatchesBaseline(const ShardSweepResult& result) {
    EXPECT_EQ(SaveRecords(result.records), *baseline_records_);
    EXPECT_EQ(SaveRunReport(SummarizeRecordRobustness(result.records)),
              *baseline_fold_);
    ASSERT_FALSE(result.store_path.empty());
    EXPECT_EQ(ReadFile(result.store_path), *baseline_store_);
  }

  static const corpus::EcosystemGenerator* ecosystem_;
  static const std::string* baseline_records_;
  static const std::string* baseline_fold_;
  static const std::string* baseline_store_;
};

const corpus::EcosystemGenerator* ShardSweepTest::ecosystem_ = nullptr;
const std::string* ShardSweepTest::baseline_records_ = nullptr;
const std::string* ShardSweepTest::baseline_fold_ = nullptr;
const std::string* ShardSweepTest::baseline_store_ = nullptr;

TEST(ShardPartition, IsStableAndCoversEveryApp) {
  const corpus::EcosystemGenerator ecosystem(SmallCorpus());
  const auto apps = ecosystem.database().AppsWithConvergingHistory(5.0);
  ASSERT_GT(apps.size(), 0u);
  for (const auto& app : apps) {
    const int shard = ShardCoordinator::ShardOf(app, 8);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 8);
    // Pure function of the name: stable across calls and corpus order.
    EXPECT_EQ(shard, ShardCoordinator::ShardOf(app, 8));
    EXPECT_EQ(ShardCoordinator::ShardOf(app, 1), 0);
  }
}

TEST(ShardTaskIo, RoundTripsEveryField) {
  ShardTask task;
  task.shard = 3;
  task.generation = 7;
  task.apps = {"alpha", "beta-2"};
  task.checkpoint_path = "/tmp/x/shard_3.ckpt";
  task.store_path = "/tmp/x/shard_3.g7.clfs";
  task.report_path = "/tmp/x/shard_3.g7.report";
  task.allow_crash = false;
  task.fault_config = "worker_crash:0.5,seed:9";
  task.heartbeat_fd = 3;
  const auto loaded = LoadShardTask(SaveShardTask(task));
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  EXPECT_EQ(loaded.value().shard, task.shard);
  EXPECT_EQ(loaded.value().generation, task.generation);
  EXPECT_EQ(loaded.value().apps, task.apps);
  EXPECT_EQ(loaded.value().checkpoint_path, task.checkpoint_path);
  EXPECT_EQ(loaded.value().store_path, task.store_path);
  EXPECT_EQ(loaded.value().report_path, task.report_path);
  EXPECT_EQ(loaded.value().allow_crash, task.allow_crash);
  EXPECT_EQ(loaded.value().fault_config, task.fault_config);
  EXPECT_EQ(loaded.value().heartbeat_fd, task.heartbeat_fd);
  EXPECT_FALSE(LoadShardTask("shard=1\n").ok());  // No header.
}

TEST_F(ShardSweepTest, MergedSweepIsByteIdenticalAcrossShardAndWorkerCounts) {
  struct Config {
    int shards;
    int workers;
  };
  for (const Config config : {Config{1, 1}, Config{5, 3}, Config{8, 2}}) {
    SCOPED_TRACE(support::Format("shards=%d workers=%d", config.shards,
                                 config.workers));
    ShardSweepOptions options;
    options.num_shards = config.shards;
    options.num_workers = config.workers;
    options.work_dir = MakeWorkDir(
        support::Format("s%dw%d", config.shards, config.workers).c_str());
    const auto result = RunSweep(options);
    ExpectMatchesBaseline(result);
    EXPECT_EQ(result.stats.worker_crashes, 0u);
    EXPECT_EQ(result.stats.leases_revoked, 0u);
    EXPECT_EQ(result.stats.healed_records, 0u);
    EXPECT_EQ(result.report.apps_total, result.records.size());
  }
}

TEST_F(ShardSweepTest, WorkerCrashChaosLosesNothingAndSurfacesDamage) {
  support::FaultInjector::ScopedConfig scoped("worker_crash:0.6,seed:7");
  ShardSweepOptions options;
  options.num_shards = 5;
  options.num_workers = 3;
  options.work_dir = MakeWorkDir("crash");
  const auto result = RunSweep(options);
  ExpectMatchesBaseline(result);
  // The schedule must actually have bitten, and the bite must be audited:
  // torn checkpoint tails become dropped-block counts, not silence.
  EXPECT_GT(result.stats.worker_crashes, 0u);
  EXPECT_GT(result.stats.shards_stolen, 0u);
  EXPECT_GT(result.report.checkpoint_dropped_blocks, 0u);
  EXPECT_GT(result.stats.generations_launched,
            static_cast<uint64_t>(options.num_shards));
}

TEST_F(ShardSweepTest, CertainCrashFallsBackInlineAndStillMatches) {
  support::FaultInjector::ScopedConfig scoped("worker_crash:1,seed:3");
  ShardSweepOptions options;
  options.num_shards = 2;
  options.num_workers = 2;
  options.max_generations = 2;  // Two doomed generations, then inline.
  options.work_dir = MakeWorkDir("certain");
  const auto result = RunSweep(options);
  ExpectMatchesBaseline(result);
  // Every nonempty shard burns its generation budget (one doomed commit per
  // generation) and lands in the coordinator's inline lane.
  EXPECT_GT(result.stats.inline_fallbacks, 0u);
  EXPECT_EQ(result.stats.worker_crashes,
            result.stats.inline_fallbacks *
                static_cast<uint64_t>(options.max_generations));
}

TEST_F(ShardSweepTest, HeartbeatLossRevokesLeasesAndStealsLosslessly) {
  support::FaultInjector::ScopedConfig scoped("heartbeat_loss:1,seed:5");
  ShardSweepOptions options;
  options.num_shards = 2;
  options.num_workers = 2;
  options.lease_ttl_ticks = 2;   // Starve fast: every beat is eaten.
  options.max_generations = 64;  // Plenty: each generation still commits
                                 // ~TTL apps before its lease dies.
  options.work_dir = MakeWorkDir("hbloss");
  const auto result = RunSweep(options);
  ExpectMatchesBaseline(result);
  EXPECT_GT(result.stats.heartbeats_lost, 0u);
  EXPECT_GT(result.stats.leases_revoked, 0u);
  EXPECT_GT(result.stats.shards_stolen, 0u);
  // Revoked workers were healthy mid-commit; their partial checkpoints must
  // have been resumed, not recomputed from scratch every generation.
  EXPECT_EQ(result.stats.worker_crashes, 0u);
  EXPECT_GT(result.report.apps_from_checkpoint, 0u);
}

TEST_F(ShardSweepTest, SeededKillSchedulesReplayBitIdentically) {
  ShardSweepOptions options;
  options.num_shards = 5;
  options.num_workers = 3;
  auto stats_line = [](const ShardSweepStats& stats) {
    return support::Format("g=%llu crash=%llu stolen=%llu revoked=%llu lost=%llu",
                           (unsigned long long)stats.generations_launched,
                           (unsigned long long)stats.worker_crashes,
                           (unsigned long long)stats.shards_stolen,
                           (unsigned long long)stats.leases_revoked,
                           (unsigned long long)stats.heartbeats_lost);
  };
  support::FaultInjector::ScopedConfig scoped(
      "worker_crash:0.4,heartbeat_loss:0.3,seed:11");
  options.work_dir = MakeWorkDir("replay_a");
  const auto first = RunSweep(options);
  options.work_dir = MakeWorkDir("replay_b");
  const auto second = RunSweep(options);
  // Same seed => the same kill schedule, beat for beat, and of course the
  // same merged bytes.
  EXPECT_EQ(stats_line(first.stats), stats_line(second.stats));
  EXPECT_EQ(SaveRecords(first.records), SaveRecords(second.records));
  EXPECT_EQ(ReadFile(first.store_path), ReadFile(second.store_path));
  ExpectMatchesBaseline(first);
}

TEST_F(ShardSweepTest, ForkTransportMatchesSimulated) {
  ShardSweepOptions options;
  options.num_shards = 3;
  options.num_workers = 2;
  // Real subprocesses heartbeat in wall time; give them slack so a loaded
  // CI machine cannot fake a dead worker.
  options.lease_ttl_ticks = 2000;
  options.work_dir = MakeWorkDir("fork");
  auto transport = std::make_unique<ForkWorkerTransport>(
      "/proc/self/exe", options.num_workers, /*tick_sleep_ms=*/2);
  const auto result = RunSweep(std::move(options), std::move(transport));
  ExpectMatchesBaseline(result);
  EXPECT_EQ(result.stats.worker_crashes, 0u);
}

}  // namespace
}  // namespace shard_test
}  // namespace clair

// Worker mode must run before gtest: a re-exec'd child carries
// --clair-shard-worker=<task file> and must become a pristine shard worker
// with the same ecosystem + testbed config the tests use.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (support::StartsWith(argv[i], "--clair-shard-worker=")) {
      const corpus::EcosystemGenerator ecosystem(clair::shard_test::SmallCorpus());
      return clair::ShardWorkerMain(argc, argv, ecosystem,
                                    clair::shard_test::SmallTestbed());
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
