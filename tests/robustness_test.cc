// Fault-injection matrix for the robustness layer (ctest label: robust).
//
// The acceptance contract under test:
//   - with any single injection site forced on (rate 1), Collect() still
//     returns the full record set, with the affected stage degraded to
//     neutral features + robust.* provenance — never a crash, never a
//     silently wrong row;
//   - forced-fault sweeps are bit-identical at 1 worker and at 8;
//   - a checkpoint-interrupted-then-resumed sweep serializes byte-for-byte
//     equal to an uninterrupted one.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/clair/run_report.h"
#include "src/clair/serialize.h"
#include "src/clair/testbed.h"
#include "src/corpus/ecosystem.h"
#include "src/support/fault_injection.h"
#include "src/support/scratch_dir.h"
#include "src/support/strings.h"

namespace clair {
namespace {

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

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Per-process scratch directory, so concurrent test processes never share
// a checkpoint path.
const support::ScratchDir& Scratch() {
  static const support::ScratchDir dir("robustness_test");
  return dir;
}

std::string TempPath(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return Scratch().File(std::string(info->test_suite_name()) + "_" + info->name() + "_" +
                        name);
}

// Every site forced on, one at a time: the sweep must complete with every
// row present and the matching stage degraded where the site is reachable.
TEST(FaultMatrix, EveryForcedSiteDegradesButNeverDropsRows) {
  const corpus::EcosystemGenerator ecosystem(SmallCorpus());
  const Testbed clean_testbed(ecosystem, SmallTestbed());
  const auto clean = clean_testbed.Collect();
  ASSERT_GT(clean.size(), 0u);

  struct Case {
    const char* config;
    const char* stage;  // Stage expected to carry robust.* provenance.
  };
  const std::vector<Case> matrix = {
      {"parse:1", "parse"},         {"lower:1", "lower"},
      {"dataflow:1", "dataflow"},   {"intervals:1", "intervals"},
      {"solver:1", "symexec"},      {"dynamic:1", "dynamic"},
  };
  for (const auto& test_case : matrix) {
    SCOPED_TRACE(test_case.config);
    support::FaultInjector::ScopedConfig scoped(test_case.config);
    const Testbed testbed(ecosystem, SmallTestbed());
    const auto records = testbed.Collect();
    // Never a dropped row.
    ASSERT_EQ(records.size(), clean.size());
    size_t degraded_rows = 0;
    const std::string degraded_key =
        std::string("robust.") + test_case.stage + "_degraded";
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].name, clean[i].name);
      // Text/parse-level breadth features always survive.
      EXPECT_GT(records[i].features.Get("loc.code"), 0.0) << records[i].name;
      if (records[i].features.Get(degraded_key) > 0.0) {
        ++degraded_rows;
      }
    }
    // Rate 1 on a reachable site: every row that reached the stage shows
    // the degradation (not every app has MiniC files, and later stages
    // need the earlier ones to have succeeded, so `> 0` is the floor).
    EXPECT_GT(degraded_rows, 0u);
    const RunReport report = testbed.run_report();
    ASSERT_TRUE(report.stages.count(test_case.stage)) << report.ToString();
    EXPECT_EQ(report.stages.at(test_case.stage).degraded, degraded_rows);
    EXPECT_GT(report.stages.at(test_case.stage).injected, 0u);
    // The per-record fold agrees with the live counters on degraded totals.
    const RunReport folded = SummarizeRecordRobustness(records);
    EXPECT_EQ(folded.TotalDegraded(), report.TotalDegraded());
  }
}

// The cache site is exercised separately (it needs caching on): a forced
// cache fault turns every lookup into a reject + recompute, and the final
// rows still match a cache-off sweep exactly.
TEST(FaultMatrix, ForcedCacheFaultFallsBackToRecompute) {
  const corpus::EcosystemGenerator ecosystem(SmallCorpus());
  TestbedOptions options = SmallTestbed();
  const Testbed reference(ecosystem, options);
  const auto expected = reference.Collect();

  options.cache_features = true;
  support::FaultInjector::ScopedConfig scoped("cache:1");
  const Testbed testbed(ecosystem, options);
  const auto first = testbed.Collect();
  const auto second = testbed.Collect();  // Every hit rejected, recomputed.
  EXPECT_EQ(SaveRecords(first), SaveRecords(second));
  EXPECT_GT(testbed.cache_stats().integrity_rejects, 0u);
  // Fault verdicts (none fire at the analysis sites) leave row *content*
  // identical to the reference sweep; only the cache path is perturbed.
  EXPECT_EQ(SaveRecords(first), SaveRecords(expected));
}

// Mixed sub-unity rates with retries enabled: the whole taxonomy
// (failures, injected, retries, recovered, degraded) must be identical at
// 1 worker and at 8 — byte-for-byte on the serialized records.
TEST(FaultMatrix, FaultedSweepIsBitIdenticalAcrossWorkerCounts) {
  const corpus::EcosystemGenerator ecosystem(SmallCorpus());
  support::FaultInjector::ScopedConfig scoped(
      "parse:0.3,solver:0.4,dynamic:0.3,intervals:0.2,seed:9");
  const auto sweep = [&](int threads) {
    TestbedOptions options = SmallTestbed();
    options.stage_retries = 1;
    options.threads = threads;
    const Testbed testbed(ecosystem, options);
    return SaveRecords(testbed.Collect());
  };
  const std::string serial = sweep(1);
  const std::string parallel = sweep(8);
  EXPECT_EQ(serial, parallel);
  // The injected load really fired (otherwise this test proves nothing).
  EXPECT_NE(serial.find("robust."), std::string::npos);
}

// Retries recover transient injected faults: at a middling rate with a
// retry budget, some stages must fail once and then succeed, visible as
// robust.*_retries provenance plus recovered counts.
TEST(FaultMatrix, RetriesRecoverTransientFaults) {
  const corpus::EcosystemGenerator ecosystem(SmallCorpus());
  support::FaultInjector::ScopedConfig scoped("parse:0.4,seed:3");
  TestbedOptions options = SmallTestbed();
  options.stage_retries = 3;
  const Testbed testbed(ecosystem, options);
  const auto records = testbed.Collect();
  const RunReport report = testbed.run_report();
  ASSERT_TRUE(report.stages.count("parse"));
  const StageReport& parse = report.stages.at("parse");
  EXPECT_GT(parse.failures, 0u);
  EXPECT_GT(parse.recovered, 0u) << report.ToString();
  // With 3 re-rolls at rate 0.4, most failed parses recover (p(all four
  // attempts fail) = 0.4^4 ≈ 2.6%) — degraded stays well below failures.
  EXPECT_LT(parse.degraded, parse.failures);
  bool any_retry_provenance = false;
  for (const auto& record : records) {
    any_retry_provenance =
        any_retry_provenance || record.features.Has("robust.parse_retries");
  }
  EXPECT_TRUE(any_retry_provenance);
}

// A tiny step budget trips the deterministic watchdog: the stage degrades
// with a timeout (not a crash), identically at any worker count.
TEST(Watchdog, TinyStepBudgetDegradesDeterministically) {
  const corpus::EcosystemGenerator ecosystem(SmallCorpus());
  const auto sweep = [&](int threads) {
    TestbedOptions options = SmallTestbed();
    options.stage_step_budget = 4;  // Trips in every deep stage immediately.
    options.stage_retries = 0;
    options.threads = threads;
    const Testbed testbed(ecosystem, options);
    const auto records = testbed.Collect();
    const RunReport report = testbed.run_report();
    uint64_t timeouts = 0;
    for (const auto& [name, stage] : report.stages) {
      timeouts += stage.timeouts;
    }
    EXPECT_GT(timeouts, 0u) << report.ToString();
    return SaveRecords(records);
  };
  const std::string serial = sweep(1);
  EXPECT_EQ(serial, sweep(8));
  EXPECT_NE(serial.find("robust."), std::string::npos);
}

// Checkpointed collection: an interrupted sweep (simulated by a prefix of
// the checkpoint file) resumes to records byte-identical to an
// uninterrupted sweep, and resumed rows are not recomputed.
TEST(Checkpoint, InterruptedThenResumedSweepIsByteIdentical) {
  const corpus::EcosystemGenerator ecosystem(SmallCorpus());
  const std::string full_path = TempPath("full.ckpt");
  const std::string partial_path = TempPath("partial.ckpt");
  std::remove(full_path.c_str());
  std::remove(partial_path.c_str());

  // Uninterrupted reference sweep, streaming to full_path.
  TestbedOptions options = SmallTestbed();
  options.threads = 1;
  options.checkpoint_path = full_path;
  const Testbed reference(ecosystem, options);
  const auto expected = reference.Collect();
  const std::string expected_bytes = SaveRecords(expected);
  ASSERT_EQ(reference.run_report().checkpoint_appends, expected.size());

  // Simulate the interrupt: keep the first half of the checkpoint's blocks
  // plus a torn partial line from the kill, as a real SIGKILL would leave.
  const std::string full_text = ReadFile(full_path);
  ASSERT_FALSE(full_text.empty());
  size_t cut = 0;
  size_t crlines = 0;
  for (size_t pos = 0; pos < full_text.size();) {
    const size_t eol = full_text.find('\n', pos);
    if (eol == std::string::npos) {
      break;
    }
    if (support::StartsWith(
            std::string_view(full_text).substr(pos, eol - pos), "crc=")) {
      ++crlines;
      if (crlines == expected.size() / 2) {
        cut = eol + 1;
        break;
      }
    }
    pos = eol + 1;
  }
  ASSERT_GT(cut, 0u);
  {
    std::ofstream out(partial_path, std::ios::binary);
    out << full_text.substr(0, cut);
    out << "[app]\nname=torn-";  // Mid-write kill: no newline, no crc.
  }

  // Resume against the partial checkpoint.
  TestbedOptions resume_options = SmallTestbed();
  resume_options.threads = 4;  // Resume also holds across worker counts.
  resume_options.checkpoint_path = partial_path;
  const Testbed resumed(ecosystem, resume_options);
  const auto records = resumed.Collect();
  EXPECT_EQ(SaveRecords(records), expected_bytes);
  const RunReport report = resumed.run_report();
  EXPECT_EQ(report.apps_from_checkpoint, expected.size() / 2);
  EXPECT_EQ(report.checkpoint_appends,
            expected.size() - expected.size() / 2);
  // The torn tail was recovered from, but never silently: the dropped
  // block is audited in the resume's report.
  EXPECT_EQ(report.checkpoint_dropped_blocks, 1u);

  // Third run: the resumed checkpoint now holds every record (half from
  // the first sweep, half appended after the torn line was closed) and a
  // fresh sweep recomputes nothing.
  const Testbed replay(ecosystem, resume_options);
  const auto replayed = replay.Collect();
  EXPECT_EQ(SaveRecords(replayed), expected_bytes);
  EXPECT_EQ(replay.run_report().apps_from_checkpoint, expected.size());
  EXPECT_EQ(replay.run_report().checkpoint_appends, 0u);

  std::remove(full_path.c_str());
  std::remove(partial_path.c_str());
}

// The checkpoint loader itself: round-trip, torn tails, corrupt blocks.
TEST(Checkpoint, LoaderDropsTornAndCorruptBlocks) {
  AppRecord record;
  record.name = "app-a";
  record.labels.app = "app-a";
  record.labels.total = 3;
  record.labels.max_score = 7.5;
  record.features.Set("loc.code", 100.0);
  record.features.Set("mccabe.total", 0.1234567890123456789);
  AppRecord other = record;
  other.name = "app-b";
  other.labels.app = "app-b";

  const std::string block_a = SaveCheckpointRecord(record);
  const std::string block_b = SaveCheckpointRecord(other);

  // Clean round-trip preserves doubles exactly.
  CheckpointLoadStats stats;
  auto loaded = LoadCheckpoint(block_a + block_b, &stats);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(stats.complete_records, 2u);
  EXPECT_EQ(stats.dropped_blocks, 0u);
  EXPECT_EQ(loaded[0].features.Get("mccabe.total"),
            record.features.Get("mccabe.total"));
  EXPECT_EQ(SaveRecords(loaded), SaveRecords({record, other}));

  // Torn tail: the partial block is dropped, the complete one survives.
  loaded = LoadCheckpoint(block_a + block_b.substr(0, block_b.size() / 2), &stats);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].name, "app-a");
  EXPECT_EQ(stats.dropped_blocks, 1u);

  // Orphan block without a crc followed by a good block: orphan dropped.
  loaded = LoadCheckpoint("[app]\nname=torn\n" + block_b, &stats);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].name, "app-b");
  EXPECT_EQ(stats.dropped_blocks, 1u);

  // Bit-flipped payload: crc mismatch, block dropped, no crash.
  std::string corrupt = block_a;
  corrupt[corrupt.find("100") + 1] = '7';
  loaded = LoadCheckpoint(corrupt + block_b, &stats);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].name, "app-b");
  EXPECT_EQ(stats.dropped_blocks, 1u);

  // Unreadable garbage degrades to an empty resume set.
  loaded = LoadCheckpoint("complete garbage\nnot a checkpoint\n", &stats);
  EXPECT_TRUE(loaded.empty());
}

// run_report() sanity on a clean sweep: attempts line up with the deep
// budget, nothing failed, and the fold over records agrees.
TEST(RunReportTest, CleanSweepAccounting) {
  const corpus::EcosystemGenerator ecosystem(SmallCorpus());
  const Testbed testbed(ecosystem, SmallTestbed());
  const auto records = testbed.Collect();
  const RunReport report = testbed.run_report();
  EXPECT_EQ(report.apps_total, records.size());
  EXPECT_EQ(report.TotalDegraded(), 0u);
  EXPECT_EQ(report.TotalFailures(), SummarizeRecordRobustness(records).TotalFailures());
  ASSERT_TRUE(report.stages.count("parse"));
  // One parse attempt per deep-budget slot actually consumed (apps without
  // MiniC files consume none), none retried.
  double deep_files = 0.0;
  for (const auto& record : records) {
    deep_files += record.features.Get("deep.files_attempted");
  }
  EXPECT_EQ(report.stages.at("parse").attempts, static_cast<uint64_t>(deep_files));
  EXPECT_EQ(report.stages.at("parse").failures, 0u);
  // The table renders every active stage plus the sweep totals.
  const std::string table = report.ToString();
  EXPECT_NE(table.find("parse"), std::string::npos);
  EXPECT_NE(table.find("apps="), std::string::npos);
}

// Merge is how the shard coordinator folds per-worker reports into one
// fleet report: stage maps union, counters sum, and a poisoned counter
// saturates at UINT64_MAX instead of wrapping into a small lie.
TEST(RunReportTest, MergeUnionsStagesAndSaturates) {
  RunReport left;
  left.stages["parse"].attempts = 10;
  left.stages["parse"].failures = 2;
  left.stages["parse"].wall_seconds = 1.5;
  left.apps_total = 6;
  left.checkpoint_dropped_blocks = UINT64_MAX - 1;

  RunReport right;
  right.stages["parse"].attempts = 5;
  right.stages["parse"].failures = UINT64_MAX;  // Poisoned input.
  right.stages["parse"].wall_seconds = 0.5;
  right.stages["dynamic"].attempts = 3;
  right.apps_total = 8;
  right.checkpoint_dropped_blocks = 7;

  left.Merge(right);
  ASSERT_EQ(left.stages.size(), 2u);
  EXPECT_EQ(left.stages.at("parse").attempts, 15u);
  EXPECT_EQ(left.stages.at("parse").failures, UINT64_MAX);  // Clamped.
  EXPECT_DOUBLE_EQ(left.stages.at("parse").wall_seconds, 2.0);
  EXPECT_EQ(left.stages.at("dynamic").attempts, 3u);
  EXPECT_EQ(left.apps_total, 14u);
  EXPECT_EQ(left.checkpoint_dropped_blocks, UINT64_MAX);  // Clamped.
}

// The report's text round-trip is how a shard worker ships its taxonomy
// across the process boundary; every counter must survive exactly.
TEST(RunReportTest, SaveLoadRoundTrip) {
  RunReport report;
  report.stages["parse"].attempts = 42;
  report.stages["parse"].failures = 3;
  report.stages["parse"].injected = 2;
  report.stages["parse"].timeouts = 1;
  report.stages["parse"].retries = 4;
  report.stages["parse"].recovered = 2;
  report.stages["parse"].degraded = 1;
  report.stages["parse"].wall_seconds = 0.1234567890123456789;
  report.stages["symexec"].attempts = 7;
  report.apps_total = 14;
  report.apps_from_checkpoint = 5;
  report.rows_from_cache = 2;
  report.checkpoint_appends = 9;
  report.cache_misses = 11;
  report.cache_entries = 4;
  report.cache_coalesced_fills = 1;
  report.cache_integrity_rejects = 1;
  report.checkpoint_dropped_blocks = 3;

  const std::string text = SaveRunReport(report);
  const auto loaded = LoadRunReport(text);
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  EXPECT_EQ(SaveRunReport(loaded.value()), text);  // Fixed point.
  EXPECT_EQ(loaded.value().stages.at("parse").attempts, 42u);
  EXPECT_EQ(loaded.value().stages.at("parse").wall_seconds,
            report.stages.at("parse").wall_seconds);
  EXPECT_EQ(loaded.value().checkpoint_dropped_blocks, 3u);

  EXPECT_FALSE(LoadRunReport("no header here\n").ok());
  EXPECT_FALSE(LoadRunReport("[run_report]\napps_total=notanumber\n").ok());
}

}  // namespace
}  // namespace clair
