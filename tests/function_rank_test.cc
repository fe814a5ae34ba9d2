// Function-granular label model and ranking collection: generator profiles
// carry the hazard truth without perturbing the corpus text, CVE attribution
// is deterministic and hazard-concentrated, and CollectFunctionRows produces
// a byte-identical store file at any worker count.
#include "src/clair/function_rank.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/clair/testbed.h"
#include "src/corpus/codegen.h"
#include "src/corpus/ecosystem.h"
#include "src/metrics/extract.h"
#include "src/ml/tree.h"
#include "src/support/rng.h"
#include "src/support/scratch_dir.h"

namespace {

corpus::EcosystemGenerator SmallEcosystem() {
  corpus::CorpusOptions options;
  options.mature_apps = 12;
  options.immature_apps = 2;
  options.size_scale = 0.01;
  return corpus::EcosystemGenerator(options);
}

// Per-process scratch directory: this binary's CLAIR_THREADS twin runs
// concurrently under `ctest -j`, so fixed names would collide.
const support::ScratchDir& Scratch() {
  static const support::ScratchDir dir("function_rank_test");
  return dir;
}

std::string TempPath(const char* name) { return Scratch().File(name); }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(FunctionProfiles, ProfilingDoesNotPerturbGeneratedText) {
  corpus::AppStyle style;
  style.unsafety = 0.8;
  style.taintiness = 0.7;
  support::Rng rng_plain(99);
  support::Rng rng_profiled(99);
  const std::string plain = corpus::GenerateMiniCFile(rng_plain, style, 400);
  const auto profiled = corpus::GenerateMiniCFileProfiled(rng_profiled, style, 400);
  EXPECT_EQ(plain, profiled.text);
  EXPECT_FALSE(profiled.functions.empty());
  // Same RNG state afterwards too: the streams stayed in lockstep.
  EXPECT_EQ(rng_plain.NextU64(), rng_profiled.NextU64());
  // An unsafe, tainted style must surface hazard mass somewhere.
  double total_hazard = 0.0;
  int total_lines = 0;
  for (const auto& fn : profiled.functions) {
    EXPECT_FALSE(fn.name.empty());
    EXPECT_GT(fn.lines, 0);
    total_lines += fn.lines;
    total_hazard += fn.HazardWeight();
  }
  EXPECT_GT(total_hazard, 0.0);
  EXPECT_LE(total_lines, static_cast<int>(plain.size()));
}

TEST(FunctionProfiles, ProfiledSourcesMatchUnprofiledByteForByte) {
  const auto ecosystem = SmallEcosystem();
  for (const auto& spec : ecosystem.specs()) {
    const auto plain = ecosystem.GenerateSources(spec);
    const auto profiled = ecosystem.GenerateSourcesProfiled(spec);
    ASSERT_EQ(plain.size(), profiled.size());
    for (size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(plain[i].path, profiled[i].file.path);
      EXPECT_EQ(plain[i].text, profiled[i].file.text);
    }
  }
}

TEST(CveAttribution, DeterministicAndConservesCveCount) {
  const auto ecosystem = SmallEcosystem();
  bool saw_c_family = false;
  for (const auto& spec : ecosystem.specs()) {
    const auto files = ecosystem.GenerateSourcesProfiled(spec);
    const auto first = ecosystem.AttributeCves(spec, files);
    const auto second = ecosystem.AttributeCves(spec, files);
    EXPECT_EQ(first, second);
    if (first.empty()) {
      continue;
    }
    saw_c_family = true;
    int total = 0;
    for (const auto& [key, count] : first) {
      EXPECT_GT(count, 0);
      // Keys name real functions of real files.
      const auto sep = key.find("::");
      ASSERT_NE(sep, std::string::npos);
      total += count;
    }
    EXPECT_EQ(total, spec.vuln_count);
  }
  EXPECT_TRUE(saw_c_family);
}

TEST(CveAttribution, ConcentratesOnHazardousFunctions) {
  // Across the corpus, the mean hazard weight of attributed functions must
  // exceed the mean over all functions — the label model is hazard-driven.
  const auto ecosystem = SmallEcosystem();
  double hazard_attributed = 0.0;
  size_t n_attributed = 0;
  double hazard_all = 0.0;
  size_t n_all = 0;
  for (const auto& spec : ecosystem.specs()) {
    const auto files = ecosystem.GenerateSourcesProfiled(spec);
    const auto attribution = ecosystem.AttributeCves(spec, files);
    for (const auto& entry : files) {
      for (const auto& fn : entry.functions) {
        hazard_all += fn.HazardWeight();
        ++n_all;
        if (attribution.count(entry.file.path + "::" + fn.name) > 0) {
          hazard_attributed += fn.HazardWeight();
          ++n_attributed;
        }
      }
    }
  }
  ASSERT_GT(n_attributed, 0u);
  ASSERT_GT(n_all, n_attributed);
  EXPECT_GT(hazard_attributed / static_cast<double>(n_attributed),
            hazard_all / static_cast<double>(n_all));
}

TEST(CollectFunctionRows, StoreFileByteIdenticalAcrossThreadCounts) {
  const auto ecosystem = SmallEcosystem();
  const std::vector<std::string> feature_names = metrics::FunctionFeatureNames();
  ml::FeatureStoreOptions store_options;
  store_options.chunk_rows = 256;
  std::string bytes_serial;
  clair::FunctionCorpusStats stats_serial;
  {
    const std::string path = TempPath("rows_t1.clfs");
    auto writer = ml::FeatureStoreWriter::Create(path, feature_names,
                                                 clair::FunctionClassNames(),
                                                 store_options);
    ASSERT_TRUE(writer.ok());
    clair::FunctionRankOptions options;
    options.threads = 1;
    options.wave_apps = 3;
    auto stats = clair::CollectFunctionRows(ecosystem, options, *writer.value());
    ASSERT_TRUE(stats.ok());
    stats_serial = stats.value();
    ASSERT_TRUE(writer.value()->Finish().ok());
    bytes_serial = ReadFile(path);
  }
  {
    const std::string path = TempPath("rows_t4.clfs");
    auto writer = ml::FeatureStoreWriter::Create(path, feature_names,
                                                 clair::FunctionClassNames(),
                                                 store_options);
    ASSERT_TRUE(writer.ok());
    clair::FunctionRankOptions options;
    options.threads = 4;
    options.wave_apps = 5;  // Different wave split too: order must not change.
    auto stats = clair::CollectFunctionRows(ecosystem, options, *writer.value());
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().functions, stats_serial.functions);
    EXPECT_EQ(stats.value().positives, stats_serial.positives);
    EXPECT_EQ(stats.value().apps, stats_serial.apps);
    ASSERT_TRUE(writer.value()->Finish().ok());
    EXPECT_EQ(ReadFile(path), bytes_serial);
  }
  EXPECT_GT(stats_serial.functions, 0u);
  EXPECT_GT(stats_serial.positives, 0u);
  EXPECT_LT(stats_serial.positives, stats_serial.functions);
}

TEST(CollectFunctionRows, TestbedWrapperEndToEndRanking) {
  // The whole loop: testbed streams rows -> store -> streamed forest ->
  // top-K ranking against the latent truth. Ranking must beat the random
  // baseline (positives/n) at K=50 — the features recover the hazard.
  const auto ecosystem = SmallEcosystem();
  const std::string path = TempPath("rank_e2e.clfs");
  auto writer = ml::FeatureStoreWriter::Create(
      path, metrics::FunctionFeatureNames(), clair::FunctionClassNames());
  ASSERT_TRUE(writer.ok());
  clair::TestbedOptions testbed_options;
  testbed_options.threads = 2;
  const clair::Testbed testbed(ecosystem, testbed_options);
  auto stats = testbed.CollectFunctionRows(*writer.value());
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(writer.value()->Finish().ok());

  auto store = ml::FeatureStore::Open(path);
  ASSERT_TRUE(store.ok());
  ASSERT_EQ(store.value().num_rows(), stats.value().functions);
  ASSERT_TRUE(store.value().has_codes());

  ml::ForestOptions forest_options;
  forest_options.num_trees = 16;
  forest_options.seed = 2017;
  ml::RandomForestClassifier forest(forest_options);
  forest.TrainStreaming(store.value());

  const std::vector<size_t> ks = {10, 50};
  const auto ranking = clair::EvaluateRanking(forest, store.value(), ks);
  ASSERT_EQ(ranking.size(), 2u);
  const double base_rate = static_cast<double>(stats.value().positives) /
                           static_cast<double>(stats.value().functions);
  EXPECT_GT(ranking[1].precision, base_rate);
  EXPECT_GT(ranking[0].hits, 0u);
}

}  // namespace
