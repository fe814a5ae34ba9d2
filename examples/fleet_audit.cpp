// Whole-system evaluation (§5.3 future work): assess a deployment made of
// several components — a network-facing frontend, an internal worker, and a
// privileged updater — and identify the weakest link.
//
// The corpus sweep here runs as a supervised worker fleet: the app corpus
// is sharded by content hash, each shard is swept by a real forked
// subprocess (this binary re-exec'd through ShardWorkerMain), heartbeats
// renew per-shard leases, and the coordinator merges the shard checkpoints
// into one dataset that is byte-identical to a single-process
// Testbed::Collect — then trains from the merged rows, the
// train-once/ship-the-rows workflow.

#include <cstdio>

#include "src/clair/serialize.h"
#include "src/clair/shard.h"
#include "src/clair/shard_worker.h"
#include "src/clair/system.h"
#include "src/corpus/codegen.h"
#include "src/corpus/ecosystem.h"
#include "src/support/scratch_dir.h"
#include "src/support/thread_pool.h"

namespace {

// Shared between coordinator and re-exec'd workers: a fork/exec worker
// rebuilds the exact ecosystem + testbed config from this code instead of
// deserializing it.
corpus::CorpusOptions FleetCorpus() {
  corpus::CorpusOptions options;
  options.mature_apps = 48;
  options.immature_apps = 8;
  options.size_scale = 0.01;
  return options;
}

clair::TestbedOptions FleetTestbed() {
  clair::TestbedOptions options;
  options.deep_analysis_max_files = 1;
  return options;
}

std::vector<metrics::SourceFile> MakeComponent(const char* name, uint64_t seed,
                                               double unsafety, double taintiness) {
  support::Rng rng(seed);
  corpus::AppStyle style;
  style.unsafety = unsafety;
  style.taintiness = taintiness;
  metrics::SourceFile file;
  file.path = std::string(name) + "/main.c";
  file.language = metrics::Language::kMiniC;
  file.text = corpus::GenerateMiniCFile(rng, style, 500);
  return {file};
}

}  // namespace

int main(int argc, char** argv) {
  const corpus::EcosystemGenerator ecosystem(FleetCorpus());
  // Worker mode: when the coordinator below forks+execs this binary with
  // --clair-shard-worker=<task>, it becomes a shard worker and exits here.
  if (const int worker_exit =
          clair::ShardWorkerMain(argc, argv, ecosystem, FleetTestbed());
      worker_exit >= 0) {
    return worker_exit;
  }

  clair::ShardSweepOptions sweep;
  sweep.num_shards = 8;
  sweep.num_workers = 3;
  // A private scratch directory per run, so concurrent audits never delete
  // each other's shard checkpoints.
  const support::ScratchDir scratch("fleet_audit_work");
  sweep.work_dir = scratch.path();
  sweep.collect_function_rows = false;  // This audit trains on app rows only.
  sweep.testbed = FleetTestbed();
  // Real subprocesses heartbeat once per app in wall time; size the lease
  // so only a genuinely dead or wedged worker gets its shard stolen.
  sweep.lease_ttl_ticks = 2000;
  std::printf("sweeping %d shards with %d forked workers (lease TTL %d ticks)\n",
              sweep.num_shards, sweep.num_workers, sweep.lease_ttl_ticks);
  clair::ShardCoordinator coordinator(
      ecosystem, sweep,
      std::make_unique<clair::ForkWorkerTransport>("/proc/self/exe",
                                                   sweep.num_workers));
  auto swept = coordinator.Run();
  if (!swept.ok()) {
    std::printf("fleet sweep failed: %s\n", swept.error().ToString().c_str());
    return 1;
  }
  const auto& stats = swept.value().stats;
  std::printf("fleet sweep: %zu apps, %llu generations, %llu crashes, "
              "%llu leases revoked, %llu records healed\n",
              swept.value().records.size(),
              static_cast<unsigned long long>(stats.generations_launched),
              static_cast<unsigned long long>(stats.worker_crashes),
              static_cast<unsigned long long>(stats.leases_revoked),
              static_cast<unsigned long long>(stats.healed_records));

  // Serialize + reload the merged rows — the artefact a team would check in
  // next to its model configs. The merge is deterministic, so these bytes
  // match a 1-process sweep exactly.
  const std::string saved = clair::SaveRecords(swept.value().records);
  std::printf("serialized testbed: %zu apps, %zu bytes\n",
              swept.value().records.size(), saved.size());
  auto reloaded = clair::LoadRecords(saved);
  if (!reloaded.ok()) {
    std::printf("reload failed: %s\n", reloaded.error().ToString().c_str());
    return 1;
  }

  clair::PipelineOptions pipeline_options;
  pipeline_options.cv_folds = 5;
  const clair::TrainingPipeline pipeline(reloaded.value(), pipeline_options);
  const clair::TrainedModel model = pipeline.TrainFinal();
  const clair::Testbed testbed(ecosystem, FleetTestbed());
  const clair::SecurityEvaluator evaluator(model, testbed);
  const clair::SystemEvaluator system(evaluator);

  const clair::SystemReport report = system.Evaluate({
      {"edge-frontend", MakeComponent("edge-frontend", 11, 0.9, 0.9),
       /*network_facing=*/true, /*privileged=*/false},
      {"batch-worker", MakeComponent("batch-worker", 12, 0.4, 0.2),
       /*network_facing=*/false, /*privileged=*/false},
      {"priv-updater", MakeComponent("priv-updater", 13, 0.6, 0.4),
       /*network_facing=*/false, /*privileged=*/true},
  });

  std::printf("\n%s\n", report.ToString().c_str());
  std::printf("=> harden '%s' first: it dominates total system risk.\n",
              report.weakest_link.c_str());
  return 0;
}
