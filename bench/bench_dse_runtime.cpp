// §4 claims: design-space-exploration cost.
//   * brute force over one AlexNet conv layer: ~311 CPU-hours (paper);
//   * pruned phase 1: < 30 seconds;
//   * Eq. 12 (c_s = 80%) shrinks the mapping/shape space (160K -> 64K in the
//     paper's counting);
//   * pow2 middle-bound pruning: 17.5x average search-space saving.
//
// google-benchmark measures the pruned phase-1 wall time directly; the
// brute-force cost is reported as the analytically counted design-point
// ratio (running it for real is exactly the 300-hour experiment the paper
// declines to repeat, and so do we).
//
// The parallel-sweep section times the AlexNet phase-1 sweep at several
// worker counts, checks the top-K output is bit-identical at every count,
// and writes BENCH_dse_runtime.json so CI can track the perf trajectory.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/dse.h"
#include "loopnest/conv_nest.h"
#include "nn/network.h"
#include "serve/sweep_cache.h"
#include "util/thread_pool.h"

namespace {

using namespace sasynth;

void BM_Phase1AlexNetConv5(benchmark::State& state) {
  const LoopNest nest = build_conv_nest(alexnet_conv5());
  DseOptions options;
  options.min_dsp_util = 0.80;
  options.jobs = static_cast<int>(state.range(0));
  const DesignSpaceExplorer explorer(arria10_gt1150(), DataType::kFloat32,
                                     options);
  for (auto _ : state) {
    DseStats stats;
    benchmark::DoNotOptimize(explorer.enumerate_phase1(nest, &stats));
  }
}
BENCHMARK(BM_Phase1AlexNetConv5)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(1)
    ->Arg(0);  // 0 = SASYNTH_JOBS env / all cores

void BM_BestReuseSingleShape(benchmark::State& state) {
  const LoopNest nest = build_conv_nest(alexnet_conv5());
  DseOptions options;
  const DesignSpaceExplorer explorer(arria10_gt1150(), DataType::kFloat32,
                                     options);
  const SystolicMapping mapping{ConvLoops::kO, ConvLoops::kC, ConvLoops::kI};
  for (auto _ : state) {
    DesignPoint design;
    benchmark::DoNotOptimize(explorer.best_reuse_strategy(
        nest, mapping, ArrayShape{11, 13, 8}, &design, nullptr));
  }
}
BENCHMARK(BM_BestReuseSingleShape)->Unit(benchmark::kMicrosecond);

void BM_FeasibleMappingEnumeration(benchmark::State& state) {
  const LoopNest nest = build_conv_nest(alexnet_conv5());
  const ReuseMatrix reuse = analyze_reuse(nest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerate_feasible_mappings(nest, reuse));
  }
}
BENCHMARK(BM_FeasibleMappingEnumeration)->Unit(benchmark::kMicrosecond);

void report_space_reduction() {
  const LoopNest nest = build_conv_nest(alexnet_conv5());
  std::printf("\n--- §4 search-space reduction (AlexNet conv5, fp32) ---\n");
  for (const double cs : {0.0, 0.5, 0.8, 0.9}) {
    DseOptions options;
    options.min_dsp_util = cs;
    const DesignSpaceExplorer explorer(arria10_gt1150(), DataType::kFloat32,
                                       options);
    DseStats stats;
    (void)explorer.enumerate_phase1(nest, &stats);
    std::printf(
        "c_s=%.0f%%: shapes %lld -> %lld; reuse space pow2 %lld vs "
        "brute-force %lld (%.1fx saving); phase1 %.2fs\n",
        cs * 100.0, static_cast<long long>(stats.shapes_considered),
        static_cast<long long>(stats.shapes_after_prune),
        static_cast<long long>(stats.reuse_space_pow2),
        static_cast<long long>(stats.reuse_space_bruteforce),
        static_cast<double>(stats.reuse_space_bruteforce) /
            static_cast<double>(stats.reuse_space_pow2),
        stats.phase1_seconds);
  }
  std::printf(
      "paper: 160K -> 64K mappings at c_s=80%%; 17.5x avg reuse-search "
      "saving; brute force ~311 h vs phase 1 < 30 s.\n\n");
}

/// Deduplicated conv layers (repeated inception branches collapse, so the
/// exhaustive baseline costs what it must and no more).
std::vector<ConvLayerDesc> unique_layers(const Network& net) {
  std::vector<ConvLayerDesc> out;
  std::set<std::string> seen;
  for (const ConvLayerDesc& layer : net.layers) {
    const std::string key =
        std::to_string(layer.in_maps) + "," + std::to_string(layer.out_maps) +
        "," + std::to_string(layer.out_rows) + "," +
        std::to_string(layer.out_cols) + "," + std::to_string(layer.kernel) +
        "," + std::to_string(layer.stride) + "," +
        std::to_string(layer.groups);
    if (seen.insert(key).second) out.push_back(layer);
  }
  return out;
}

struct PruneRun {
  double seconds = 0.0;
  std::int64_t evals = 0;         ///< reuse_evaluated + corner-bound evals
  std::int64_t items_pruned = 0;
  std::vector<std::vector<DseCandidate>> per_layer;
};

PruneRun run_network_phase1(const std::vector<ConvLayerDesc>& layers,
                            bool prune, int jobs, SweepMemo* memo) {
  PruneRun run;
  for (const ConvLayerDesc& layer : layers) {
    const LoopNest nest = build_conv_nest(layer);
    DseOptions options;
    options.min_dsp_util = 0.80;
    options.jobs = jobs;
    options.bound_prune = prune;
    options.sweep_memo = memo;
    const DesignSpaceExplorer explorer(arria10_gt1150(), DataType::kFloat32,
                                       options);
    DseStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    run.per_layer.push_back(explorer.enumerate_phase1(nest, &stats));
    run.seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    run.evals += stats.reuse_evaluated + stats.reuse_bound_evals;
    run.items_pruned += stats.items_pruned_bound;
  }
  return run;
}

bool topk_identical(const PruneRun& exhaustive, const PruneRun& pruned,
                    std::size_t top_k) {
  if (exhaustive.per_layer.size() != pruned.per_layer.size()) return false;
  for (std::size_t l = 0; l < exhaustive.per_layer.size(); ++l) {
    const std::vector<DseCandidate>& ex = exhaustive.per_layer[l];
    const std::vector<DseCandidate>& pr = pruned.per_layer[l];
    const std::size_t k = std::min(top_k, std::min(ex.size(), pr.size()));
    if (pr.size() < std::min(top_k, ex.size())) return false;
    for (std::size_t i = 0; i < k; ++i) {
      if (!(ex[i].design == pr[i].design) ||
          ex[i].estimate.throughput_gops != pr[i].estimate.throughput_gops) {
        return false;
      }
    }
  }
  return true;
}

/// Exhaustive-vs-pruned differential per bundled network: wall time, model
/// evaluations, and the bit-identity of the surviving top-K. Exits nonzero
/// when a gate fails:
///   * pruned may never evaluate more reuse strategies than exhaustive
///     (corner-bound overhead included);
///   * cold AlexNet at jobs=1 must prune >= 10x (the PR's acceptance
///     number; measured ~200x);
///   * the top-K must match bit for bit on every layer.
/// The warm row reruns AlexNet with a SweepCache carried over from the cold
/// pruned run (the incremental-DSE tier; stretch target 100x vs exhaustive).
std::string report_prune_speedup() {
  std::printf("--- branch-and-bound pruning vs exhaustive sweep ---\n");
  std::string json;
  bool gates_ok = true;
  double alexnet_cold_speedup = 0.0;
  for (const char* name : {"alexnet", "vgg16", "googlenet"}) {
    const bool is_alexnet = std::string(name) == "alexnet";
    const Network net = is_alexnet                    ? make_alexnet()
                        : std::string(name) == "vgg16" ? make_vgg16()
                                                        : make_googlenet();
    // AlexNet runs serial (the acceptance gate is defined at jobs=1); the
    // larger networks use every core to keep the bench turnaround sane —
    // the evals gate is jobs-invariant either way.
    const int jobs = is_alexnet ? 1 : 0;
    const std::vector<ConvLayerDesc> layers = unique_layers(net);
    const PruneRun exhaustive =
        run_network_phase1(layers, /*prune=*/false, jobs, nullptr);
    const PruneRun pruned =
        run_network_phase1(layers, /*prune=*/true, jobs, nullptr);
    const bool identical = topk_identical(exhaustive, pruned, 14);
    const double speedup = exhaustive.seconds / pruned.seconds;
    if (is_alexnet) alexnet_cold_speedup = speedup;
    std::printf(
        "%-10s (%zu uniq layers, jobs=%d): exhaustive %.2fs (%lld evals), "
        "pruned %.2fs (%lld evals, %lld items pruned), speedup %.1fx, "
        "top-K %s\n",
        name, layers.size(), jobs, exhaustive.seconds,
        static_cast<long long>(exhaustive.evals), pruned.seconds,
        static_cast<long long>(pruned.evals),
        static_cast<long long>(pruned.items_pruned), speedup,
        identical ? "identical" : "DIVERGED");
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "  {\"network\": \"%s\", \"jobs\": %d, "
        "\"exhaustive_seconds\": %.6f, \"exhaustive_evals\": %lld, "
        "\"pruned_seconds\": %.6f, \"pruned_evals\": %lld, "
        "\"items_pruned\": %lld, \"speedup\": %.2f, \"identical\": %s},\n",
        name, jobs, exhaustive.seconds,
        static_cast<long long>(exhaustive.evals), pruned.seconds,
        static_cast<long long>(pruned.evals),
        static_cast<long long>(pruned.items_pruned), speedup,
        identical ? "true" : "false");
    json += line;
    if (!identical) {
      std::printf("ERROR: pruned top-K diverged from exhaustive on %s\n",
                  name);
      gates_ok = false;
    }
    if (pruned.evals > exhaustive.evals) {
      std::printf(
          "ERROR: pruned sweep evaluated more candidates than exhaustive on "
          "%s (%lld > %lld)\n",
          name, static_cast<long long>(pruned.evals),
          static_cast<long long>(exhaustive.evals));
      gates_ok = false;
    }
    // Warm incremental rerun: same layers with the sweep cache populated by
    // a first pruned pass, which replays the floor-seeding DFS runs.
    if (is_alexnet) {
      SweepCache cache(1 << 16);
      (void)run_network_phase1(layers, /*prune=*/true, jobs, &cache);
      const PruneRun warm =
          run_network_phase1(layers, /*prune=*/true, jobs, &cache);
      const bool warm_identical = topk_identical(exhaustive, warm, 14);
      const double warm_speedup = exhaustive.seconds / warm.seconds;
      std::printf(
          "%-10s warm sweep-cache rerun: %.2fs (%lld evals), %.1fx vs "
          "exhaustive, top-K %s\n",
          name, warm.seconds, static_cast<long long>(warm.evals),
          warm_speedup, warm_identical ? "identical" : "DIVERGED");
      std::snprintf(
          line, sizeof(line),
          "  {\"network\": \"%s_warm\", \"jobs\": %d, "
          "\"pruned_seconds\": %.6f, \"pruned_evals\": %lld, "
          "\"speedup\": %.2f, \"identical\": %s},\n",
          name, jobs, warm.seconds, static_cast<long long>(warm.evals),
          warm_speedup, warm_identical ? "true" : "false");
      json += line;
      gates_ok = gates_ok && warm_identical;
    }
  }
  if (alexnet_cold_speedup < 10.0) {
    std::printf("ERROR: cold AlexNet jobs=1 prune speedup %.1fx < 10x gate\n",
                alexnet_cold_speedup);
    gates_ok = false;
  }
  if (!gates_ok) std::exit(1);
  std::printf("\n");
  return json;
}

/// One jobs setting over the full AlexNet conv sweep: every layer explored
/// end to end, phase-1 wall time summed from DseStats.
struct SweepRun {
  int jobs_requested = 0;
  int jobs_used = 0;
  double phase1_seconds = 0.0;
  std::vector<DseResult> results;  ///< per layer, for the identity check
};

SweepRun run_alexnet_sweep(int jobs) {
  const Network net = make_alexnet();
  DseOptions options;
  options.min_dsp_util = 0.80;
  options.jobs = jobs;
  const DesignSpaceExplorer explorer(arria10_gt1150(), DataType::kFloat32,
                                     options);
  SweepRun run;
  run.jobs_requested = jobs;
  for (const ConvLayerDesc& layer : net.layers) {
    DseResult result = explorer.explore_layer(layer);
    run.phase1_seconds += result.stats.phase1_seconds;
    run.jobs_used = result.stats.jobs_used;
    run.results.push_back(std::move(result));
  }
  return run;
}

/// Bit-identical comparison of two sweep outputs (designs, order, and the
/// floating-point estimates, compared with ==, not a tolerance).
bool sweeps_identical(const SweepRun& a, const SweepRun& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t l = 0; l < a.results.size(); ++l) {
    const std::vector<DseCandidate>& ta = a.results[l].top;
    const std::vector<DseCandidate>& tb = b.results[l].top;
    if (ta.size() != tb.size()) return false;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      if (!(ta[i].design == tb[i].design)) return false;
      if (ta[i].estimate.throughput_gops != tb[i].estimate.throughput_gops ||
          ta[i].realized_freq_mhz != tb[i].realized_freq_mhz ||
          ta[i].realized.throughput_gops != tb[i].realized.throughput_gops) {
        return false;
      }
    }
  }
  return true;
}

void report_parallel_speedup(int jobs_flag, const std::string& prune_json) {
  std::printf("--- phase-1 parallel sweep (AlexNet, all conv layers) ---\n");
  std::vector<int> settings = {1, 2, 4, 8};
  if (jobs_flag > 0) settings.push_back(jobs_flag);

  std::vector<SweepRun> runs;
  for (const int jobs : settings) runs.push_back(run_alexnet_sweep(jobs));
  const double serial = runs.front().phase1_seconds;

  std::string json = "[\n" + prune_json;
  bool all_identical = true;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SweepRun& run = runs[i];
    const double speedup = serial / run.phase1_seconds;
    const bool identical = sweeps_identical(runs.front(), run);
    all_identical = all_identical && identical;
    std::printf("jobs=%d (used %d): phase1 %.3fs, speedup %.2fx, top-K %s\n",
                run.jobs_requested, run.jobs_used, run.phase1_seconds, speedup,
                identical ? "identical" : "DIVERGED");
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  {\"layer\": \"alexnet\", \"jobs\": %d, \"jobs_used\": %d, "
                  "\"phase1_seconds\": %.6f, \"speedup\": %.4f, "
                  "\"identical\": %s}%s\n",
                  run.jobs_requested, run.jobs_used, run.phase1_seconds,
                  speedup, identical ? "true" : "false",
                  i + 1 < runs.size() ? "," : "");
    json += line;
  }
  json += "]\n";

  std::FILE* out = std::fopen("BENCH_dse_runtime.json", "w");
  if (out != nullptr) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("wrote BENCH_dse_runtime.json\n");
  }
  if (!all_identical) {
    std::printf("ERROR: parallel sweep output diverged from jobs=1\n");
    std::exit(1);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs_flag = sasynth::bench::parse_jobs_flag(argc, argv);
  report_space_reduction();
  const std::string prune_json = report_prune_speedup();
  report_parallel_speedup(jobs_flag, prune_json);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
