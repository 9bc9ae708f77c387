// Observability overhead gate: the instrumented DSE with metrics + tracing
// fully enabled must stay within 2% of the disabled-path wall time, and the
// explored designs must be byte-identical with observability on or off, at
// jobs 1 and jobs 4 — metrics never feed back into the search.
//
// Measures min-of-N (the repeatable lower envelope; means soak up scheduler
// noise) over a mid-size conv layer, alternating the two modes run by run so
// that a slow window of the host slows both alike, and emits
// BENCH_obs_overhead.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/dse.h"
#include "fpga/device.h"
#include "loopnest/conv_nest.h"
#include "nn/layer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace {

using namespace sasynth;

constexpr int kRepeats = 41;  ///< runs per mode
constexpr double kOverheadLimitPct = 2.0;

/// Byte-stable serialization of an exploration result: every top design plus
/// its realized numbers, printed with round-trip precision.
std::string result_signature(const LoopNest& nest, const DseResult& result) {
  std::string sig;
  for (const DseCandidate& c : result.top) {
    sig += c.design.to_string(nest);
    sig += strformat(" est=%.17g realized=%.17g freq=%.17g\n",
                     c.estimated_gops(), c.realized_gops(),
                     c.realized_freq_mhz);
  }
  return sig;
}

DseResult run_once(const LoopNest& nest, int jobs) {
  DseOptions options;
  options.jobs = jobs;
  const DesignSpaceExplorer explorer(arria10_gt1150(), DataType::kFloat32,
                                     options);
  return explorer.explore(nest);
}

void set_obs_enabled(bool enabled) {
  obs::set_metrics_enabled(enabled);
  obs::set_trace_enabled(enabled);
}

/// Min-of-kRepeats wall time of each mode, observability off and on in
/// alternation.
struct MinWall {
  double disabled_ms = 1e300;
  double enabled_ms = 1e300;
};
MinWall alternating_min_wall_ms(const LoopNest& nest, int jobs) {
  MinWall out;
  for (int r = 0; r < kRepeats; ++r) {
    for (const bool enabled : {false, true}) {
      set_obs_enabled(enabled);
      const double ms =
          bench::timed_ms("bench.dse_explore", [&] { run_once(nest, jobs); });
      double& best = enabled ? out.enabled_ms : out.disabled_ms;
      best = std::min(best, ms);
    }
  }
  set_obs_enabled(false);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs_flag = bench::parse_jobs_flag(argc, argv);
  const int jobs = jobs_flag > 0 ? jobs_flag : 4;
  bench::print_header("Observability overhead: instrumented vs disabled DSE",
                      "PR 3 acceptance (<2% overhead, identical results)");

  // AlexNet conv3-sized layer: 1-3 ms of branch-and-bound DSE per run on a
  // 4-vCPU host.
  ConvLayerDesc layer;
  layer.name = "conv3";
  layer.in_maps = 256;
  layer.out_maps = 384;
  layer.out_rows = 13;
  layer.out_cols = 13;
  layer.kernel = 3;
  const LoopNest nest = build_conv_nest(layer);

  // Determinism gate first (cheap relative to the timing loops): the result
  // signature must not move when observability turns on, at either jobs
  // count, and must agree across jobs counts (the PR 1 invariant).
  set_obs_enabled(false);
  const std::string off_j1 = result_signature(nest, run_once(nest, 1));
  const std::string off_j4 = result_signature(nest, run_once(nest, 4));
  set_obs_enabled(true);
  const std::string on_j1 = result_signature(nest, run_once(nest, 1));
  const std::string on_j4 = result_signature(nest, run_once(nest, 4));
  const bool identical =
      !off_j1.empty() && off_j1 == on_j1 && off_j4 == on_j4 && off_j1 == off_j4;
  std::printf("results identical (obs on/off, jobs 1/4): %s\n",
              identical ? "yes" : "NO");

  const MinWall wall = alternating_min_wall_ms(nest, jobs);
  const double disabled_ms = wall.disabled_ms;
  const double enabled_ms = wall.enabled_ms;

  const double overhead_pct = (enabled_ms / disabled_ms - 1.0) * 100.0;
  std::printf(
      "jobs %d, min of %d alternating runs each: disabled %.3f ms, "
      "enabled %.3f ms, overhead %.2f%% (limit %.1f%%)\n",
      jobs, kRepeats, disabled_ms, enabled_ms, overhead_pct,
      kOverheadLimitPct);

  std::FILE* out = std::fopen("BENCH_obs_overhead.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\"layer\": \"%s\", \"jobs\": %d, \"repeats\": %d, "
                 "\"disabled_ms\": %.4f, \"enabled_ms\": %.4f, "
                 "\"overhead_pct\": %.4f, \"limit_pct\": %.1f, "
                 "\"identical\": %s}\n",
                 layer.name.c_str(), jobs, kRepeats, disabled_ms, enabled_ms,
                 overhead_pct, kOverheadLimitPct, identical ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_obs_overhead.json\n");
  }

  if (!identical) {
    std::printf("ERROR: observability perturbed the DSE result\n");
    return 1;
  }
  if (overhead_pct > kOverheadLimitPct) {
    std::printf("ERROR: overhead %.2f%% exceeds %.1f%%\n", overhead_pct,
                kOverheadLimitPct);
    return 1;
  }
  return 0;
}
