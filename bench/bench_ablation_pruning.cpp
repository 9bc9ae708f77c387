// Ablation of the two §4 pruning devices on a layer small enough to verify
// against unpruned search:
//   1. power-of-two middle bounds vs exhaustive integer bounds — the pruned
//      search must find the same optimal throughput (the §4 optimality
//      argument: throughput is monotone in s, BRAM rounds up to pow2);
//   2. the c_s utilization floor (Eq. 12) — design-space size and best
//      design quality as c_s varies;
//   3. every pruning rule as one table row, with the skipped/spent counts
//      read back from the process-global obs metrics (`.value()` deltas
//      around the workload, the same counters the daemon exports) rather
//      than re-derived from DseStats. Exits 1 when a rule's row reads 0:
//      the workload is chosen so that every rule fires.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/dse.h"
#include "core/mapping.h"
#include "loopnest/conv_nest.h"
#include "loopnest/reuse.h"
#include "nn/network.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "util/table.h"

int main() {
  using namespace sasynth;
  bench::print_header("Ablation - DSE pruning devices",
                      "DAC'17 §4 (Eq. 12 and power-of-two reuse pruning)");

  const ConvLayerDesc layer = make_conv("abl", 32, 24, 12, 3);
  const LoopNest nest = build_conv_nest(layer);
  const FpgaDevice device = tiny_test_device();

  // Part 1: pow2 vs brute-force reuse search, per shape.
  std::printf("Part 1: reuse-strategy search, pow2 pruning vs brute force\n");
  AsciiTable part1;
  part1.row()
      .cell("shape")
      .cell("pow2 best Gops")
      .cell("pow2 evals")
      .cell("brute best Gops")
      .cell("brute evals")
      .cell("optimum kept");
  const SystolicMapping mapping{ConvLoops::kO, ConvLoops::kC, ConvLoops::kI};
  for (const ArrayShape shape :
       {ArrayShape{4, 4, 4}, ArrayShape{6, 3, 2}, ArrayShape{8, 2, 4}}) {
    DseOptions pow2;
    pow2.min_dsp_util = 0.0;
    DseOptions brute = pow2;
    brute.pow2_middle = false;
    const DesignSpaceExplorer e_pow2(device, DataType::kFloat32, pow2);
    const DesignSpaceExplorer e_brute(device, DataType::kFloat32, brute);
    DesignPoint d_pow2;
    DesignPoint d_brute;
    DseStats s_pow2;
    DseStats s_brute;
    if (!e_pow2.best_reuse_strategy(nest, mapping, shape, &d_pow2, &s_pow2) ||
        !e_brute.best_reuse_strategy(nest, mapping, shape, &d_brute,
                                     &s_brute)) {
      continue;
    }
    const double t_pow2 =
        estimate_performance(nest, d_pow2, device, DataType::kFloat32, 280.0)
            .throughput_gops;
    const double t_brute =
        estimate_performance(nest, d_brute, device, DataType::kFloat32, 280.0)
            .throughput_gops;
    part1.row()
        .cell(shape.to_string())
        .cell(t_pow2, 2)
        .cell(s_pow2.reuse_evaluated)
        .cell(t_brute, 2)
        .cell(s_brute.reuse_evaluated)
        .cell(t_pow2 >= t_brute - 1e-6 ? "yes" : "NO");
  }
  part1.print();

  // Part 2: c_s sweep.
  std::printf("\nPart 2: Eq. 12 utilization floor c_s\n");
  AsciiTable part2;
  part2.row()
      .cell("c_s")
      .cell("shapes kept")
      .cell("candidates")
      .cell("best est Gops")
      .cell("phase1 s");
  for (const double cs : {0.0, 0.25, 0.5, 0.75, 0.9}) {
    DseOptions options;
    options.min_dsp_util = cs;
    options.max_rows = 16;
    options.max_cols = 16;
    options.max_vec = 8;
    const DesignSpaceExplorer explorer(device, DataType::kFloat32, options);
    DseStats stats;
    const std::vector<DseCandidate> all =
        explorer.enumerate_phase1(nest, &stats);
    part2.row()
        .cell(cs, 2)
        .cell(stats.shapes_after_prune)
        .cell(static_cast<std::int64_t>(all.size()))
        .cell(all.empty() ? 0.0 : all.front().estimated_gops(), 2)
        .cell(stats.phase1_seconds, 3);
  }
  part2.print();

  // Part 3: one row per pruning rule, read back from the obs registry. The
  // workload is three serve requests on an AlexNet-conv5-sized layer: a cold
  // sweep, an H/W-only-differing sibling (a second cold sweep: the trips
  // differ, so it shares no sweep-cache entry), and a relaxed-c_s retry of
  // the first (sweep-cache replay); then one cold-deploy-shaped request
  // (AlexNet under a 4% BRAM budget) for the unified stage-2 rule. Every
  // count is a before/after delta of the process-global counters the daemon
  // exports — the bench re-derives nothing, so a rule that stops firing
  // shows up here as a zero row.
  std::printf("\nPart 3: per-rule pruning ablation (obs counter deltas)\n");
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  struct Rule {
    const char* label;
    const char* pruned;  // events removed (or replayed) by the rule
    const char* spent;   // extra bound/seed evaluations the rule costs
  };
  const Rule rules[] = {
      {"mapping feasibility (Eq. 2/3)",
       "dse_mappings_pruned_feasibility_total", nullptr},
      {"c_s utilization floor (Eq. 12)", "dse_shapes_pruned_util_total",
       nullptr},
      {"pow2 middle bounds", "dse_reuse_pruned_pow2_total", nullptr},
      {"soft-logic shape check (before the DFS)",
       "dse_candidates_rejected_soft_logic_total", nullptr},
      {"item bound-and-floor skip", "dse_items_pruned_bound_total",
       "dse_bound_seed_evals_total"},
      {"DFS corner-bound subtree skip", "dse_reuse_subtrees_pruned_total",
       "dse_reuse_bound_evals_total"},
      {"DFS incumbent subtree skip", "dse_reuse_incumbent_pruned_total",
       nullptr},
      {"sweep cache replay", "sweep_cache_exact_hits_total", nullptr},
      {"unified stage-2 incumbent skip", "unified_incumbent_pruned_total",
       "unified_bound_evals_total"},
      {"unified leaf early exit", "unified_leaves_early_exit_total", nullptr},
  };
  std::int64_t before_pruned[std::size(rules)];
  std::int64_t before_spent[std::size(rules)];
  for (std::size_t r = 0; r < std::size(rules); ++r) {
    before_pruned[r] = registry.counter(rules[r].pruned).value();
    before_spent[r] =
        rules[r].spent ? registry.counter(rules[r].spent).value() : 0;
  }

  ServeOptions serve_options;
  serve_options.jobs = 1;
  serve_options.cache_enabled = false;  // force every request through DSE
  serve_options.sweep_cache_capacity = 1u << 16;
  SynthServer server(serve_options);
  const char* kCold =
      "sasynth-request v1\n"
      "layer 384,256,13,13,3\n"
      "device arria10_gt1150\n"
      "option min_util 0.8\n"
      "end\n";
  const char* kHwSibling =
      "sasynth-request v1\n"
      "layer 384,256,15,15,3\n"
      "device arria10_gt1150\n"
      "option min_util 0.8\n"
      "end\n";
  const char* kRelaxed =
      "sasynth-request v1\n"
      "layer 384,256,13,13,3\n"
      "device arria10_gt1150\n"
      "option min_util 0.7\n"
      "end\n";
  const char* kDeploy =
      "sasynth-deploy v1\n"
      "network alexnet\n"
      "option jobs 1\n"
      "option max_bram_util 0.04\n"
      "end\n";
  for (const char* request : {kCold, kHwSibling, kRelaxed, kDeploy}) {
    const std::string response = request == kDeploy
                                     ? server.handle_deploy(request)
                                     : server.handle(request);
    if (response.rfind("sasynth-response v1 ok", 0) != 0) {
      std::fprintf(stderr, "serve request failed:\n%s\n", response.c_str());
      return 1;
    }
  }

  AsciiTable part3;
  part3.row().cell("rule").cell("events pruned/hit").cell("bound evals spent");
  int silent_rules = 0;
  for (std::size_t r = 0; r < std::size(rules); ++r) {
    const std::int64_t pruned =
        registry.counter(rules[r].pruned).value() - before_pruned[r];
    if (pruned == 0) {
      std::fprintf(stderr, "rule did not fire: %s (%s)\n", rules[r].label,
                   rules[r].pruned);
      ++silent_rules;
    }
    part3.row()
        .cell(rules[r].label)
        .cell(pruned)
        .cell(rules[r].spent ? std::to_string(registry.counter(rules[r].spent)
                                                  .value() -
                                              before_spent[r])
                             : std::string("-"));
  }
  part3.print();
  bench::print_note(
      "pow2 pruning keeps the optimum at a fraction of the evaluations; "
      "raising c_s cuts the space further without losing the best design "
      "until it excludes the optimum's utilization band; the Part 3 rows "
      "price each rule from the live obs counters (a bound rule is only "
      "profitable while `events pruned` dwarfs `bound evals spent`; the two "
      "phase-1 DFS subtree rules share one corner evaluation, so the "
      "corner-bound row's spend covers both; the unified incumbent row's "
      "spend is its corner aggregates, one LeanModel rate per layer each; "
      "the leaf early exit spends one comparison per scored layer).");
  return silent_rules == 0 ? 0 : 1;
}
