#include "deploy/fold.h"

#include <algorithm>

#include "core/mapping.h"
#include "faultinject/faultinject.h"
#include "fpga/freq_model.h"
#include "loopnest/conv_nest.h"
#include "loopnest/reuse.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/math_util.h"
#include "util/strings.h"

namespace sasynth::deploy {

namespace {

/// Deploy metric handles, resolved once (the ServeMetrics pattern).
struct DeployMetrics {
  obs::Counter& mapped;
  obs::Counter& infeasible;
  obs::Histogram& waste;

  static DeployMetrics& get() {
    static DeployMetrics m{
        obs::MetricsRegistry::global().counter("deploy_mapped_total"),
        obs::MetricsRegistry::global().counter("deploy_infeasible_total"),
        // Pad waste is a fraction in [0, 1]; the latency ladder is useless
        // here, so the histogram gets its own decade-ish bucket bounds.
        obs::MetricsRegistry::global().histogram(
            "deploy_fold_waste_ratio",
            {0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 0.9})};
    return m;
  }
};

}  // namespace

FoldPlan plan_fold(const LoopNest& nest, const DesignPoint& fixed) {
  fault::raise_if_armed(fault::kSiteDeployPlan);
  FoldPlan plan;
  auto infeasible = [&](const std::string& why) {
    plan.error = why;
    if (obs::metrics_enabled()) DeployMetrics::get().infeasible.add(1);
    return plan;
  };

  const std::string structural = fixed.validate_folded(nest);
  if (!structural.empty()) return infeasible(structural);

  // The mapping decision (which loop drives rows/cols/lanes) must be
  // feasible on *this* nest's reuse structure. All build_conv_nest nests
  // share one c_rl pattern (Eq. 3 depends only on which coefficients are
  // zero), but fixed designs can come from structurally different
  // frontend-extracted nests, where a home-feasible mapping is not.
  std::string why;
  const ReuseMatrix reuse = analyze_reuse(nest);
  if (!is_feasible_mapping(nest, reuse, fixed.mapping(), &why)) {
    return infeasible("mapping infeasible for this layer: " + why);
  }

  // Retarget the middle bounds: a fixed design synthesized for a bigger
  // layer would otherwise spin s_l feeder iterations where this layer has
  // work for far fewer. The clamp cap round_up_pow2(ceil(N/t)) (not the
  // tighter ceil(N/t)) is what preserves bespoke identity: the DSE's
  // power-of-two candidate lists top out at exactly that value, so a
  // design's own middle bound is never clamped on its home layer.
  const std::vector<std::int64_t>& middle = fixed.tiling().middle_bounds();
  const std::vector<std::int64_t>& inner = fixed.tiling().inner_bounds();
  std::vector<std::int64_t> retargeted(middle);
  for (std::size_t l = 0; l < nest.num_loops(); ++l) {
    retargeted[l] = std::min(
        middle[l], round_up_pow2(ceil_div(nest.loop(l).trip, inner[l])));
  }
  plan.design = fixed;
  plan.design.set_middle_bounds(std::move(retargeted));
  plan.identity = plan.design == fixed;

  const TilingSpec& tiling = plan.design.tiling();
  for (std::size_t l = 0; l < nest.num_loops(); ++l) {
    LoopFold f;
    f.loop = nest.loop(l).name;
    f.trip = nest.loop(l).trip;
    f.inner = tiling.inner(l);
    f.middle = tiling.middle(l);
    f.granules = tiling.granules(nest, l);
    f.folds = tiling.outer_trip(nest, l);
    f.pad = f.granules * f.inner - f.trip;
    plan.loops.push_back(std::move(f));
  }
  plan.effective_iterations = nest.total_iterations();
  plan.executed_iterations = tiling.executed_iterations(nest);
  plan.waste_ratio =
      static_cast<double>(plan.executed_iterations - plan.effective_iterations) /
      static_cast<double>(plan.executed_iterations);
  plan.feasible = true;
  if (obs::metrics_enabled()) {
    DeployMetrics& m = DeployMetrics::get();
    m.mapped.add(1);
    m.waste.observe(plan.waste_ratio);
  }
  return plan;
}

std::string FoldPlan::summary() const {
  if (!feasible) return "infeasible fold: " + error;
  std::string out =
      strformat("fold%s waste=%.2f%% (%lld of %lld iterations padded)",
                identity ? " [identity]" : "", waste_ratio * 100.0,
                static_cast<long long>(executed_iterations -
                                       effective_iterations),
                static_cast<long long>(executed_iterations));
  for (const LoopFold& f : loops) {
    if (f.pad == 0 && f.folds <= 1 && f.inner == 1) continue;
    out += strformat("\n  %-4s trip=%-5lld t=%-4lld s=%-4lld granules=%-5lld "
                     "folds=%-3lld pad=%lld",
                     f.loop.c_str(), static_cast<long long>(f.trip),
                     static_cast<long long>(f.inner),
                     static_cast<long long>(f.middle),
                     static_cast<long long>(f.granules),
                     static_cast<long long>(f.folds),
                     static_cast<long long>(f.pad));
  }
  return out;
}

FixedDesignEval evaluate_fixed_design(const Network& net,
                                      const DesignPoint& design,
                                      const FpgaDevice& device,
                                      DataType dtype) {
  obs::ScopedSpan span("deploy.evaluate", "deploy");
  span.arg("layers", static_cast<std::int64_t>(net.layers.size()));
  FixedDesignEval eval;
  eval.design = design;
  if (net.layers.empty()) {
    eval.error = "network has no layers";
    return eval;
  }

  // The synthesized array is one piece of hardware, sized for the layer
  // whose buffers need the most BRAM (the input tile grows with the
  // stride). Realized frequency follows the bespoke derivation (that
  // worst-case report + design signature).
  std::vector<LoopNest> nests;
  nests.reserve(net.layers.size());
  for (const ConvLayerDesc& layer : net.layers) {
    nests.push_back(build_conv_nest(layer));
  }
  eval.resources = worst_case_resources(nests, design, device, dtype);
  eval.realized_freq_mhz = pseudo_pnr_frequency_mhz(
      device, eval.resources.report, design.signature());

  bool all_feasible = true;
  double latency_ms = 0.0;
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const ConvLayerDesc& layer = net.layers[i];
    const LoopNest& nest = nests[i];
    FixedLayerPerf lp;
    lp.layer = layer.name;
    lp.plan = plan_fold(nest, design);
    if (lp.plan.feasible) {
      lp.perf = estimate_folded_performance(nest, lp.plan.design, device,
                                            dtype, eval.realized_freq_mhz);
      lp.latency_ms = layer_latency_ms(layer, lp.perf.perf);
      latency_ms += lp.latency_ms;
      eval.memory_bound_layers |= lp.perf.perf.memory_bound;
    } else {
      all_feasible = false;
    }
    eval.per_layer.push_back(std::move(lp));
  }
  if (!all_feasible) {
    eval.error = "one or more layers cannot fold onto this design";
    return eval;
  }
  if (eval.resources.bram_blocks > device.bram_blocks ||
      !eval.resources.report.fits()) {
    eval.error = "design does not fit the device";
    return eval;
  }
  eval.total_latency_ms = latency_ms;
  eval.aggregate_gops =
      static_cast<double>(net.total_ops()) / (latency_ms * 1e-3) * 1e-9;
  eval.valid = true;
  return eval;
}

std::string FixedDesignEval::summary(const Network& net) const {
  std::string out = strformat(
      "%s on fixed design %s @%.1f MHz -> %s\n", net.name.c_str(),
      design.shape().to_string().c_str(), realized_freq_mhz,
      valid ? strformat("%.1f Gops, %.2f ms/image", aggregate_gops,
                        total_latency_ms)
                  .c_str()
            : ("INVALID: " + error).c_str());
  out += "  " + resources.report.summary() + "\n";
  for (const FixedLayerPerf& lp : per_layer) {
    if (!lp.plan.feasible) {
      out += strformat("  %-10s INFEASIBLE: %s\n", lp.layer.c_str(),
                       lp.plan.error.c_str());
      continue;
    }
    out += strformat(
        "  %-10s %8.1f Gops  eff %6.2f%%  waste %6.2f%%  %8.3f ms%s%s\n",
        lp.layer.c_str(), lp.perf.perf.throughput_gops,
        lp.perf.perf.eff * 100.0, lp.perf.waste_ratio * 100.0, lp.latency_ms,
        lp.plan.identity ? "  [bespoke]" : "",
        lp.perf.perf.memory_bound ? "  [memory-bound]" : "");
  }
  return out;
}

}  // namespace sasynth::deploy
