#include "deploy/fleet.h"

#include <algorithm>
#include <limits>
#include <set>

#include "core/resource_model.h"
#include "deploy/fold.h"
#include "faultinject/faultinject.h"
#include "fpga/freq_model.h"
#include "loopnest/conv_nest.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace sasynth::deploy {

namespace {

/// Uncoverable (network, design) cells. Large but finite so sums of a few
/// cells cannot overflow to inf and break the < comparisons.
constexpr double kInfeasibleMs = 1e18;

/// A candidate design realized on the device.
struct PoolEntry {
  DesignPoint design;
  double realized_freq_mhz = 0.0;
};

/// Every conv nest of the workload, in workload order. A fleet design may be
/// assigned any network, so it is sized and clocked over all of them
/// (worst_case_resources).
std::vector<LoopNest> workload_nests(const std::vector<WorkloadEntry>& workload) {
  std::vector<LoopNest> nests;
  for (const WorkloadEntry& w : workload) {
    for (const ConvLayerDesc& layer : w.net.layers) {
      nests.push_back(build_conv_nest(layer));
    }
  }
  return nests;
}

}  // namespace

FleetResult select_fleet(const std::vector<WorkloadEntry>& workload,
                         const FpgaDevice& device, DataType dtype,
                         const FleetOptions& options) {
  fault::raise_if_armed(fault::kSiteDeploySelect);
  obs::ScopedSpan select_span("deploy.select", "deploy");
  select_span.arg("networks", static_cast<std::int64_t>(workload.size()));
  select_span.arg("k", options.num_designs);

  FleetResult result;
  if (workload.empty()) {
    result.error = "empty workload";
    return result;
  }
  if (options.num_designs < 1) {
    result.error = "num_designs must be >= 1";
    return result;
  }
  for (const WorkloadEntry& w : workload) {
    if (!(w.weight > 0.0)) {
      result.error = "workload weights must be > 0";
      return result;
    }
    if (w.net.layers.empty()) {
      result.error = "workload network '" + w.net.name + "' has no layers";
      return result;
    }
  }
  const CancelToken& cancel = options.unified.dse.cancel;
  auto cancelled_result = [&]() {
    result.cancelled = true;
    result.error = "selection cancelled";
    return result;
  };

  // Candidate pool: unified stage-1/2 survivors of the merged workload (the
  // compromise designs) plus each network individually (the specialists),
  // trimmed to top_k per source, deduplicated by signature in that order. A
  // source whose layer list repeats an earlier source's is skipped: it would
  // enumerate the same candidates again (a one-network workload is its own
  // merged mix).
  std::vector<UnifiedCandidate> pool_candidates;
  {
    obs::ScopedSpan span("deploy.candidates", "deploy");
    Network merged;
    merged.name = "mix";
    for (const WorkloadEntry& w : workload) {
      merged.layers.insert(merged.layers.end(), w.net.layers.begin(),
                           w.net.layers.end());
    }
    std::vector<const Network*> sources;
    sources.push_back(&merged);
    for (const WorkloadEntry& w : workload) {
      const bool repeat = std::any_of(
          sources.begin(), sources.end(),
          [&](const Network* s) { return s->layers == w.net.layers; });
      if (!repeat) sources.push_back(&w.net);
    }

    const std::size_t per_source =
        static_cast<std::size_t>(std::max(1, options.unified.dse.top_k));
    std::set<std::string> seen;
    for (const Network* net : sources) {
      bool enum_cancelled = false;
      std::vector<UnifiedCandidate> cands = enumerate_unified_candidates(
          *net, device, dtype, options.unified, &enum_cancelled);
      if (enum_cancelled || cancel.cancelled()) return cancelled_result();
      if (cands.size() > per_source) cands.resize(per_source);
      for (UnifiedCandidate& c : cands) {
        if (seen.insert(c.design.signature()).second) {
          pool_candidates.push_back(std::move(c));
        }
      }
    }
    span.arg("pool", static_cast<std::int64_t>(pool_candidates.size()));
  }
  if (pool_candidates.empty()) {
    result.error = "no feasible candidate designs";
    return result;
  }

  // Realize every candidate on the device, sized over every workload layer;
  // drop the ones that don't fit.
  std::vector<PoolEntry> pool;
  {
    const std::vector<LoopNest> nests = workload_nests(workload);
    for (UnifiedCandidate& c : pool_candidates) {
      const ResourceUsage usage =
          worst_case_resources(nests, c.design, device, dtype);
      if (usage.bram_blocks > device.bram_blocks) continue;
      if (options.unified.dse.enforce_soft_logic && !usage.report.fits()) {
        continue;
      }
      PoolEntry entry;
      entry.design = std::move(c.design);
      entry.realized_freq_mhz = pseudo_pnr_frequency_mhz(
          device, usage.report, entry.design.signature());
      pool.push_back(std::move(entry));
    }
  }
  if (pool.empty()) {
    result.error = "no candidate design fits the device";
    return result;
  }

  // Latency matrix: networks x pool. Evaluated serially — each cell is a
  // handful of closed-form folded estimates, and a serial walk keeps the
  // deploy.plan fault contract simple (exceptions propagate to the caller
  // instead of being swallowed by a pool worker).
  std::vector<std::vector<double>> latency(
      workload.size(), std::vector<double>(pool.size(), kInfeasibleMs));
  {
    obs::ScopedSpan span("deploy.matrix", "deploy");
    span.arg("cells",
             static_cast<std::int64_t>(workload.size() * pool.size()));
    for (std::size_t n = 0; n < workload.size(); ++n) {
      if (cancel.cancelled()) return cancelled_result();
      const Network& net = workload[n].net;
      std::vector<LoopNest> nests;
      nests.reserve(net.layers.size());
      for (const ConvLayerDesc& layer : net.layers) {
        nests.push_back(build_conv_nest(layer));
      }
      for (std::size_t d = 0; d < pool.size(); ++d) {
        double ms = 0.0;
        bool feasible = true;
        for (std::size_t i = 0; i < net.layers.size(); ++i) {
          const FoldPlan plan = plan_fold(nests[i], pool[d].design);
          if (!plan.feasible) {
            feasible = false;
            break;
          }
          const FoldedPerfEstimate perf = estimate_folded_performance(
              nests[i], plan.design, device, dtype, pool[d].realized_freq_mhz);
          ms += layer_latency_ms(net.layers[i], perf.perf);
        }
        if (feasible) latency[n][d] = ms;
      }
    }
  }
  for (std::size_t n = 0; n < workload.size(); ++n) {
    const double best =
        *std::min_element(latency[n].begin(), latency[n].end());
    if (best >= kInfeasibleMs) {
      result.error = "network '" + workload[n].net.name +
                     "' cannot fold onto any candidate design";
      return result;
    }
  }

  // Greedy facility location: K rounds, each adding the pool entry that
  // minimizes the weighted objective; ties (within 1e-12 relative) break
  // toward the smaller pool index, so the selection is a pure function of
  // the matrix. No early stop — a round with zero marginal gain still ships
  // a design (callers asked for K).
  std::vector<std::size_t> selected;
  {
    obs::ScopedSpan span("deploy.greedy", "deploy");
    const std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(options.num_designs), pool.size());
    std::vector<double> best_ms(workload.size(),
                                std::numeric_limits<double>::infinity());
    std::vector<bool> in_fleet(pool.size(), false);
    for (std::size_t round = 0; round < k; ++round) {
      std::size_t pick = pool.size();
      double pick_obj = std::numeric_limits<double>::infinity();
      for (std::size_t d = 0; d < pool.size(); ++d) {
        if (in_fleet[d]) continue;
        double obj = 0.0;
        for (std::size_t n = 0; n < workload.size(); ++n) {
          obj += workload[n].weight * std::min(best_ms[n], latency[n][d]);
        }
        if (obj < pick_obj * (1.0 - 1e-12)) {
          pick = d;
          pick_obj = obj;
        }
      }
      in_fleet[pick] = true;
      selected.push_back(pick);
      for (std::size_t n = 0; n < workload.size(); ++n) {
        best_ms[n] = std::min(best_ms[n], latency[n][pick]);
      }
    }
    span.arg("selected", static_cast<std::int64_t>(selected.size()));
  }

  // Assignment + objective: delegate to the pure evaluator over the chosen
  // designs. The recomputed cells are bit-identical to the matrix above
  // (same closed-form estimates), and answering through evaluate_fleet is
  // what makes a cached fleet response byte-equal to a fresh one.
  std::vector<DesignPoint> fleet_designs;
  fleet_designs.reserve(selected.size());
  for (const std::size_t d : selected) fleet_designs.push_back(pool[d].design);
  return evaluate_fleet(workload, fleet_designs, device, dtype);
}

FleetResult evaluate_fleet(const std::vector<WorkloadEntry>& workload,
                           const std::vector<DesignPoint>& designs,
                           const FpgaDevice& device, DataType dtype) {
  FleetResult result;
  if (workload.empty()) {
    result.error = "empty workload";
    return result;
  }
  if (designs.empty()) {
    result.error = "empty fleet";
    return result;
  }
  for (const WorkloadEntry& w : workload) {
    if (!(w.weight > 0.0)) {
      result.error = "workload weights must be > 0";
      return result;
    }
    if (w.net.layers.empty()) {
      result.error = "workload network '" + w.net.name + "' has no layers";
      return result;
    }
  }

  // Realized clock per design, sized over every workload layer exactly as
  // the selector's pool filter sizes it.
  const std::vector<LoopNest> nests = workload_nests(workload);
  std::vector<double> freqs;
  freqs.reserve(designs.size());
  for (const DesignPoint& design : designs) {
    const ResourceUsage usage =
        worst_case_resources(nests, design, device, dtype);
    freqs.push_back(
        pseudo_pnr_frequency_mhz(device, usage.report, design.signature()));
  }

  double weighted_ops = 0.0;
  double weighted_ms = 0.0;
  for (const WorkloadEntry& w : workload) {
    std::vector<LoopNest> nests;
    nests.reserve(w.net.layers.size());
    for (const ConvLayerDesc& layer : w.net.layers) {
      nests.push_back(build_conv_nest(layer));
    }
    NetworkPlan plan;
    plan.network = w.net.name;
    plan.weight = w.weight;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t d = 0; d < designs.size(); ++d) {
      double ms = 0.0;
      bool feasible = true;
      for (std::size_t i = 0; i < w.net.layers.size(); ++i) {
        const FoldPlan fold = plan_fold(nests[i], designs[d]);
        if (!fold.feasible) {
          feasible = false;
          break;
        }
        const FoldedPerfEstimate perf = estimate_folded_performance(
            nests[i], fold.design, device, dtype, freqs[d]);
        ms += layer_latency_ms(w.net.layers[i], perf.perf);
      }
      // Earliest design achieving the minimum (strict <): deterministic.
      if (feasible && ms < best) {
        best = ms;
        plan.design_index = d;
      }
    }
    if (!(best < kInfeasibleMs)) {
      result.plans.clear();
      result.error =
          "network '" + w.net.name + "' cannot fold onto the given fleet";
      result.valid = false;
      return result;
    }
    plan.latency_ms = best;
    plan.aggregate_gops = static_cast<double>(w.net.total_ops()) /
                          (best * 1e-3) * 1e-9;
    weighted_ms += plan.weight * best;
    weighted_ops += plan.weight * static_cast<double>(w.net.total_ops());
    result.plans.push_back(std::move(plan));
  }
  result.designs = designs;
  result.realized_freq_mhz = std::move(freqs);
  result.weighted_latency_ms = weighted_ms;
  result.weighted_gops = weighted_ops / (weighted_ms * 1e-3) * 1e-9;
  result.valid = true;
  return result;
}

std::string FleetResult::summary() const {
  if (!valid) return "fleet selection failed: " + error;
  std::string out = strformat(
      "fleet of %zu design(s): weighted %.2f ms/image mix, %.1f Gops\n",
      designs.size(), weighted_latency_ms, weighted_gops);
  for (std::size_t d = 0; d < designs.size(); ++d) {
    out += strformat("  design %zu: %s @%.1f MHz\n", d,
                     designs[d].signature().c_str(), realized_freq_mhz[d]);
  }
  for (const NetworkPlan& p : plans) {
    out += strformat(
        "  %-10s w=%-5.2f -> design %zu  %8.3f ms/image  %8.1f Gops\n",
        p.network.c_str(), p.weight, p.design_index, p.latency_ms,
        p.aggregate_gops);
  }
  return out;
}

}  // namespace sasynth::deploy
