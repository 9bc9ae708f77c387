// Fleet optimizer: pick K designs for a weighted multi-network workload.
//
// The "what if I can only afford K bitstreams" scenario: a serving fleet
// hosts several CNNs with known traffic shares and can program each board
// with one of at most K synthesized arrays. Selecting the K designs is a
// facility-location problem — open K facilities (designs) so that every
// client (network) is served by its best open facility, minimizing the
// weighted sum of per-image latencies:
//
//   minimize  sum_n  weight_n * min_{d in S, |S| <= K}  latency_n(d)
//
// where latency_n(d) folds every layer of network n onto design d
// (deploy::plan_fold) and evaluates the folded estimate at d's realized
// pseudo-P&R clock. Any network may be assigned any design, so each design
// is sized — and clocked — by its worst-case layer over the whole workload
// (worst_case_resources). The candidate pool comes from the
// unified-selection shortlist machinery (core/unified.cpp): stage-1/2
// candidates of the merged workload plus each network whose layer list no
// earlier source repeats, deduplicated by design signature in a fixed order.
//
// Selection is greedy (the classic 1-1/e approximation), fully
// deterministic: the latency matrix is evaluated in workload order, ties
// break toward the smallest pool index, and the result is bit-identical at
// any jobs count (parallelism only exists inside candidate enumeration,
// which is itself deterministic).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/design_point.h"
#include "core/unified.h"
#include "fpga/datatype.h"
#include "fpga/device.h"
#include "nn/network.h"

namespace sasynth::deploy {

/// One hosted network and its traffic share (relative weight, > 0).
struct WorkloadEntry {
  Network net;
  double weight = 1.0;
};

struct FleetOptions {
  /// DSE knobs + shortlist size + jobs for the candidate enumeration.
  UnifiedOptions unified;
  /// K: how many designs the fleet may ship. The selector always returns
  /// exactly min(K, feasible pool size) designs.
  int num_designs = 1;
};

/// Which design a network is assigned to and what it costs there.
struct NetworkPlan {
  std::string network;
  double weight = 1.0;
  std::size_t design_index = 0;  ///< into FleetResult::designs
  double latency_ms = 0.0;       ///< one image through all conv layers
  double aggregate_gops = 0.0;
};

struct FleetResult {
  bool valid = false;
  bool cancelled = false;  ///< the cancel token fired mid-selection
  std::string error;
  std::vector<DesignPoint> designs;        ///< selection order
  std::vector<double> realized_freq_mhz;   ///< per design
  std::vector<NetworkPlan> plans;          ///< workload order
  double weighted_latency_ms = 0.0;  ///< the objective: sum w_n * latency_n
  double weighted_gops = 0.0;  ///< sum w_n * ops_n / sum w_n * latency_n

  std::string summary() const;
};

/// Runs the full selection. Deterministic at any options.unified.jobs value.
/// Fault site: `deploy.select` (fires before any work). Cancellation
/// (options.unified.dse.cancel) is polled between enumeration stages and
/// per matrix row; a fired token yields `cancelled == true, valid == false`.
FleetResult select_fleet(const std::vector<WorkloadEntry>& workload,
                         const FpgaDevice& device, DataType dtype,
                         const FleetOptions& options);

/// Pure evaluation half of the selector: given an already-chosen fleet,
/// recompute realized frequencies, the per-network assignment and the
/// weighted objective. select_fleet's tail and the serving cache-hit path
/// (serve/server.cpp) both answer through this function, so a cached fleet
/// response is byte-identical to a fresh one by construction. Invalid when
/// a network cannot fold onto any of the given designs.
FleetResult evaluate_fleet(const std::vector<WorkloadEntry>& workload,
                           const std::vector<DesignPoint>& designs,
                           const FpgaDevice& device, DataType dtype);

}  // namespace sasynth::deploy
