// Deployment request protocol of the synthesis service (sasynthd): fleet
// selection over a weighted multi-network workload, the serving face of
// src/deploy. Shares the response magic, option vocabulary and framing
// conventions of the synthesis protocol (protocol.h).
//
// A deploy request is a block of lines:
//
//   sasynth-deploy v1
//   network <name> [weight]   (repeatable, at least one; weight > 0,
//                             default 1.0; names: alexnet|vgg16|googlenet|
//                             tiny — see nn::parse_network_name)
//   fleet <K>                 (optional, default 1; how many designs the
//                             fleet may ship, 1..64)
//   device <name>             (optional, default arria10_gt1150)
//   dtype <name>              (optional, default float32)
//   option <key> <value>      (optional, repeatable; same keys as the
//                             synthesis request)
//   deadline_ms <N>           (optional, at most once)
//   end
//
// A successful response carries the K selected designs (each as an
// embeddable `sasynth-design v1` blob at its realized pseudo-P&R clock),
// the per-network assignment, and the weighted objective:
//
//   sasynth-response v1 ok
//   fleet <K> weighted_latency_ms=<f> weighted_gops=<f>
//   design <i> freq_mhz=<f>
//   sasynth-design v1
//   mapping row=<l> col=<l> vec=<l>
//   shape <rows> <cols> <vec>
//   middle <s_0> ... <s_n-1>
//   ... (K design stanzas) ...
//   assign <network> weight=<g> design=<i> latency_ms=<f> gops=<f>
//   ... (one assign line per network, workload order) ...
//   end
//
// Error / retry / timeout verdicts reuse the synthesis formatters
// (single-line verdict + `end`; deploy timeout messages are fixed strings).
// Like synthesis responses, a deploy response is a pure function of the
// request: the server answers cache hits and fresh selections through the
// same deploy::evaluate_fleet call, so the bytes never differ.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dse.h"
#include "deploy/fleet.h"
#include "fpga/datatype.h"
#include "fpga/device.h"

namespace sasynth {

inline constexpr const char* kDeployRequestMagic = "sasynth-deploy v1";

/// One `network <name> [weight]` line, resolved.
struct DeployWorkloadItem {
  std::string network;  ///< canonical name (validated at parse time)
  double weight = 1.0;
};

/// One deploy request, fully resolved (defaults applied).
struct DeployRequest {
  std::vector<DeployWorkloadItem> workload;
  int fleet_size = 1;
  FpgaDevice device;
  DataType dtype = DataType::kFloat32;
  DseOptions dse;
  /// Same semantics as ServeRequest::deadline_ms (execution policy, never
  /// part of the canonical text).
  std::int64_t deadline_ms = -1;

  DeployRequest();
};

struct ParsedDeployRequest {
  bool ok = false;
  std::string error;
  DeployRequest request;
};

/// Parses a full deploy block (with or without the trailing `end`).
/// Never throws; unknown fields/networks/options produce ok=false.
ParsedDeployRequest parse_deploy_request_block(const std::string& block);

/// Canonical text of the complete deploy tuple (workload in request order,
/// fleet size, device, dtype, options) — DesignCache key material. Leads
/// with a `deploy` line so deploy keys can never collide with synthesis
/// keys, which lead with `layer`. `dse.jobs` and the deadline are excluded
/// (execution policy, same rule as canonical_request_text).
std::string canonical_deploy_request_text(const DeployRequest& request);

/// Cache key material for the i-th design of a K-design fleet: the
/// canonical text plus a `fleet_design i/K sized=workload` discriminator
/// line (the sizing rule the fleet was selected under). The server
/// stores each selected design under its own derived key and only answers
/// from cache when all K lookups hit.
std::string deploy_cache_entry_text(const std::string& canonical,
                                    int index, int fleet_size);

/// Formats the ok payload from an evaluated fleet (result.valid must hold).
std::string format_deploy_ok_response(const deploy::FleetResult& result);

}  // namespace sasynth
