#include "serve/deploy_protocol.h"

#include "core/design_io.h"
#include "nn/network.h"
#include "serve/protocol.h"
#include "util/strings.h"

namespace sasynth {

DeployRequest::DeployRequest() : device(arria10_gt1150()) {
  // Serving default, matching ServeRequest: one thread per request.
  dse.jobs = 1;
}

ParsedDeployRequest parse_deploy_request_block(const std::string& block) {
  ParsedDeployRequest result;
  auto fail = [&](const std::string& msg) {
    result.error = msg;
    return result;
  };

  const std::vector<std::string> lines = split(block, '\n');
  std::size_t i = 0;
  auto next_line = [&]() -> std::string {
    while (i < lines.size()) {
      const std::string line = trim(lines[i++]);
      if (!line.empty()) return line;
    }
    return "";
  };

  if (next_line() != kDeployRequestMagic) {
    return fail(std::string("missing '") + kDeployRequestMagic + "' header");
  }

  bool have_fleet = false;
  bool have_deadline = false;
  for (std::string line = next_line(); !line.empty() && line != kBlockEnd;
       line = next_line()) {
    const std::vector<std::string> parts = split_ws(line);
    const std::string& field = parts[0];
    if (field == "network") {
      if (parts.size() < 2 || parts.size() > 3) {
        return fail("network expects <name> [weight]");
      }
      Network probe;
      if (!parse_network_name(parts[1], &probe)) {
        return fail("unknown network '" + parts[1] + "' (expected " +
                    std::string(network_name_list()) + ")");
      }
      DeployWorkloadItem item;
      item.network = parts[1];
      if (parts.size() == 3) {
        if (!parse_double_strict(parts[2], &item.weight) ||
            !(item.weight > 0.0)) {
          return fail("network weight '" + parts[2] +
                      "' is not a positive number");
        }
      }
      result.request.workload.push_back(std::move(item));
    } else if (field == "fleet") {
      if (have_fleet) return fail("duplicate fleet field");
      std::int64_t k = 0;
      if (parts.size() != 2 || !parse_int64_strict(parts[1], &k) || k < 1 ||
          k > 64) {
        return fail("fleet expects one integer in [1, 64]");
      }
      result.request.fleet_size = static_cast<int>(k);
      have_fleet = true;
    } else if (field == "device") {
      if (parts.size() != 2 ||
          !parse_device_name(parts[1], &result.request.device)) {
        return fail("unknown device (expected " +
                    std::string(device_name_list()) + ")");
      }
    } else if (field == "dtype") {
      if (parts.size() != 2 ||
          !parse_data_type(parts[1], &result.request.dtype)) {
        return fail("unknown dtype (expected float32|fixed8_16)");
      }
    } else if (field == "option") {
      if (parts.size() != 3) return fail("option expects <key> <value>");
      const std::string error =
          apply_dse_option(&result.request.dse, parts[1], parts[2]);
      if (!error.empty()) return fail(error);
    } else if (field == "deadline_ms") {
      if (have_deadline) return fail("duplicate deadline_ms field");
      std::int64_t ms = 0;
      if (parts.size() != 2 || !parse_int64_strict(parts[1], &ms)) {
        return fail("deadline_ms expects one integer value (milliseconds)");
      }
      if (ms < 0) return fail("deadline_ms must be >= 0");
      result.request.deadline_ms = ms;
      have_deadline = true;
    } else {
      return fail("unknown deploy field '" + field + "'");
    }
  }
  if (result.request.workload.empty()) {
    return fail("deploy request has no network line");
  }
  result.ok = true;
  return result;
}

std::string canonical_deploy_request_text(const DeployRequest& request) {
  std::string out = "deploy\n";
  for (const DeployWorkloadItem& item : request.workload) {
    out += strformat("network %s %.17g\n", item.network.c_str(), item.weight);
  }
  out += strformat("fleet %d\n", request.fleet_size);
  out += "device " + request.device.name + "\n";
  out += "dtype " + data_type_name(request.dtype) + "\n";
  out += canonical_dse_options_text(request.dse);
  return out;
}

std::string deploy_cache_entry_text(const std::string& canonical, int index,
                                    int fleet_size) {
  // `sized=workload`: the fleet was chosen with every design sized over the
  // whole workload, so no entry written under an earlier rule replays.
  return canonical +
         strformat("fleet_design %d/%d sized=workload\n", index, fleet_size);
}

std::string format_deploy_ok_response(const deploy::FleetResult& result) {
  std::string out = std::string(kResponseMagic) + " ok\n";
  out += strformat("fleet %zu weighted_latency_ms=%.6f weighted_gops=%.6f\n",
                   result.designs.size(), result.weighted_latency_ms,
                   result.weighted_gops);
  for (std::size_t d = 0; d < result.designs.size(); ++d) {
    out += strformat("design %zu freq_mhz=%.6f\n", d,
                     result.realized_freq_mhz[d]);
    out += save_design_text(result.designs[d]);
  }
  for (const deploy::NetworkPlan& plan : result.plans) {
    out += strformat(
        "assign %s weight=%.17g design=%zu latency_ms=%.6f gops=%.6f\n",
        plan.network.c_str(), plan.weight, plan.design_index, plan.latency_ms,
        plan.aggregate_gops);
  }
  out += std::string(kBlockEnd) + "\n";
  return out;
}

}  // namespace sasynth
