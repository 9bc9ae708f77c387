#include "serve/protocol.h"

#include "core/design_io.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sasynth {

namespace {

bool parse_bool(const std::string& token, bool* out) {
  const std::string lower = to_lower(token);
  if (lower == "1" || lower == "true" || lower == "on") {
    *out = true;
    return true;
  }
  if (lower == "0" || lower == "false" || lower == "off") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

std::string apply_dse_option(DseOptions* dse_out, const std::string& key,
                             const std::string& value) {
  DseOptions& dse = *dse_out;
  auto want_double = [&](double* out, double lo, double hi) -> std::string {
    double v = 0.0;
    if (!parse_double_strict(value, &v) || v < lo || v > hi) {
      return "option " + key + ": bad value '" + value + "'";
    }
    *out = v;
    return "";
  };
  auto want_int = [&](std::int64_t lo, std::int64_t hi,
                      auto setter) -> std::string {
    std::int64_t v = 0;
    if (!parse_int64_strict(value, &v) || v < lo || v > hi) {
      return "option " + key + ": bad value '" + value + "'";
    }
    setter(v);
    return "";
  };
  auto want_bool = [&](bool* out) -> std::string {
    if (!parse_bool(value, out)) {
      return "option " + key + ": bad value '" + value +
             "' (expected 0/1/on/off/true/false)";
    }
    return "";
  };

  if (key == "freq") return want_double(&dse.assumed_freq_mhz, 1.0, 10000.0);
  if (key == "min_util") return want_double(&dse.min_dsp_util, 0.0, 1.0);
  if (key == "max_bram_util") return want_double(&dse.max_bram_util, 0.0, 100.0);
  if (key == "top_k") {
    return want_int(1, 1 << 20, [&](std::int64_t v) {
      dse.top_k = static_cast<int>(v);
    });
  }
  if (key == "max_rows") {
    return want_int(1, 1 << 20, [&](std::int64_t v) { dse.max_rows = v; });
  }
  if (key == "max_cols") {
    return want_int(1, 1 << 20, [&](std::int64_t v) { dse.max_cols = v; });
  }
  if (key == "max_vec") {
    return want_int(1, 1 << 20, [&](std::int64_t v) { dse.max_vec = v; });
  }
  if (key == "jobs") {
    return want_int(0, 1024, [&](std::int64_t v) {
      dse.jobs = static_cast<int>(v);
    });
  }
  if (key == "pow2_middle") return want_bool(&dse.pow2_middle);
  if (key == "pow2_vec") return want_bool(&dse.pow2_vec_only);
  if (key == "soft_logic") return want_bool(&dse.enforce_soft_logic);
  if (key == "auto_relax") return want_bool(&dse.auto_relax_util);
  if (key == "bound_prune") return want_bool(&dse.bound_prune);
  return "unknown option '" + key + "'";
}

ServeRequest::ServeRequest() : device(arria10_gt1150()) {
  // Serving default: one thread per request — the server parallelizes across
  // requests, so a nested per-request sweep would only oversubscribe.
  dse.jobs = 1;
}

bool parse_layer_fields(const std::string& spec, ConvLayerDesc* out,
                        std::string* error) {
  const std::vector<std::string> parts = split(spec, ',');
  if (parts.size() < 5 || parts.size() > 7) {
    *error = "layer expects I,O,R,C,K[,stride[,groups]]";
    return false;
  }
  std::vector<std::int64_t> values;
  for (const std::string& part : parts) {
    std::int64_t v = 0;
    if (!parse_int64_strict(trim(part), &v) || v < 1) {
      *error = "layer field '" + part + "' is not a positive integer";
      return false;
    }
    values.push_back(v);
  }
  *out = make_conv("request_layer", values[0], values[1], values[2], values[4],
                   parts.size() >= 6 ? values[5] : 1,
                   parts.size() >= 7 ? values[6] : 1);
  out->out_cols = values[3];
  const std::string validation = out->validate();
  if (!validation.empty()) {
    *error = "invalid layer: " + validation;
    return false;
  }
  return true;
}

ParsedRequest parse_request_block(const std::string& block) {
  ParsedRequest result;
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

  if (next_line() != kRequestMagic) {
    return fail(std::string("missing '") + kRequestMagic + "' header");
  }

  bool have_layer = false;
  bool have_deadline = false;
  for (std::string line = next_line(); !line.empty() && line != kBlockEnd;
       line = next_line()) {
    const std::vector<std::string> parts = split_ws(line);
    const std::string& field = parts[0];
    if (field == "layer") {
      if (parts.size() != 2) return fail("layer expects one value");
      std::string error;
      if (!parse_layer_fields(parts[1], &result.request.layer, &error)) {
        return fail(error);
      }
      have_layer = true;
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
      // Strict by design: a garbled deadline silently treated as "none"
      // would turn a client's 50 ms budget into an unbounded request.
      if (have_deadline) return fail("duplicate deadline_ms field");
      std::int64_t ms = 0;
      if (parts.size() != 2 || !parse_int64_strict(parts[1], &ms)) {
        return fail("deadline_ms expects one integer value (milliseconds)");
      }
      if (ms < 0) return fail("deadline_ms must be >= 0");
      result.request.deadline_ms = ms;
      have_deadline = true;
    } else {
      return fail("unknown request field '" + field + "'");
    }
  }
  if (!have_layer) return fail("request has no layer line");
  result.ok = true;
  return result;
}

std::string canonical_dse_options_text(const DseOptions& d) {
  std::string out;
  out += strformat("freq %.17g\n", d.assumed_freq_mhz);
  out += strformat("min_util %.17g\n", d.min_dsp_util);
  out += strformat("pow2_middle %d\n", d.pow2_middle ? 1 : 0);
  out += strformat("top_k %d\n", d.top_k);
  out += strformat("max_rows %lld\n", static_cast<long long>(d.max_rows));
  out += strformat("max_cols %lld\n", static_cast<long long>(d.max_cols));
  out += strformat("max_vec %lld\n", static_cast<long long>(d.max_vec));
  out += strformat("pow2_vec %d\n", d.pow2_vec_only ? 1 : 0);
  out += strformat("max_bram_util %.17g\n", d.max_bram_util);
  out += strformat("soft_logic %d\n", d.enforce_soft_logic ? 1 : 0);
  out += strformat("auto_relax %d\n", d.auto_relax_util ? 1 : 0);
  // In the key even though the final top-K is provably identical either way:
  // a deadline-truncated sweep's best-so-far partial is not, and a cache must
  // never conflate two requests whose failure payloads can differ.
  out += strformat("bound_prune %d\n", d.bound_prune ? 1 : 0);
  return out;
}

std::string canonical_request_text(const ServeRequest& request) {
  const ConvLayerDesc& l = request.layer;
  std::string out;
  out += strformat("layer %lld,%lld,%lld,%lld,%lld,%lld,%lld\n",
                   static_cast<long long>(l.in_maps),
                   static_cast<long long>(l.out_maps),
                   static_cast<long long>(l.out_rows),
                   static_cast<long long>(l.out_cols),
                   static_cast<long long>(l.kernel),
                   static_cast<long long>(l.stride),
                   static_cast<long long>(l.groups));
  out += "device " + request.device.name + "\n";
  out += "dtype " + data_type_name(request.dtype) + "\n";
  out += canonical_dse_options_text(request.dse);
  return out;
}

std::uint64_t request_cache_key(const ServeRequest& request) {
  return fnv1a64(canonical_request_text(request));
}

std::string format_ok_response(const DesignPoint& design,
                               const PerfEstimate& realized,
                               const ResourceReport& resources,
                               double latency_ms) {
  std::string out = std::string(kResponseMagic) + " ok\n";
  out += save_design_text(design);
  out += strformat(
      "perf freq_mhz=%.6f throughput_gops=%.6f latency_ms=%.6f "
      "memory_bound=%d\n",
      realized.freq_mhz, realized.throughput_gops, latency_ms,
      realized.memory_bound ? 1 : 0);
  out += strformat(
      "resource dsp=%lld bram=%lld luts=%lld ffs=%lld dsp_util=%.6f "
      "bram_util=%.6f logic_util=%.6f\n",
      static_cast<long long>(resources.dsp_blocks),
      static_cast<long long>(resources.bram_blocks),
      static_cast<long long>(resources.luts),
      static_cast<long long>(resources.ffs), resources.dsp_util,
      resources.bram_util, resources.logic_util);
  out += std::string(kBlockEnd) + "\n";
  return out;
}

std::string format_error_response(const std::string& message) {
  return std::string(kResponseMagic) + " error " + message + "\n" +
         kBlockEnd + "\n";
}

std::string format_retry_response(const std::string& message) {
  return std::string(kResponseMagic) + " retry " + message + "\n" + kBlockEnd +
         "\n";
}

std::string format_timeout_response(const std::string& message) {
  return std::string(kResponseMagic) + " timeout " + message + "\n" +
         kBlockEnd + "\n";
}

std::string format_timeout_response(const std::string& message,
                                    const DesignPoint& design,
                                    const PerfEstimate& realized,
                                    const ResourceReport& resources,
                                    double latency_ms) {
  // Verdict line + the exact ok-payload layout: the full-response formatter
  // already ends with "end\n", so splice its body after the timeout verdict.
  const std::string body =
      format_ok_response(design, realized, resources, latency_ms);
  const std::size_t first_newline = body.find('\n');
  return std::string(kResponseMagic) + " timeout " + message + "\n" +
         body.substr(first_newline + 1);
}

}  // namespace sasynth
