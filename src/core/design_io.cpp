#include "core/design_io.h"

#include "util/strings.h"

namespace sasynth {

namespace {
constexpr const char* kMagic = "sasynth-design v1";
}  // namespace

std::string save_design_text(const DesignPoint& design,
                             const std::string& device_name) {
  std::string out = std::string(kMagic) + "\n";
  if (!device_name.empty()) out += "device " + device_name + "\n";
  out += strformat("mapping row=%zu col=%zu vec=%zu\n",
                   design.mapping().row_loop, design.mapping().col_loop,
                   design.mapping().vec_loop);
  out += strformat("shape %lld %lld %lld\n",
                   static_cast<long long>(design.shape().rows),
                   static_cast<long long>(design.shape().cols),
                   static_cast<long long>(design.shape().vec));
  out += "middle";
  for (std::size_t l = 0; l < design.tiling().num_loops(); ++l) {
    out += " " + std::to_string(design.tiling().middle(l));
  }
  out += "\n";
  return out;
}

std::string save_design_text(const DesignPoint& design) {
  return save_design_text(design, std::string());
}

DesignLoadResult load_design_text(const std::string& text, const LoopNest& nest,
                                  DesignLoadMode mode) {
  DesignLoadResult result;
  auto fail = [&](const std::string& msg) {
    result.error = msg;
    return result;
  };

  const std::vector<std::string> lines = split(text, '\n');
  std::size_t i = 0;
  auto next_line = [&]() -> std::string {
    while (i < lines.size()) {
      const std::string line = trim(lines[i++]);
      if (!line.empty()) return line;
    }
    return "";
  };

  if (next_line() != kMagic) return fail("missing 'sasynth-design v1' header");

  // Optional `device <name>` line, then mapping row=.. col=.. vec=..
  std::string line = next_line();
  {
    const std::vector<std::string> parts = split_ws(line);
    if (!parts.empty() && parts[0] == "device") {
      if (parts.size() != 2) return fail("malformed device line");
      result.device_name = parts[1];
      line = next_line();
    }
  }
  const std::vector<std::string> mapping_parts = split_ws(line);
  if (mapping_parts.size() != 4 || mapping_parts[0] != "mapping") {
    return fail("malformed mapping line");
  }
  SystolicMapping mapping;
  auto parse_role = [&](const std::string& part, const char* key,
                        std::size_t* out) {
    const std::string prefix = std::string(key) + "=";
    std::int64_t v = 0;
    if (!starts_with(part, prefix) ||
        !parse_int64_strict(part.substr(prefix.size()), &v) || v < 0) {
      return false;
    }
    *out = static_cast<std::size_t>(v);
    return true;
  };
  if (!parse_role(mapping_parts[1], "row", &mapping.row_loop) ||
      !parse_role(mapping_parts[2], "col", &mapping.col_loop) ||
      !parse_role(mapping_parts[3], "vec", &mapping.vec_loop)) {
    return fail("malformed mapping roles");
  }
  if (mapping.row_loop >= nest.num_loops() ||
      mapping.col_loop >= nest.num_loops() ||
      mapping.vec_loop >= nest.num_loops()) {
    return fail("mapping loop index out of range for this nest");
  }

  // shape r c v
  const std::vector<std::string> shape_parts = split_ws(next_line());
  if (shape_parts.size() != 4 || shape_parts[0] != "shape") {
    return fail("malformed shape line");
  }
  ArrayShape shape;
  if (!parse_int64_strict(shape_parts[1], &shape.rows) ||
      !parse_int64_strict(shape_parts[2], &shape.cols) ||
      !parse_int64_strict(shape_parts[3], &shape.vec)) {
    return fail("shape extents must be integers");
  }
  if (shape.rows < 1 || shape.cols < 1 || shape.vec < 1) {
    return fail("shape extents must be >= 1");
  }

  // middle s...
  const std::vector<std::string> middle_parts = split_ws(next_line());
  if (middle_parts.empty() || middle_parts[0] != "middle") {
    return fail("malformed middle line");
  }
  if (middle_parts.size() != nest.num_loops() + 1) {
    return fail("middle bounds count does not match the nest");
  }
  std::vector<std::int64_t> middle;
  for (std::size_t p = 1; p < middle_parts.size(); ++p) {
    std::int64_t v = 0;
    if (!parse_int64_strict(middle_parts[p], &v)) {
      return fail("middle bounds must be integers");
    }
    if (v < 1) return fail("middle bounds must be >= 1");
    middle.push_back(v);
  }

  DesignPoint design(nest, mapping, shape, std::move(middle));
  const std::string validation = mode == DesignLoadMode::kStrict
                                     ? design.validate(nest)
                                     : design.validate_folded(nest);
  if (!validation.empty()) return fail("invalid design: " + validation);
  result.design = std::move(design);
  result.ok = true;
  return result;
}

}  // namespace sasynth
