#include "core/resource_model.h"

#include <cassert>
#include <cmath>

#include "core/layer_eval.h"
#include "util/math_util.h"
#include "util/strings.h"

namespace sasynth {

double bytes_per_element(DataType dtype, const LoopNest& nest,
                         std::size_t access_index) {
  const DataTypeInfo& info = data_type_info(dtype);
  const ArrayAccess& access = nest.accesses()[access_index];
  if (access.role == AccessRole::kReduce) return info.pixel_bytes();
  // Heuristic by canonical name: the weight operand is the one whose access
  // involves the reduction array's invariant loops; for the conv nest it is
  // simply named "W". Unknown reads default to pixel width.
  if (access.access.array == "W" || access.access.array == "w") {
    return info.weight_bytes();
  }
  return info.pixel_bytes();
}

ResourceUsage model_resources(const LoopNest& nest, const DesignPoint& design,
                              const FpgaDevice& device, DataType dtype) {
  ResourceUsage usage;
  usage.lanes = design.num_lanes();
  usage.dsp_blocks = device_dsp_blocks_for_macs(device, dtype, usage.lanes);

  const TilingTerms terms{nest, design.tiling(), dtype};
  for (std::size_t a = 0; a < nest.num_accesses(); ++a) {
    const AccessTerms access = terms(a);
    const BufferBram bram = buffer_bram(access, device);
    usage.buffers.push_back(BufferUsage{nest.accesses()[a].access.array,
                                        access.footprint_elems, bram.depth_pow2,
                                        bram.bytes, bram.bram_blocks});
  }
  usage.bram_blocks = bram_usage_blocks(nest, design, device, dtype);

  SynthInput synth;
  synth.pe_rows = design.shape().rows;
  synth.pe_cols = design.shape().cols;
  synth.simd_vec = design.shape().vec;
  synth.bram_blocks = usage.bram_blocks;
  synth.dtype = dtype;
  usage.report = estimate_resources(synth, device);
  return usage;
}

ResourceUsage worst_case_resources(const std::vector<LoopNest>& nests,
                                   const DesignPoint& design,
                                   const FpgaDevice& device, DataType dtype) {
  assert(!nests.empty());
  std::size_t worst = 0;
  std::int64_t max_bram = 0;
  for (std::size_t i = 0; i < nests.size(); ++i) {
    const std::int64_t bram = bram_usage_blocks(nests[i], design, device, dtype);
    if (bram > max_bram) {
      max_bram = bram;
      worst = i;
    }
  }
  return model_resources(nests[worst], design, device, dtype);
}

std::int64_t bram_usage_blocks(const LoopNest& nest, const DesignPoint& design,
                               const FpgaDevice& device, DataType dtype) {
  return evaluate_layer_bram(nest.num_accesses(),
                             TilingTerms{nest, design.tiling(), dtype},
                             design.shape().num_pes(), device);
}

std::int64_t bram_usage_blocks_banked(const LoopNest& nest,
                                      const DesignPoint& design,
                                      const FpgaDevice& device,
                                      DataType dtype) {
  const TilingSpec& tiling = design.tiling();
  const SystolicMapping& mapping = design.mapping();
  std::int64_t total_blocks = 0;
  for (std::size_t a = 0; a < nest.num_accesses(); ++a) {
    const ArrayAccess& access = nest.accesses()[a];
    // Bank count: operands are banked per boundary PE of their feed edge
    // times the SIMD width; the output is banked per column.
    std::int64_t banks;
    if (access.role == AccessRole::kReduce) {
      banks = design.shape().cols;
    } else {
      const bool vertical = access.access.invariant_in(mapping.row_loop);
      banks = (vertical ? design.shape().cols : design.shape().rows) *
              design.shape().vec;
    }
    const std::int64_t elems = tiling.footprint_elems(access.access);
    const std::int64_t per_bank = ceil_div(elems, banks);
    const double bank_bytes = 2.0 *
                              static_cast<double>(round_up_pow2(per_bank)) *
                              bytes_per_element(dtype, nest, a);
    total_blocks +=
        banks * static_cast<std::int64_t>(std::ceil(
                    bank_bytes / static_cast<double>(device.bram_bytes()))) +
        device.bram_const_per_buffer;
  }
  total_blocks += static_cast<std::int64_t>(std::ceil(
      device.bram_per_pe * static_cast<double>(design.shape().num_pes())));
  return total_blocks;
}

std::string ResourceUsage::summary() const {
  std::string out =
      strformat("lanes=%lld dsp=%lld bram=%lld\n", static_cast<long long>(lanes),
                static_cast<long long>(dsp_blocks),
                static_cast<long long>(bram_blocks));
  for (const BufferUsage& buf : buffers) {
    out += strformat("  %s: DA=%lld depth=%lld bram=%lld\n", buf.array.c_str(),
                     static_cast<long long>(buf.footprint_elems),
                     static_cast<long long>(buf.depth_pow2),
                     static_cast<long long>(buf.bram_blocks));
  }
  out += "  " + report.summary() + "\n";
  return out;
}

}  // namespace sasynth
