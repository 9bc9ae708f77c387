// Resource utilization model: Eqs. 4-6 of the paper.
//
//   D(t)    = DSP_per_PE * prod(t)                       (Eq. 4)
//   DA_r    = |{ a | a = F_r(i), i in D_{s,t} }|          (Eq. 5)
//   B(s,t)  = sum_r (c_b + pow2_roundup(DA_r) blocks)     (Eq. 6)
//             + c_p * prod(t)
//
// Footprints use the closed-form per-dimension range product (§3.3); buffer
// depths are rounded up to powers of two because that is how the OpenCL flow
// allocates memories; buffers are doubled for the double-buffering pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/design_point.h"
#include "fpga/datatype.h"
#include "fpga/device.h"
#include "fpga/synth.h"
#include "loopnest/loop_nest.h"

namespace sasynth {

/// Bytes used to store one element of the named array under `dtype`.
/// Weights use the weight width, the reduction array and pixels use the
/// pixel width (layer outputs feed the next layer's pixel port).
double bytes_per_element(DataType dtype, const LoopNest& nest,
                         std::size_t access_index);

/// Per-array reuse-buffer accounting.
struct BufferUsage {
  std::string array;
  std::int64_t footprint_elems = 0;  ///< DA_r, Eq. 5
  std::int64_t depth_pow2 = 0;       ///< pow2_roundup(DA_r)
  double bytes = 0.0;                ///< 2 * depth * elem bytes (double buffer)
  std::int64_t bram_blocks = 0;      ///< ceil(bytes / block) + c_b
};

struct ResourceUsage {
  std::int64_t lanes = 0;          ///< prod(t), the MAC count of Eq. 4
  std::int64_t dsp_blocks = 0;
  std::vector<BufferUsage> buffers;
  std::int64_t bram_blocks = 0;    ///< B(s,t), Eq. 6
  ResourceReport report;           ///< full synthesis-style report

  std::string summary() const;
};

/// Evaluates the full resource model for a design point.
ResourceUsage model_resources(const LoopNest& nest, const DesignPoint& design,
                              const FpgaDevice& device, DataType dtype);

/// The resource report of one array that runs every nest in `nests`:
/// model_resources on the first nest with the most BRAM. Buffer footprints
/// depend on the nest (the input tile grows with the stride), so an array
/// shared across layers is sized, and clocked, by its worst-case layer.
/// `nests` must be non-empty.
ResourceUsage worst_case_resources(const std::vector<LoopNest>& nests,
                                   const DesignPoint& design,
                                   const FpgaDevice& device, DataType dtype);

/// Just B(s,t) (Eq. 6) — the hot path of the DSE inner loop.
std::int64_t bram_usage_blocks(const LoopNest& nest, const DesignPoint& design,
                               const FpgaDevice& device, DataType dtype);

/// Banked variant of Eq. 6: in hardware every buffer is distributed so each
/// PE column (IB/OB) or row (WB) has its own bank delivering `vec` elements
/// per cycle, and *each bank's* depth rounds up to a power of two. More
/// faithful than the paper's monolithic formula and never smaller; exposed
/// for the BRAM-model ablation (the DSE uses the paper's Eq. 6).
std::int64_t bram_usage_blocks_banked(const LoopNest& nest,
                                      const DesignPoint& design,
                                      const FpgaDevice& device,
                                      DataType dtype);

}  // namespace sasynth
