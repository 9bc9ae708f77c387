// Cross-request memoization interface for the phase-1 sweep.
//
// A (mapping, shape) work item's reuse-strategy DFS is a pure function of
// the *sweep context* — every quantity the LeanModel and the BRAM budget
// read: loop-nest trip counts, access coefficient matrices, bytes per
// element, the device's BRAM/bandwidth constants, the assumed clock, and
// the pow2-middle / max-BRAM-util options. enumerate_phase1 renders that
// context to a canonical text once per sweep (see sweep_context_text in
// dse.cpp) and an item text for each item it evaluates without a
// subtree-skipping floor, and asks the memo for the DFS result stored under
// the pair; only such floor-free results are stored.
//
// A hit returns the DFS result verbatim (the optimal middle bounds, or
// "nothing fits BRAM"), so the item skips its DFS entirely. Because the key
// covers every input of the computation, a hit is bit-identical to
// re-running it: responses stay a pure function of the request at any
// cache state, even for sweeps truncated by a cancel token. A memo saves
// DFS runs and never changes a decision — the branch-and-bound floor comes
// from the sweep's own seed walk (docs/MODEL.md, "Dominance pruning").
//
// Implementations must be thread-safe (the sweep stores from worker
// threads) and collision-safe (verify key texts, not just hashes — the
// serve-layer SweepCache mirrors DesignCache's canonical-text check).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sasynth {

class SweepMemo {
 public:
  /// The DFS outcome for one work item.
  struct Result {
    bool found_fit = false;  ///< false = no middle bounds fit the BRAM budget
    std::vector<std::int64_t> best_s;  ///< optimal middle bounds when found
  };

  virtual ~SweepMemo() = default;

  /// Returns true and fills `out` when (context, item) was stored before.
  virtual bool lookup(const std::string& context, const std::string& item,
                      Result* out) = 0;
  virtual void store(const std::string& context, const std::string& item,
                     const Result& result) = 0;
};

}  // namespace sasynth
