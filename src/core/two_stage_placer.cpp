#include "core/two_stage_placer.h"

#include "core/placer.h"
#include "util/rng.h"

namespace dmfb {

std::uint64_t ltsa_seed(std::uint64_t context_seed) {
  return SplitMix64(context_seed ^ 0x5a5a5a5aULL).next();
}

PlacementOutcome anneal_ltsa(const Placement& stage1,
                             const PlacerContext& context, double beta,
                             std::uint64_t seed) {
  // Stage 2's beta > 0 objective runs on the delta engine's cached FTI
  // relocation queries instead of rebuilding every module's prefix sums
  // per proposal.
  PlacerContext stage2 = context;
  stage2.annealing = context.ltsa;
  stage2.weights.beta = beta;
  stage2.seed = seed;
  // LTSA performs only single-module displacement (§6.2).
  stage2.moves.single_move_probability = 1.0;
  stage2.moves.rotate_probability = 0.0;
  return anneal_from(stage1, stage2);
}

}  // namespace dmfb
