#include "core/two_stage_placer.h"

namespace dmfb {

TwoStageOutcome place_two_stage(const Schedule& schedule,
                                const TwoStageOptions& options) {
  TwoStageOutcome outcome;

  SaPlacerOptions stage1 = options.stage1;
  stage1.weights.beta = 0.0;  // fault-oblivious by definition
  outcome.stage1 = place_simulated_annealing(schedule, stage1);

  // Stage 2's beta > 0 objective runs on the delta engine's cached FTI
  // relocation queries instead of rebuilding every module's prefix sums
  // per proposal.
  SaPlacerOptions stage2 = options.stage1;
  stage2.schedule = options.ltsa;
  stage2.weights.beta = options.beta;
  stage2.seed = options.stage2_seed;
  // LTSA performs only single-module displacement (§6.2).
  stage2.moves.single_move_probability = 1.0;
  stage2.moves.rotate_probability = 0.0;
  outcome.stage2 = anneal_from(outcome.stage1.placement, stage2);

  return outcome;
}

}  // namespace dmfb
