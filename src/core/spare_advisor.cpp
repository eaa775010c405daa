#include "core/spare_advisor.h"

#include <algorithm>

#include "core/fti.h"
#include "core/two_stage_placer.h"

namespace dmfb {
namespace {

/// Base seed of the sweep's stage-2 anneals; each beta xors in its own
/// salt. Stage 1 draws from options.context.seed.
constexpr std::uint64_t kStage2Seed = 0x17A2B00CULL;

}  // namespace

SpareAdvice advise_spares(const Schedule& schedule,
                          const SpareAdvisorOptions& options) {
  SpareAdvice advice;

  // Stage 1 does not depend on beta, so every point refines one anneal.
  PlacerContext stage1 = options.context;
  stage1.weights.beta = 0.0;
  const Placement compact =
      make_placer("sa")->place(schedule, stage1).placement;

  for (const double beta : options.betas) {
    // Vary the stage-2 seed with beta so points are independent samples.
    const PlacementOutcome outcome = anneal_ltsa(
        compact, options.context, beta,
        kStage2Seed ^ static_cast<std::uint64_t>(beta * 1021.0));

    FrontierPoint point;
    point.beta = beta;
    point.area_cells = outcome.cost.area_cells;
    point.fti = evaluate_fti(outcome.placement).fti();
    point.placement = outcome.placement;
    advice.frontier.push_back(std::move(point));
  }

  // Smallest area among points meeting the target; ties broken by FTI.
  const FrontierPoint* best = nullptr;
  for (const auto& point : advice.frontier) {
    if (point.fti + 1e-12 < options.target_fti) continue;
    if (!best || point.area_cells < best->area_cells ||
        (point.area_cells == best->area_cells && point.fti > best->fti)) {
      best = &point;
    }
  }
  if (best) {
    advice.target_met = true;
    advice.chosen = *best;
  }
  return advice;
}

}  // namespace dmfb
