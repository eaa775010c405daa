// spare_advisor.h — "how large an array should I fabricate?" (§1 of the
// paper: "solutions for the placement problem can provide the designer
// with guidelines on the size of the array to be manufactured"; spare
// cells must be placed so faulty cells can be bypassed).
//
// Given a synthesized schedule and a target FTI, the advisor anneals the
// two-stage flow's area-only stage 1 once, refines it (anneal_ltsa) at
// every fault-tolerance weight of the sweep, and reports the smallest
// placement meeting the target, plus the full area/FTI frontier so a
// designer can pick a different point (e.g., the paper's disposable
// glucose-meter vs implantable drug-dosing trade-off, §6.3).
#pragma once

#include <vector>

#include "assay/schedule.h"
#include "core/placer.h"

namespace dmfb {

/// One point of the area/fault-tolerance frontier.
struct FrontierPoint {
  double beta = 0.0;
  long long area_cells = 0;
  double fti = 0.0;
  Placement placement;
};

/// Advisor output.
struct SpareAdvice {
  bool target_met = false;
  FrontierPoint chosen;                 ///< valid iff target_met
  std::vector<FrontierPoint> frontier;  ///< every evaluated point
};

/// Options for the sweep.
struct SpareAdvisorOptions {
  double target_fti = 0.9;
  std::vector<double> betas{10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 80.0};
  /// Annealing parameters: stage 1 runs the "sa" backend on this context
  /// at beta = 0, and every point refines it with `ltsa`.
  PlacerContext context;
};

/// Sweeps beta, collects the frontier, and picks the smallest-area point
/// with FTI >= target. Dominated points (larger area, no more FTI) are
/// kept in the frontier for reporting but never chosen.
SpareAdvice advise_spares(const Schedule& schedule,
                          const SpareAdvisorOptions& options = {});

}  // namespace dmfb
