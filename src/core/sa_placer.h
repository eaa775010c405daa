// sa_placer.h — simulated-annealing module placement (§4 of the paper).
//
// Operates directly on physical coordinates, sizes and orientations of the
// modules (no problem encoding); infeasible intermediate placements are
// allowed and priced by an overlap penalty the annealer drives to zero.
//
// One engine runs every anneal: an IncrementalPlacementState
// (core/incremental_cost.h) mutated in place by the anneal_delta loop
// (core/annealer.h), each proposal priced by the cost terms it touched
// (the FTI term only when a floor on the delta cannot reject it).
// Its trajectory is seed-for-seed identical to a per-proposal copy plus
// full re-evaluation; that copying oracle lives in tests/support/ and
// tests/test_incremental_cost.cpp pins the identity.
#pragma once

#include <vector>

#include "core/annealer.h"
#include "core/cost.h"
#include "core/moves.h"
#include "core/placement.h"

namespace dmfb {

struct PlacerContext;  // core/placer.h

/// Result of a placement run.
struct PlacementOutcome {
  Placement placement;
  CostBreakdown cost;      ///< of the returned placement
  AnnealingStats stats;
  double wall_seconds = 0.0;
  /// Per-replica loop stats, filled by the "portfolio" backend only
  /// (core/portfolio_placer.h); empty for single-run placers. `stats`
  /// above then aggregates across replicas (see anneal_portfolio).
  std::vector<AnnealingStats> replica_stats;
};

/// Anneals from `initial` with `context`'s schedule, moves, weights,
/// defect map, route links and seed (the "sa" backend and both stages of
/// "two-stage" run on it). The returned placement is the best feasible,
/// defect-free one seen, so a feasible initial guarantees a feasible
/// result. Throws std::invalid_argument when context.annealing would
/// never terminate (see validate_schedule).
PlacementOutcome anneal_from(const Placement& initial,
                             const PlacerContext& context);

}  // namespace dmfb
