// sa_placer.h — simulated-annealing module placement (§4 of the paper).
//
// Operates directly on physical coordinates, sizes and orientations of the
// modules (no problem encoding); infeasible intermediate placements are
// allowed and priced by an overlap penalty the annealer drives to zero.
//
// One engine runs every anneal: an IncrementalPlacementState
// (core/incremental_cost.h) mutated in place by the anneal_delta loop
// (core/annealer.h), each proposal priced by the cost terms it touched.
// Its trajectory is seed-for-seed identical to a per-proposal copy plus
// full re-evaluation; that copying oracle lives in tests/support/ and
// tests/test_incremental_cost.cpp pins the identity.
#pragma once

#include <cstdint>
#include <memory>

#include "assay/schedule.h"
#include "core/annealer.h"
#include "core/cost.h"
#include "core/moves.h"
#include "core/placement.h"
#include "util/deprecation.h"

namespace dmfb {

/// Everything configurable about one annealing run.
struct SaPlacerOptions {
  int canvas_width = 24;   ///< core-area bound (Fig. 4(a))
  int canvas_height = 24;
  AnnealingSchedule schedule;  ///< paper defaults: T0=1e4, alpha=0.9, Na=400
  MoveOptions moves;
  CostWeights weights;     ///< beta = 0 reproduces stage-1 (area-only)
  FtiOptions fti_options;
  /// Electrodes known defective before placement (manufacturing test
  /// results). The annealer refuses to record placements using them, so
  /// the result routes modules around the defect map.
  std::vector<Point> defects;
  /// Droplet-transfer demand edges priced by weights.gamma (routing-aware
  /// placement; routing::extract_links produces them). Ignored at
  /// gamma = 0.
  std::vector<RouteLink> route_links;
  std::uint64_t seed = 0xDA7E2005ULL;
  /// Optional warm start (the synthesis service's placement memo): module
  /// poses are copied index-by-index onto the new schedule's placement and
  /// annealed from there instead of the greedy constructive initial. Used
  /// only when compatible — same module count and the seeded placement is
  /// feasible and defect-free — otherwise silently falls back to greedy.
  /// Poses only; the time structure always comes from the schedule given
  /// to place_simulated_annealing.
  std::shared_ptr<const Placement> initial;
};

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

namespace detail {

/// Transfers module poses from a warm-start placement onto `seeded` (built
/// from the *current* schedule) and validates the result. Returns false —
/// leaving the caller to fall back to a greedy initial — when the counts
/// differ or the transferred poses are infeasible or touch a defect.
/// Shared by the "sa" warm path and the portfolio's replica-0 seeding.
bool seed_from_warm_start(Placement& seeded, const Placement& warm,
                          const SaPlacerOptions& options);

}  // namespace detail

/// Anneals from a greedy constructive initial placement. The returned
/// placement is the best feasible (overlap-free, in-canvas) one seen;
/// since the initial placement is feasible, the result always is.
DMFB_DEPRECATED("use make_placer(\"sa\")->place(schedule, context)")
PlacementOutcome place_simulated_annealing(const Schedule& schedule,
                                           const SaPlacerOptions& options = {});

/// Same, but annealing from a caller-supplied initial placement (used by
/// the two-stage placer's refinement step and by tests). Throws
/// std::invalid_argument when options.schedule would never terminate
/// (see validate_schedule).
PlacementOutcome anneal_from(const Placement& initial,
                             const SaPlacerOptions& options);

}  // namespace dmfb
