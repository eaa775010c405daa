// route_planner.h — concurrent droplet routing at configuration
// changeovers, with fluidic constraints.
//
// The simulator (simulator.h) routes droplets one at a time and ignores
// droplet-droplet interactions; the planners here produce a *checkable
// actuation-ready* plan: at every changeover instant all pending droplet
// transfers are routed simultaneously on a space-time grid under the
// standard DMFB fluidic constraints (droplets must stay >= 2 cells apart
// in Chebyshev distance, both against the other droplet's current and
// previous position, unless they are being merged at the same target).
//
// This header carries the plan data model (TransferRequest, TimedRoute,
// ChangeoverPlan, RoutePlan) and the shared building blocks every routing
// backend composes (`routing::` namespace). The backends themselves are
// reached through the registry in sim/router_backend.h:
//
//   auto router = make_router("negotiated");
//   RoutePlan plan = router->plan(graph, schedule, placement, 16, 16);
//
// Units: a *step* is one actuation interval (a droplet moves one cell or
// waits in place for one step); a *cell* is one cell actually traversed.
// Waits cost steps but no cells, so step counts >= cell counts. Steps
// convert to seconds through the one actuation-rate constant below
// (kActuationStepsPerSecond); every `transport_seconds()` accessor uses
// it, so benches and the pipeline agree on the steps->seconds seam.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "assay/schedule.h"
#include "assay/sequencing_graph.h"
#include "core/cost.h"
#include "core/placement.h"
#include "util/geometry.h"
#include "util/matrix.h"

namespace dmfb {

/// The electrode actuation rate the repo's timing model assumes: droplets
/// advance one cell per actuation period, so a route of N steps takes
/// N / kActuationStepsPerSecond seconds. 13 Hz is 20 cm/s droplet
/// transport at the paper's 1.5 mm pitch — the rate the simulator,
/// actuation compiler and benches have always quoted; it is defined once
/// here (and consumed by SimOptions/ActuationOptions defaults) so every
/// layer agrees on the steps->seconds conversion.
inline constexpr double kActuationStepsPerSecond = 13.0;

/// Seconds per actuation step (the period of kActuationStepsPerSecond).
inline constexpr double kActuationPeriodS = 1.0 / kActuationStepsPerSecond;

/// One droplet transfer request at a changeover.
struct TransferRequest {
  std::string label;   ///< droplet identity (producer op label)
  Point from;
  Point to;
  int target_module = -1;  ///< module index the droplet enters (-1: none)
  /// Module index the droplet leaves (-1: dispensed from the perimeter).
  /// Together with `target_module` this names the transfer's demand edge,
  /// which routing-aware placement prices (core/cost.h RouteLink).
  int source_module = -1;
};

/// A timed route: position per timestep (waits repeat the position).
struct TimedRoute {
  TransferRequest request;
  std::vector<Point> positions;  ///< positions[step], step 0 = at `from`

  /// Steps until arrival (unit: steps — waits in place count, so this is
  /// the droplet's transport *time*, not distance). 0 for an empty route.
  int arrival_step() const {
    return positions.empty() ? 0 : static_cast<int>(positions.size()) - 1;
  }

  /// Cells actually traversed (unit: cells — waits in place do not count,
  /// so this is the droplet's transport *distance*). <= arrival_step().
  int moved_cells() const {
    int moved = 0;
    for (std::size_t i = 1; i < positions.size(); ++i) {
      if (!(positions[i] == positions[i - 1])) ++moved;
    }
    return moved;
  }

  /// This droplet's transport time at the chip's actuation rate.
  double transport_seconds() const {
    return arrival_step() * kActuationPeriodS;
  }
};

/// All routes of one changeover.
struct ChangeoverPlan {
  double time_s = 0.0;
  std::vector<TimedRoute> routes;
  int makespan_steps = 0;  ///< latest arrival among the routes (steps)
  /// Rip-up-and-reroute rounds the "negotiated" backend spent before this
  /// changeover went conflict-free (0: first congestion-aware pass already
  /// was, or another backend planned it).
  int negotiation_rounds = 0;

  /// Wall time the changeover adds to the assay: droplets move
  /// concurrently, so it is the latest arrival at the actuation rate.
  double transport_seconds() const {
    return makespan_steps * kActuationPeriodS;
  }
};

/// A complete routing plan for an assay execution.
struct RoutePlan {
  bool success = false;
  std::string failure_reason;
  std::vector<ChangeoverPlan> changeovers;
  /// Sum of per-droplet arrival steps (unit: droplet-steps, waits
  /// included). Never smaller than `total_moved_cells`.
  long long total_steps = 0;
  /// Sum of per-droplet cells traversed (unit: droplet-cells, waits
  /// excluded) — the electrode-actuation work the plan implies.
  long long total_moved_cells = 0;
  /// Summed negotiation rounds over changeovers (the "negotiated"
  /// backend's convergence effort; 0 for the other backends).
  long long negotiation_rounds = 0;

  /// Transport time implied by the plan at the chip's actuation rate
  /// (kActuationStepsPerSecond): changeover makespans are serial, droplets
  /// within a changeover are concurrent. This is exactly the time
  /// `fold_transport` inserts into a schedule.
  double total_transport_seconds() const {
    return total_transport_seconds(kActuationStepsPerSecond);
  }

  /// Same at an explicit rate — for what-if analyses at other actuation
  /// frequencies; everything in-repo uses the no-argument form.
  double total_transport_seconds(double cells_per_second) const;
};

/// The transport-inclusive schedule: every changeover's measured
/// transport time (ChangeoverPlan::transport_seconds) is folded into the
/// module start times — modules starting at or after a changeover are
/// delayed by it, cumulatively over changeovers — so the result's
/// `makespan_s()` is the transport-inclusive makespan the chip actually
/// needs. Built from Schedule::shift_from, so durations, precedence and
/// time-disjointness are preserved and the placement stays feasible.
Schedule fold_transport(const Schedule& schedule, const RoutePlan& plan);

/// Planner options, shared by every routing backend; backends read the
/// fields relevant to them and ignore the rest.
struct RoutePlannerOptions {
  /// Max timesteps per changeover before giving up (0 = auto: 4*(W+H)).
  int step_horizon = 0;
  /// Minimum Chebyshev separation between unrelated droplets.
  int separation_cells = 2;

  // "negotiated" backend (Pathfinder-style rip-up-and-reroute).
  /// Max negotiation rounds per changeover before falling back.
  int negotiation_rounds = 24;
  /// Cost of sharing a space-time neighbourhood, escalated per round.
  double present_congestion_weight = 1.0;
  /// Weight of accumulated (historic) congestion on a space-time cell.
  double history_congestion_weight = 0.4;
  /// Carry the Pathfinder history grid forward across changeovers (warm
  /// start) instead of resetting it per changeover: space-time cells that
  /// caused conflicts earlier in the assay stay expensive, which cuts
  /// negotiation rounds on layouts whose chokepoints persist (the
  /// ROADMAP's "cross-changeover congestion history"). Forces the
  /// negotiated backend to solve changeovers sequentially in time order
  /// (`threads` is ignored for it) since each warm start consumes the
  /// previous changeover's outcome; the resulting plan is still
  /// deterministic.
  bool persist_congestion_history = false;
  /// Cross-run congestion ledger (the synthesis service's per-layout
  /// Pathfinder memory): when set together with
  /// persist_congestion_history, the negotiated backend warm-starts from
  /// and updates *this* history grid in place instead of a per-plan local
  /// one, so later compiles on the same layout inherit earlier compiles'
  /// conflict record. The router resizes the grid when its dimensions do
  /// not match the current problem. Not thread-safe across concurrent
  /// plan() calls sharing one ledger — callers serialize or copy.
  std::shared_ptr<std::vector<double>> congestion_ledger;

  // "restart" backend (seeded random-restart over transfer orderings).
  /// Shuffled orderings tried per changeover beyond the deterministic one.
  int max_restarts = 8;
  /// Seed for the ordering shuffles; the pipeline overrides this with the
  /// run seed so one number reproduces the whole flow.
  std::uint64_t seed = 0xDA7E2005ULL;

  /// Worker threads for per-changeover routing (all backends). Changeovers
  /// are independent once extracted and stochastic backends derive a
  /// per-changeover seed from `seed`, so the resulting plan is identical
  /// for any thread count (test_parallel_routing.cpp pins 1 vs 4).
  /// 1 = solve in the calling thread, 0 = hardware concurrency.
  int threads = 1;
};

/// Validates a changeover plan against the fluidic constraints; returns
/// human-readable violations (empty = valid). Exposed for tests and used
/// by the shared router conformance suite.
std::vector<std::string> validate_changeover(
    const ChangeoverPlan& plan, const Matrix<std::uint8_t>& blocked,
    const RoutePlannerOptions& options = {});

// --- shared building blocks for routing backends ----------------------
//
// Everything below is the backend-independent core: changeover extraction
// from the schedule, the space-time A* primitive, and the prioritized
// per-changeover solver. Router implementations (sim/router_backend.cpp)
// compose these; they are exposed here so custom backends registered with
// RouterRegistry can too.
namespace routing {

/// Sentinel `from` of a dispense transfer: the droplet has no on-chip
/// position yet, and the solver picks a conflict-free perimeter entry.
inline constexpr Point kDispensePending{-1, -1};

/// One changeover's routing problem, extracted from the schedule: the
/// blocked grid at that instant and the pending transfers (dispense
/// requests carry `kDispensePending` as `from`).
struct ChangeoverProblem {
  double time_s = 0.0;
  Matrix<std::uint8_t> blocked;
  std::vector<TransferRequest> requests;
};

/// Extracts every changeover with at least one transfer, in time order.
/// Droplet positions between changeovers are tracked internally (a
/// droplet always lands at its request's `to`, so extraction does not
/// depend on the backend's path choices). Throws std::invalid_argument
/// when schedule and placement disagree or the chip is too small.
std::vector<ChangeoverProblem> extract_problems(const SequencingGraph& graph,
                                                const Schedule& schedule,
                                                const Placement& placement,
                                                int chip_width,
                                                int chip_height);

/// The droplet-transfer demand edges of a schedule, aggregated per
/// (source module, target module) pair with `weight` = number of
/// transfers on the edge. Placement-independent (derived from graph +
/// schedule alone, with the same droplet bookkeeping as
/// `extract_problems`), so a placer can price routing pressure *before*
/// any placement exists — the routing-aware placement term
/// (CostWeights::gamma, core/cost.h) consumes exactly these. Sorted by
/// (source, target) for determinism.
std::vector<RouteLink> extract_links(const SequencingGraph& graph,
                                     const Schedule& schedule);

/// `links` with measured route costs folded in: each link's weight
/// becomes its transfer count plus the summed arrival steps of the
/// plan's routes on that (source, target) edge. This is the
/// placement-feedback signal — congested edges get heavier, so the next
/// placement round pulls their endpoints together. Links absent from the
/// plan (e.g. changeovers past a routing failure) keep their demand
/// weight.
std::vector<RouteLink> reweight_links(std::vector<RouteLink> links,
                                      const RoutePlan& plan);

/// The per-changeover step horizon implied by `options` (0 = auto).
int resolve_horizon(const RoutePlannerOptions& options, int chip_width,
                    int chip_height);

/// Position of `route` at `step`: clamped to the endpoints (a droplet is
/// parked at its target after arrival).
Point position_at(const TimedRoute& route, int step);

/// All free perimeter cells, nearest to `target` first (dispense entry
/// candidates — the reservoir sits off-chip next to the chosen cell).
std::vector<Point> perimeter_entries(const Matrix<std::uint8_t>& blocked,
                                     Point target);

/// The one fluidic rule, reservation form: does a droplet at `p` on
/// `step` violate the separation constraints against `other`'s timed
/// positions? Checks the static rule plus both directions of the dynamic
/// rule (the other droplet's previous *and* next position). Callers
/// handle the merge-at-same-target exemption.
bool conflicts_with_route(Point p, int step, const TimedRoute& other,
                          int separation);

/// The one fluidic rule, pairwise form: do routes `a` and `b` violate the
/// separation constraints at `step` (static rule, plus the dynamic rule
/// against each other's previous position — the forward direction is
/// covered by the check at step+1)? Callers handle the merge exemption.
bool pair_violates_at(const TimedRoute& a, const TimedRoute& b, int step,
                      int separation);

/// A droplet's moves per step in the space-time searches, in expansion
/// order: wait in place, then the four neighbours.
inline constexpr Point kMoves[5] = {{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}};

/// The reusable state of a space-time A* over the (horizon + 1) x W x H
/// volume of one changeover: per state a best cost, the move that reached
/// it and a stamp. A state's cost, move and visited flag count only when
/// its stamp equals the current search's epoch, so a search sets up only
/// the states it visits. The arrays grow without value-initialising cost
/// or move (both are written before they are read), and the stamps are
/// cleared only when the epoch wraps. One scratch serves the searches of
/// one changeover solve; it is not thread-safe.
class SearchScratch {
 public:
  using Stamp = std::uint16_t;

  /// Starts a search over `states` states, every one of them unvisited.
  void begin(std::size_t states);

  bool visited(std::size_t state) const { return stamp_[state] == epoch_; }

  /// Best cost reached so far; infinity for a state not visited yet.
  double cost(std::size_t state) const {
    return visited(state) ? cost_[state]
                          : std::numeric_limits<double>::infinity();
  }

  /// The kMoves index of the move that reached `state`. Only meaningful
  /// for a visited state other than the start.
  std::uint8_t move(std::size_t state) const { return move_[state]; }

  /// Marks `state` visited, reached by kMoves[move].
  void visit(std::size_t state, std::uint8_t move) {
    stamp_[state] = epoch_;
    move_[state] = move;
  }

  /// Marks `state` visited at `cost`, reached by kMoves[move].
  void visit(std::size_t state, std::uint8_t move, double cost) {
    visit(state, move);
    cost_[state] = cost;
  }

  /// The current search's stamp (0 before the first search).
  Stamp epoch() const { return epoch_; }

 private:
  std::unique_ptr<Stamp[]> stamp_;
  std::unique_ptr<double[]> cost_;
  std::unique_ptr<std::uint8_t[]> move_;
  std::size_t capacity_ = 0;
  Stamp epoch_ = 0;
};

/// Space-time A* for one transfer against `earlier` routes' reservations
/// (hard fluidic constraints, including both directions of the dynamic
/// rule). Returns the per-step positions, or nullopt when no conflict-free
/// path exists within `horizon` steps.
std::optional<std::vector<Point>> route_transfer(
    const TransferRequest& request, const Matrix<std::uint8_t>& blocked,
    const std::vector<TimedRoute>& earlier, int horizon, int separation,
    SearchScratch& scratch);

/// The deterministic visit order: on-chip transfers first (their start
/// cells are fixed), longest first; dispenses last so their entry choice
/// can dodge everything already routed.
std::vector<std::size_t> default_order(
    const std::vector<TransferRequest>& requests);

/// Routes one changeover's transfers in the given visit order, each
/// avoiding the space-time reservations of those before it (prioritized /
/// decoupled planning). Returns nullopt and sets `failure` when some
/// transfer cannot be routed.
std::optional<ChangeoverPlan> solve_prioritized(
    const ChangeoverProblem& problem, const std::vector<std::size_t>& order,
    const RoutePlannerOptions& options, int horizon, SearchScratch& scratch,
    std::string* failure);

/// One changeover's solver: plan the changeover at `index` in `problems`,
/// or return nullopt and set `failure`. Must be thread-safe across
/// changeovers (every built-in backend's solver is: changeovers share no
/// mutable state, and seeded backends split a per-changeover stream from
/// the run seed by index).
using ChangeoverSolver = std::function<std::optional<ChangeoverPlan>(
    const ChangeoverProblem& /*problem*/, std::size_t /*index*/,
    std::string* /*failure*/)>;

/// Solves every changeover with `solve` across `threads` workers (1 =
/// inline in the calling thread, 0 = hardware concurrency) and folds the
/// results into a RoutePlan in changeover order. Because the solver is
/// index-seeded and changeovers are independent, the returned plan is
/// identical for any thread count; on failure the first unroutable
/// changeover (in time order) supplies `failure_reason`.
RoutePlan solve_changeovers(const std::vector<ChangeoverProblem>& problems,
                            int threads, const ChangeoverSolver& solve);

/// Folds a solved changeover into `plan` (routes + step/cell totals).
void accumulate(RoutePlan& plan, ChangeoverPlan&& changeover);

/// The full prioritized planner (extraction + per-changeover solve in
/// `default_order`) — the implementation behind the "prioritized" backend.
RoutePlan plan_prioritized(const SequencingGraph& graph,
                           const Schedule& schedule,
                           const Placement& placement, int chip_width,
                           int chip_height, const RoutePlannerOptions& options);

}  // namespace routing

}  // namespace dmfb
