// Cross-checks for the delta-cost engine (core/incremental_cost.h): the
// incremental state must track the from-scratch CostEvaluator exactly —
// after every propose, commit and revert, for beta = 0 and beta > 0, with
// and without defect maps — and the delta annealing engine must replay the
// copying oracle's (tests/support/copy_annealer.h) trajectory seed for seed.
#include "core/incremental_cost.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/fti.h"
#include "core/moves.h"
#include "core/placer.h"
#include "core/sa_placer.h"
#include "support/copy_annealer.h"
#include "util/rng.h"

namespace dmfb {
namespace {

/// A schedule whose module intervals produce a mixed conflict structure:
/// some pairs overlap in time (and so may conflict spatially), some are
/// disjoint and reuse cells.
Schedule mixed_schedule(int modules, Rng& rng) {
  Schedule s;
  for (int i = 0; i < modules; ++i) {
    const int w = 1 + static_cast<int>(rng.next_below(4));
    const int h = 1 + static_cast<int>(rng.next_below(4));
    const double start = static_cast<double>(rng.next_below(30));
    const double duration = 5.0 + static_cast<double>(rng.next_below(20));
    const std::string id = std::to_string(i);
    const ModuleSpec spec{"m" + id, ModuleKind::kMixer, w, h, duration};
    s.add(ScheduledModule{i, "M" + id, spec, start, start + duration, -1, -1});
  }
  return s;
}

/// The canvas an input is drawn on.
struct Canvas {
  int width = 0;
  int height = 0;
};

/// Rows fit one 64-cell bitboard word.
constexpr Canvas kSmall{16, 16};
/// Rows span three bitboard words (see random_input).
constexpr Canvas kWide{140, 12};

bool is_wide(Canvas canvas) { return canvas.width > 128; }

/// A placement with every anchor randomized (in canvas, any orientation).
Placement random_placement(const Schedule& schedule, Canvas canvas,
                           Rng& rng) {
  Placement p(schedule, canvas.width, canvas.height);
  MoveOptions scatter;
  scatter.single_move_probability = 1.0;
  scatter.rotate_probability = 0.5;
  scatter.use_controlling_window = false;
  for (int i = 0; i < 3 * p.module_count(); ++i) {
    apply_random_move(p, 1.0, scatter, rng);
  }
  return p;
}

/// A scattered placement of `modules` mixed modules on `canvas`. On the
/// wide canvas the schedule gains two modules wider than 64 cells (66
/// and 126 functional columns) that time-overlap everyone, and they and
/// two small modules start across the 64- and 128-column word
/// boundaries.
Placement random_input(int modules, Canvas canvas, Rng& rng) {
  Schedule schedule = mixed_schedule(modules, rng);
  if (!is_wide(canvas)) return random_placement(schedule, canvas, rng);
  for (const int width : {66, 126}) {
    const int op = static_cast<int>(schedule.modules().size());
    const std::string id = std::to_string(op);
    const ModuleSpec spec{"w" + id, ModuleKind::kMixer, width, 1, 40.0};
    schedule.add(ScheduledModule{op, "W" + id, spec, 0.0, 40.0, -1, -1});
  }
  Placement p = random_placement(schedule, canvas, rng);
  p.set_position(modules, Point{62, 4}, false);      // columns 62..129
  p.set_position(modules + 1, Point{1, 0}, false);   // columns 1..128
  p.set_position(0, Point{62, 6}, false);            // across column 64
  p.set_position(1, Point{126, 6}, false);           // across column 128
  return p;
}

/// Default moves, without rotations on the wide canvas: a module wider
/// than 64 cells turned upright would stretch the region some hundred
/// rows above the 12-row canvas.
MoveOptions moves_on(Canvas canvas) {
  MoveOptions moves;
  if (is_wide(canvas)) moves.rotate_probability = 0.0;
  return moves;
}

void expect_matches_evaluator(const IncrementalPlacementState& state,
                              const CostEvaluator& evaluator) {
  const CostBreakdown fresh = evaluator.evaluate(state.placement());
  const CostBreakdown tracked = state.breakdown();
  EXPECT_EQ(tracked.area_cells, fresh.area_cells);
  EXPECT_EQ(tracked.overlap_cells, fresh.overlap_cells);
  EXPECT_EQ(tracked.defect_cells, fresh.defect_cells);
  EXPECT_DOUBLE_EQ(tracked.fti, fresh.fti);
  EXPECT_EQ(tracked.route_pressure, fresh.route_pressure);
  EXPECT_DOUBLE_EQ(tracked.value, fresh.value);
  EXPECT_DOUBLE_EQ(state.cost(), fresh.value);
  EXPECT_EQ(state.feasible(), state.placement().feasible());
  EXPECT_EQ(state.defect_cells(), evaluator.defect_usage(state.placement()));
}

/// Route links over consecutive modules, for the gamma != 0 cases.
std::vector<RouteLink> chain_links(int modules) {
  std::vector<RouteLink> links;
  for (int i = 0; i < modules; ++i) {
    links.push_back(RouteLink{i > 0 ? i - 1 : -1, i, 1 + i % 3});
  }
  return links;
}

/// Settles a fresh proposal priced at `priced` the way the annealer may:
/// a floor is resolved on two steps in three (checked against the exact
/// delta) and left unresolved on the third, then the proposal is
/// committed or reverted by a coin flip. Returns whether a floor was
/// checked.
bool settle(IncrementalPlacementState& state, double priced, double before,
            int step, Rng& rng) {
  const bool floor = !state.exact();
  const bool resolved = floor && step % 3 != 0;
  double delta = priced;
  if (resolved) {
    delta = state.resolve();
    EXPECT_TRUE(state.exact());
    // The floor is a bound bit for bit, not approximately.
    EXPECT_LE(priced, delta) << "step " << step;
    // Resolving applies the move but leaves the committed cost.
    EXPECT_DOUBLE_EQ(state.cost(), before);
  }
  if (rng.next_bool(0.5)) {
    const double after = state.commit();
    if (!floor || resolved) {
      EXPECT_DOUBLE_EQ(after, before + delta);
    }
  } else {
    state.revert();
    EXPECT_DOUBLE_EQ(state.cost(), before);
  }
  EXPECT_FALSE(state.has_pending());
  return resolved;
}

/// Random move sequence with random resolve/commit/revert decisions; the
/// tracked cost must equal a fresh evaluation after every step. Returns
/// how many floors were checked against their exact delta.
int run_cross_check(double beta, std::vector<Point> defects,
                    std::uint64_t seed, Canvas canvas, double gamma = 0.0) {
  Rng rng(seed);
  const Placement initial = random_input(8, canvas, rng);

  CostWeights weights;
  weights.beta = beta;
  weights.gamma = gamma;
  CostEvaluator evaluator(weights);
  evaluator.set_defects(std::move(defects));
  if (gamma != 0.0) {
    evaluator.set_route_links(chain_links(initial.module_count()));
  }

  IncrementalPlacementState state(initial, evaluator);
  expect_matches_evaluator(state, evaluator);

  int floors = 0;
  const MoveOptions moves = moves_on(canvas);
  for (int step = 0; step < 200; ++step) {
    const double fraction = 1.0 - static_cast<double>(step) / 200.0;
    const PlacementMove move =
        generate_random_move(state.placement(), fraction, moves, rng);
    const double before = state.cost();
    const double priced = state.propose(move);
    EXPECT_TRUE(state.has_pending());
    if (beta == 0.0) {
      EXPECT_TRUE(state.exact());
    }
    // Mid-proposal, cost() keeps reporting the committed state.
    EXPECT_DOUBLE_EQ(state.cost(), before);
    if (settle(state, priced, before, step, rng)) ++floors;
    expect_matches_evaluator(state, evaluator);
    if (::testing::Test::HasFailure()) break;
  }
  return floors;
}

TEST(IncrementalCostTest, TracksEvaluatorAreaOnly) {
  run_cross_check(/*beta=*/0.0, {}, /*seed=*/11, kSmall);
  run_cross_check(/*beta=*/0.0, {}, /*seed=*/12, kSmall);
}

TEST(IncrementalCostTest, TracksEvaluatorWithFti) {
  run_cross_check(/*beta=*/30.0, {}, /*seed=*/21, kSmall);
  run_cross_check(/*beta=*/30.0, {}, /*seed=*/22, kSmall);
}

TEST(IncrementalCostTest, TracksEvaluatorWithDefects) {
  const std::vector<Point> defects{{3, 3}, {7, 2}, {12, 12}, {3, 3}};
  run_cross_check(/*beta=*/0.0, defects, /*seed=*/31, kSmall);
  run_cross_check(/*beta=*/30.0, defects, /*seed=*/32, kSmall);
}

TEST(IncrementalCostTest, TracksEvaluatorWithFtiOnWideCanvas) {
  run_cross_check(/*beta=*/30.0, {}, /*seed=*/23, kWide);
  run_cross_check(/*beta=*/30.0, {{63, 5}, {64, 5}, {128, 1}}, /*seed=*/33,
                  kWide);
}

TEST(IncrementalCostTest, FloorNeverExceedsTheExactDelta) {
  // Every beta != 0 proposal is priced with FTI at its best case; the
  // floor must never exceed the delta resolve() prices, for either sign
  // of beta, under defects, route pressure and the wide canvas.
  const std::vector<Point> defects{{3, 3}, {7, 2}, {12, 12}, {3, 3}};
  for (const double beta : {30.0, 10.0, -5.0}) {
    SCOPED_TRACE(beta);
    EXPECT_GT(run_cross_check(beta, {}, /*seed=*/61, kSmall), 0);
    EXPECT_GT(run_cross_check(beta, defects, /*seed=*/62, kSmall), 0);
    EXPECT_GT(run_cross_check(beta, {}, /*seed=*/63, kSmall,
                              /*gamma=*/0.05),
              0);
    EXPECT_GT(run_cross_check(beta, {{63, 5}, {64, 5}}, /*seed=*/64, kWide,
                              /*gamma=*/0.05),
              0);
  }
}

void expect_identical_outcomes(const PlacementOutcome& copy,
                               const PlacementOutcome& delta) {
  EXPECT_EQ(copy.stats.proposals, delta.stats.proposals);
  EXPECT_EQ(copy.stats.accepted, delta.stats.accepted);
  EXPECT_EQ(copy.stats.uphill_accepted, delta.stats.uphill_accepted);
  for (int k = 0; k < AnnealingStats::kMoveKindSlots; ++k) {
    // Identical trajectories draw identical move kinds.
    EXPECT_EQ(copy.stats.proposals_by_kind[k],
              delta.stats.proposals_by_kind[k])
        << "kind " << k;
  }
  EXPECT_DOUBLE_EQ(copy.stats.best_cost, delta.stats.best_cost);
  EXPECT_DOUBLE_EQ(copy.cost.value, delta.cost.value);
  ASSERT_EQ(copy.placement.module_count(), delta.placement.module_count());
  for (int i = 0; i < copy.placement.module_count(); ++i) {
    EXPECT_EQ(copy.placement.module(i).anchor, delta.placement.module(i).anchor)
        << "module " << i;
    EXPECT_EQ(copy.placement.module(i).rotated,
              delta.placement.module(i).rotated)
        << "module " << i;
  }
}

/// A shortened (but real) schedule for the engine-equivalence runs.
AnnealingSchedule short_schedule(Canvas canvas) {
  AnnealingSchedule annealing;
  annealing.initial_temperature = 200.0;
  annealing.cooling_rate = 0.8;
  // The copy oracle re-evaluates FTI over the whole region per proposal,
  // ~12x the cells on the wide canvas: fewer proposals per step there
  // keep the sanitizer build fast.
  annealing.iterations_per_module = is_wide(canvas) ? 8 : 30;
  annealing.min_temperature = 0.5;
  return annealing;
}

/// Seed-for-seed equivalence of the copying oracle and the delta engine
/// over `annealing`. Returns the delta engine's stats.
AnnealingStats run_engine_equivalence(double beta, std::vector<Point> defects,
                                      std::uint64_t seed, Canvas canvas,
                                      const AnnealingSchedule& annealing) {
  Rng rng(seed);
  const Placement initial = random_input(7, canvas, rng);

  PlacerContext options;
  options.canvas_width = canvas.width;
  options.canvas_height = canvas.height;
  options.moves = moves_on(canvas);
  options.annealing = annealing;
  options.weights.beta = beta;
  options.defects = std::move(defects);
  options.seed = seed;

  const PlacementOutcome copy = anneal_copy(initial, options);
  const PlacementOutcome delta = anneal_from(initial, options);
  expect_identical_outcomes(copy, delta);
  return delta.stats;
}

AnnealingStats run_engine_equivalence(double beta, std::vector<Point> defects,
                                      std::uint64_t seed, Canvas canvas) {
  return run_engine_equivalence(beta, std::move(defects), seed, canvas,
                                short_schedule(canvas));
}

TEST(IncrementalCostTest, EnginesAgreeSeedForSeedAreaOnly) {
  EXPECT_EQ(run_engine_equivalence(/*beta=*/0.0, {}, /*seed=*/101, kSmall)
                .bound_rejected,
            0);
  run_engine_equivalence(/*beta=*/0.0, {}, /*seed=*/102, kSmall);
}

// The beta > 0 cases also prove the early-reject path ran: proposals
// rejected on their floor, before FTI was priced, left the trajectory
// the copy oracle's.
TEST(IncrementalCostTest, EnginesAgreeSeedForSeedWithFti) {
  EXPECT_GT(run_engine_equivalence(/*beta=*/30.0, {}, /*seed=*/201, kSmall)
                .bound_rejected,
            0);
}

TEST(IncrementalCostTest, EnginesAgreeSeedForSeedWithDefects) {
  run_engine_equivalence(/*beta=*/0.0, {{2, 2}, {9, 9}}, /*seed=*/301,
                         kSmall);
}

TEST(IncrementalCostTest, EnginesAgreeSeedForSeedWithFtiOnWideCanvas) {
  EXPECT_GT(run_engine_equivalence(/*beta=*/30.0, {}, /*seed=*/202, kWide)
                .bound_rejected,
            0);
}

TEST(IncrementalCostTest, EnginesAgreeSeedForSeedUnderThePaperSchedule) {
  // The "sa" at beta = 10 class of FTI-weighted compiles: the paper's
  // T0 = 10000 and alpha = 0.9, with fewer iterations per module so the
  // copy oracle stays affordable.
  AnnealingSchedule paper;
  paper.iterations_per_module = 6;
  EXPECT_GT(run_engine_equivalence(/*beta=*/10.0, {}, /*seed=*/203, kSmall,
                                   paper)
                .bound_rejected,
            0);
  EXPECT_GT(run_engine_equivalence(/*beta=*/10.0, {{4, 4}, {10, 3}},
                                   /*seed=*/204, kSmall, paper)
                .bound_rejected,
            0);
}

TEST(IncrementalCostTest, EnginesAgreeSeedForSeedWithNegativeBeta) {
  // beta < 0 prices FTI's best case at 0: the floor path with the other
  // sign of the term.
  run_engine_equivalence(/*beta=*/-5.0, {}, /*seed=*/205, kSmall);
}

TEST(IncrementalCostTest, GenerateThenApplyEqualsApplyRandomMove) {
  // The two engines share one random stream contract: generating a move
  // and applying it must consume and produce exactly what the legacy
  // in-place mutation does.
  Rng seed_rng(7);
  Placement a = random_input(6, kSmall, seed_rng);
  Placement b = a;

  MoveOptions moves;
  Rng rng_a(99);
  Rng rng_b(99);
  for (int step = 0; step < 100; ++step) {
    const double fraction = 1.0 - static_cast<double>(step) / 100.0;
    const MoveKind kind_a = apply_random_move(a, fraction, moves, rng_a);
    const PlacementMove move =
        generate_random_move(b, fraction, moves, rng_b);
    apply_move(b, move);
    EXPECT_EQ(kind_a, move.kind);
    for (int i = 0; i < a.module_count(); ++i) {
      ASSERT_EQ(a.module(i).anchor, b.module(i).anchor) << "module " << i;
      ASSERT_EQ(a.module(i).rotated, b.module(i).rotated) << "module " << i;
    }
  }
  EXPECT_EQ(rng_a.next(), rng_b.next());  // identical stream consumption
}

/// The coverage-grid audit (the per-cell counterpart of
/// run_cross_check): `steps` random moves with random commit/revert
/// decisions, pinning the incremental evaluator's per-cell coverage
/// state against BOTH reference evaluators after every operation —
/// `evaluate_fti`'s mask and the definition-faithful
/// `is_cell_covered_reference` — including mid-proposal: before
/// resolve() the state still holds the committed placement, after it
/// the proposed one.
void run_coverage_audit(double beta, double gamma, std::uint64_t seed,
                        Canvas canvas, int steps) {
  Rng rng(seed);
  const Placement initial = random_input(6, canvas, rng);

  CostWeights weights;
  weights.beta = beta;
  weights.gamma = gamma;
  CostEvaluator evaluator(weights);
  if (gamma != 0.0) {
    evaluator.set_route_links(chain_links(initial.module_count()));
  }

  IncrementalPlacementState state(initial, evaluator);

  const auto audit_coverage = [&](const char* when, int step) {
    const FtiIncrementalEvaluator* fti = state.fti_evaluator();
    if (fti == nullptr) return;  // beta == 0: the term is never engaged
    const Rect region = state.placement().bounding_box();
    ASSERT_EQ(fti->region(), region) << when << " step " << step;
    const FtiResult reference =
        evaluate_fti(state.placement(), fti->options(), region);
    EXPECT_EQ(fti->covered_cells(), reference.covered_cells)
        << when << " step " << step;
    // Every region cell plus a one-cell ring outside (uncovered by
    // definition on both sides).
    for (int y = region.y - 1; y <= region.top(); ++y) {
      for (int x = region.x - 1; x <= region.right(); ++x) {
        const Point cell{x, y};
        const bool incremental = fti->is_cell_covered(cell);
        const bool in_region = region.contains(cell);
        const bool fast = in_region && reference.covered.at(
                                           x - region.x, y - region.y) != 0;
        ASSERT_EQ(incremental, fast)
            << when << " step " << step << " cell (" << x << "," << y << ")";
        const bool definition = is_cell_covered_reference(
            state.placement(), cell, fti->options(), region);
        ASSERT_EQ(incremental, definition)
            << when << " step " << step << " cell (" << x << "," << y << ")";
      }
    }
  };

  const MoveOptions moves = moves_on(canvas);
  audit_coverage("initial", -1);
  for (int step = 0; step < steps; ++step) {
    const double fraction =
        1.0 - static_cast<double>(step) / static_cast<double>(steps);
    const PlacementMove move =
        generate_random_move(state.placement(), fraction, moves, rng);
    const double before = state.cost();
    double priced = state.propose(move);
    ASSERT_TRUE(state.has_pending());
    audit_coverage("proposed", step);
    if (!state.exact() && step % 3 != 0) {  // as settle() would
      const double delta = state.resolve();
      EXPECT_LE(priced, delta) << "step " << step;
      priced = delta;
      audit_coverage("resolved", step);
      ASSERT_FALSE(::testing::Test::HasFailure());
    }

    settle(state, priced, before, step, rng);
    audit_coverage("settled", step);
    expect_matches_evaluator(state, evaluator);
  }
}

/// Audit lengths: every step runs the definition-faithful reference on
/// every region cell, so the wide canvas (~1,700 region cells against
/// ~140) gets fewer steps to keep the sanitizer build fast.
constexpr int kAuditSteps = 320;
constexpr int kWideAuditSteps = 16;

TEST(IncrementalCostTest, CoverageAuditAreaOnly) {
  run_coverage_audit(/*beta=*/0.0, /*gamma=*/0.0, /*seed=*/401,
                     Canvas{12, 12}, kAuditSteps);
}

TEST(IncrementalCostTest, CoverageAuditWithFti) {
  run_coverage_audit(/*beta=*/30.0, /*gamma=*/0.0, /*seed=*/402,
                     Canvas{12, 12}, kAuditSteps);
}

TEST(IncrementalCostTest, CoverageAuditWithFtiAndRoutePressure) {
  run_coverage_audit(/*beta=*/30.0, /*gamma=*/0.05, /*seed=*/403,
                     Canvas{12, 12}, kAuditSteps);
}

TEST(IncrementalCostTest, CoverageAuditRoutePressureOnly) {
  run_coverage_audit(/*beta=*/0.0, /*gamma=*/0.05, /*seed=*/404,
                     Canvas{12, 12}, kAuditSteps);
}

TEST(IncrementalCostTest, CoverageAuditWithFtiOnWideCanvas) {
  run_coverage_audit(/*beta=*/30.0, /*gamma=*/0.0, /*seed=*/405, kWide,
                     kWideAuditSteps);
}

TEST(IncrementalCostTest, ProposeRandomMatchesGenerateThenPropose) {
  // The fused proposal path (the portfolio replicas') re-implements the
  // generator; this pins its documented contract: same draws in the same
  // order, same move, same delta as generate_random_move_with_span +
  // propose — the analogue of MovesTest.WithSpanOverloadIsStreamIdentical
  // (portfolio results are not the "sa" placement, so a drift between the
  // two generators would otherwise go unnoticed).
  Rng seed_rng(55);
  const Placement initial = random_input(7, kSmall, seed_rng);
  CostWeights weights;
  weights.beta = 30.0;
  CostEvaluator evaluator(weights);
  IncrementalPlacementState fused(initial, evaluator);
  IncrementalPlacementState split(initial, evaluator);

  MoveOptions moves;  // defaults: displacements, swaps and rotations
  Rng rng_fused(99);
  Rng rng_split(99);
  for (int step = 0; step < 200; ++step) {
    const double fraction = 1.0 - static_cast<double>(step) / 200.0;
    const int span =
        controlling_window_span(fused.placement(), fraction, moves);
    const double delta_fused = fused.propose_random(span, moves, rng_fused);
    const PlacementMove move = generate_random_move_with_span(
        split.placement(), span, moves, rng_split);
    const double delta_split = split.propose(move);
    ASSERT_DOUBLE_EQ(delta_fused, delta_split) << "step " << step;
    ASSERT_EQ(fused.last_move_kind(), move.kind) << "step " << step;
    if (step % 3 != 0) {
      ASSERT_DOUBLE_EQ(fused.commit(), split.commit()) << "step " << step;
    } else {
      fused.revert();
      split.revert();
    }
  }
  EXPECT_EQ(rng_fused.next(), rng_split.next());  // identical consumption
  for (int i = 0; i < fused.placement().module_count(); ++i) {
    ASSERT_EQ(fused.placement().module(i).anchor,
              split.placement().module(i).anchor)
        << "module " << i;
    ASSERT_EQ(fused.placement().module(i).rotated,
              split.placement().module(i).rotated)
        << "module " << i;
  }
}

TEST(IncrementalCostTest, EmptyPlacementProposalsAreNoOps) {
  const Schedule empty;
  Placement placement(empty, 8, 8);
  CostEvaluator evaluator(CostWeights{});
  IncrementalPlacementState state(placement, evaluator);
  Rng rng(1);
  const PlacementMove move =
      generate_random_move(state.placement(), 1.0, MoveOptions{}, rng);
  EXPECT_EQ(move.count, 0);
  EXPECT_DOUBLE_EQ(state.propose(move), 0.0);
  EXPECT_DOUBLE_EQ(state.commit(), 0.0);
  EXPECT_DOUBLE_EQ(state.cost(), 0.0);
}

}  // namespace
}  // namespace dmfb
