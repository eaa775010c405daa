// Tests for the simulated-annealing placer (core/sa_placer.h). The SA
// schedules here are shortened for test speed; the bench binaries use the
// paper's full parameters.
#include "core/sa_placer.h"

#include <gtest/gtest.h>

#include "assay/assay_library.h"
#include "assay/scheduler.h"
#include "core/greedy_placer.h"
#include "core/placer.h"

namespace dmfb {
namespace {

Schedule pcr_schedule() {
  const auto assay = pcr_mixing_assay();
  return list_schedule(assay.graph, assay.binding, assay.scheduler_options);
}

PlacerContext fast_options() {
  PlacerContext options;
  options.annealing.initial_temperature = 1000.0;
  options.annealing.cooling_rate = 0.8;
  options.annealing.iterations_per_module = 60;
  options.annealing.min_temperature = 0.1;
  return options;
}

TEST(SaPlacerTest, ResultIsFeasible) {
  const auto outcome = make_placer("sa")->place(pcr_schedule(), fast_options());
  EXPECT_TRUE(outcome.placement.feasible());
  EXPECT_EQ(outcome.cost.overlap_cells, 0);
}

TEST(SaPlacerTest, ImprovesOnGreedyInitialArea) {
  const Schedule schedule = pcr_schedule();
  const Placement greedy = place_greedy(schedule, 24, 24);
  const auto outcome =
      make_placer("sa")->place(schedule, fast_options());
  EXPECT_LE(outcome.cost.area_cells, greedy.bounding_box_cells());
}

TEST(SaPlacerTest, AreaNeverBelowPeakConcurrentCells) {
  const Schedule schedule = pcr_schedule();
  const auto outcome =
      make_placer("sa")->place(schedule, fast_options());
  EXPECT_GE(outcome.cost.area_cells, schedule.peak_concurrent_cells());
}

TEST(SaPlacerTest, DeterministicForSeed) {
  const Schedule schedule = pcr_schedule();
  PlacerContext options = fast_options();
  options.seed = 42;
  const auto a = make_placer("sa")->place(schedule, options);
  const auto b = make_placer("sa")->place(schedule, options);
  EXPECT_EQ(a.cost.area_cells, b.cost.area_cells);
  for (int i = 0; i < a.placement.module_count(); ++i) {
    EXPECT_EQ(a.placement.module(i).anchor, b.placement.module(i).anchor);
  }
}

TEST(SaPlacerTest, DifferentSeedsExploreDifferently) {
  const Schedule schedule = pcr_schedule();
  PlacerContext options = fast_options();
  options.seed = 1;
  const auto a = make_placer("sa")->place(schedule, options);
  options.seed = 2;
  const auto b = make_placer("sa")->place(schedule, options);
  bool any_difference = a.cost.area_cells != b.cost.area_cells;
  for (int i = 0; !any_difference && i < a.placement.module_count(); ++i) {
    any_difference =
        !(a.placement.module(i).anchor == b.placement.module(i).anchor);
  }
  EXPECT_TRUE(any_difference);
}

TEST(SaPlacerTest, StatsReflectRun) {
  const auto outcome =
      make_placer("sa")->place(pcr_schedule(), fast_options());
  EXPECT_GT(outcome.stats.proposals, 0);
  EXPECT_GT(outcome.stats.accepted, 0);
  EXPECT_GT(outcome.stats.temperature_steps, 0);
  EXPECT_GE(outcome.wall_seconds, 0.0);
  EXPECT_LT(outcome.stats.best_cost,
            std::numeric_limits<double>::infinity());
}

TEST(SaPlacerTest, AnnealFromRefinesGivenPlacement) {
  const Schedule schedule = pcr_schedule();
  const Placement start = place_greedy(schedule, 24, 24);
  PlacerContext options = fast_options();
  const auto outcome = anneal_from(start, options);
  EXPECT_TRUE(outcome.placement.feasible());
  EXPECT_LE(outcome.cost.area_cells, start.bounding_box_cells());
}

TEST(SaPlacerTest, TinyCanvasStillFeasible) {
  // Canvas barely larger than the peak footprint: annealing must keep a
  // feasible answer (the greedy initial placement).
  const Schedule schedule = pcr_schedule();
  PlacerContext options = fast_options();
  options.canvas_width = 12;
  options.canvas_height = 12;
  const auto outcome = make_placer("sa")->place(schedule, options);
  EXPECT_TRUE(outcome.placement.feasible());
}

TEST(SaPlacerTest, SingleModuleCollapsesToFootprint) {
  Schedule s;
  const ModuleSpec spec{"m", ModuleKind::kMixer, 2, 2, 5.0};  // 4x4
  s.add(ScheduledModule{0, "A", spec, 0.0, 5.0, -1, -1});
  const auto outcome = make_placer("sa")->place(s, fast_options());
  EXPECT_EQ(outcome.cost.area_cells, 16);
}

TEST(SaPlacerTest, PaperDefaultsPreserved) {
  const PlacerContext options;
  EXPECT_DOUBLE_EQ(options.annealing.initial_temperature, 10000.0);
  EXPECT_DOUBLE_EQ(options.annealing.cooling_rate, 0.9);
  EXPECT_EQ(options.annealing.iterations_per_module, 400);
  EXPECT_DOUBLE_EQ(options.weights.alpha, 1.0);
  EXPECT_DOUBLE_EQ(options.weights.beta, 0.0);
}

TEST(SaPlacerTest, MoveKindTalliesCoverEveryProposal) {
  const auto outcome =
      make_placer("sa")->place(pcr_schedule(), fast_options());
  long long proposals = 0;
  long long accepted = 0;
  for (int k = 0; k < AnnealingStats::kMoveKindSlots; ++k) {
    proposals += outcome.stats.proposals_by_kind[k];
    accepted += outcome.stats.accepted_by_kind[k];
  }
  EXPECT_EQ(proposals, outcome.stats.proposals);
  EXPECT_EQ(accepted, outcome.stats.accepted);
}

TEST(SaPlacerTest, RejectsSchedulesThatNeverTerminate) {
  const Placement start = place_greedy(pcr_schedule(), 24, 24);
  PlacerContext alpha_one = fast_options();
  alpha_one.annealing.cooling_rate = 1.0;
  EXPECT_THROW(anneal_from(start, alpha_one), std::invalid_argument);
  PlacerContext negative_floor = fast_options();
  negative_floor.annealing.min_temperature = -1.0;
  EXPECT_THROW(anneal_from(start, negative_floor), std::invalid_argument);
}

}  // namespace
}  // namespace dmfb
