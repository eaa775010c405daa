// Tests for the two-stage fault-aware placer (core/two_stage_placer.h).
// SA schedules are shortened for test speed.
#include "core/two_stage_placer.h"

#include <gtest/gtest.h>

#include "assay/assay_library.h"
#include "assay/scheduler.h"
#include "core/fti.h"
#include "core/placer.h"

namespace dmfb {
namespace {

Schedule pcr_schedule() {
  const auto assay = pcr_mixing_assay();
  return list_schedule(assay.graph, assay.binding, assay.scheduler_options);
}

PlacerContext fast_options(double beta) {
  PlacerContext context;
  context.two_stage_beta = beta;
  context.annealing.initial_temperature = 1000.0;
  context.annealing.cooling_rate = 0.8;
  context.annealing.iterations_per_module = 60;
  context.ltsa.initial_temperature = 50.0;
  context.ltsa.cooling_rate = 0.8;
  context.ltsa.iterations_per_module = 60;
  return context;
}

/// Both stages spelled out: "sa" at beta = 0, then anneal_ltsa at the
/// backend's stage-2 seed (TwoStageEqualsSaThenLtsa pins the equivalence).
struct Stages {
  PlacementOutcome stage1;
  PlacementOutcome stage2;
};

Stages run_stages(const Schedule& schedule, const PlacerContext& context) {
  PlacerContext area_only = context;
  area_only.weights.beta = 0.0;
  Stages stages;
  stages.stage1 = make_placer("sa")->place(schedule, area_only);
  stages.stage2 =
      anneal_ltsa(stages.stage1.placement, context, context.two_stage_beta,
                  ltsa_seed(context.seed));
  return stages;
}

TEST(TwoStagePlacerTest, TwoStageEqualsSaThenLtsa) {
  const Schedule schedule = pcr_schedule();
  PlacerContext context = fast_options(30.0);
  context.seed = 7;
  const PlacementOutcome two =
      make_placer("two-stage")->place(schedule, context);
  const Stages stages = run_stages(schedule, context);
  ASSERT_EQ(two.placement.module_count(),
            stages.stage2.placement.module_count());
  for (int i = 0; i < two.placement.module_count(); ++i) {
    EXPECT_EQ(two.placement.module(i).anchor,
              stages.stage2.placement.module(i).anchor);
    EXPECT_EQ(two.placement.module(i).rotated,
              stages.stage2.placement.module(i).rotated);
  }
  EXPECT_EQ(two.cost.value, stages.stage2.cost.value);
  EXPECT_EQ(two.stats.proposals, stages.stage2.stats.proposals);
}

TEST(TwoStagePlacerTest, BothStagesFeasible) {
  const auto outcome = run_stages(pcr_schedule(), fast_options(30.0));
  EXPECT_TRUE(outcome.stage1.placement.feasible());
  EXPECT_TRUE(outcome.stage2.placement.feasible());
}

TEST(TwoStagePlacerTest, Stage2ImprovesFti) {
  const auto outcome = run_stages(pcr_schedule(), fast_options(30.0));
  const double fti1 = evaluate_fti(outcome.stage1.placement).fti();
  const double fti2 = evaluate_fti(outcome.stage2.placement).fti();
  EXPECT_GE(fti2, fti1);
  EXPECT_GT(fti2, 0.0);
}

TEST(TwoStagePlacerTest, Stage2CostIncludesFti) {
  const auto outcome = run_stages(pcr_schedule(), fast_options(30.0));
  EXPECT_GT(outcome.stage2.cost.fti, 0.0);
  // Stage-1 cost never evaluates FTI (beta forced to 0).
  EXPECT_DOUBLE_EQ(outcome.stage1.cost.fti, 0.0);
}

TEST(TwoStagePlacerTest, WeightedObjectiveNotWorseThanStage1) {
  const double beta = 30.0;
  const auto outcome = run_stages(pcr_schedule(), fast_options(beta));
  const double stage1_weighted =
      static_cast<double>(outcome.stage1.cost.area_cells) -
      beta * evaluate_fti(outcome.stage1.placement).fti();
  const double stage2_weighted =
      static_cast<double>(outcome.stage2.cost.area_cells) -
      beta * outcome.stage2.cost.fti;
  EXPECT_LE(stage2_weighted, stage1_weighted + 1e-9);
}

TEST(TwoStagePlacerTest, HighBetaBuysMoreFtiThanLowBeta) {
  const auto placer = make_placer("two-stage");
  const auto low = placer->place(pcr_schedule(), fast_options(5.0));
  const auto high = placer->place(pcr_schedule(), fast_options(80.0));
  EXPECT_GE(high.cost.fti, low.cost.fti - 1e-9);
}

TEST(TwoStagePlacerTest, DeterministicForSeeds) {
  const Schedule schedule = pcr_schedule();
  const auto placer = make_placer("two-stage");
  const auto a = placer->place(schedule, fast_options(30.0));
  const auto b = placer->place(schedule, fast_options(30.0));
  EXPECT_EQ(a.cost.area_cells, b.cost.area_cells);
  EXPECT_DOUBLE_EQ(a.cost.fti, b.cost.fti);
}

TEST(TwoStagePlacerTest, DefaultLtsaIsLowTemperature) {
  const PlacerContext context;
  EXPECT_LT(context.ltsa.initial_temperature,
            context.annealing.initial_temperature);
}

}  // namespace
}  // namespace dmfb
