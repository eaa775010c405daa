// Tests for the spare-capacity advisor (core/spare_advisor.h).
#include "core/spare_advisor.h"

#include <gtest/gtest.h>

#include "assay/assay_library.h"
#include "assay/scheduler.h"
#include "core/fti.h"

namespace dmfb {
namespace {

Schedule pcr_schedule() {
  const auto assay = pcr_mixing_assay();
  return list_schedule(assay.graph, assay.binding, assay.scheduler_options);
}

SpareAdvisorOptions fast_options(double target) {
  SpareAdvisorOptions options;
  options.target_fti = target;
  options.betas = {10.0, 40.0, 80.0};
  options.context.annealing.initial_temperature = 1000.0;
  options.context.annealing.cooling_rate = 0.8;
  options.context.annealing.iterations_per_module = 80;
  options.context.ltsa.iterations_per_module = 80;
  options.context.ltsa.cooling_rate = 0.8;
  return options;
}

TEST(SpareAdvisorTest, FrontierHasOnePointPerBeta) {
  const auto advice = advise_spares(pcr_schedule(), fast_options(0.5));
  EXPECT_EQ(advice.frontier.size(), 3u);
  for (const auto& point : advice.frontier) {
    EXPECT_TRUE(point.placement.feasible());
    EXPECT_GE(point.fti, 0.0);
    EXPECT_LE(point.fti, 1.0);
    EXPECT_GT(point.area_cells, 0);
  }
}

TEST(SpareAdvisorTest, FrontierIsPinned) {
  // Area and FTI per beta on the fast PCR sweep, pinned so a change to
  // the shared stage 1 or to anneal_ltsa cannot move the frontier
  // unannounced.
  const auto advice = advise_spares(pcr_schedule(), fast_options(0.5));
  ASSERT_EQ(advice.frontier.size(), 3u);
  EXPECT_EQ(advice.frontier[0].area_cells, 60);
  EXPECT_DOUBLE_EQ(advice.frontier[0].fti, 4.0 / 60.0);
  EXPECT_EQ(advice.frontier[1].area_cells, 90);
  EXPECT_DOUBLE_EQ(advice.frontier[1].fti, 82.0 / 90.0);
  EXPECT_EQ(advice.frontier[2].area_cells, 91);
  EXPECT_DOUBLE_EQ(advice.frontier[2].fti, 87.0 / 91.0);
  EXPECT_DOUBLE_EQ(advice.chosen.beta, 40.0);
}

TEST(SpareAdvisorTest, ModestTargetIsMet) {
  const auto advice = advise_spares(pcr_schedule(), fast_options(0.5));
  ASSERT_TRUE(advice.target_met);
  EXPECT_GE(advice.chosen.fti, 0.5);
  // The chosen point is the smallest-area point meeting the target.
  for (const auto& point : advice.frontier) {
    if (point.fti >= 0.5) {
      EXPECT_LE(advice.chosen.area_cells, point.area_cells);
    }
  }
}

TEST(SpareAdvisorTest, ImpossibleTargetReportsFailure) {
  SpareAdvisorOptions options = fast_options(1.01);  // FTI can't exceed 1
  const auto advice = advise_spares(pcr_schedule(), options);
  EXPECT_FALSE(advice.target_met);
  EXPECT_FALSE(advice.frontier.empty());
}

TEST(SpareAdvisorTest, ChosenFtiMatchesItsPlacement) {
  const auto advice = advise_spares(pcr_schedule(), fast_options(0.5));
  ASSERT_TRUE(advice.target_met);
  EXPECT_DOUBLE_EQ(advice.chosen.fti,
                   evaluate_fti(advice.chosen.placement).fti());
  EXPECT_EQ(advice.chosen.area_cells,
            advice.chosen.placement.bounding_box_cells());
}

}  // namespace
}  // namespace dmfb
