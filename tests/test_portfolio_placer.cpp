// Tests for the portfolio annealing backend (core/portfolio_placer.h):
// the reproducibility contract — identical placements at any thread count
// and bit-stable results for a fixed (seed, N, K) — plus the exchange
// machinery, the early-stop target, the warm-start seam, per-replica
// telemetry and defect avoidance.
#include "core/portfolio_placer.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "assay/assay_library.h"
#include "assay/pipeline.h"
#include "core/placer.h"

namespace dmfb {
namespace {

Schedule pcr_schedule() {
  static const Schedule schedule =
      SynthesisPipeline().run(pcr_mixing_assay()).schedule;
  return schedule;
}

/// Short annealing runs so the whole suite stays fast.
PlacerContext fast_options() {
  PlacerContext options;
  options.annealing.initial_temperature = 1000.0;
  options.annealing.cooling_rate = 0.8;
  options.annealing.iterations_per_module = 40;
  return options;
}

PortfolioOptions fast_portfolio() {
  PortfolioOptions portfolio;
  portfolio.replicas = 3;
  portfolio.exchange_period = 2;
  return portfolio;
}

/// The "portfolio" backend with `portfolio` as the context's options.
PlacementOutcome run_portfolio(const Schedule& schedule,
                               PlacerContext context,
                               const PortfolioOptions& portfolio) {
  context.portfolio = portfolio;
  return make_placer("portfolio")->place(schedule, context);
}

std::vector<std::pair<Point, bool>> poses_of(const Placement& placement) {
  std::vector<std::pair<Point, bool>> poses;
  poses.reserve(static_cast<std::size_t>(placement.module_count()));
  for (const auto& m : placement.modules()) {
    poses.emplace_back(m.anchor, m.rotated);
  }
  return poses;
}

TEST(PortfolioPlacerTest, PlacesThePcrInstanceFeasibly) {
  const PlacementOutcome outcome =
      run_portfolio(pcr_schedule(), fast_options(), fast_portfolio());
  EXPECT_TRUE(outcome.placement.feasible());
  EXPECT_EQ(outcome.placement.module_count(), pcr_schedule().module_count());
  EXPECT_GT(outcome.cost.area_cells, 0);
  EXPECT_GT(outcome.stats.proposals, 0);
}

TEST(PortfolioPlacerTest, ThreadCountChangesNothingButWallTime) {
  const PlacerContext options = fast_options();
  PortfolioOptions portfolio = fast_portfolio();
  std::vector<std::vector<std::pair<Point, bool>>> results;
  std::vector<double> best_costs;
  for (const int threads : {1, 2, 8}) {
    portfolio.threads = threads;
    const PlacementOutcome outcome =
        run_portfolio(pcr_schedule(), options, portfolio);
    results.push_back(poses_of(outcome.placement));
    best_costs.push_back(outcome.stats.best_cost);
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
  EXPECT_EQ(best_costs[0], best_costs[1]);
  EXPECT_EQ(best_costs[0], best_costs[2]);
}

TEST(PortfolioPlacerTest, BitStableForFixedSeedReplicasAndPeriod) {
  const PlacerContext options = fast_options();
  PortfolioOptions portfolio = fast_portfolio();
  portfolio.replicas = 4;
  portfolio.exchange_period = 3;
  const PlacementOutcome a =
      run_portfolio(pcr_schedule(), options, portfolio);
  const PlacementOutcome b =
      run_portfolio(pcr_schedule(), options, portfolio);
  EXPECT_EQ(poses_of(a.placement), poses_of(b.placement));
  EXPECT_EQ(a.stats.best_cost, b.stats.best_cost);
  EXPECT_EQ(a.stats.proposals, b.stats.proposals);
  EXPECT_EQ(a.stats.exchanges_attempted, b.stats.exchanges_attempted);
  EXPECT_EQ(a.stats.exchanges_accepted, b.stats.exchanges_accepted);
  ASSERT_EQ(a.replica_stats.size(), b.replica_stats.size());
  for (std::size_t r = 0; r < a.replica_stats.size(); ++r) {
    EXPECT_EQ(a.replica_stats[r].best_cost, b.replica_stats[r].best_cost);
    EXPECT_EQ(a.replica_stats[r].accepted, b.replica_stats[r].accepted);
  }
}

TEST(PortfolioPlacerTest, DifferentSeedsDiverge) {
  PlacerContext options = fast_options();
  const PortfolioOptions portfolio = fast_portfolio();
  const PlacementOutcome a =
      run_portfolio(pcr_schedule(), options, portfolio);
  options.seed ^= 0x1234567ULL;
  const PlacementOutcome b =
      run_portfolio(pcr_schedule(), options, portfolio);
  EXPECT_NE(poses_of(a.placement), poses_of(b.placement));
}

TEST(PortfolioPlacerTest, ExchangesHappenOnTheLadder) {
  PlacerContext options = fast_options();
  options.annealing.iterations_per_module = 20;
  PortfolioOptions portfolio = fast_portfolio();
  portfolio.replicas = 4;
  portfolio.exchange_period = 1;
  const PlacementOutcome outcome =
      run_portfolio(pcr_schedule(), options, portfolio);
  EXPECT_GT(outcome.stats.exchanges_attempted, 0);
  // Adjacent-temperature chains at a 1.25 ladder ratio exchange often;
  // zero acceptances would mean the criterion is wired backwards.
  EXPECT_GT(outcome.stats.exchanges_accepted, 0);
  // Per-replica attempts count participations: interior slots join both
  // parities, so every slot of a 4-rung ladder attempts at least once.
  for (const AnnealingStats& rs : outcome.replica_stats) {
    EXPECT_GT(rs.exchanges_attempted, 0);
  }
}

TEST(PortfolioPlacerTest, ReplicaStatsAggregateIntoTheOutcomeStats) {
  const PlacementOutcome outcome =
      run_portfolio(pcr_schedule(), fast_options(), fast_portfolio());
  ASSERT_EQ(outcome.replica_stats.size(), 3u);
  long long proposals = 0;
  long long accepted = 0;
  for (const AnnealingStats& rs : outcome.replica_stats) {
    EXPECT_GT(rs.proposals, 0);
    EXPECT_GT(rs.wall_seconds, 0.0);
    EXPECT_GT(rs.proposals_per_second, 0.0);
    proposals += rs.proposals;
    accepted += rs.accepted;
  }
  EXPECT_EQ(outcome.stats.proposals, proposals);
  EXPECT_EQ(outcome.stats.accepted, accepted);
  EXPECT_GT(outcome.stats.wall_seconds, 0.0);
  EXPECT_GT(outcome.wall_seconds, 0.0);
}

TEST(PortfolioPlacerTest, TargetCostStopsAtTheFirstSatisfyingBarrier) {
  const PlacerContext options = fast_options();
  PortfolioOptions portfolio = fast_portfolio();
  const PlacementOutcome full =
      run_portfolio(pcr_schedule(), options, portfolio);
  ASSERT_GT(full.stats.temperature_steps, 0);
  // A target the feasible greedy initial already satisfies stops the run
  // before any annealing step.
  portfolio.target_cost = std::numeric_limits<double>::max();
  const PlacementOutcome stopped =
      run_portfolio(pcr_schedule(), options, portfolio);
  EXPECT_EQ(stopped.stats.temperature_steps, 0);
  EXPECT_TRUE(stopped.placement.feasible());
  // A target between the initial and the full run's best stops early but
  // not immediately, and the result honours it.
  portfolio.target_cost = full.stats.best_cost * 1.10;
  const PlacementOutcome early =
      run_portfolio(pcr_schedule(), options, portfolio);
  EXPECT_LE(early.stats.best_cost, portfolio.target_cost);
  EXPECT_LE(early.stats.temperature_steps, full.stats.temperature_steps);
}

TEST(PortfolioPlacerTest, WarmStartNeverWorsensTheWarmSource) {
  PlacerContext options = fast_options();
  const PortfolioOptions portfolio = fast_portfolio();
  const PlacementOutcome cold =
      run_portfolio(pcr_schedule(), options, portfolio);
  options.initial_placement = std::make_shared<Placement>(cold.placement);
  options.seed ^= 0xC0FFEEULL;  // a different run, not a replay
  const PlacementOutcome warm =
      run_portfolio(pcr_schedule(), options, portfolio);
  // Replica 0 starts at the warm placement, which is feasible and thus
  // recorded before any move; the incumbent can only improve on it.
  EXPECT_LE(warm.stats.best_cost, cold.stats.best_cost);
  EXPECT_LE(warm.cost.value, cold.cost.value);
}

TEST(PortfolioPlacerTest, AvoidsDefectiveElectrodes) {
  PlacerContext options = fast_options();
  options.defects = {Point{4, 4}, Point{12, 9}, Point{18, 17}};
  const PlacementOutcome outcome =
      run_portfolio(pcr_schedule(), options, fast_portfolio());
  EXPECT_TRUE(outcome.placement.feasible());
  for (const auto& m : outcome.placement.modules()) {
    for (const Point defect : options.defects) {
      EXPECT_FALSE(m.footprint().contains(defect))
          << "module covers defect (" << defect.x << "," << defect.y << ")";
    }
  }
}

TEST(PortfolioPlacerTest, RejectsSchedulesThatNeverTerminate) {
  // A negative Na once reached a std::vector resize inside the replicas
  // and leaked libstdc++'s "vector::_M_default_append" to the client.
  PlacerContext options = fast_options();
  options.annealing.iterations_per_module = -1;
  EXPECT_THROW(run_portfolio(pcr_schedule(), options, fast_portfolio()),
               std::invalid_argument);
  options = fast_options();
  options.annealing.cooling_rate = 1.0;
  EXPECT_THROW(run_portfolio(pcr_schedule(), options, fast_portfolio()),
               std::invalid_argument);
}

TEST(PortfolioPlacerTest, ZeroReplicasResolvesToHardwareConcurrency) {
  PlacerContext options = fast_options();
  options.annealing.iterations_per_module = 10;
  PortfolioOptions portfolio;
  portfolio.replicas = 0;
  const PlacementOutcome outcome =
      run_portfolio(pcr_schedule(), options, portfolio);
  EXPECT_EQ(static_cast<int>(outcome.replica_stats.size()),
            resolved_replicas(portfolio));
  EXPECT_GE(resolved_replicas(portfolio), 1);
  EXPECT_TRUE(outcome.placement.feasible());
}

}  // namespace
}  // namespace dmfb
