// copy_annealer.h — test oracle: the per-proposal copying annealer the
// production delta engine (core/sa_placer.cpp) replaced.
//
// Every proposal copies the whole state and re-evaluates its cost from
// scratch, which makes the loop an obviously-correct transcription of the
// paper's Fig. 3: geometric cooling T_new = alpha * T_old, N = Na * Nm
// proposals per temperature, Metropolis acceptance (accept when dC < 0
// or r < exp(-dC / T)), stop below the minimum temperature. The delta
// engine draws the same random numbers in the same order, so for one
// seed both produce the identical trajectory, stats and placement —
// tests/test_incremental_cost.cpp, test_closed_loop.cpp and bench_perf_sa
// pin that identity.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>

#include "core/annealer.h"
#include "core/placer.h"
#include "core/sa_placer.h"

namespace dmfb {

/// Problem plumbing: cost of a state, neighbour generation (given the
/// current temperature as a fraction of T0, for the controlling window),
/// and which states may be recorded as "the answer" (e.g. only feasible
/// placements).
template <typename State>
struct AnnealingProblem {
  std::function<double(const State&)> cost;
  std::function<State(const State&, double /*temperature_fraction*/, Rng&)>
      neighbor;
  std::function<bool(const State&)> recordable;  ///< nullable -> always true
};

/// Runs the annealing loop and returns the best recordable state seen
/// (falling back to the final state if no recordable state is ever
/// visited — callers that start from a feasible state always get one).
template <typename State>
State anneal(State initial, const AnnealingProblem<State>& problem,
             const AnnealingSchedule& schedule, int module_count, Rng& rng,
             AnnealingStats* stats_out = nullptr) {
  const auto start_time = std::chrono::steady_clock::now();
  AnnealingStats stats;
  const auto recordable = [&](const State& s) {
    return !problem.recordable || problem.recordable(s);
  };

  State current = std::move(initial);
  double current_cost = problem.cost(current);

  State best = current;
  bool have_best = recordable(current);
  double best_cost = have_best ? current_cost
                               : std::numeric_limits<double>::infinity();

  const int inner_iterations =
      schedule.iterations_per_module * std::max(1, module_count);

  double temperature = schedule.initial_temperature;
  while (temperature > schedule.min_temperature) {
    const double fraction =
        schedule.initial_temperature > 0.0
            ? temperature / schedule.initial_temperature
            : 0.0;
    for (int i = 0; i < inner_iterations; ++i) {
      State candidate = problem.neighbor(current, fraction, rng);
      const double candidate_cost = problem.cost(candidate);
      const double delta = candidate_cost - current_cost;
      ++stats.proposals;
      bool accept = delta < 0.0;
      if (!accept && temperature > 0.0) {
        accept = rng.next_double() < std::exp(-delta / temperature);
        if (accept) ++stats.uphill_accepted;
      }
      if (accept) {
        current = std::move(candidate);
        current_cost = candidate_cost;
        ++stats.accepted;
        if (current_cost < best_cost && recordable(current)) {
          best = current;
          best_cost = current_cost;
          have_best = true;
          stats.seconds_to_best = detail::seconds_since(start_time);
        }
      }
    }
    temperature *= schedule.cooling_rate;
    ++stats.temperature_steps;
  }

  stats.final_temperature = temperature;
  stats.best_cost = best_cost;
  detail::finish_stats(stats, start_time);
  if (stats_out) *stats_out = stats;
  return have_best ? best : current;
}

/// anneal_from's contract over the copying loop: same evaluator, seed
/// and schedule, Placement copied per proposal. Records proposal kinds
/// only (the accept decision happens inside the generic loop), so
/// `stats.accepted_by_kind` stays zero.
PlacementOutcome anneal_copy(const Placement& initial,
                             const PlacerContext& context);

}  // namespace dmfb
