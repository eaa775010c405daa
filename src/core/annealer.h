// annealer.h — the simulated-annealing loop (Fig. 3 of the paper).
//
// Generic over an in-place problem so the placement state and tests can
// share it. Implements exactly the paper's loop: geometric cooling
// T_new = alpha * T_old, an inner loop of N = Na * Nm iterations per
// temperature, Metropolis acceptance (accept when dC < 0 or
// r < exp(-dC / T)), and a stopping criterion tied to the controlling
// window reaching its minimum span (expressed as a minimum temperature).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.h"

namespace dmfb {

/// Annealing parameters; defaults are the paper's (§4d).
struct AnnealingSchedule {
  double initial_temperature = 10000.0;  ///< T0, "almost every move accepted"
  double cooling_rate = 0.9;             ///< alpha in T_new = alpha * T_old
  int iterations_per_module = 400;       ///< Na in N = Na * Nm
  double min_temperature = 0.05;         ///< stop when T falls below this
};

/// Throws std::invalid_argument unless `schedule` terminates: the
/// annealing entry points (anneal_from, anneal_portfolio) call it before
/// running, so a client-supplied alpha = 1 or min_temperature <= 0 is an
/// error rather than a loop that never ends.
inline void validate_schedule(const AnnealingSchedule& schedule) {
  if (!(schedule.cooling_rate > 0.0 && schedule.cooling_rate < 1.0)) {
    throw std::invalid_argument(
        "annealing schedule: cooling_rate (alpha) must be in (0, 1)");
  }
  if (!(schedule.min_temperature > 0.0)) {
    throw std::invalid_argument(
        "annealing schedule: min_temperature must be positive");
  }
  if (!std::isfinite(schedule.initial_temperature)) {
    throw std::invalid_argument(
        "annealing schedule: initial_temperature (T0) must be finite");
  }
  if (schedule.iterations_per_module < 0) {
    throw std::invalid_argument(
        "annealing schedule: iterations_per_module must be >= 0");
  }
}

/// Counters for reporting and the ablation benches.
struct AnnealingStats {
  /// Move-kind telemetry slots, indexed by static_cast<int>(MoveKind)
  /// (displace, displace-rotate, swap, swap-rotate).
  static constexpr int kMoveKindSlots = 4;

  long long proposals = 0;
  long long accepted = 0;
  long long uphill_accepted = 0;
  /// Proposals rejected on a floor of their delta, before its FTI term
  /// was priced (see anneal_delta); a subset of the rejected ones.
  long long bound_rejected = 0;
  /// Proposal and acceptance tallies per generation move kind, so bench
  /// JSON can attribute where proposal time goes.
  long long proposals_by_kind[kMoveKindSlots] = {0, 0, 0, 0};
  long long accepted_by_kind[kMoveKindSlots] = {0, 0, 0, 0};
  int temperature_steps = 0;
  double final_temperature = 0.0;
  double best_cost = std::numeric_limits<double>::infinity();
  /// Wall time of the annealing loop itself (excludes the caller's
  /// initial-placement construction) and the throughput it implies —
  /// bench_perf_sa records these against the copy oracle.
  double wall_seconds = 0.0;
  double proposals_per_second = 0.0;
  /// Wall time (from the loop's start) at which `best_cost` was last
  /// improved — the "time to target cost" the portfolio benches race.
  /// 0 when the initial state was never improved on.
  double seconds_to_best = 0.0;
  /// Replica-exchange telemetry, filled by the "portfolio" placer on its
  /// aggregate and per-replica stats; single runs leave both 0.
  long long exchanges_attempted = 0;
  long long exchanges_accepted = 0;
};

namespace detail {

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

inline void finish_stats(AnnealingStats& stats,
                         std::chrono::steady_clock::time_point start) {
  stats.wall_seconds = detail::seconds_since(start);
  stats.proposals_per_second =
      stats.wall_seconds > 0.0
          ? static_cast<double>(stats.proposals) / stats.wall_seconds
          : 0.0;
}

/// The Metropolis test for a delta >= 0 at temperature > 0 and draw `r`
/// in [0, 1): accept when r < exp(-delta / T). exp() is skipped where
/// its value is known: a zero delta always accepts (r < exp(0) = 1), and
/// below -746 exp() is exactly 0.0 (the subnormal floor is at ~-745.13;
/// cutting higher would drop the oracle's accept on an exactly-zero draw
/// against a subnormal exp value).
inline bool metropolis_accepts(double delta, double temperature, double r) {
  if (delta == 0.0) return true;
  const double exponent = -delta / temperature;
  return exponent > -746.0 && r < std::exp(exponent);
}

/// Whether draw `r` rejects every delta >= `floor` (floor > 0,
/// temperature > 0) — decided from the floor alone. -delta / T is
/// monotone in delta under IEEE rounding, and exp() is monotone to well
/// within the 1e-12 relative margin wherever its value is normal; where
/// it is subnormal or zero, only r = 0 could still accept, and that case
/// is left to the exact test.
inline bool floor_rejects(double floor, double temperature, double r) {
  const double exponent = -floor / temperature;
  return exponent <= -746.0 ||
         (r > 0.0 && r >= std::exp(exponent) * (1.0 + 1e-12));
}

/// Accept (true) or reject one proposal priced at `delta` — the exact
/// delta when `problem.exact()`, else a floor on it that
/// `problem.resolve()` replaces by the exact delta. `draw()` yields the
/// Metropolis variate and is called exactly when the copying oracle
/// draws one (delta >= 0 and T > 0), so the stream is unchanged. A
/// floor > 0 implies the exact delta is > 0, so the draw is due: it is
/// taken first, and when it rejects every delta >= the floor the
/// proposal is rejected unresolved (counted in `bound_rejected`);
/// otherwise the exact delta decides on the same draw.
template <typename Problem, typename Draw>
bool metropolis_decide(Problem& problem, double delta,
                       double temperature, Draw&& draw,
                       AnnealingStats& stats) {
  if (!problem.exact()) {
    if (delta > 0.0 && temperature > 0.0) {
      const double r = draw();
      if (floor_rejects(delta, temperature, r)) {
        ++stats.bound_rejected;
        return false;
      }
      const bool accept =
          metropolis_accepts(problem.resolve(), temperature, r);
      if (accept) ++stats.uphill_accepted;
      return accept;
    }
    delta = problem.resolve();
  }
  if (delta < 0.0) return true;
  if (!(temperature > 0.0)) return false;
  const bool accept = metropolis_accepts(delta, temperature, draw());
  if (accept) ++stats.uphill_accepted;
  return accept;
}

}  // namespace detail

/// The annealing loop over an in-place state: the state lives behind the
/// problem's callbacks (e.g. an IncrementalPlacementState), is priced by
/// `propose_delta(temperature_fraction, rng)` — which returns the cost
/// delta when `exact()`, else a floor on it that `resolve()` replaces by
/// the exact delta — and then either kept (`commit()`, returning the new
/// absolute cost recomputed from the state's tallies, so no drift
/// accumulates) or rolled back (`revert()`). `recordable()` says whether
/// the committed state may be the answer; `record_best(cost)` snapshots
/// it when it is the best recordable one seen (one copy per improvement,
/// not one per proposal). `Problem` is a struct of concrete lambdas (as
/// sa_placer.cpp builds) so the callbacks inline into the loop.
///
/// The Metropolis draw may come before the FTI term is priced: a
/// positive floor makes it due anyway, and a draw that rejects the floor
/// rejects the proposal unresolved (detail::metropolis_decide). Draws,
/// decisions and best states are those of resolving every proposal.
///
/// Given a bit-exact delta evaluator and the same seed, the accept/reject
/// trajectory, stats and best state are identical to the per-proposal
/// copying oracle's (tests/support/copy_annealer.h). Returns the best
/// recordable cost seen (+infinity if none was; the caller then falls
/// back to the final current state).
template <typename Problem>
double anneal_delta(double initial_cost, const Problem& problem,
                    const AnnealingSchedule& schedule, int module_count,
                    Rng& rng, AnnealingStats* stats_out = nullptr) {
  const auto start_time = std::chrono::steady_clock::now();
  AnnealingStats stats;

  double current_cost = initial_cost;
  bool have_best = problem.recordable();
  double best_cost = have_best ? current_cost
                               : std::numeric_limits<double>::infinity();
  if (have_best) problem.record_best(best_cost);

  const int inner_iterations =
      schedule.iterations_per_module * std::max(1, module_count);

  double temperature = schedule.initial_temperature;
  while (temperature > schedule.min_temperature) {
    const double fraction =
        schedule.initial_temperature > 0.0
            ? temperature / schedule.initial_temperature
            : 0.0;
    for (int i = 0; i < inner_iterations; ++i) {
      const double delta = problem.propose_delta(fraction, rng);
      ++stats.proposals;
      const bool accept = detail::metropolis_decide(
          problem, delta, temperature, [&rng] { return rng.next_double(); },
          stats);
      if (accept) {
        current_cost = problem.commit();
        ++stats.accepted;
        if (current_cost < best_cost && problem.recordable()) {
          best_cost = current_cost;
          have_best = true;
          problem.record_best(best_cost);
          stats.seconds_to_best = detail::seconds_since(start_time);
        }
      } else {
        problem.revert();
      }
    }
    temperature *= schedule.cooling_rate;
    ++stats.temperature_steps;
  }

  stats.final_temperature = temperature;
  stats.best_cost = best_cost;
  detail::finish_stats(stats, start_time);
  if (stats_out) *stats_out = stats;
  return have_best ? best_cost : std::numeric_limits<double>::infinity();
}

}  // namespace dmfb
