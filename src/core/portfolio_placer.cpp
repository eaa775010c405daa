#include "core/portfolio_placer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/incremental_cost.h"
#include "core/placer.h"
#include "util/parallel.h"

namespace dmfb {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One annealing chain of the portfolio. The rng streams, temperature
/// schedule, stats and best-so-far belong to the SLOT (its rung of the
/// temperature ladder); only `state` and `current_cost` — the
/// configuration — are swapped by the exchange pass. Heap-allocated one
/// per replica so concurrently running segments never share a cache
/// line.
struct Replica {
  // Configuration (swapped at exchange barriers).
  std::unique_ptr<IncrementalPlacementState> state;
  double current_cost = 0.0;

  // Slot-owned.
  Rng move_rng{0};
  Rng metropolis_rng{0};
  AnnealingSchedule schedule;  ///< ladder-scaled copy of the base schedule
  double temperature = 0.0;
  const MoveOptions* moves = nullptr;
  int inner_iterations = 0;
  std::vector<double> draws;

  AnnealingStats stats;
  long long proposals_by_kind[AnnealingStats::kMoveKindSlots] = {0, 0, 0, 0};
  long long accepted_by_kind[AnnealingStats::kMoveKindSlots] = {0, 0, 0, 0};

  struct Pose {
    Point anchor;
    bool rotated = false;
  };
  std::vector<Pose> best_pose;
  double best_cost = std::numeric_limits<double>::infinity();
  bool have_best = false;

  /// Own-loop clocks: total annealing seconds across segments, the clock
  /// value when the best was last improved, and the latest segment alone
  /// (the critical-path accumulator reads it at each barrier).
  double anneal_seconds = 0.0;
  double best_seconds = 0.0;
  double last_segment_seconds = 0.0;

  bool recordable() const {
    return state->feasible() && state->defect_cells() == 0;
  }

  void record_initial() {
    current_cost = state->cost();
    best_pose.resize(
        static_cast<std::size_t>(state->placement().module_count()));
    if (recordable()) {
      best_cost = current_cost;
      have_best = true;
      snapshot_best();
    }
  }

  void snapshot_best() {
    const auto& modules = state->placement().modules();
    for (std::size_t i = 0; i < best_pose.size(); ++i) {
      best_pose[i] = Pose{modules[i].anchor, modules[i].rotated};
    }
  }

  /// Settles one proposal priced at `delta` (a floor unless the state
  /// says exact) on its pre-drawn Metropolis variate, by anneal_delta's
  /// rules.
  void decide(double delta, double draw, Clock::time_point segment_start) {
    ++stats.proposals;
    const int kind = static_cast<int>(state->last_move_kind());
    ++proposals_by_kind[kind];
    const bool accept = detail::metropolis_decide(
        *state, delta, temperature, [draw] { return draw; }, stats);
    if (accept) {
      current_cost = state->commit();
      ++stats.accepted;
      ++accepted_by_kind[kind];
      if (current_cost < best_cost && recordable()) {
        best_cost = current_cost;
        have_best = true;
        snapshot_best();
        best_seconds = anneal_seconds + seconds_since(segment_start);
      }
    } else {
      state->revert();
    }
  }

  /// Runs `steps` temperature steps of this chain's schedule, segmented
  /// so the exchange barriers can interleave. Each step pre-draws its
  /// Metropolis variates from the slot's own stream (one per proposal,
  /// downhill ones included) and fuses move generation into the pricing
  /// (propose_random). Driven by step COUNT, not the min-temperature
  /// test: every slot then runs the same number of steps regardless of
  /// ladder position, keeping the barriers aligned.
  void run_segment(int steps) {
    const auto t0 = Clock::now();
    for (int s = 0; s < steps; ++s) {
      const double fraction = schedule.initial_temperature > 0.0
                                  ? temperature / schedule.initial_temperature
                                  : 0.0;
      const int span =
          controlling_window_span(state->placement(), fraction, *moves);
      for (double& draw : draws) draw = metropolis_rng.next_double();
      for (int i = 0; i < inner_iterations; ++i) {
        decide(state->propose_random(span, *moves, move_rng),
               draws[static_cast<std::size_t>(i)], t0);
      }
      temperature *= schedule.cooling_rate;
      ++stats.temperature_steps;
    }
    last_segment_seconds = seconds_since(t0);
    anneal_seconds += last_segment_seconds;
  }
};

}  // namespace

int resolved_replicas(const PortfolioOptions& portfolio) {
  return portfolio.replicas > 0
             ? portfolio.replicas
             : static_cast<int>(
                   std::max(1u, std::thread::hardware_concurrency()));
}

PlacementOutcome anneal_portfolio(const Placement& initial,
                                  const PlacerContext& context,
                                  const Placement* replica0_initial) {
  const auto start_time = Clock::now();
  const PortfolioOptions& portfolio = context.portfolio;

  validate_schedule(context.annealing);
  if (!(portfolio.ladder_ratio > 0.0)) {
    throw std::invalid_argument(
        "portfolio placer: ladder_ratio must be positive");
  }
  const int replica_count = resolved_replicas(portfolio);
  const int exchange_period = std::max(1, portfolio.exchange_period);

  CostEvaluator evaluator(context.weights, context.fti_options);
  evaluator.set_defects(context.defects);
  evaluator.set_route_links(context.route_links);

  // Total temperature steps, from the BASE schedule: the ladder scales
  // initial and minimum temperature together, so every rung runs this
  // same count and the exchange barriers align exactly.
  int total_steps = 0;
  for (double t = context.annealing.initial_temperature;
       t > context.annealing.min_temperature;
       t *= context.annealing.cooling_rate) {
    ++total_steps;
  }

  const int inner_iterations =
      context.annealing.iterations_per_module *
      std::max(1, initial.module_count());

  Rng master(context.seed);
  // Replica r's streams come from split_n(r) — order-independent, so the
  // seeds are a pure function of (seed, r) — and the exchange pass draws
  // from split_n(N), outside the replica index range.
  Rng exchange_rng =
      master.split_n(static_cast<std::uint64_t>(replica_count));

  std::vector<std::unique_ptr<Replica>> replicas;
  replicas.reserve(static_cast<std::size_t>(replica_count));
  for (int r = 0; r < replica_count; ++r) {
    auto replica = std::make_unique<Replica>();
    const Placement& start =
        (r == 0 && replica0_initial != nullptr) ? *replica0_initial : initial;
    replica->state =
        std::make_unique<IncrementalPlacementState>(start, evaluator);
    replica->move_rng = master.split_n(static_cast<std::uint64_t>(r));
    // The Metropolis stream splits off the move stream at entry
    // (consuming its first draw).
    replica->metropolis_rng = replica->move_rng.split();
    const double rung = std::pow(portfolio.ladder_ratio, r);
    replica->schedule = context.annealing;
    replica->schedule.initial_temperature *= rung;
    replica->schedule.min_temperature *= rung;
    replica->temperature = replica->schedule.initial_temperature;
    replica->moves = &context.moves;
    replica->inner_iterations = inner_iterations;
    replica->draws.resize(static_cast<std::size_t>(inner_iterations));
    replica->record_initial();
    replicas.push_back(std::move(replica));
  }

  // Incumbent best across the whole portfolio, maintained at the
  // barriers (lowest cost, lowest replica index on ties — the bests live
  // with the ladder slots, which are seed-ordered).
  double incumbent_cost = std::numeric_limits<double>::infinity();
  int incumbent_slot = -1;
  double incumbent_seconds = 0.0;
  double critical_path = 0.0;
  long long exchanges_attempted = 0;
  long long exchanges_accepted = 0;

  const auto adopt_incumbent = [&] {
    for (int r = 0; r < replica_count; ++r) {
      const Replica& replica = *replicas[r];
      if (replica.have_best && replica.best_cost < incumbent_cost) {
        incumbent_cost = replica.best_cost;
        incumbent_slot = r;
        incumbent_seconds = critical_path;
      }
    }
  };
  adopt_incumbent();

  int done = 0;
  int barrier_index = 0;
  while (done < total_steps &&
         !(incumbent_cost <= portfolio.target_cost)) {
    const int chunk = std::min(exchange_period, total_steps - done);
    const auto errors = detail::for_each_index(
        static_cast<std::size_t>(replica_count), portfolio.threads,
        [&](std::size_t r) { replicas[r]->run_segment(chunk); });
    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    done += chunk;

    // Critical-path accounting: the barrier waits for the slowest
    // replica; the exchange pass below is serial on top.
    double slowest = 0.0;
    for (const auto& replica : replicas) {
      slowest = std::max(slowest, replica->last_segment_seconds);
    }
    critical_path += slowest;

    const auto exchange_start = Clock::now();
    if (done < total_steps && replica_count > 1) {
      // Adjacent-pair exchange sweep, alternating parity per barrier.
      // One draw per attempted pair, drawn unconditionally, keeps the
      // exchange stream's alignment independent of the outcomes.
      for (int r = barrier_index % 2; r + 1 < replica_count; r += 2) {
        Replica& cooler = *replicas[r];
        Replica& hotter = *replicas[r + 1];
        const double draw = exchange_rng.next_double();
        ++exchanges_attempted;
        ++cooler.stats.exchanges_attempted;
        ++hotter.stats.exchanges_attempted;
        const double x =
            (1.0 / cooler.temperature - 1.0 / hotter.temperature) *
            (cooler.current_cost - hotter.current_cost);
        if (draw < std::exp(x)) {
          std::swap(cooler.state, hotter.state);
          std::swap(cooler.current_cost, hotter.current_cost);
          ++exchanges_accepted;
          ++cooler.stats.exchanges_accepted;
          ++hotter.stats.exchanges_accepted;
        }
      }
      ++barrier_index;
    }
    critical_path += seconds_since(exchange_start);
    adopt_incumbent();
  }

  PlacementOutcome outcome;
  if (incumbent_slot >= 0) {
    Placement best = replicas[static_cast<std::size_t>(incumbent_slot)]
                         ->state->placement();
    const auto& poses =
        replicas[static_cast<std::size_t>(incumbent_slot)]->best_pose;
    for (std::size_t i = 0; i < poses.size(); ++i) {
      best.set_position(static_cast<int>(i), poses[i].anchor,
                        poses[i].rotated);
    }
    outcome.placement = std::move(best);
  } else {
    // No recordable state anywhere (callers that start feasible never hit
    // this): fall back to replica 0's final state, as anneal_from does.
    outcome.placement = replicas[0]->state->placement();
  }

  outcome.replica_stats.reserve(static_cast<std::size_t>(replica_count));
  AnnealingStats& total = outcome.stats;
  for (int r = 0; r < replica_count; ++r) {
    Replica& replica = *replicas[r];
    AnnealingStats& rs = replica.stats;
    for (int k = 0; k < AnnealingStats::kMoveKindSlots; ++k) {
      rs.proposals_by_kind[k] = replica.proposals_by_kind[k];
      rs.accepted_by_kind[k] = replica.accepted_by_kind[k];
      total.proposals_by_kind[k] += replica.proposals_by_kind[k];
      total.accepted_by_kind[k] += replica.accepted_by_kind[k];
    }
    rs.final_temperature = replica.temperature;
    rs.best_cost = replica.best_cost;
    rs.wall_seconds = replica.anneal_seconds;
    rs.seconds_to_best = replica.best_seconds;
    rs.proposals_per_second =
        rs.wall_seconds > 0.0
            ? static_cast<double>(rs.proposals) / rs.wall_seconds
            : 0.0;
    total.proposals += rs.proposals;
    total.accepted += rs.accepted;
    total.uphill_accepted += rs.uphill_accepted;
    total.bound_rejected += rs.bound_rejected;
    outcome.replica_stats.push_back(rs);
  }
  total.temperature_steps = done;
  total.final_temperature = replicas[0]->temperature;
  total.best_cost = incumbent_cost;
  total.exchanges_attempted = exchanges_attempted;
  total.exchanges_accepted = exchanges_accepted;
  total.wall_seconds = critical_path;
  total.seconds_to_best = incumbent_seconds;
  total.proposals_per_second =
      critical_path > 0.0
          ? static_cast<double>(total.proposals) / critical_path
          : 0.0;

  outcome.cost = evaluator.evaluate(outcome.placement);
  outcome.wall_seconds = seconds_since(start_time);
  return outcome;
}

}  // namespace dmfb
