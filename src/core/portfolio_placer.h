// portfolio_placer.h — the "portfolio" placement backend: N exchange-
// coupled annealing replicas raced over the shared thread pool
// (util/parallel.h), i.e. parallel tempering across whole SA runs.
//
// Each replica runs its own loop over an IncrementalPlacementState: move
// generation fused into the delta pricing (propose_random) and the
// Metropolis draws pre-batched per temperature step from a stream split
// off the replica's move stream. Replica r's streams derive
// order-independently from the master seed via Rng::split_n(r), and its
// temperature schedule is scaled by ladder_ratio^r (the whole schedule
// scales, so every replica runs the same number of temperature steps and
// the exchange barriers align). At N = 1 this is a plain single-chain
// anneal with no exchange partner.
// Every exchange_period steps all replicas synchronize at a barrier
// where adjacent-temperature pairs (alternating parity per barrier, the
// standard parallel-tempering sweep) swap their placements under the
// Metropolis exchange criterion
//
//   p = min(1, exp((1/T_i - 1/T_j) * (E_i - E_j)))
//
// and the incumbent best (lowest recorded cost, lowest replica index on
// ties) is adopted. Replica segments are deterministic in isolation
// (each owns its rng and state) and the exchange pass runs single-
// threaded on a dedicated stream split from the master seed, so the
// result is bit-reproducible for a fixed (seed, N, K) at ANY thread
// count — `threads` changes wall time only. tests/test_portfolio_placer
// .cpp and test_placer_registry.cpp pin both properties.
#pragma once

#include <limits>

#include "core/sa_placer.h"

namespace dmfb {

/// Everything configurable about one portfolio run, over and above the
/// per-replica annealing fields of PlacerContext (core/placer.h), which
/// carries these as PlacerContext::portfolio.
struct PortfolioOptions {
  /// Replica count N; 0 = one per hardware thread (min 1). Part of the
  /// reproducibility key: results are a function of (seed, N, K), so the
  /// compile cache fingerprints the resolved count (resolved_replicas).
  int replicas = 0;
  /// Temperature steps between exchange barriers (K).
  int exchange_period = 4;
  /// Geometric spacing of the replica temperature ladder: replica r
  /// anneals from T0 * ladder_ratio^r down to min_T * ladder_ratio^r.
  /// 1.0 degenerates to an independent-restart portfolio (exchanges
  /// then swap same-temperature chains, which is cost-neutral).
  double ladder_ratio = 1.25;
  /// Worker threads for the replica segments; 0 = hardware concurrency.
  /// Execution-only: any value yields the identical placement.
  int threads = 0;
  /// Early-stop target: the run ends at the first exchange barrier where
  /// the incumbent best cost is <= this value. Disabled at -infinity.
  /// The wall-clock-to-target benches (bench_perf_sa) race against it.
  double target_cost = -std::numeric_limits<double>::infinity();
};

/// The replica count a run with `portfolio` uses: `replicas`, or the
/// host's hardware thread count (min 1) when it is 0.
int resolved_replicas(const PortfolioOptions& portfolio);

/// Anneals a portfolio of context.portfolio.replicas replicas, every one
/// starting from `initial` (or replica 0 from `replica0_initial` when
/// given — the warm-start seam: the memoized placement seeds one chain,
/// the fresh split seeds keep the rest exploring). The "portfolio"
/// backend calls it with the greedy constructive initial.
///
/// The returned outcome carries the incumbent best placement.
/// `outcome.stats` aggregates all replicas; its wall_seconds is the
/// CRITICAL-PATH time — the sum over barrier intervals of the slowest
/// replica's segment plus the serial exchange passes — which equals the
/// elapsed wall time of the same run on >= N free hardware threads, and
/// is what the wall-clock-to-target benches record on any machine; its
/// seconds_to_best is that clock at the barrier where the incumbent
/// last improved. `outcome.replica_stats[r]` is replica r's own loop
/// (own wall clock). `outcome.wall_seconds` is the actually elapsed
/// time of this run, setup included. Throws std::invalid_argument when
/// context.annealing would never terminate (see validate_schedule).
PlacementOutcome anneal_portfolio(const Placement& initial,
                                  const PlacerContext& context,
                                  const Placement* replica0_initial = nullptr);

}  // namespace dmfb
