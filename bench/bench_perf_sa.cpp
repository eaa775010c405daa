// bench_perf_sa — microbenchmarks for the annealing machinery plus the
// engine comparison and the random-assay scaling sweep (the paper's §6
// runtime context: 5 min for area-only SA, 20 min for two-stage, on a
// 1.0 GHz Pentium-III).
//
// Before the Google-Benchmark suite runs, the binary
//   1. anneals the paper's Fig. 7 configuration with the production
//      delta engine and with the copying oracle (tests/support/
//      copy_annealer.h), and again with beta > 0 (the two-stage LTSA
//      objective), emitting one JSON line per (engine, beta) cell:
//        {"bench":"perf_sa","engine":"delta","beta":0,...,"moves":{...}}
//   2. sweeps seeded random assays from ~10 to ~200 modules and runs
//      the copy-vs-delta comparison at every size, emitting one
//      {"bench":"perf_sa_scaling",...} line per (size, beta, engine)
//      cell — the recorded artifact showing the delta engine's
//      advantage growing with instance size.
//   3. races the "portfolio" backend against its own single-replica run
//      (N = 1: the same propose_random loop with no exchange partner) on
//      the largest sweep instance (~226 modules): every row records the
//      temperature steps and the wall-clock (critical-path time — what
//      the run costs on >= N free hardware threads) to first reach the
//      N = 1 run's best cost, across replica counts {1, 2, 4, 8},
//      emitting one {"bench":"perf_sa_portfolio",...} line per N.
//
// It exits non-zero when the delta engine is slower than the copy
// oracle or their final placements differ anywhere — including at any
// swept size — when the LTSA beta = 30 delta run rejects no proposal on
// its delta's floor (before pricing FTI), or when the portfolio at
// N >= 4 replicas fails to reach the N = 1 target in fewer temperature
// steps than the N = 1 run did: the CI shape checks.
// `--smoke` shrinks the schedules, sweep and race instance and skips the
// microbenchmarks (CI Release job).
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "assay/random_assay.h"
#include "core/cost.h"
#include "core/moves.h"
#include "core/portfolio_placer.h"
#include "support/copy_annealer.h"
#include "util/rng.h"

namespace {

using namespace dmfb;

const Schedule& pcr_schedule() {
  static const Schedule schedule = bench::pcr_via_pipeline().schedule;
  return schedule;
}

Placement greedy_pcr_placement() {
  return make_placer("greedy")
      ->place(pcr_schedule(), bench::paper_context())
      .placement;
}

// --- engine comparison ------------------------------------------------

bool same_placement(const Placement& a, const Placement& b) {
  if (a.module_count() != b.module_count()) return false;
  for (int i = 0; i < a.module_count(); ++i) {
    if (!(a.module(i).anchor == b.module(i).anchor) ||
        a.module(i).rotated != b.module(i).rotated) {
      return false;
    }
  }
  return true;
}

/// Runs the delta engine and the copying oracle on one configuration,
/// emits their JSON lines, and returns whether the delta engine held its
/// contract (identical best placement, no slower than the oracle, and —
/// with `expect_bound_rejects` — some proposals rejected on their
/// delta's floor, a work counter that repeats exactly). Runs are
/// interleaved and each side reports its best proposals/sec of `rounds`
/// runs, so CPU frequency drift biases no side.
bool compare_engines(const char* label, const Placement& initial,
                     const PlacerContext& options, int rounds,
                     bool expect_bound_rejects) {
  PlacementOutcome copy = anneal_copy(initial, options);
  PlacementOutcome delta = anneal_from(initial, options);
  for (int round = 1; round < rounds; ++round) {
    PlacementOutcome c = anneal_copy(initial, options);
    if (c.stats.proposals_per_second > copy.stats.proposals_per_second) {
      copy = std::move(c);
    }
    PlacementOutcome d = anneal_from(initial, options);
    if (d.stats.proposals_per_second > delta.stats.proposals_per_second) {
      delta = std::move(d);
    }
  }
  const bool identical = same_placement(copy.placement, delta.placement);

  bench::emit_engine_json_line("perf_sa", "copy", options.weights.beta,
                               copy.cost.value,
                               copy.stats.proposals_per_second,
                               copy.stats.wall_seconds, identical, copy.stats,
                               options.seed);
  bench::emit_engine_json_line("perf_sa", "delta", options.weights.beta,
                               delta.cost.value,
                               delta.stats.proposals_per_second,
                               delta.stats.wall_seconds, identical,
                               delta.stats, options.seed);
  const double speedup =
      copy.stats.proposals_per_second > 0.0
          ? delta.stats.proposals_per_second / copy.stats.proposals_per_second
          : 0.0;
  std::cout << label << ": delta/copy speedup " << speedup
            << "x (copy " << copy.stats.proposals_per_second
            << " proposals/s, delta " << delta.stats.proposals_per_second
            << " proposals/s), placements "
            << (identical ? "identical" : "DIFFER") << ", "
            << delta.stats.bound_rejected << " of "
            << delta.stats.proposals << " proposals rejected on a floor\n";

  bool ok = true;
  if (!identical) {
    std::cerr << "SHAPE CHECK FAILED: " << label
              << ": copy oracle and delta engine returned different "
                 "placements\n";
    ok = false;
  }
  if (speedup < 1.0) {
    std::cerr << "SHAPE CHECK FAILED: " << label
              << ": delta engine slower than the copy oracle (" << speedup
              << "x)\n";
    ok = false;
  }
  if (expect_bound_rejects && delta.stats.bound_rejected <= 0) {
    std::cerr << "SHAPE CHECK FAILED: " << label
              << ": no proposal was rejected on its delta's floor\n";
    ok = false;
  }
  return ok;
}

/// The engine comparison over the Fig. 7 configuration (beta = 0) and
/// its two-stage LTSA counterpart (beta = 30). `smoke` shrinks the
/// schedules so the CI Release job finishes in seconds; the full run is
/// the recorded artifact quoted in README "Performance".
bool run_comparison(bool smoke) {
  const Placement initial = greedy_pcr_placement();
  const int rounds = smoke ? 1 : 3;

  // Fig. 7: area-only annealing at the paper's parameters.
  PlacerContext stage1 = bench::paper_context();
  if (smoke) {
    stage1.annealing.initial_temperature = 1000.0;
    stage1.annealing.cooling_rate = 0.8;
    stage1.annealing.iterations_per_module = 25;
  }
  bool ok = compare_engines(smoke ? "fig7 (smoke)" : "fig7", initial, stage1,
                            rounds, /*expect_bound_rejects=*/false);

  // Two-stage LTSA: beta > 0 exercises the incremental FTI coverage
  // state. Single displacements only, as in §6.2.
  PlacerContext ltsa = stage1;
  ltsa.annealing = AnnealingSchedule{/*initial_temperature=*/100.0,
                                    /*cooling_rate=*/0.9,
                                    /*iterations_per_module=*/400,
                                    /*min_temperature=*/0.05};
  if (smoke) {
    ltsa.annealing.cooling_rate = 0.8;
    ltsa.annealing.iterations_per_module = 25;
  }
  ltsa.weights.beta = 30.0;
  ltsa.moves.single_move_probability = 1.0;
  ltsa.moves.rotate_probability = 0.0;
  ok = compare_engines(smoke ? "ltsa beta=30 (smoke)" : "ltsa beta=30",
                       initial, ltsa, rounds,
                       /*expect_bound_rejects=*/true) &&
       ok;
  return ok;
}

// --- random-assay scaling sweep ---------------------------------------

/// One swept size: a seeded random assay scheduled through the
/// pipeline, annealed from greedy by the delta engine and the copying
/// oracle at `beta` under a short shared schedule. Emits the two JSON
/// rows and returns whether the placements stayed identical (the CI
/// divergence check).
bool sweep_point(const Schedule& schedule, int canvas, double beta,
                 const AnnealingSchedule& annealing) {
  const int modules = static_cast<int>(schedule.modules().size());

  PlacerContext options;
  options.canvas_width = canvas;
  options.canvas_height = canvas;
  options.annealing = annealing;
  options.weights.beta = beta;
  options.seed = bench::kBenchSeed + static_cast<std::uint64_t>(modules);

  PlacerContext greedy_context;
  greedy_context.canvas_width = canvas;
  greedy_context.canvas_height = canvas;
  const Placement initial =
      make_placer("greedy")->place(schedule, greedy_context).placement;

  const PlacementOutcome copy = anneal_copy(initial, options);
  const PlacementOutcome delta = anneal_from(initial, options);
  const bool identical = same_placement(copy.placement, delta.placement);

  bench::emit_scaling_json_line(modules, beta, "copy",
                                copy.stats.proposals_per_second,
                                copy.stats.wall_seconds, identical,
                                options.seed);
  bench::emit_scaling_json_line(modules, beta, "delta",
                                delta.stats.proposals_per_second,
                                delta.stats.wall_seconds, identical,
                                options.seed);
  const double ratio =
      copy.stats.proposals_per_second > 0.0
          ? delta.stats.proposals_per_second / copy.stats.proposals_per_second
          : 0.0;
  std::cout << "scaling n=" << modules << " beta=" << beta
            << " canvas=" << canvas << ": delta/copy " << ratio
            << "x, placements " << (identical ? "identical" : "DIFFER")
            << "\n";
  if (!identical) {
    std::cerr << "SHAPE CHECK FAILED: scaling n=" << modules << " beta="
              << beta << ": engines returned different placements\n";
  }
  return identical;
}

/// The sweep: module counts from the PCR scale (~10) to ~200 via
/// random_assay, each scheduled once and annealed by both sides at
/// beta = 0 and beta = 30. The copy oracle's per-proposal cost grows
/// with the module count (it rebuilds every module's relocation state),
/// the delta engine's only with the temporal degree — the ratio's
/// growth with size is the artifact this records.
bool run_scaling_sweep(bool smoke) {
  bench::banner(smoke ? "perf_sa: random-assay scaling sweep (smoke)"
                      : "perf_sa: random-assay scaling sweep");
  const ModuleLibrary library = ModuleLibrary::standard();
  // Mix counts chosen so the scheduled instances (mixes + storage) span
  // the PCR scale (~10 modules) up to ~200.
  const std::vector<int> mix_counts = smoke
                                          ? std::vector<int>{8, 24, 48}
                                          : std::vector<int>{8, 16, 32, 64,
                                                             128};

  // Short shared schedule: throughput is time-normalized, so the sweep
  // needs samples, not convergence. (The copy oracle at n ~ 200 costs
  // milliseconds per proposal — a full paper schedule would take hours.)
  AnnealingSchedule annealing;
  annealing.initial_temperature = smoke ? 50.0 : 100.0;
  annealing.cooling_rate = smoke ? 0.5 : 0.7;
  annealing.iterations_per_module = smoke ? 2 : 4;
  annealing.min_temperature = smoke ? 5.0 : 1.0;

  bool ok = true;
  for (const int mixes : mix_counts) {
    RandomAssayParams params;
    params.mix_operations = mixes;
    params.max_layer_width = std::max(4, mixes / 4);
    params.max_concurrent_modules = 8;
    const AssayCase assay = random_assay(
        params, library, bench::kBenchSeed + static_cast<std::uint64_t>(mixes));

    PipelineOptions pipeline_options;
    pipeline_options.place = false;
    pipeline_options.seed = bench::kBenchSeed;
    const Schedule schedule =
        SynthesisPipeline(pipeline_options).run(assay).schedule;

    // Canvas sized to hold the peak concurrent area with ~2x slack, so
    // annealing has room to both pack and spread.
    const int canvas = std::max(
        16,
        static_cast<int>(std::ceil(std::sqrt(
            2.0 * static_cast<double>(schedule.peak_concurrent_cells())))));

    ok = sweep_point(schedule, canvas, /*beta=*/0.0, annealing) && ok;
    ok = sweep_point(schedule, canvas, /*beta=*/30.0, annealing) && ok;
  }
  return ok;
}

// --- portfolio time-to-target race ------------------------------------

/// The race instance: the scaling sweep's largest seeded random assay
/// (mixes = 128 schedules to ~226 modules; smoke shrinks to mixes = 64,
/// still large enough that the race is not timing noise), built with
/// the sweep's exact parameters so the portfolio rows and the scaling
/// rows describe the same workload.
Schedule race_schedule(bool smoke, int* canvas_out) {
  const ModuleLibrary library = ModuleLibrary::standard();
  const int mixes = smoke ? 64 : 128;
  RandomAssayParams params;
  params.mix_operations = mixes;
  params.max_layer_width = std::max(4, mixes / 4);
  params.max_concurrent_modules = 8;
  const AssayCase assay = random_assay(
      params, library, bench::kBenchSeed + static_cast<std::uint64_t>(mixes));

  PipelineOptions pipeline_options;
  pipeline_options.place = false;
  pipeline_options.seed = bench::kBenchSeed;
  Schedule schedule = SynthesisPipeline(pipeline_options).run(assay).schedule;
  *canvas_out = std::max(
      16, static_cast<int>(std::ceil(std::sqrt(
              2.0 * static_cast<double>(schedule.peak_concurrent_cells())))));
  return schedule;
}

/// Runs `portfolio` `rounds` times and keeps the run with the smallest
/// seconds_to_best. The trajectory is a pure function of (seed, N, K),
/// so repeats differ only in timing; the minimum filters out thread-
/// scheduling noise, which otherwise dominates the millisecond-scale
/// smoke race.
PlacementOutcome fastest_of(int rounds, const Placement& initial,
                            PlacerContext options,
                            const PortfolioOptions& portfolio) {
  options.portfolio = portfolio;
  PlacementOutcome fastest = anneal_portfolio(initial, options);
  for (int round = 1; round < rounds; ++round) {
    PlacementOutcome again = anneal_portfolio(initial, options);
    if (again.stats.seconds_to_best < fastest.stats.seconds_to_best) {
      fastest = std::move(again);
    }
  }
  return fastest;
}

/// One portfolio row of the race: anneals N exchange-coupled replicas
/// until they reach the target in `portfolio` and emits its JSON line.
/// Returns whether the row reached it in fewer temperature steps than
/// `baseline_steps` (the CI gate at N >= 4). The step count repeats
/// exactly for a seed: every replica runs the same number of proposals
/// per step, so it is the critical-path work to target.
bool race_portfolio(int modules, const Placement& initial,
                    const PlacerContext& options,
                    const PortfolioOptions& portfolio, int rounds,
                    int baseline_steps, double baseline_seconds) {
  const double target = portfolio.target_cost;
  const PlacementOutcome outcome =
      fastest_of(rounds, initial, options, portfolio);
  const bool reached = outcome.stats.best_cost <= target;
  const int steps = outcome.stats.temperature_steps;
  const double seconds = outcome.stats.seconds_to_best;
  const double speedup =
      reached && seconds > 0.0 ? baseline_seconds / seconds : 0.0;
  bench::emit_portfolio_json_line(
      modules, portfolio.replicas, target, outcome.stats.best_cost, reached,
      seconds, outcome.stats.wall_seconds, speedup, outcome.stats,
      options.seed);
  std::cout << "portfolio N=" << portfolio.replicas << ": "
            << (reached ? "reached" : "MISSED") << " target " << target
            << " (best " << outcome.stats.best_cost << ") in " << steps
            << " temperature steps (N=1: " << baseline_steps << "), "
            << seconds << " s critical-path — " << speedup << "x vs N=1, "
            << outcome.stats.exchanges_accepted << "/"
            << outcome.stats.exchanges_attempted << " exchanges\n";
  return reached && steps < baseline_steps;
}

/// The race: the portfolio at N = 1 — one replica running the
/// production propose_random loop with no exchange partner — sets the
/// target (its best cost, and the temperature steps and critical-path
/// time it takes to reach it), then the portfolio chases it at N in
/// {2, 4, 8}. N = 2 is recorded for the scaling table; N >= 4 must
/// reach it in strictly fewer temperature steps (the CI gate: a work
/// counter that repeats exactly, while the ~1 ms smoke race's critical-
/// path times differ by too little to gate on). Each step costs every
/// replica the same proposals, so fewer steps is less critical-path
/// work on >= N free hardware threads; the times are recorded.
///
/// Every row anneals from the same seeded SCATTERED initial (modules at
/// uniform random anchors), not from the greedy constructive one: on
/// the dense random-assay instances the slice-aware greedy packing is
/// already at the annealer's attainable floor (measured: 10M paper-
/// schedule proposals never improve it), so a greedy-start race ends at
/// t = 0 for every backend. The scattered start is the adversarial cold
/// case — it measures the engines' convergence dynamics themselves,
/// which is what the portfolio accelerates.
bool run_portfolio_race(bool smoke) {
  bench::banner(smoke ? "perf_sa: portfolio time-to-target race (smoke)"
                      : "perf_sa: portfolio time-to-target race");
  int canvas = 0;
  const Schedule schedule = race_schedule(smoke, &canvas);
  const int modules = static_cast<int>(schedule.modules().size());
  std::cout << modules << " modules on a " << canvas << "x" << canvas
            << " canvas\n";

  PlacerContext options;
  options.canvas_width = canvas;
  options.canvas_height = canvas;
  // ~100 temperature steps full (~30 smoke): enough cooling for the
  // chains to feasibilize and settle from the scattered start.
  options.annealing.initial_temperature = smoke ? 50.0 : 100.0;
  options.annealing.cooling_rate = smoke ? 0.9 : 0.95;
  options.annealing.iterations_per_module = smoke ? 4 : 8;
  options.annealing.min_temperature = smoke ? 2.0 : 0.5;
  options.seed = bench::kBenchSeed + static_cast<std::uint64_t>(modules);

  Placement initial(schedule, canvas, canvas);
  Rng scatter(bench::kBenchSeed ^ static_cast<std::uint64_t>(modules));
  for (int i = 0; i < initial.module_count(); ++i) {
    const Rect footprint = initial.module(i).footprint();
    initial.set_position(
        i,
        Point{static_cast<int>(scatter.next_below(
                  static_cast<std::uint32_t>(canvas - footprint.width + 1))),
              static_cast<int>(scatter.next_below(static_cast<std::uint32_t>(
                  canvas - footprint.height + 1)))},
        /*rotated=*/false);
  }

  PortfolioOptions portfolio;
  portfolio.exchange_period = 4;
  // Rungs BELOW the base temperature: the extra replicas quench early
  // (reaching near-final costs in the opening barriers) while replica 0
  // anneals the full base schedule, and the exchange pass hands stuck
  // quenches back up the ladder. Measured much stronger on
  // time-to-target than a hotter ladder (0.7 won the {0.6,0.7,0.8} x
  // {K=2,K=4} tuning grid on this instance).
  portfolio.ladder_ratio = 0.7;

  // The N = 1 baseline is the target-setter: a full run's best cost is
  // the cost every row must reach, and the N = 1 run chasing it gives
  // the steps (the gate) and the critical-path time (recorded) to beat.
  portfolio.replicas = 1;
  options.portfolio = portfolio;
  const double target = anneal_portfolio(initial, options).stats.best_cost;
  portfolio.target_cost = target;
  const int rounds = smoke ? 15 : 5;
  const PlacementOutcome serial =
      fastest_of(rounds, initial, options, portfolio);
  const int baseline_steps = serial.stats.temperature_steps;
  const double baseline_seconds = serial.stats.seconds_to_best;
  bench::emit_portfolio_json_line(modules, 1, target, target, true,
                                  baseline_seconds, serial.stats.wall_seconds,
                                  1.0, serial.stats, options.seed);
  std::cout << "portfolio N=1 (baseline): best " << target << " in "
            << baseline_steps << " temperature steps, " << baseline_seconds
            << " s critical-path\n";

  bool ok = true;
  for (const int replicas : {2, 4, 8}) {
    portfolio.replicas = replicas;
    const bool won = race_portfolio(modules, initial, options, portfolio,
                                    rounds, baseline_steps, baseline_seconds);
    if (replicas >= 4 && !won) {
      std::cerr << "SHAPE CHECK FAILED: portfolio N=" << replicas
                << " did not reach the N=1 target in fewer temperature"
                   " steps than the N=1 baseline\n";
      ok = false;
    }
  }
  return ok;
}

// --- Google-Benchmark microbenches ------------------------------------

void BM_CostEvaluationAreaOnly(benchmark::State& state) {
  const Placement placement = greedy_pcr_placement();
  const CostEvaluator evaluator(CostWeights{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.cost(placement));
  }
}
BENCHMARK(BM_CostEvaluationAreaOnly);

void BM_CostEvaluationWithFti(benchmark::State& state) {
  const Placement placement = greedy_pcr_placement();
  CostWeights weights;
  weights.beta = 30.0;
  const CostEvaluator evaluator(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.cost(placement));
  }
}
BENCHMARK(BM_CostEvaluationWithFti);

void BM_MoveGeneration(benchmark::State& state) {
  Placement placement = greedy_pcr_placement();
  Rng rng(1);
  const MoveOptions options;
  for (auto _ : state) {
    Placement copy = placement;
    benchmark::DoNotOptimize(apply_random_move(copy, 0.5, options, rng));
  }
}
BENCHMARK(BM_MoveGeneration);

void BM_AreaOnlyPlacementEndToEnd(benchmark::State& state) {
  // Shortened schedule so a single iteration stays ~tens of ms; arg 1
  // selects the delta engine (0) or the copying oracle (1) so the
  // speedup shows up in the benchmark table too.
  PlacerContext context = bench::paper_context();
  context.annealing.initial_temperature = 1000.0;
  context.annealing.cooling_rate = 0.8;
  context.annealing.iterations_per_module = static_cast<int>(state.range(0));
  const bool copy = state.range(1) == 1;
  const Placement initial = greedy_pcr_placement();
  const auto placer = make_placer("sa");
  std::uint64_t seed = 1;
  for (auto _ : state) {
    context.seed = seed++;
    const auto outcome = copy ? anneal_copy(initial, context)
                              : placer->place(pcr_schedule(), context);
    benchmark::DoNotOptimize(outcome.cost.area_cells);
  }
  state.counters["Na"] = static_cast<double>(state.range(0));
  state.SetLabel(copy ? "copy" : "delta");
}
BENCHMARK(BM_AreaOnlyPlacementEndToEnd)
    ->Args({25, 0})
    ->Args({25, 1})
    ->Args({100, 0})
    ->Args({100, 1})
    ->Unit(benchmark::kMillisecond);

void BM_PaperParameterPlacement(benchmark::State& state) {
  // Full paper parameters (T0=1e4, alpha=0.9, Na=400) — the modern
  // counterpart of the paper's 5-minute figure, on the delta engine.
  PlacerContext context = bench::paper_context();
  const auto placer = make_placer("sa");
  std::uint64_t seed = 1;
  for (auto _ : state) {
    context.seed = seed++;
    const auto outcome = placer->place(pcr_schedule(), context);
    benchmark::DoNotOptimize(outcome.cost.area_cells);
  }
}
BENCHMARK(BM_PaperParameterPlacement)->Iterations(3)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineEndToEnd(benchmark::State& state) {
  // Whole compile driver — bind, schedule, place, route — as users run it.
  PipelineOptions options;
  options.placer_context.annealing.initial_temperature = 1000.0;
  options.placer_context.annealing.cooling_rate = 0.8;
  options.placer_context.annealing.iterations_per_module =
      static_cast<int>(state.range(0));
  const AssayCase assay = pcr_mixing_assay();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    PipelineOptions per_run = options;
    per_run.seed = seed++;
    const auto result = SynthesisPipeline(per_run).run(assay);
    benchmark::DoNotOptimize(result.cost().area_cells);
  }
  state.counters["Na"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_PipelineEndToEnd)->Arg(25)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const bool smoke = dmfb::bench::smoke_flag(argc, argv);

  dmfb::bench::banner(smoke ? "perf_sa: engine comparison (smoke)"
                            : "perf_sa: engine comparison");
  bool ok = run_comparison(smoke);
  ok = run_scaling_sweep(smoke) && ok;
  ok = run_portfolio_race(smoke) && ok;
  if (!ok) return 1;
  if (!smoke) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
