#include "core/placer.h"

#include <chrono>
#include <optional>
#include <stdexcept>

#include "core/greedy_placer.h"
#include "core/kamer_placer.h"
#include "core/portfolio_placer.h"
#include "core/two_stage_placer.h"

namespace dmfb {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Cost breakdown of a finished (non-annealed) placement, so every backend
/// reports through the same PlacementOutcome fields.
CostBreakdown evaluate_outcome_cost(const Placement& placement,
                                    const PlacerContext& context) {
  CostEvaluator evaluator(context.weights, context.fti_options);
  evaluator.set_defects(context.defects);
  evaluator.set_route_links(context.route_links);
  return evaluator.evaluate(placement);
}

void reject_defects(const PlacerContext& context, const char* name) {
  if (!context.defects.empty()) {
    throw std::invalid_argument(std::string("placer '") + name +
                                "' does not support defect maps; use \"sa\","
                                " \"greedy\" or \"two-stage\"");
  }
}

/// The context's warm-start poses transferred onto `schedule`'s
/// placement, or nothing when they do not fit (module counts differ, or
/// the transferred poses are infeasible or touch a defect) — the caller
/// then anneals from the greedy initial alone.
std::optional<Placement> warm_start(const Schedule& schedule,
                                    const PlacerContext& context) {
  if (!context.initial_placement) return std::nullopt;
  const Placement& warm = *context.initial_placement;
  Placement seeded(schedule, context.canvas_width, context.canvas_height);
  if (warm.module_count() != seeded.module_count()) return std::nullopt;
  for (int i = 0; i < seeded.module_count(); ++i) {
    seeded.set_position(i, warm.module(i).anchor, warm.module(i).rotated);
  }
  if (!seeded.feasible()) return std::nullopt;
  if (!context.defects.empty()) {
    CostEvaluator evaluator(context.weights, context.fti_options);
    evaluator.set_defects(context.defects);
    if (evaluator.defect_usage(seeded) != 0) return std::nullopt;
  }
  return seeded;
}

Placement greedy_initial(const Schedule& schedule,
                         const PlacerContext& context) {
  return place_greedy(schedule, context.canvas_width, context.canvas_height,
                      context.defects);
}

/// The "sa" backend: anneals from the warm start when it fits, else from
/// the greedy constructive initial.
PlacementOutcome anneal_schedule(const Schedule& schedule,
                                 const PlacerContext& context) {
  if (const auto warm = warm_start(schedule, context)) {
    return anneal_from(*warm, context);
  }
  return anneal_from(greedy_initial(schedule, context), context);
}

class SaPlacer final : public Placer {
 public:
  std::string name() const override { return "sa"; }

  PlacementOutcome place(const Schedule& schedule,
                         const PlacerContext& context) const override {
    return anneal_schedule(schedule, context);
  }
};

class GreedyPlacer final : public Placer {
 public:
  std::string name() const override { return "greedy"; }

  PlacementOutcome place(const Schedule& schedule,
                         const PlacerContext& context) const override {
    const auto start = Clock::now();
    PlacementOutcome outcome;
    outcome.placement = greedy_initial(schedule, context);
    outcome.cost = evaluate_outcome_cost(outcome.placement, context);
    outcome.wall_seconds = seconds_since(start);
    return outcome;
  }
};

class KamerPlacer final : public Placer {
 public:
  std::string name() const override { return "kamer"; }

  PlacementOutcome place(const Schedule& schedule,
                         const PlacerContext& context) const override {
    reject_defects(context, "kamer");
    const auto start = Clock::now();
    // KAMER places onto a fixed array; honour the canvas as that array.
    const KamerResult result =
        place_kamer(schedule, context.canvas_width, context.canvas_height,
                    context.kamer_policy, context.allow_rotation);
    if (!result.success) {
      throw std::runtime_error("kamer placement failed: " +
                               result.failure_reason);
    }
    PlacementOutcome outcome;
    outcome.placement = result.placement;
    outcome.cost = evaluate_outcome_cost(outcome.placement, context);
    outcome.wall_seconds = seconds_since(start);
    return outcome;
  }
};

class ExactPlacer final : public Placer {
 public:
  std::string name() const override { return "optimal"; }

  PlacementOutcome place(const Schedule& schedule,
                         const PlacerContext& context) const override {
    reject_defects(context, "optimal");
    const auto start = Clock::now();
    const OptimalResult result = place_optimal(schedule, context.optimal);
    PlacementOutcome outcome;
    outcome.placement = result.placement;
    outcome.cost = evaluate_outcome_cost(outcome.placement, context);
    outcome.wall_seconds = seconds_since(start);
    return outcome;
  }
};

class TwoStagePlacer final : public Placer {
 public:
  std::string name() const override { return "two-stage"; }

  PlacementOutcome place(const Schedule& schedule,
                         const PlacerContext& context) const override {
    PlacerContext stage1 = context;
    stage1.weights.beta = 0.0;  // fault-oblivious by definition
    const PlacementOutcome first = anneal_schedule(schedule, stage1);
    PlacementOutcome result =
        anneal_ltsa(first.placement, context, context.two_stage_beta,
                    ltsa_seed(context.seed));
    result.wall_seconds += first.wall_seconds;
    return result;
  }
};

class PortfolioPlacer final : public Placer {
 public:
  std::string name() const override { return "portfolio"; }

  /// Every replica starts from the greedy initial except replica 0,
  /// which takes the warm start when it fits; replicas 1..N-1 keep their
  /// fresh split-seeded chains.
  PlacementOutcome place(const Schedule& schedule,
                         const PlacerContext& context) const override {
    const Placement initial = greedy_initial(schedule, context);
    const auto warm = warm_start(schedule, context);
    return anneal_portfolio(initial, context, warm ? &*warm : nullptr);
  }
};

}  // namespace

PlacerRegistry::PlacerRegistry() {
  register_placer("sa", [] { return std::make_unique<SaPlacer>(); });
  register_placer("greedy", [] { return std::make_unique<GreedyPlacer>(); });
  register_placer("kamer", [] { return std::make_unique<KamerPlacer>(); });
  register_placer("optimal", [] { return std::make_unique<ExactPlacer>(); });
  register_placer("two-stage",
                  [] { return std::make_unique<TwoStagePlacer>(); });
  register_placer("portfolio",
                  [] { return std::make_unique<PortfolioPlacer>(); });
}

PlacerRegistry& PlacerRegistry::global() {
  static PlacerRegistry registry;
  return registry;
}

std::unique_ptr<Placer> make_placer(const std::string& name) {
  return PlacerRegistry::global().make(name);
}

std::vector<std::string> registered_placers() {
  return PlacerRegistry::global().names();
}

}  // namespace dmfb
