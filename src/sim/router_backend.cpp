#include "sim/router_backend.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace dmfb {
namespace {

using routing::ChangeoverProblem;
using routing::position_at;

// --- "prioritized" ----------------------------------------------------

class PrioritizedRouter final : public Router {
 public:
  std::string name() const override { return "prioritized"; }

  RoutePlan plan(const SequencingGraph& graph, const Schedule& schedule,
                 const Placement& placement, int chip_width, int chip_height,
                 const RoutePlannerOptions& options) const override {
    return routing::plan_prioritized(graph, schedule, placement, chip_width,
                                     chip_height, options);
  }
};

// --- "negotiated" -----------------------------------------------------
//
// Pathfinder-style negotiated congestion on the space-time grid. Every
// transfer is routed with a cost-based A* that may enter another route's
// fluidic neighbourhood at a price: an escalating present-congestion cost
// plus a history cost accumulated on space-time cells that keep seeing
// conflicts. Conflicted routes are ripped up and rerouted each round
// until the changeover is conflict-free.

/// A routed candidate with its congestion-aware cost.
struct SoftRoute {
  std::vector<Point> positions;
  double cost = 0.0;
};

/// Cost-based space-time A* for one transfer. `others` are the current
/// routes of every transfer; `self` is skipped (as are merging partners).
/// `present_weight` prices entering another route's neighbourhood;
/// `history` prices space-time cells with a conflict record. With both at
/// zero this degenerates to an unconstrained shortest path.
std::optional<SoftRoute> route_soft(
    const TransferRequest& request, const Matrix<std::uint8_t>& blocked,
    const std::vector<TimedRoute>& others, std::size_t self, int horizon,
    int separation, double present_weight, const std::vector<double>& history,
    double history_weight, routing::SearchScratch& scratch) {
  const int width = blocked.width();
  const int height = blocked.height();
  if (!blocked.in_bounds(request.from) || !blocked.in_bounds(request.to)) {
    return std::nullopt;
  }
  if (blocked.at(request.from) != 0 || blocked.at(request.to) != 0) {
    return std::nullopt;
  }

  const auto key = [&](Point p, int step) {
    return (static_cast<std::size_t>(step) * height + p.y) * width + p.x;
  };

  auto penalty = [&](Point p, int step) {
    double cost = history.empty() ? 0.0
                                  : history[key(p, step)] * history_weight;
    for (std::size_t o = 0; o < others.size(); ++o) {
      if (o == self) continue;
      const TimedRoute& other = others[o];
      if (other.positions.empty()) continue;  // not routed yet
      if (other.request.to == request.to) continue;  // merging pair
      if (routing::conflicts_with_route(p, step, other, separation)) {
        cost += present_weight;
      }
    }
    return cost;
  };

  struct Node {
    double f;
    double g;
    int step;
    Point p;
    bool operator>(const Node& o) const {
      if (f != o.f) return f > o.f;
      if (step != o.step) return step > o.step;
      return std::pair(p.x, p.y) > std::pair(o.p.x, o.p.y);
    }
  };

  scratch.begin(static_cast<std::size_t>(horizon + 1) * width * height);
  std::priority_queue<Node, std::vector<Node>, std::greater<Node>> open;
  const double start_g = penalty(request.from, 0);
  scratch.visit(key(request.from, 0), 0, start_g);
  open.push(Node{start_g + manhattan_distance(request.from, request.to),
                 start_g, 0, request.from});

  while (!open.empty()) {
    const Node node = open.top();
    open.pop();
    if (node.g > scratch.cost(key(node.p, node.step))) continue;  // stale
    if (node.p == request.to) {
      SoftRoute route;
      route.cost = node.g;
      route.positions.resize(static_cast<std::size_t>(node.step) + 1);
      Point p = node.p;
      for (int s = node.step; s >= 0; --s) {
        route.positions[static_cast<std::size_t>(s)] = p;
        if (s > 0) {
          const Point move = routing::kMoves[scratch.move(key(p, s))];
          p = Point{p.x - move.x, p.y - move.y};
        }
      }
      return route;
    }
    if (node.step >= horizon) continue;
    for (std::uint8_t m = 0; m < std::size(routing::kMoves); ++m) {
      const Point next{node.p.x + routing::kMoves[m].x,
                       node.p.y + routing::kMoves[m].y};
      const int next_step = node.step + 1;
      if (!blocked.in_bounds(next) || blocked.at(next) != 0) continue;
      const double g = node.g + 1.0 + penalty(next, next_step);
      if (g >= scratch.cost(key(next, next_step))) continue;
      scratch.visit(key(next, next_step), m, g);
      open.push(Node{g + manhattan_distance(next, request.to), g, next_step,
                     next});
    }
  }
  return std::nullopt;
}

/// Routes `request`, resolving a dispense's pending entry by evaluating
/// the nearest free perimeter cells and keeping the cheapest route. The
/// resolved request (with the chosen entry as `from`) is written back.
std::optional<SoftRoute> route_soft_resolved(
    TransferRequest& request, const Matrix<std::uint8_t>& blocked,
    const std::vector<TimedRoute>& others, std::size_t self, int horizon,
    int separation, double present_weight, const std::vector<double>& history,
    double history_weight, routing::SearchScratch& scratch) {
  if (!(request.from == routing::kDispensePending)) {
    return route_soft(request, blocked, others, self, horizon, separation,
                      present_weight, history, history_weight, scratch);
  }
  // Evaluating every perimeter cell is an A* each; the nearest few are
  // where a sensible entry lives.
  constexpr std::size_t kMaxEntries = 12;
  std::optional<SoftRoute> best;
  Point best_entry = request.from;
  const auto entries = routing::perimeter_entries(blocked, request.to);
  for (std::size_t i = 0; i < entries.size() && i < kMaxEntries; ++i) {
    TransferRequest candidate = request;
    candidate.from = entries[i];
    auto route = route_soft(candidate, blocked, others, self, horizon,
                            separation, present_weight, history,
                            history_weight, scratch);
    if (route && (!best || route->cost < best->cost)) {
      best = std::move(route);
      best_entry = entries[i];
    }
  }
  if (best) request.from = best_entry;
  return best;
}

/// Indices of routes involved in at least one fluidic violation, and —
/// when `history` is non-null — a history bump on every space-time cell
/// the offenders occupy at a violating step.
std::vector<std::size_t> conflicted_routes(
    const std::vector<TimedRoute>& routes, int separation, int horizon,
    int width, int height, std::vector<double>* history) {
  const auto key = [&](Point p, int step) {
    return (static_cast<std::size_t>(step) * height + p.y) * width + p.x;
  };
  std::vector<bool> conflicted(routes.size(), false);
  int makespan = 0;
  for (const auto& route : routes) {
    makespan = std::max(makespan, route.arrival_step());
  }
  for (std::size_t i = 0; i < routes.size(); ++i) {
    for (std::size_t j = i + 1; j < routes.size(); ++j) {
      const TimedRoute& a = routes[i];
      const TimedRoute& b = routes[j];
      if (a.request.to == b.request.to) continue;  // merging pair
      for (int step = 0; step <= makespan; ++step) {
        if (!routing::pair_violates_at(a, b, step, separation)) continue;
        conflicted[i] = conflicted[j] = true;
        if (history) {
          const int s = std::min(step, horizon);
          (*history)[key(position_at(a, step), s)] += 1.0;
          (*history)[key(position_at(b, step), s)] += 1.0;
        }
      }
    }
  }
  std::vector<std::size_t> result;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    if (conflicted[i]) result.push_back(i);
  }
  return result;
}

class NegotiatedRouter final : public Router {
 public:
  std::string name() const override { return "negotiated"; }

  RoutePlan plan(const SequencingGraph& graph, const Schedule& schedule,
                 const Placement& placement, int chip_width, int chip_height,
                 const RoutePlannerOptions& options) const override {
    const int horizon =
        routing::resolve_horizon(options, chip_width, chip_height);
    const auto problems = routing::extract_problems(
        graph, schedule, placement, chip_width, chip_height);

    if (options.persist_congestion_history) {
      // Warm-started history: each changeover negotiates against the
      // conflict record every earlier changeover accumulated, so
      // persistent chokepoints (corridors between long-lived modules)
      // start expensive and convergence takes fewer rounds. Sequential
      // by construction — the warm start consumes the previous
      // changeover's outcome — so the solves run inline (threads = 1
      // puts solve_changeovers on its deterministic fail-fast path).
      // The history grid is local per plan unless the caller supplied a
      // cross-run ledger (RoutePlannerOptions::congestion_ledger), in
      // which case this plan continues — and extends — that record.
      std::vector<double> local_history;
      std::vector<double>& history =
          options.congestion_ledger ? *options.congestion_ledger
                                    : local_history;
      return routing::solve_changeovers(
          problems, /*threads=*/1,
          [&](const ChangeoverProblem& problem, std::size_t,
              std::string* failure) {
            routing::SearchScratch scratch;
            auto changeover =
                negotiate(problem, options, horizon, &history, scratch);
            if (!changeover) {
              changeover = routing::solve_prioritized(
                  problem, routing::default_order(problem.requests), options,
                  horizon, scratch, failure);
              // The failed negotiation burned its full round budget; the
              // convergence accounting must say so, or fallback-heavy
              // plans would report suspiciously few rounds.
              if (changeover) {
                changeover->negotiation_rounds = options.negotiation_rounds;
              }
            }
            return changeover;
          });
    }

    // Changeovers negotiate independently (each owns its history grid and
    // search scratch), so they fan out across the routing thread pool.
    return routing::solve_changeovers(
        problems, options.threads,
        [&](const ChangeoverProblem& problem, std::size_t,
            std::string* failure) {
          routing::SearchScratch scratch;
          auto changeover =
              negotiate(problem, options, horizon, nullptr, scratch);
          if (!changeover) {
            // A changeover the negotiation cannot converge on may still
            // yield to decoupled planning, so "negotiated" never does
            // worse than "prioritized".
            changeover = routing::solve_prioritized(
                problem, routing::default_order(problem.requests), options,
                horizon, scratch, failure);
            // The failed negotiation still burned its full round budget.
            if (changeover) {
              changeover->negotiation_rounds = options.negotiation_rounds;
            }
          }
          return changeover;
        });
  }

 private:
  /// `carried`, when non-null, is the cross-changeover history grid: read
  /// as the warm start and left holding whatever this changeover added.
  std::optional<ChangeoverPlan> negotiate(
      const ChangeoverProblem& problem, const RoutePlannerOptions& options,
      int horizon, std::vector<double>* carried,
      routing::SearchScratch& scratch) const {
    const int width = problem.blocked.width();
    const int height = problem.blocked.height();
    const int separation = options.separation_cells;
    const std::size_t states =
        static_cast<std::size_t>(horizon + 1) * width * height;
    // Every changeover shares the chip grid and horizon, so a carried
    // history only needs sizing once.
    std::vector<double> local;
    if (carried && carried->size() != states) carried->assign(states, 0.0);
    if (!carried) local.assign(states, 0.0);
    std::vector<double>& history = carried ? *carried : local;

    // Initial pass: route each transfer congestion-aware against the
    // routes placed so far (soft — sharing is allowed, just priced).
    std::vector<TimedRoute> routes(problem.requests.size());
    for (const std::size_t r : routing::default_order(problem.requests)) {
      TransferRequest request = problem.requests[r];
      auto soft = route_soft_resolved(
          request, problem.blocked, routes, r, horizon, separation,
          options.present_congestion_weight, history,
          options.history_congestion_weight, scratch);
      if (!soft) return std::nullopt;  // physically unroutable
      routes[r].request = request;
      routes[r].positions = std::move(soft->positions);
    }

    // Negotiation rounds: rip up every conflicted route and reroute it at
    // an escalating present-congestion cost.
    for (int round = 1; round <= options.negotiation_rounds; ++round) {
      const auto conflicted = conflicted_routes(routes, separation, horizon,
                                                width, height, &history);
      // round - 1 rip-up rounds were spent getting here.
      if (conflicted.empty()) return finish(problem.time_s, routes, round - 1);
      const double present =
          options.present_congestion_weight * static_cast<double>(round);
      for (const std::size_t r : conflicted) {
        TransferRequest request = problem.requests[r];
        auto soft = route_soft_resolved(
            request, problem.blocked, routes, r, horizon, separation, present,
            history, options.history_congestion_weight, scratch);
        if (!soft) return std::nullopt;
        routes[r].request = request;
        routes[r].positions = std::move(soft->positions);
      }
    }
    if (conflicted_routes(routes, separation, horizon, width, height, nullptr)
            .empty()) {
      return finish(problem.time_s, routes, options.negotiation_rounds);
    }
    return std::nullopt;  // failed to converge
  }

  static ChangeoverPlan finish(double time_s, std::vector<TimedRoute> routes,
                               int negotiation_rounds) {
    ChangeoverPlan changeover;
    changeover.time_s = time_s;
    changeover.negotiation_rounds = negotiation_rounds;
    for (const auto& route : routes) {
      changeover.makespan_steps =
          std::max(changeover.makespan_steps, route.arrival_step());
    }
    changeover.routes = std::move(routes);
    return changeover;
  }
};

// --- "restart" --------------------------------------------------------

class RestartRouter final : public Router {
 public:
  std::string name() const override { return "restart"; }

  RoutePlan plan(const SequencingGraph& graph, const Schedule& schedule,
                 const Placement& placement, int chip_width, int chip_height,
                 const RoutePlannerOptions& options) const override {
    const int horizon =
        routing::resolve_horizon(options, chip_width, chip_height);
    return routing::solve_changeovers(
        routing::extract_problems(graph, schedule, placement, chip_width,
                                  chip_height),
        options.threads,
        [&](const ChangeoverProblem& problem, std::size_t c,
            std::string* failure) -> std::optional<ChangeoverPlan> {
          // Per-changeover stream split from the one seed, so a
          // changeover's orderings depend on neither how many came before
          // it succeeded nor which worker picked it up.
          Rng rng(SplitMix64(options.seed ^ (0x9e3779b97f4a7c15ULL * (c + 1)))
                      .next());

          routing::SearchScratch scratch;
          std::optional<ChangeoverPlan> best;
          auto consider = [&](const std::vector<std::size_t>& order) {
            auto candidate = routing::solve_prioritized(
                problem, order, options, horizon, scratch, failure);
            if (!candidate) return;
            if (!best || better(*candidate, *best)) {
              best = std::move(candidate);
            }
          };

          std::vector<std::size_t> order =
              routing::default_order(problem.requests);
          consider(order);
          for (int restart = 0; restart < options.max_restarts; ++restart) {
            shuffle(order, rng);
            consider(order);
          }
          return best;
        });
  }

 private:
  /// Min makespan, then min total droplet-steps.
  static bool better(const ChangeoverPlan& a, const ChangeoverPlan& b) {
    if (a.makespan_steps != b.makespan_steps) {
      return a.makespan_steps < b.makespan_steps;
    }
    return total_steps(a) < total_steps(b);
  }

  static long long total_steps(const ChangeoverPlan& plan) {
    long long steps = 0;
    for (const auto& route : plan.routes) steps += route.arrival_step();
    return steps;
  }

  static void shuffle(std::vector<std::size_t>& order, Rng& rng) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
  }
};

}  // namespace

RouterRegistry::RouterRegistry() {
  register_router("negotiated",
                  [] { return std::make_unique<NegotiatedRouter>(); });
  register_router("prioritized",
                  [] { return std::make_unique<PrioritizedRouter>(); });
  register_router("restart",
                  [] { return std::make_unique<RestartRouter>(); });
}

RouterRegistry& RouterRegistry::global() {
  static RouterRegistry registry;
  return registry;
}

std::unique_ptr<Router> make_router(const std::string& name) {
  return RouterRegistry::global().make(name);
}

std::vector<std::string> registered_routers() {
  return RouterRegistry::global().names();
}

}  // namespace dmfb
