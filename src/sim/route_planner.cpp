#include "sim/route_planner.h"

#include <algorithm>
#include <exception>
#include <map>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "biochip/module_spec.h"
#include "util/parallel.h"

namespace dmfb {
namespace {

constexpr double kEps = 1e-9;

// The shared center convention (also the routing-pressure term's), so
// placement pressure and actual route endpoints cannot diverge.
using detail::footprint_center;

/// Functional regions of modules strictly spanning time t (the changeover
/// rule shared with the simulator: modules starting or ending exactly at t
/// do not block).
Matrix<std::uint8_t> blocked_at(const Placement& placement, double t,
                                int width, int height) {
  Matrix<std::uint8_t> blocked(width, height, 0);
  for (int i = 0; i < placement.module_count(); ++i) {
    const auto& m = placement.module(i);
    if (m.start_s + kEps < t && t + kEps < m.end_s) {
      blocked.fill_rect(m.footprint().inflated(-kSegregationRingCells), 1);
    }
  }
  return blocked;
}

}  // namespace

double RoutePlan::total_transport_seconds(double cells_per_second) const {
  if (cells_per_second <= 0.0) return 0.0;
  double seconds = 0.0;
  for (const auto& changeover : changeovers) {
    seconds += changeover.makespan_steps / cells_per_second;
  }
  return seconds;
}

Schedule fold_transport(const Schedule& schedule, const RoutePlan& plan) {
  Schedule result = schedule;
  // Reverse time order, so every shift's threshold is the changeover's
  // *original* time: a later changeover's shift only moves modules at or
  // after it, leaving every earlier threshold's matches untouched. The
  // net effect is the cumulative delay sum over preceding changeovers.
  for (auto it = plan.changeovers.rbegin(); it != plan.changeovers.rend();
       ++it) {
    result.shift_from(it->time_s, it->transport_seconds());
  }
  return result;
}

namespace routing {

Point position_at(const TimedRoute& route, int step) {
  if (route.positions.empty()) return route.request.to;
  const int clamped =
      std::clamp(step, 0, static_cast<int>(route.positions.size()) - 1);
  return route.positions[static_cast<std::size_t>(clamped)];
}

int resolve_horizon(const RoutePlannerOptions& options, int chip_width,
                    int chip_height) {
  return options.step_horizon > 0 ? options.step_horizon
                                  : 4 * (chip_width + chip_height);
}

bool conflicts_with_route(Point p, int step, const TimedRoute& other,
                          int separation) {
  if (chebyshev_distance(p, position_at(other, step)) < separation) {
    return true;
  }
  // Dynamic constraint, both directions: distance to the other droplet's
  // previous position (no head-on swaps) and to its next position (the
  // other must not be steered into my neighbourhood).
  if (step > 0 &&
      chebyshev_distance(p, position_at(other, step - 1)) < separation) {
    return true;
  }
  return chebyshev_distance(p, position_at(other, step + 1)) < separation;
}

bool pair_violates_at(const TimedRoute& a, const TimedRoute& b, int step,
                      int separation) {
  const Point pa = position_at(a, step);
  const Point pb = position_at(b, step);
  if (chebyshev_distance(pa, pb) < separation) return true;
  return step > 0 &&
         (chebyshev_distance(pa, position_at(b, step - 1)) < separation ||
          chebyshev_distance(pb, position_at(a, step - 1)) < separation);
}

void SearchScratch::begin(std::size_t states) {
  if (states > capacity_) {
    // Fresh stamps are zero, and epoch 0 never names a search.
    stamp_ = std::make_unique<Stamp[]>(states);
    cost_ = std::make_unique_for_overwrite<double[]>(states);
    move_ = std::make_unique_for_overwrite<std::uint8_t[]>(states);
    capacity_ = states;
    epoch_ = 0;
  }
  if (++epoch_ == 0) {
    // Wrapped: stamps left by the searches 2^16 epochs ago would read as
    // visited in this one.
    std::fill_n(stamp_.get(), capacity_, Stamp{0});
    epoch_ = 1;
  }
}

std::optional<std::vector<Point>> route_transfer(
    const TransferRequest& request, const Matrix<std::uint8_t>& blocked,
    const std::vector<TimedRoute>& earlier, int horizon, int separation,
    SearchScratch& scratch) {
  const int width = blocked.width();
  const int height = blocked.height();
  if (!blocked.in_bounds(request.from) || !blocked.in_bounds(request.to)) {
    return std::nullopt;
  }
  if (blocked.at(request.from) != 0 || blocked.at(request.to) != 0) {
    return std::nullopt;
  }

  auto conflicts = [&](Point p, int step) {
    for (const TimedRoute& other : earlier) {
      if (other.request.to == request.to) continue;  // merging pair
      if (conflicts_with_route(p, step, other, separation)) return true;
    }
    return false;
  };

  struct Node {
    int f;
    int step;
    Point p;
    bool operator>(const Node& o) const {
      if (f != o.f) return f > o.f;
      if (step != o.step) return step > o.step;
      return std::pair(p.x, p.y) > std::pair(o.p.x, o.p.y);
    }
  };

  // State (x, y, step) — steps bounded by horizon.
  const auto key = [&](Point p, int step) {
    return (static_cast<std::size_t>(step) * height + p.y) * width + p.x;
  };
  if (conflicts(request.from, 0)) return std::nullopt;
  scratch.begin(static_cast<std::size_t>(horizon + 1) * width * height);

  std::priority_queue<Node, std::vector<Node>, std::greater<Node>> open;
  open.push(
      Node{manhattan_distance(request.from, request.to), 0, request.from});
  scratch.visit(key(request.from, 0), 0);

  while (!open.empty()) {
    const Node node = open.top();
    open.pop();
    if (node.p == request.to) {
      // Reconstruct by walking parents backwards.
      std::vector<Point> positions(static_cast<std::size_t>(node.step) + 1);
      Point p = node.p;
      for (int s = node.step; s >= 0; --s) {
        positions[static_cast<std::size_t>(s)] = p;
        if (s > 0) {
          const Point move = kMoves[scratch.move(key(p, s))];
          p = Point{p.x - move.x, p.y - move.y};
        }
      }
      return positions;
    }
    if (node.step >= horizon) continue;
    for (std::uint8_t m = 0; m < std::size(kMoves); ++m) {
      const Point next{node.p.x + kMoves[m].x, node.p.y + kMoves[m].y};
      const int next_step = node.step + 1;
      if (!blocked.in_bounds(next) || blocked.at(next) != 0) continue;
      if (scratch.visited(key(next, next_step))) continue;
      if (conflicts(next, next_step)) continue;
      scratch.visit(key(next, next_step), m);
      open.push(Node{next_step + manhattan_distance(next, request.to),
                     next_step, next});
    }
  }
  return std::nullopt;
}

std::vector<Point> perimeter_entries(const Matrix<std::uint8_t>& blocked,
                                     Point target) {
  std::vector<Point> entries;
  auto consider = [&](Point p) {
    if (blocked.at(p) == 0) entries.push_back(p);
  };
  for (int x = 0; x < blocked.width(); ++x) {
    consider(Point{x, 0});
    consider(Point{x, blocked.height() - 1});
  }
  for (int y = 1; y + 1 < blocked.height(); ++y) {
    consider(Point{0, y});
    consider(Point{blocked.width() - 1, y});
  }
  std::sort(entries.begin(), entries.end(), [&](Point a, Point b) {
    const int da = manhattan_distance(a, target);
    const int db = manhattan_distance(b, target);
    if (da != db) return da < db;
    return std::pair(a.x, a.y) < std::pair(b.x, b.y);
  });
  return entries;
}

std::vector<ChangeoverProblem> extract_problems(const SequencingGraph& graph,
                                                const Schedule& schedule,
                                                const Placement& placement,
                                                int chip_width,
                                                int chip_height) {
  if (schedule.module_count() != placement.module_count()) {
    throw std::invalid_argument(
        "extract_problems: schedule and placement disagree on module count");
  }
  const Rect chip{0, 0, chip_width, chip_height};
  if (!chip.contains(placement.bounding_box())) {
    throw std::invalid_argument(
        "extract_problems: chip smaller than the placement bounding box");
  }

  // Group schedule entries by start time.
  std::map<double, std::vector<int>> groups;
  for (int i = 0; i < schedule.module_count(); ++i) {
    groups[schedule.module(i).start_s].push_back(i);
  }

  std::vector<ChangeoverProblem> problems;
  std::map<OperationId, Point> droplet_at;
  std::map<OperationId, int> droplet_module;  // module the droplet sits in
  for (const auto& [time, members] : groups) {
    ChangeoverProblem problem;
    problem.time_s = time;
    problem.blocked = blocked_at(placement, time, chip_width, chip_height);

    // Gather transfer requests for this changeover. A droplet always
    // lands at its request's `to`, so the position bookkeeping below is
    // independent of how (or in what order) a backend routes.
    std::vector<OperationId> arrivals;  // op whose droplet lands per request
    for (const int index : members) {
      const ScheduledModule& sm = schedule.module(index);
      const Point site = footprint_center(placement.module(index).footprint());
      if (sm.op_id < 0) {
        if (sm.producer_op < 0) continue;
        const auto it = droplet_at.find(sm.producer_op);
        const Point from = it != droplet_at.end() ? it->second : site;
        if (!(from == site)) {
          const auto src = droplet_module.find(sm.producer_op);
          problem.requests.push_back(TransferRequest{
              "S:" + sm.label, from, site, index,
              src != droplet_module.end() ? src->second : -1});
          arrivals.push_back(sm.producer_op);
        } else {
          droplet_at[sm.producer_op] = site;
          droplet_module[sm.producer_op] = index;
        }
        continue;
      }
      for (const OperationId pred : graph.predecessors(sm.op_id)) {
        // Dispense droplets have no on-chip position yet; the sentinel
        // makes the solver pick a conflict-free perimeter entry.
        Point from = kDispensePending;
        int source = -1;
        const auto it = droplet_at.find(pred);
        if (it != droplet_at.end()) {
          from = it->second;
          const auto src = droplet_module.find(pred);
          if (src != droplet_module.end()) source = src->second;
        }
        if (from == site) {
          droplet_at[sm.op_id] = site;
          droplet_module[sm.op_id] = index;
          continue;
        }
        problem.requests.push_back(TransferRequest{
            graph.operation(pred).label, from, site, index, source});
        arrivals.push_back(sm.op_id < 0 ? pred : sm.op_id);
      }
    }

    // Record where droplets end up (a consumed droplet's position becomes
    // the consumer's output site; storage keeps the producer op as key).
    for (std::size_t i = 0; i < problem.requests.size(); ++i) {
      droplet_at[arrivals[i]] = problem.requests[i].to;
      droplet_module[arrivals[i]] = problem.requests[i].target_module;
    }
    if (!problem.requests.empty()) problems.push_back(std::move(problem));
  }
  return problems;
}

std::vector<RouteLink> extract_links(const SequencingGraph& graph,
                                     const Schedule& schedule) {
  // The same grouping and droplet bookkeeping as extract_problems, minus
  // everything placement-dependent: which module pairs exchange droplets
  // is fixed by graph + schedule alone. (extract_problems additionally
  // drops a transfer whose endpoints happen to share a center; such an
  // edge prices to distance 0 here, so keeping it is harmless.)
  std::map<double, std::vector<int>> groups;
  for (int i = 0; i < schedule.module_count(); ++i) {
    groups[schedule.module(i).start_s].push_back(i);
  }

  std::map<std::pair<int, int>, long long> demand;
  std::map<OperationId, int> droplet_module;
  for (const auto& [time, members] : groups) {
    // Arrivals are recorded after the whole changeover is gathered, so an
    // edge always reads the droplet's module *before* this changeover.
    std::vector<std::pair<OperationId, int>> arrivals;
    for (const int index : members) {
      const ScheduledModule& sm = schedule.module(index);
      if (sm.op_id < 0) {
        if (sm.producer_op < 0) continue;
        const auto it = droplet_module.find(sm.producer_op);
        if (it != droplet_module.end()) {
          demand[{it->second, index}] += 1;
          arrivals.emplace_back(sm.producer_op, index);
        } else {
          droplet_module[sm.producer_op] = index;
        }
        continue;
      }
      for (const OperationId pred : graph.predecessors(sm.op_id)) {
        const auto it = droplet_module.find(pred);
        demand[{it != droplet_module.end() ? it->second : -1, index}] += 1;
        arrivals.emplace_back(sm.op_id, index);
      }
    }
    for (const auto& [op, module] : arrivals) droplet_module[op] = module;
  }

  std::vector<RouteLink> links;
  links.reserve(demand.size());
  for (const auto& [edge, weight] : demand) {
    links.push_back(RouteLink{edge.first, edge.second, weight});
  }
  return links;
}

std::vector<RouteLink> reweight_links(std::vector<RouteLink> links,
                                      const RoutePlan& plan) {
  std::map<std::pair<int, int>, long long> measured;
  for (const auto& changeover : plan.changeovers) {
    for (const auto& route : changeover.routes) {
      measured[{route.request.source_module, route.request.target_module}] +=
          route.arrival_step();
    }
  }
  for (auto& link : links) {
    const auto it = measured.find({link.source_module, link.target_module});
    if (it != measured.end()) link.weight += it->second;
  }
  return links;
}

std::vector<std::size_t> default_order(
    const std::vector<TransferRequest>& requests) {
  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const bool dispense_a = requests[a].from == kDispensePending;
    const bool dispense_b = requests[b].from == kDispensePending;
    if (dispense_a != dispense_b) return !dispense_a;
    const int da = manhattan_distance(requests[a].from, requests[a].to);
    const int db = manhattan_distance(requests[b].from, requests[b].to);
    if (da != db) return da > db;
    return a < b;
  });
  return order;
}

std::optional<ChangeoverPlan> solve_prioritized(
    const ChangeoverProblem& problem, const std::vector<std::size_t>& order,
    const RoutePlannerOptions& options, int horizon, SearchScratch& scratch,
    std::string* failure) {
  ChangeoverPlan changeover;
  changeover.time_s = problem.time_s;
  for (const std::size_t r : order) {
    TransferRequest request = problem.requests[r];
    std::optional<std::vector<Point>> positions;
    if (request.from == kDispensePending) {
      // Try perimeter entries nearest the target until one routes.
      for (const Point& entry :
           perimeter_entries(problem.blocked, request.to)) {
        request.from = entry;
        positions = route_transfer(request, problem.blocked, changeover.routes,
                                   horizon, options.separation_cells, scratch);
        if (positions) break;
      }
    } else {
      positions = route_transfer(request, problem.blocked, changeover.routes,
                                 horizon, options.separation_cells, scratch);
    }
    if (!positions) {
      if (failure) {
        std::ostringstream os;
        os << "droplet '" << problem.requests[r].label
           << "' cannot be routed to (" << problem.requests[r].to.x << ","
           << problem.requests[r].to.y << ") at t=" << problem.time_s;
        *failure = os.str();
      }
      return std::nullopt;
    }
    TimedRoute route;
    route.request = request;
    route.positions = *positions;
    changeover.makespan_steps =
        std::max(changeover.makespan_steps, route.arrival_step());
    changeover.routes.push_back(std::move(route));
  }
  return changeover;
}

void accumulate(RoutePlan& plan, ChangeoverPlan&& changeover) {
  for (const TimedRoute& route : changeover.routes) {
    plan.total_steps += route.arrival_step();
    plan.total_moved_cells += route.moved_cells();
  }
  plan.negotiation_rounds += changeover.negotiation_rounds;
  plan.changeovers.push_back(std::move(changeover));
}

RoutePlan solve_changeovers(const std::vector<ChangeoverProblem>& problems,
                            int threads, const ChangeoverSolver& solve) {
  const std::size_t count = problems.size();
  std::vector<std::optional<ChangeoverPlan>> solved(count);
  std::vector<std::string> failures(count);
  std::vector<std::exception_ptr> errors(count);

  if (detail::resolve_worker_count(count, threads) <= 1) {
    // Inline: fail fast like the pre-pool loops did — changeovers after
    // the first unroutable one are never attempted, and an exception
    // propagates from exactly where it was thrown.
    for (std::size_t index = 0; index < count; ++index) {
      solved[index] = solve(problems[index], index, &failures[index]);
      if (!solved[index]) break;
    }
  } else {
    // Workers solve everything: skipping work after a failure would make
    // which changeovers got solved (and so the reported failure) depend
    // on worker scheduling, breaking the thread-count invariance this
    // function promises. Failing assays trade some wasted solves for it.
    errors = detail::for_each_index(
        count, threads, [&](std::size_t index) {
          solved[index] = solve(problems[index], index, &failures[index]);
        });
  }

  // Fold in changeover (time) order, so totals, the reported failure and
  // even exception behavior do not depend on worker scheduling: an error
  // or routing failure surfaces exactly where the fail-fast sequential
  // walk would have hit it, and anything solved past that point is
  // discarded.
  RoutePlan plan;
  for (std::size_t c = 0; c < count; ++c) {
    if (errors[c]) std::rethrow_exception(errors[c]);
    if (!solved[c]) {
      plan.success = false;
      plan.failure_reason = failures[c];
      return plan;
    }
    accumulate(plan, std::move(*solved[c]));
  }
  plan.success = true;
  return plan;
}

RoutePlan plan_prioritized(const SequencingGraph& graph,
                           const Schedule& schedule,
                           const Placement& placement, int chip_width,
                           int chip_height,
                           const RoutePlannerOptions& options) {
  const int horizon = resolve_horizon(options, chip_width, chip_height);
  return solve_changeovers(
      extract_problems(graph, schedule, placement, chip_width, chip_height),
      options.threads,
      [&](const ChangeoverProblem& problem, std::size_t, std::string* failure) {
        SearchScratch scratch;
        return solve_prioritized(problem, default_order(problem.requests),
                                 options, horizon, scratch, failure);
      });
}

}  // namespace routing

std::vector<std::string> validate_changeover(
    const ChangeoverPlan& plan, const Matrix<std::uint8_t>& blocked,
    const RoutePlannerOptions& options) {
  std::vector<std::string> violations;
  auto complain = [&](const std::string& what) { violations.push_back(what); };

  for (const TimedRoute& route : plan.routes) {
    if (route.positions.empty()) {
      complain("route '" + route.request.label + "' is empty");
      continue;
    }
    if (!(route.positions.front() == route.request.from)) {
      complain("route '" + route.request.label + "' does not start at from");
    }
    if (!(route.positions.back() == route.request.to)) {
      complain("route '" + route.request.label + "' does not end at to");
    }
    for (std::size_t s = 0; s < route.positions.size(); ++s) {
      const Point p = route.positions[s];
      if (!blocked.in_bounds(p)) {
        complain("route '" + route.request.label + "' leaves the chip");
        break;
      }
      if (blocked.at(p) != 0) {
        complain("route '" + route.request.label +
                 "' crosses a functional region");
        break;
      }
      if (s > 0) {
        const int d = manhattan_distance(route.positions[s - 1], p);
        if (d > 1) {
          complain("route '" + route.request.label + "' teleports");
          break;
        }
      }
    }
  }

  const int horizon = plan.makespan_steps;
  for (std::size_t i = 0; i < plan.routes.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.routes.size(); ++j) {
      const TimedRoute& a = plan.routes[i];
      const TimedRoute& b = plan.routes[j];
      if (a.request.to == b.request.to) continue;  // merging pair
      for (int step = 0; step <= horizon; ++step) {
        if (!routing::pair_violates_at(a, b, step,
                                       options.separation_cells)) {
          continue;
        }
        const bool dynamic_only =
            chebyshev_distance(routing::position_at(a, step),
                               routing::position_at(b, step)) >=
            options.separation_cells;
        std::ostringstream os;
        os << "droplets '" << a.request.label << "' and '" << b.request.label
           << (dynamic_only ? "' violate the dynamic constraint at step "
                            : "' too close at step ")
           << step;
        complain(os.str());
        break;
      }
    }
  }
  return violations;
}

}  // namespace dmfb
