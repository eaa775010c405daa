// Route identity: the space-time A* searches behind every router must
// keep their expansion order and tie-breaks, so a plan is a pure function
// of its inputs. A golden pin plans seeded assays with the "negotiated",
// "prioritized" and "restart" routers and compares each RoutePlan's
// digest with one recorded before the searches' scratch state was made
// epoch-stamped.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "assay/assay_library.h"
#include "assay/pipeline.h"
#include "assay/random_assay.h"
#include "sim/router_backend.h"
#include "util/hash.h"

namespace dmfb {
namespace {

/// Every field of a plan, in order; equal digests = identical plans.
std::uint64_t digest(const RoutePlan& plan) {
  HashStream hash;
  hash.mix(plan.success).mix_bytes(plan.failure_reason);
  hash.mix(static_cast<std::int64_t>(plan.total_steps))
      .mix(static_cast<std::int64_t>(plan.total_moved_cells))
      .mix(static_cast<std::int64_t>(plan.negotiation_rounds));
  for (const ChangeoverPlan& changeover : plan.changeovers) {
    hash.mix(changeover.time_s)
        .mix(changeover.makespan_steps)
        .mix(changeover.negotiation_rounds)
        .mix(static_cast<std::uint64_t>(changeover.routes.size()));
    for (const TimedRoute& route : changeover.routes) {
      const TransferRequest& r = route.request;
      hash.mix_bytes(r.label)
          .mix(r.from.x).mix(r.from.y).mix(r.to.x).mix(r.to.y)
          .mix(r.target_module).mix(r.source_module)
          .mix(static_cast<std::uint64_t>(route.positions.size()));
      for (const Point& p : route.positions) hash.mix(p.x).mix(p.y);
    }
  }
  return hash.value();
}

struct PlacedAssay {
  std::string name;
  AssayCase assay;
  PipelineResult placed;
  int chip = 0;
};

PlacedAssay place(std::string name, AssayCase assay, int canvas) {
  PipelineOptions options;
  options.placer = "greedy";
  options.placer_context.canvas_width = canvas;
  options.placer_context.canvas_height = canvas;
  options.plan_droplet_routes = false;
  PipelineResult placed = SynthesisPipeline(options).run(assay);
  return PlacedAssay{std::move(name), std::move(assay), std::move(placed),
                     canvas};
}

/// The corpus: PCR, layered random assays, corridor walls (blocked
/// lanes) and crossing permutation traffic — dispenses, merging pairs
/// and congested changeovers all occur (GoldenCorpusCoversTheHardCases).
std::vector<PlacedAssay> corpus() {
  const ModuleLibrary library = ModuleLibrary::standard();
  std::vector<PlacedAssay> assays;
  assays.push_back(place("pcr", pcr_mixing_assay(), 16));
  for (const std::uint64_t seed : {3ULL, 11ULL}) {
    RandomAssayParams params;
    params.mix_operations = 12;
    params.max_layer_width = 4;
    params.max_concurrent_modules = 6;
    assays.push_back(place("random12-" + std::to_string(seed),
                           random_assay(params, library, seed), 20));
  }
  assays.push_back(place("corridor-5",
                         corridor_assay(StressAssayParams{}, library, 5), 24));
  assays.push_back(place("permutation6-7",
                         permutation_assay(6, 3, library, 7), 24));
  return assays;
}

struct RouterCase {
  std::string label;
  std::string router;
  RoutePlannerOptions options;
};

/// Each router at its defaults, plus the negotiated router's two other
/// paths: the sequential warm-started history, and a zero-weight
/// negotiation that cannot converge, so its congested changeovers go to
/// the prioritized fallback.
std::vector<RouterCase> router_cases() {
  std::vector<RouterCase> cases;
  cases.push_back({"negotiated", "negotiated", {}});
  cases.push_back({"prioritized", "prioritized", {}});
  cases.push_back({"restart", "restart", {}});
  RouterCase history{"negotiated-history", "negotiated", {}};
  history.options.persist_congestion_history = true;
  cases.push_back(history);
  RouterCase fallback{"negotiated-fallback", "negotiated", {}};
  fallback.options.present_congestion_weight = 0.0;
  fallback.options.history_congestion_weight = 0.0;
  fallback.options.negotiation_rounds = 3;
  cases.push_back(fallback);
  return cases;
}

RoutePlan plan_with(const RouterCase& c, const PlacedAssay& a) {
  return make_router(c.router)->plan(a.assay.graph, a.placed.schedule,
                                     a.placed.placement.placement, a.chip,
                                     a.chip, c.options);
}

/// Digests recorded with the full-volume search buffers the stamped
/// scratch replaced; any change to expansion order or tie-breaks moves
/// them.
const char* const kRecordedDigests =
    "pcr/negotiated 12004716062164353506\n"
    "pcr/prioritized 601967218434380073\n"
    "pcr/restart 2219006532096590434\n"
    "pcr/negotiated-history 12004716062164353506\n"
    "pcr/negotiated-fallback 15471407455847150195\n"
    "random12-3/negotiated 16002279079664277402\n"
    "random12-3/prioritized 6117966652561903643\n"
    "random12-3/restart 6117966652561903643\n"
    "random12-3/negotiated-history 16002279079664277402\n"
    "random12-3/negotiated-fallback 931366399619382597\n"
    "random12-11/negotiated 16327877105398825907\n"
    "random12-11/prioritized 11186983722677036008\n"
    "random12-11/restart 12689346557763227700\n"
    "random12-11/negotiated-history 12264735335538170311\n"
    "random12-11/negotiated-fallback 18204978382796191094\n"
    "corridor-5/negotiated 9939765710020139967\n"
    "corridor-5/prioritized 13872620523543540428\n"
    "corridor-5/restart 6734859536362437473\n"
    "corridor-5/negotiated-history 9939765710020139967\n"
    "corridor-5/negotiated-fallback 5248921871134270650\n"
    "permutation6-7/negotiated 11690829130184365280\n"
    "permutation6-7/prioritized 13908011689470214841\n"
    "permutation6-7/restart 13908011689470214841\n"
    "permutation6-7/negotiated-history 14075616624098104374\n"
    "permutation6-7/negotiated-fallback 13672185500649346173\n";

TEST(RouteIdentityTest, PlansMatchTheRecordedDigests) {
  std::ostringstream actual;
  for (const PlacedAssay& a : corpus()) {
    for (const RouterCase& c : router_cases()) {
      actual << a.name << '/' << c.label << ' ' << digest(plan_with(c, a))
             << '\n';
    }
  }
  EXPECT_EQ(actual.str(), kRecordedDigests);
}

bool same_routes(const ChangeoverPlan& a, const ChangeoverPlan& b) {
  if (a.routes.size() != b.routes.size()) return false;
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    if (a.routes[i].positions != b.routes[i].positions) return false;
  }
  return true;
}

TEST(RouteIdentityTest, GoldenCorpusCoversTheHardCases) {
  int blocked = 0, dispenses = 0, merges = 0, fallbacks = 0, routed = 0;
  const std::vector<RouterCase> cases = router_cases();
  for (const PlacedAssay& a : corpus()) {
    for (const auto& problem : routing::extract_problems(
             a.assay.graph, a.placed.schedule, a.placed.placement.placement,
             a.chip, a.chip)) {
      for (int y = 0; y < a.chip; ++y) {
        for (int x = 0; x < a.chip; ++x) blocked += problem.blocked.at(x, y);
      }
      const auto& requests = problem.requests;
      for (std::size_t i = 0; i < requests.size(); ++i) {
        dispenses += requests[i].from == routing::kDispensePending;
        for (std::size_t j = i + 1; j < requests.size(); ++j) {
          merges += requests[i].to == requests[j].to;
        }
      }
    }
    for (const RouterCase& c : cases) routed += plan_with(c, a).success;
    // Zero weights never resolve a conflict, so a changeover that spent
    // the whole round budget went to the prioritized fallback.
    const RoutePlan fallback = plan_with(cases.back(), a);
    const RoutePlan prioritized = plan_with(cases[1], a);
    for (std::size_t i = 0; i < fallback.changeovers.size() &&
                            i < prioritized.changeovers.size();
         ++i) {
      const ChangeoverPlan& changeover = fallback.changeovers[i];
      fallbacks += changeover.negotiation_rounds ==
                       cases.back().options.negotiation_rounds &&
                   same_routes(changeover, prioritized.changeovers[i]);
    }
  }
  EXPECT_GT(blocked, 0);
  EXPECT_GT(dispenses, 0);
  EXPECT_GT(merges, 0);
  EXPECT_GT(fallbacks, 0);
  EXPECT_GT(routed, 0);
}

/// The epoch of a routing::SearchScratch wraps after 2^16 - 1 searches.
/// A search just past the wrap must not see the stamps left by the
/// search that ran 2^16 - 1 epochs earlier, so a route planned there
/// equals the same route planned on a fresh scratch.
TEST(RouteIdentityTest, RoutesAreIdenticalAcrossTheEpochWrap) {
  Matrix<std::uint8_t> blocked(5, 5, 0);
  blocked.at(2, 1) = blocked.at(2, 2) = blocked.at(2, 3) = 1;  // a wall
  const TransferRequest across{"a", {0, 2}, {4, 2}};
  const TransferRequest parked{"b", {4, 4}, {4, 4}};  // one state per search
  const int horizon = 12;
  const auto route = [&](const TransferRequest& request,
                         routing::SearchScratch& scratch) {
    return routing::route_transfer(request, blocked, {}, horizon, 2, scratch);
  };

  routing::SearchScratch fresh;
  const auto expected = route(across, fresh);
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(expected->size(), 9u);  // around the wall: 8 steps

  routing::SearchScratch scratch;
  ASSERT_EQ(route(across, scratch), expected);
  EXPECT_EQ(scratch.epoch(), 1);
  using Stamp = routing::SearchScratch::Stamp;
  while (scratch.epoch() < std::numeric_limits<Stamp>::max()) {
    ASSERT_TRUE(route(parked, scratch).has_value());
  }
  // The next search wraps; epoch 1's stamps from the first search above
  // are still in the volume unless the wrap cleared them.
  EXPECT_EQ(route(across, scratch), expected);
  EXPECT_EQ(scratch.epoch(), 1);
  EXPECT_EQ(route(across, scratch), expected);
}

}  // namespace
}  // namespace dmfb
