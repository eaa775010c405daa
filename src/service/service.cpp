#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "assay/scheduler.h"
#include "io/assay_format.h"

namespace dmfb {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Warm starts only help backends that anneal from an initial placement.
/// The portfolio seeds replica 0 from the memo and leaves the other
/// replicas on their fresh split seeds.
bool placer_accepts_warm_start(const std::string& placer) {
  return placer == "sa" || placer == "two-stage" || placer == "portfolio";
}

/// The refinement schedule for a warm-started compile: the configured
/// warm schedule clamped against the request's own anneal, so refinement
/// is never hotter, slower-cooling, or denser than (a quarter of) the
/// anneal it replaces. Without the clamp a request with a deliberately
/// short schedule would "refine" with more proposals than its own cold
/// compile — the warm path must always be the cheaper one.
AnnealingSchedule refinement_schedule(const AnnealingSchedule& warm,
                                      const AnnealingSchedule& cold) {
  AnnealingSchedule schedule = warm;
  schedule.initial_temperature =
      std::min(warm.initial_temperature, cold.initial_temperature);
  schedule.cooling_rate = std::min(warm.cooling_rate, cold.cooling_rate);
  schedule.min_temperature =
      std::max(warm.min_temperature, cold.min_temperature);
  schedule.iterations_per_module = std::min(
      warm.iterations_per_module, std::max(1, cold.iterations_per_module / 4));
  return schedule;
}

void check_side(const char* what, int width, int height) {
  if (width > kMaxGridSide || height > kMaxGridSide) {
    throw std::invalid_argument(
        std::string(what) + " [" + std::to_string(width) + "," +
        std::to_string(height) + "] exceeds the grid side limit of " +
        std::to_string(kMaxGridSide) + " cells");
  }
}

}  // namespace

void check_admission(const PipelineOptions& options) {
  check_side("canvas", options.placer_context.canvas_width,
             options.placer_context.canvas_height);
  check_side("chip", options.chip_width, options.chip_height);
}

const char* to_string(CompileSource source) {
  switch (source) {
    case CompileSource::kMiss:
      return "miss";
    case CompileSource::kExactHit:
      return "exact-hit";
    case CompileSource::kWarmStart:
      return "warm-start";
  }
  return "?";
}

CompileService::CompileService(ServiceOptions options)
    : options_(std::move(options)) {}

CompileResponse CompileService::compile(const CompileRequest& request) {
  const auto start = Clock::now();
  CompileResponse response;
  response.id = request.id;
  try {
    check_admission(request.options);
    AssayCase assay = request.assay;
    if (assay.binding.empty()) {
      assay.binding = bind_operations(assay.graph, options_.library,
                                      request.options.binding_policy);
    }

    if (!request.use_cache) {
      response.result = std::make_shared<const PipelineResult>(
          SynthesisPipeline(request.options).run(assay));
      response.source = CompileSource::kMiss;
      response.ok = true;
      response.wall_seconds = seconds_since(start);
      return response;
    }

    const std::uint64_t assay_fp = assay_fingerprint(assay);
    const std::uint64_t opts_fp = options_fingerprint(request.options);
    // The schedule is deterministic and cheap next to placement; running
    // it up front yields the structure signature the warm lookup needs.
    const Schedule schedule = list_schedule(assay.graph, assay.binding,
                                            assay.scheduler_options);
    const std::uint64_t signature = schedule_signature(schedule);

    CompileCache::Lookup cached =
        cache_.lookup(assay_fp, opts_fp, signature);
    if (cached.exact) {
      response.result = std::move(cached.exact);
      response.source = CompileSource::kExactHit;
      response.ok = true;
      response.wall_seconds = seconds_since(start);
      return response;
    }

    PipelineOptions run_options = request.options;
    const bool warm = cached.warm_placement != nullptr &&
                      placer_accepts_warm_start(run_options.placer);
    if (warm) {
      run_options.initial_placement = cached.warm_placement;
      run_options.placer_context.annealing = refinement_schedule(
          options_.warm_annealing, request.options.placer_context.annealing);
      run_options.warm_links = std::move(cached.warm_links);
    }
    if (run_options.routing.persist_congestion_history) {
      // Compile onto the layout's congestion record (a private copy — see
      // CompileCache::lookup) or start one for this layout.
      run_options.routing.congestion_ledger =
          cached.congestion ? std::move(cached.congestion)
                            : std::make_shared<std::vector<double>>();
    }

    auto result = std::make_shared<const PipelineResult>(
        SynthesisPipeline(run_options).run(assay));

    // The layout ledger carries measured route pressure forward; only a
    // routed plan measures anything.
    std::vector<RouteLink> links;
    if (result->routes.success) {
      links = routing::reweight_links(
          routing::extract_links(assay.graph, result->schedule),
          result->routes);
    }
    cache_.store(assay_fp, opts_fp, signature, result, std::move(links),
                 std::move(run_options.routing.congestion_ledger));

    response.result = std::move(result);
    response.source = warm ? CompileSource::kWarmStart : CompileSource::kMiss;
    response.ok = true;
  } catch (const std::exception& error) {
    response.ok = false;
    response.error = error.what();
  }
  response.wall_seconds = seconds_since(start);
  return response;
}

}  // namespace dmfb
