// perfbench_tool — the native half of the end-to-end benchmark
// (perfbench/run.py drives it; BENCHMARK.json describes the workloads).
//
//   perfbench_tool gen <workload> <seed> <count>
//       Prints <count> request items of one workload, two lines each: a
//       JSON object describing the item — its corpus class, whether it
//       carries a fault plan, and the footprint and time window of every
//       scheduled module ([w, h, start_s, end_s] in placement index
//       order), which run.py's own geometry check needs — then the
//       request line exactly as it goes on the wire. For cache_replay the
//       items are the base corpus run.py seeds the cache with; run.py
//       derives the timed stream from them.
//
//   perfbench_tool trace <setup.jsonl> <requests.jsonl> <threads> <out>
//       Replays request lines in-process, composing the compile from each
//       layer's public entry points exactly as CompileService and
//       SynthesisPipeline do. The setup lines (cache seeding) replay
//       first on one thread; the request lines then replay on <threads>
//       threads, once with tracing off and once with spans recorded
//       around every layer call. Spans stay in memory and are written to
//       <out> at the end, one JSON line per request, together with the
//       request's layer counters and the composed response line.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "assay/assay_library.h"
#include "assay/binder.h"
#include "assay/pipeline.h"
#include "assay/random_assay.h"
#include "assay/scheduler.h"
#include "biochip/chip.h"
#include "core/fti.h"
#include "core/placer.h"
#include "io/assay_format.h"
#include "service/compile_cache.h"
#include "service/server.h"
#include "sim/recovery.h"
#include "sim/route_planner.h"
#include "sim/router_backend.h"
#include "sim/sim_engine.h"
#include "util/rng.h"

namespace {

using namespace dmfb;
using Clock = std::chrono::steady_clock;

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string number(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

// --- corpus generation ------------------------------------------------

/// One generated request before it is written out.
struct Item {
  std::string cls;
  AssayCase assay;
  bool unbound = false;  ///< send without bind lines (the service binds)
  std::string placer = "sa";
  double beta = 0.0;
  std::string router = "prioritized";
  bool simulate = false;
  int faults = 0;  ///< live-module faults to plan (needs simulate)
};

/// Request seeds stay below 2^31: the wire carries numbers as doubles.
std::uint64_t wire_seed(std::uint64_t value) { return value & 0x7FFFFFFFULL; }

AssayCase random_case(int mixes, std::uint64_t seed,
                      const ModuleLibrary& library) {
  RandomAssayParams params;
  params.mix_operations = mixes;
  params.max_layer_width = std::min(12, std::max(4, mixes / 2));
  params.max_concurrent_modules = 12;
  return random_assay(params, library, seed);
}

/// Corpus classes of a workload with their weights per period.
using Mix = std::vector<std::pair<const char*, int>>;

/// The classes in period order: smooth weighted round robin, so every
/// prefix of the corpus holds each class close to its share.
std::vector<std::string> period(const Mix& mix) {
  int total = 0;
  for (const auto& [cls, weight] : mix) total += weight;
  std::vector<int> credit(mix.size(), 0);
  std::vector<std::string> order;
  for (int step = 0; step < total; ++step) {
    std::size_t pick = 0;
    for (std::size_t c = 0; c < mix.size(); ++c) {
      credit[c] += mix[c].second;
      if (credit[c] > credit[pick]) pick = c;
    }
    credit[pick] -= total;
    order.emplace_back(mix[pick].first);
  }
  return order;
}

/// The corpus class of item `index` of `workload`; `draw` seeds the
/// class's generator. Class shares are chosen so the median and the p90
/// latency fall inside fixed-structure library assays, whose compile time
/// hardly depends on the seed.
Item make_item(const std::string& workload, std::size_t index,
               std::uint64_t draw, const ModuleLibrary& library) {
  // Paper schedule, beta = 0: the area-only anneal. From the fastest
  // up: permutation and 2-level dilution (35%), PCR (30%, holds the
  // median), random 20-op (20%), 4x4 multiplexed diagnostics (7.5%,
  // holds the p90), random 50-op (5%) and 100-op (2.5%).
  static const std::vector<std::string> kCold = period(
      {{"random100", 1}, {"random50", 2}, {"multiplex44", 3},
       {"random20", 8}, {"pcr", 12}, {"dilution2", 8}, {"permutation", 6}});
  static const std::vector<std::string> kBase = period(
      {{"pcr", 1}, {"dilution", 1}, {"multiplex", 1}, {"random12", 1},
       {"random16", 1}, {"permutation", 1}});
  // FTI-weighted: "two-stage", and "sa" at beta = 10. PCR two-stage
  // (20%) holds the median, 2x2 multiplexed sa-beta (10%) the p90.
  static const std::vector<std::string> kFti = period(
      {{"random8/sa-beta", 1}, {"multiplex2/sa-beta", 2},
       {"random8/two-stage", 1}, {"pcr/sa-beta", 2},
       {"multiplex2/two-stage", 2}, {"pcr/two-stage", 4},
       {"dilution2/sa-beta", 4}, {"dilution2/two-stage", 4}});
  static const std::vector<std::string> kFluidic = period(
      {{"corridor", 2}, {"permutation6", 2}, {"random50", 1},
       {"random100", 1}});

  Item item;
  if (workload == "cold_area") {
    item.cls = kCold[index % kCold.size()];
  } else if (workload == "cache_replay") {
    item.cls = kBase[index % kBase.size()];
  } else if (workload == "cold_fti") {
    item.cls = kFti[index % kFti.size()];
    const bool two_stage = item.cls.ends_with("/two-stage");
    item.placer = two_stage ? "two-stage" : "sa";
    item.beta = two_stage ? 0.0 : 10.0;
  } else if (workload == "fluidic_recovery") {
    item.cls = kFluidic[index % kFluidic.size()];
    item.placer = "greedy";
    item.router = "negotiated";
    item.simulate = true;
    item.faults = 3;
  } else {
    throw std::invalid_argument("unknown workload \"" + workload + "\"");
  }

  const std::string shape = item.cls.substr(0, item.cls.find('/'));
  if (shape == "pcr") {
    item.assay = pcr_mixing_assay();
  } else if (shape == "dilution") {
    item.assay = protein_dilution_assay(3, library);
  } else if (shape == "dilution2") {
    item.assay = protein_dilution_assay(2, library);
  } else if (shape == "multiplex") {
    item.assay = multiplexed_diagnostics_assay(3, 3, library);
  } else if (shape == "multiplex44") {
    item.assay = multiplexed_diagnostics_assay(4, 4, library);
  } else if (shape == "multiplex2") {
    item.assay = multiplexed_diagnostics_assay(2, 2, library);
  } else if (shape == "permutation") {
    item.assay = permutation_assay(4, 2, library, draw);
  } else if (shape == "permutation6") {
    item.assay = permutation_assay(6, 3, library, draw);
  } else if (shape == "corridor") {
    item.assay = corridor_assay(StressAssayParams{}, library, draw);
  } else if (shape.starts_with("random")) {
    item.assay = random_case(std::stoi(shape.substr(6)), draw, library);
    item.unbound = true;
  } else {
    throw std::logic_error("unknown corpus class " + shape);
  }
  return item;
}

/// The assay text sent on the wire; unbound items drop their bind lines
/// so the service binds them (and the bind layer does work).
std::string wire_assay(const Item& item) {
  const std::string text = assay_to_string(item.assay);
  if (!item.unbound) return text;
  std::istringstream in(text);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("bind ")) continue;
    out += line;
    out += '\n';
  }
  return out;
}

int gen(const std::string& workload, std::uint64_t seed, std::size_t count) {
  const ModuleLibrary library = ModuleLibrary::standard();
  // FNV-1a of the workload name keeps each workload's draws distinct
  // (and stable across standard libraries).
  std::uint64_t tag = 0xCBF29CE484222325ULL;
  for (const char c : workload) {
    tag = (tag ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  SplitMix64 draws(seed ^ tag);
  for (std::size_t index = 0; index < count; ++index) {
    const std::uint64_t request_seed = wire_seed(draws.next());
    const Item item = make_item(workload, index, draws.next(), library);

    // Schedule exactly as the service will: parse the wire text, bind
    // what arrives unbound, list-schedule.
    const std::string text = wire_assay(item);
    AssayCase parsed = assay_from_string(text, library);
    if (parsed.binding.empty()) {
      parsed.binding = bind_operations(parsed.graph, library,
                                       BindingPolicy::kRoundRobin);
    }
    const Schedule schedule = list_schedule(parsed.graph, parsed.binding,
                                            parsed.scheduler_options);

    // Canvas: room for the peak concurrent area with ~2x slack (never
    // below the paper's 24x24), grown until the greedy placer fits it.
    int canvas = std::max(
        24, static_cast<int>(std::ceil(std::sqrt(
                2.0 * static_cast<double>(schedule.peak_concurrent_cells())))));
    PlacementOutcome greedy;
    for (;; canvas += 4) {
      PlacerContext context;
      context.canvas_width = context.canvas_height = canvas;
      context.seed = request_seed;
      try {
        greedy = make_placer("greedy")->place(schedule, context);
        break;
      } catch (const std::runtime_error&) {
        if (canvas > 96) throw;
      }
    }

    std::ostringstream options;
    options << "{\"seed\":" << request_seed << ",\"placer\":"
            << quoted(item.placer) << ",\"canvas\":[" << canvas << ','
            << canvas << "]";
    if (item.beta != 0.0) options << ",\"beta\":" << number(item.beta);
    options << ",\"router\":" << quoted(item.router);
    if (item.simulate) options << ",\"simulate\":true";
    if (item.faults > 0) {
      // Faults fire mid-interval at the centre of distinct live modules
      // of the greedy placement the request will get.
      std::vector<int> live;
      for (int m = 0; m < schedule.module_count(); ++m) {
        if (schedule.module(m).duration_s() > 0.0) live.push_back(m);
      }
      Rng rng(request_seed ^ 0xFA017ULL);
      std::vector<std::pair<double, Point>> faults;
      for (int f = 0; f < item.faults && !live.empty(); ++f) {
        const std::size_t pick = rng.next_below(live.size());
        const int m = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        const ScheduledModule& sm = schedule.module(m);
        const Rect site = greedy.placement.module(m).footprint();
        faults.emplace_back(0.5 * (sm.start_s + sm.end_s),
                            Point{site.x + site.width / 2,
                                  site.y + site.height / 2});
      }
      std::sort(faults.begin(), faults.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      options << ",\"fault_plan\":[";
      for (std::size_t f = 0; f < faults.size(); ++f) {
        if (f > 0) options << ',';
        options << '[' << number(faults[f].first) << ','
                << faults[f].second.x << ',' << faults[f].second.y << ']';
      }
      // Recovery's host-wall budget must never bind: results have to be
      // a function of the request alone.
      options << "],\"recovery_deadline_s\":600";
    }
    options << '}';

    std::ostringstream modules;
    modules << '[';
    for (int m = 0; m < schedule.module_count(); ++m) {
      const ScheduledModule& sm = schedule.module(m);
      if (m > 0) modules << ',';
      modules << '[' << sm.spec.footprint_width() << ','
              << sm.spec.footprint_height() << ',' << number(sm.start_s)
              << ',' << number(sm.end_s) << ']';
    }
    modules << ']';

    std::cout << "{\"class\":" << quoted(item.cls)
              << ",\"faulted\":" << (item.faults > 0 ? "true" : "false")
              << ",\"modules\":" << modules.str() << "}\n"
              << "{\"id\":" << quoted(workload + "-" + std::to_string(index))
              << ",\"assay\":" << quoted(text)
              << ",\"options\":" << options.str() << ",\"cache\":true}\n";
  }
  return 0;
}

// --- traced replay ----------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;
};

/// Per-request span recorder; a disabled tracer records nothing and
/// reads no clock.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  int open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, now(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int span) {
    if (span < 0) return;
    spans_[static_cast<std::size_t>(span)].end_ns = now();
    stack_.pop_back();
  }

  /// Calls `body` inside a span named `name`.
  template <typename Body>
  auto scoped(const char* name, Body&& body) {
    struct Closer {
      Tracer* tracer;
      int span;
      ~Closer() { tracer->close(span); }
    } closer{this, open(name)};
    return body();
  }

  std::vector<Span> take() { return std::exchange(spans_, {}); }

 private:
  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Layer counters recorded at the same boundaries as the spans.
struct Counters {
  int modules = 0;
  bool placed = false;
  long long proposals = 0;
  long long accepted = 0;
  double anneal_s = 0.0;
  double seconds_to_best = 0.0;
  bool routed_attempt = false;
  bool routed = false;
  int changeovers = 0;
  bool recovery = false;
  int faults_fired = 0;
  int cycles = 0;
  int reconfigure = 0;
  int reroute = 0;
  int replace = 0;
  double recover_s = 0.0;
};

/// The warm-start refinement schedule CompileService applies: the warm
/// schedule clamped against the request's own anneal.
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

/// SynthesisPipeline::run(AssayCase) for the feed-forward flow, one layer
/// call at a time.
PipelineResult compose_pipeline(const AssayCase& assay,
                                const PipelineOptions& options, Tracer& tracer,
                                Counters& counters) {
  if (options.feedback_rounds > 0 || options.placer_context.weights.gamma != 0.0) {
    throw std::invalid_argument(
        "the traced replay composes the feed-forward flow only");
  }
  const SequencingGraph& graph = assay.graph;
  PipelineResult result;
  result.assay_name = assay.name.empty() ? graph.name() : assay.name;
  result.seed = options.seed;
  result.binding = assay.binding;
  result.schedule = tracer.scoped("assay.schedule", [&] {
    return list_schedule(graph, result.binding, assay.scheduler_options);
  });
  result.makespan_s = result.schedule.makespan_s();
  result.transport_makespan_s = result.makespan_s;
  result.peak_concurrent_cells = result.schedule.peak_concurrent_cells();
  counters.modules = result.schedule.module_count();
  if (!options.place) return result;

  PlacerContext context = options.placer_context;
  context.seed = options.seed;
  if (options.initial_placement) {
    context.initial_placement = options.initial_placement;
  }
  result.placement = tracer.scoped("core.place", [&] {
    return make_placer(options.placer)->place(result.schedule, context);
  });
  counters.placed = true;
  counters.proposals = result.placement.stats.proposals;
  counters.accepted = result.placement.stats.accepted;
  counters.anneal_s = result.placement.stats.wall_seconds;
  counters.seconds_to_best = result.placement.stats.seconds_to_best;
  if (options.evaluate_fault_tolerance) {
    result.fti = tracer.scoped("core.fti", [&] {
      return evaluate_fti(result.placement.placement, context.fti_options);
    });
  }

  const Placement& placement = result.placement.placement;
  const Rect box = placement.bounding_box();
  const int chip_width =
      options.chip_width > 0 ? options.chip_width
                             : std::max(placement.canvas_width(), box.right());
  const int chip_height =
      options.chip_height > 0 ? options.chip_height
                              : std::max(placement.canvas_height(), box.top());

  if (options.plan_droplet_routes) {
    RoutePlannerOptions routing = options.routing;
    routing.seed = options.seed;
    result.routes = tracer.scoped("sim.route", [&] {
      return make_router(options.router)
          ->plan(graph, result.schedule, placement, chip_width, chip_height,
                 routing);
    });
    if (result.routes.success) {
      result.transported_schedule = fold_transport(result.schedule, result.routes);
      result.transport_makespan_s = result.transported_schedule.makespan_s();
    }
    counters.routed_attempt = true;
    counters.routed = result.routes.success;
    counters.changeovers = static_cast<int>(result.routes.changeovers.size());
  }

  if (options.simulate && !options.fault_plan.faults.empty()) {
    RecoveryOptions recovery = options.recovery;
    recovery.sim = options.simulation;
    if (recovery.replace_context.canvas_width <= 0 &&
        recovery.replace_context.canvas_height <= 0) {
      recovery.replace_context = options.placer_context;
    }
    recovery.replace_context.seed = options.seed;
    OnlineRunResult online = tracer.scoped("sim.simulate", [&] {
      return OnlineRecoveryEngine(recovery).run(
          graph, result.schedule, placement,
          Rect{0, 0, chip_width, chip_height}, options.fault_plan);
    });
    result.simulation = std::move(online.simulation);
    result.recovery = std::move(online.recovery);
    const RecoveryReport& report = result.recovery;
    counters.recovery = true;
    counters.faults_fired = report.faults_injected;
    counters.cycles = report.recovery_cycles;
    counters.recover_s = report.recovery_wall_s;
    for (const RecoveryAttempt& attempt : report.attempts) {
      switch (attempt.action) {
        case RecoveryAction::kReconfigure:
          ++counters.reconfigure;
          break;
        case RecoveryAction::kReroute:
          ++counters.reroute;
          break;
        case RecoveryAction::kReplace:
          ++counters.replace;
          break;
      }
    }
  } else if (options.simulate) {
    const Chip chip(chip_width, chip_height);
    result.simulation = tracer.scoped("sim.simulate", [&] {
      return EventSimEngine(options.simulation)
          .run(graph, result.schedule, placement, chip)
          .result;
    });
  }
  return result;
}

/// CompileService::compile, one layer call at a time.
CompileResponse compose_compile(const CompileRequest& request,
                                const ServiceOptions& service,
                                CompileCache& cache, Tracer& tracer,
                                Counters& counters, std::string& source) {
  const auto start = Clock::now();
  CompileResponse response;
  response.id = request.id;
  AssayCase assay = request.assay;
  if (assay.binding.empty()) {
    assay.binding = tracer.scoped("assay.bind", [&] {
      return bind_operations(assay.graph, service.library,
                             request.options.binding_policy);
    });
  }
  if (!request.use_cache) {
    throw std::invalid_argument("the traced replay serves cached requests only");
  }
  const std::uint64_t assay_fp = assay_fingerprint(assay);
  const std::uint64_t opts_fp = options_fingerprint(request.options);
  const Schedule schedule = tracer.scoped("assay.schedule", [&] {
    return list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  });
  const std::uint64_t signature = schedule_signature(schedule);
  CompileCache::Lookup cached = tracer.scoped("service.cache.lookup", [&] {
    return cache.lookup(assay_fp, opts_fp, signature);
  });
  if (cached.exact) {
    response.result = std::move(cached.exact);
    response.source = CompileSource::kExactHit;
    counters.modules = schedule.module_count();
  } else {
    PipelineOptions run_options = request.options;
    const bool warm =
        cached.warm_placement != nullptr &&
        (run_options.placer == "sa" || run_options.placer == "two-stage" ||
         run_options.placer == "portfolio");
    if (warm) {
      run_options.initial_placement = cached.warm_placement;
      run_options.placer_context.annealing = refinement_schedule(
          service.warm_annealing, request.options.placer_context.annealing);
      run_options.warm_links = std::move(cached.warm_links);
    }
    if (run_options.routing.persist_congestion_history) {
      run_options.routing.congestion_ledger =
          cached.congestion ? std::move(cached.congestion)
                            : std::make_shared<std::vector<double>>();
    }
    auto result = std::make_shared<const PipelineResult>(
        compose_pipeline(assay, run_options, tracer, counters));
    tracer.scoped("service.cache.store", [&] {
      std::vector<RouteLink> links;
      if (result->routes.success) {
        links = routing::reweight_links(
            routing::extract_links(assay.graph, result->schedule),
            result->routes);
      }
      cache.store(assay_fp, opts_fp, signature, result, std::move(links),
                  std::move(run_options.routing.congestion_ledger));
      return 0;
    });
    response.result = std::move(result);
    response.source = warm ? CompileSource::kWarmStart : CompileSource::kMiss;
  }
  response.ok = true;
  response.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  source = to_string(response.source);
  return response;
}

struct Replayed {
  std::string response;
  std::string source;
  std::string error;
  Counters counters;
  std::vector<Span> spans;
};

Replayed replay_one(const std::string& line, const CompileServer& server,
                    CompileCache& cache, Tracer& tracer) {
  Replayed out;
  const int root = tracer.open("request");
  try {
    const CompileRequest request = tracer.scoped(
        "io.parse_request", [&] { return server.parse_request(line); });
    const CompileResponse response = tracer.scoped("service.compile", [&] {
      return compose_compile(request, server.options().service, cache, tracer,
                             out.counters, out.source);
    });
    out.response = tracer.scoped("io.render_response", [&] {
      return CompileServer::render_response(response);
    });
  } catch (const std::exception& error) {
    out.error = error.what();
  }
  tracer.close(root);
  out.spans = tracer.take();
  return out;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// One full replay into a fresh cache; returns the request phase's wall
/// seconds (setup lines excluded).
double replay_all(const std::vector<std::string>& setup,
                  const std::vector<std::string>& requests, int threads,
                  bool traced, std::vector<Replayed>& seeded,
                  std::vector<Replayed>& out) {
  const CompileServer server;
  CompileCache cache;
  const Clock::time_point epoch = Clock::now();
  {
    Tracer tracer(false, epoch);
    seeded.clear();
    for (const std::string& line : setup) {
      seeded.push_back(replay_one(line, server, cache, tracer));
      if (!seeded.back().error.empty()) {
        throw std::runtime_error("setup line failed to replay: " +
                                 seeded.back().error);
      }
    }
  }
  out.assign(requests.size(), {});
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now();
  const auto worker = [&] {
    Tracer tracer(traced, epoch);
    for (std::size_t i; (i = next.fetch_add(1)) < requests.size();) {
      out[i] = replay_one(requests[i], server, cache, tracer);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) pool.emplace_back(worker);
  for (auto& thread : pool) thread.join();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int trace(const std::string& setup_path, const std::string& requests_path,
          int threads, const std::string& out_path) {
  const std::vector<std::string> setup = read_lines(setup_path);
  const std::vector<std::string> requests = read_lines(requests_path);

  std::vector<Replayed> seeded;
  std::vector<Replayed> untraced;
  const double untraced_s =
      replay_all(setup, requests, threads, false, seeded, untraced);
  std::vector<Replayed> traced;
  const double traced_s =
      replay_all(setup, requests, threads, true, seeded, traced);

  std::ofstream out(out_path);
  out << "{\"untraced_s\":" << number(untraced_s)
      << ",\"traced_s\":" << number(traced_s)
      << ",\"requests\":" << requests.size() << "}\n";
  // Setup rows carry only the cold compiles' counters (near misses are
  // compared against them); request rows follow in request order.
  std::vector<std::pair<bool, const Replayed*>> rows;
  for (const Replayed& r : seeded) rows.emplace_back(true, &r);
  for (const Replayed& r : traced) rows.emplace_back(false, &r);
  std::size_t setup_index = 0;
  std::size_t request_index = 0;
  for (const auto& [is_setup, row] : rows) {
    const Replayed& r = *row;
    const Counters& c = r.counters;
    const std::size_t i = is_setup ? setup_index++ : request_index++;
    out << "{\"i\":" << i << ",\"setup\":" << (is_setup ? "true" : "false")
        << ",\"error\":" << quoted(r.error)
        << ",\"source\":" << quoted(r.source)
        << ",\"response\":" << quoted(r.response)
        << ",\"untraced_response\":"
        << quoted(is_setup ? r.response : untraced[i].response)
        << ",\"counters\":{\"modules\":" << c.modules
        << ",\"placed\":" << (c.placed ? "true" : "false")
        << ",\"proposals\":" << c.proposals << ",\"accepted\":" << c.accepted
        << ",\"anneal_s\":" << number(c.anneal_s)
        << ",\"seconds_to_best\":" << number(c.seconds_to_best)
        << ",\"routed_attempt\":" << (c.routed_attempt ? "true" : "false")
        << ",\"routed\":" << (c.routed ? "true" : "false")
        << ",\"changeovers\":" << c.changeovers
        << ",\"recovery\":" << (c.recovery ? "true" : "false")
        << ",\"faults_fired\":" << c.faults_fired << ",\"cycles\":" << c.cycles
        << ",\"reconfigure\":" << c.reconfigure << ",\"reroute\":" << c.reroute
        << ",\"replace\":" << c.replace
        << ",\"recover_s\":" << number(c.recover_s) << "},\"spans\":[";
    for (std::size_t s = 0; s < r.spans.size(); ++s) {
      const Span& span = r.spans[s];
      if (s > 0) out << ',';
      out << '[' << quoted(span.name) << ',' << span.start_ns << ','
          << span.end_ns << ',' << span.parent << ']';
    }
    out << "]}\n";
  }
  return out ? 0 : 1;
}

int usage() {
  std::cerr << "usage: perfbench_tool gen <workload> <seed> <count>\n"
               "       perfbench_tool trace <setup.jsonl> <requests.jsonl> "
               "<threads> <out>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 4 && args[0] == "gen") {
      return gen(args[1], std::stoull(args[2]), std::stoull(args[3]));
    }
    if (args.size() == 5 && args[0] == "trace") {
      return trace(args[1], args[2], std::stoi(args[3]), args[4]);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench_tool: " << error.what() << "\n";
    return 1;
  }
  return usage();
}
