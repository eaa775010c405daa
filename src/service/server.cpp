#include "service/server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "io/assay_format.h"
#include "io/json.h"
#include "util/parallel.h"
#include "util/request_queue.h"

namespace dmfb {
namespace {

/// A wire number that must be an int: non-finite, fractional and
/// out-of-range values are rejected by name (a bare static_cast of such
/// a double is undefined behaviour).
int as_int(const json::Value& value, const std::string& what) {
  const double number = value.as_number();
  if (!std::isfinite(number) || number != std::trunc(number) ||
      number < std::numeric_limits<int>::min() ||
      number > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(what + " must be an integer in int range, "
                                "got " + json::Value(number).dump());
  }
  return static_cast<int>(number);
}

/// as_int for counts that must not be negative.
int as_count(const json::Value& value, const std::string& what) {
  const int count = as_int(value, what);
  if (count < 0) {
    throw std::invalid_argument(what + " must be >= 0, got " +
                                std::to_string(count));
  }
  return count;
}

/// A wire number that must be a 64-bit unsigned integer: negative,
/// fractional, non-finite and >= 2^64 values are rejected by name (a
/// bare static_cast of such a double is undefined behaviour or silently
/// truncates).
std::uint64_t as_u64(const json::Value& value, const std::string& what) {
  const double number = value.as_number();
  constexpr double kTwoTo64 = 18446744073709551616.0;
  if (!std::isfinite(number) || number != std::trunc(number) ||
      number < 0.0 || number >= kTwoTo64) {
    throw std::invalid_argument(what + " must be an integer in [0, 2^64), "
                                "got " + json::Value(number).dump());
  }
  return static_cast<std::uint64_t>(number);
}

/// A wire number that must be finite: JSON text such as 1e999 parses to
/// infinity, and an infinite cost weight turns every cost into NaN.
double as_finite(const json::Value& value, const std::string& what) {
  const double number = value.as_number();
  if (!std::isfinite(number)) {
    throw std::invalid_argument(what + " must be a finite number");
  }
  return number;
}

std::pair<int, int> as_dims(const json::Value& value, const char* what) {
  const auto& pair = value.as_array();
  if (pair.size() != 2) {
    throw std::invalid_argument(std::string(what) + " must be [width,height]");
  }
  return {as_int(pair[0], what), as_int(pair[1], what)};
}

void parse_annealing(const json::Value& value, AnnealingSchedule& schedule) {
  for (const auto& [key, field] : value.as_object()) {
    if (key == "T0") {
      schedule.initial_temperature = field.as_number();
    } else if (key == "alpha") {
      schedule.cooling_rate = field.as_number();
    } else if (key == "iterations_per_module") {
      schedule.iterations_per_module =
          as_int(field, "annealing.iterations_per_module");
    } else if (key == "min_temperature") {
      schedule.min_temperature = field.as_number();
    } else {
      throw std::invalid_argument("unknown annealing option \"" + key + "\"");
    }
  }
}

/// The `stats` control reply; `id` is echoed when the line carried one.
json::Value stats_line(const CacheStats& stats,
                       const std::optional<std::string>& id) {
  json::Value counters;
  counters.set("exact_hits", static_cast<double>(stats.exact_hits));
  counters.set("warm_hits", static_cast<double>(stats.warm_hits));
  counters.set("misses", static_cast<double>(stats.misses));
  counters.set("entries", static_cast<double>(stats.entries));
  json::Value doc;
  if (id) doc.set("id", *id);
  doc.set("ok", true);
  doc.set("stats", std::move(counters));
  return doc;
}

/// Best-effort id recovery for a line that failed request parsing, so the
/// error response still correlates when the id itself was readable.
std::string recover_id(const std::string& line) {
  try {
    const json::Value doc = json::Value::parse(line);
    if (const json::Value* id = doc.find("id"); id && id->is_string()) {
      return id->as_string();
    }
  } catch (...) {
  }
  return {};
}

}  // namespace

void parse_pipeline_options(const json::Value& value,
                            PipelineOptions& options) {
  for (const auto& [key, field] : value.as_object()) {
    if (key == "seed") {
      options.seed = as_u64(field, "seed");
    } else if (key == "placer") {
      options.placer = field.as_string();
    } else if (key == "router") {
      options.router = field.as_string();
    } else if (key == "canvas") {
      const auto [w, h] = as_dims(field, "canvas");
      options.placer_context.canvas_width = w;
      options.placer_context.canvas_height = h;
    } else if (key == "chip") {
      const auto [w, h] = as_dims(field, "chip");
      options.chip_width = w;
      options.chip_height = h;
    } else if (key == "defects") {
      for (const auto& cell : field.as_array()) {
        const auto [x, y] = as_dims(cell, "defect cell");
        options.placer_context.defects.push_back(Point{x, y});
      }
    } else if (key == "gamma") {
      options.placer_context.weights.gamma = as_finite(field, "gamma");
    } else if (key == "beta") {
      options.placer_context.weights.beta = as_finite(field, "beta");
    } else if (key == "annealing") {
      parse_annealing(field, options.placer_context.annealing);
    } else if (key == "feedback_rounds") {
      options.feedback_rounds = as_count(field, "feedback_rounds");
    } else if (key == "deadline_s") {
      options.deadline_s = field.as_number();
    } else if (key == "plan_droplet_routes") {
      options.plan_droplet_routes = field.as_bool();
    } else if (key == "persist_congestion_history") {
      options.routing.persist_congestion_history = field.as_bool();
    } else if (key == "simulate") {
      options.simulate = field.as_bool();
    } else if (key == "fault_plan") {
      // [[t,x,y], ...]: inject a fault at cell (x,y) once the simulated
      // clock reaches t (requires "simulate": true to have any effect).
      for (const auto& fault : field.as_array()) {
        const auto& triple = fault.as_array();
        if (triple.size() != 3) {
          throw std::invalid_argument("fault_plan entries must be [t,x,y]");
        }
        options.fault_plan.faults.push_back(
            PlannedFault{Point{as_int(triple[1], "fault_plan cell"),
                               as_int(triple[2], "fault_plan cell")},
                         triple[0].as_number(), -1});
      }
    } else if (key == "recovery_deadline_s") {
      options.recovery.deadline_s = field.as_number();
    } else if (key == "recovery_max_cycles") {
      options.recovery.max_cycles = as_count(field, "recovery_max_cycles");
    } else if (key == "evaluate_fault_tolerance") {
      options.evaluate_fault_tolerance = field.as_bool();
    } else if (key == "binding_policy") {
      options.binding_policy = from_string<BindingPolicy>(field.as_string());
    } else {
      throw std::invalid_argument("unknown option \"" + key + "\"");
    }
  }
}

json::Value pipeline_options_to_json(const PipelineOptions& options) {
  json::Value doc;
  doc.set("seed", static_cast<double>(options.seed));
  doc.set("placer", options.placer);
  doc.set("router", options.router);
  const auto dims = [](int w, int h) {
    return json::Value(json::Value::Array{json::Value(w), json::Value(h)});
  };
  doc.set("canvas", dims(options.placer_context.canvas_width,
                         options.placer_context.canvas_height));
  doc.set("chip", dims(options.chip_width, options.chip_height));
  {
    json::Value::Array defects;
    for (const Point& p : options.placer_context.defects) {
      defects.push_back(dims(p.x, p.y));
    }
    doc.set("defects", json::Value(std::move(defects)));
  }
  doc.set("gamma", options.placer_context.weights.gamma);
  doc.set("beta", options.placer_context.weights.beta);
  {
    const AnnealingSchedule& s = options.placer_context.annealing;
    json::Value annealing;
    annealing.set("T0", s.initial_temperature);
    annealing.set("alpha", s.cooling_rate);
    annealing.set("iterations_per_module",
                  static_cast<double>(s.iterations_per_module));
    annealing.set("min_temperature", s.min_temperature);
    doc.set("annealing", std::move(annealing));
  }
  doc.set("feedback_rounds", static_cast<double>(options.feedback_rounds));
  doc.set("deadline_s", options.deadline_s);
  doc.set("plan_droplet_routes", options.plan_droplet_routes);
  doc.set("persist_congestion_history",
          options.routing.persist_congestion_history);
  doc.set("simulate", options.simulate);
  {
    json::Value::Array faults;
    for (const PlannedFault& fault : options.fault_plan.faults) {
      json::Value::Array triple;
      triple.push_back(json::Value(fault.time_s));
      triple.push_back(json::Value(fault.cell.x));
      triple.push_back(json::Value(fault.cell.y));
      faults.push_back(json::Value(std::move(triple)));
    }
    doc.set("fault_plan", json::Value(std::move(faults)));
  }
  doc.set("recovery_deadline_s", options.recovery.deadline_s);
  doc.set("recovery_max_cycles",
          static_cast<double>(options.recovery.max_cycles));
  doc.set("evaluate_fault_tolerance", options.evaluate_fault_tolerance);
  doc.set("binding_policy", to_string(options.binding_policy));
  return doc;
}

CompileServer::CompileServer(ServerOptions options)
    : options_(std::move(options)), service_(options_.service) {}

CompileRequest CompileServer::parse_request(const std::string& line) const {
  const json::Value doc = json::Value::parse(line);
  CompileRequest request;
  if (const json::Value* id = doc.find("id")) request.id = id->as_string();
  const json::Value* assay = doc.find("assay");
  if (!assay) throw std::invalid_argument("request missing \"assay\"");
  request.assay =
      assay_from_string(assay->as_string(), options_.service.library);
  if (const json::Value* cache = doc.find("cache")) {
    request.use_cache = cache->as_bool();
  }
  if (const json::Value* opts = doc.find("options")) {
    parse_pipeline_options(*opts, request.options);
  }
  return request;
}

std::string CompileServer::render_response(const CompileResponse& response) {
  json::Value doc;
  doc.set("id", response.id);
  doc.set("ok", response.ok);
  if (!response.ok) {
    doc.set("error", response.error);
    return doc.dump();
  }
  doc.set("source", to_string(response.source));
  doc.set("wall_s", response.wall_seconds);

  const PipelineResult& r = *response.result;
  json::Value result;
  result.set("assay", r.assay_name);
  result.set("seed", static_cast<double>(r.seed));
  result.set("area_cells",
             static_cast<double>(r.placement.cost.area_cells));
  result.set("cost", r.placement.cost.value);
  result.set("fti", r.fti.fti());
  result.set("makespan_s", r.schedule.makespan_s());
  result.set("transport_makespan_s", r.transport_makespan_s);
  result.set("routed", r.routes.success);
  result.set("rounds", static_cast<double>(r.feedback_history.size()));
  result.set("selected_round", static_cast<double>(r.selected_round));
  if (r.placement.placement.module_count() > 0) {
    result.set("placement", placement_to_string(r.placement.placement));
  }
  // Online fault-recovery telemetry (present iff the request planned
  // faults — the engine always stamps a detail line when it runs).
  if (!r.recovery.detail.empty()) {
    json::Value recovery;
    recovery.set("faults", static_cast<double>(r.recovery.faults_injected));
    recovery.set("cycles", static_cast<double>(r.recovery.recovery_cycles));
    recovery.set("recovered", r.recovery.recovered);
    recovery.set("completed", r.recovery.completed);
    recovery.set("time_lost_s", r.recovery.time_lost_s);
    recovery.set("resumed_from_s", r.recovery.resumed_from_s);
    recovery.set("detail", r.recovery.detail);
    json::Value::Array attempts;
    for (const RecoveryAttempt& attempt : r.recovery.attempts) {
      json::Value a;
      a.set("action", to_string(attempt.action));
      a.set("cycle", static_cast<double>(attempt.cycle));
      a.set("success", attempt.success);
      attempts.push_back(std::move(a));
    }
    recovery.set("attempts", json::Value(std::move(attempts)));
    result.set("recovery", std::move(recovery));
  }
  doc.set("result", std::move(result));
  return doc.dump();
}

void CompileServer::serve(
    const std::function<bool(std::string&)>& read_line,
    const std::function<void(const std::string&)>& write_line) {
  std::mutex write_mutex;
  const auto emit = [&](const std::string& line) {
    std::lock_guard lock(write_mutex);
    write_line(line);
  };

  detail::BoundedQueue<std::string> queue(
      std::max<std::size_t>(1, options_.queue_capacity));
  // Same 0-means-hardware-concurrency convention as run_many; the
  // "count" bound does not apply to an open-ended request stream.
  const std::size_t worker_count = detail::resolve_worker_count(
      std::numeric_limits<std::size_t>::max(), options_.workers);

  const auto worker = [&] {
    std::string line;
    while (queue.pop(line)) {
      CompileResponse response;
      try {
        response = service_.compile(parse_request(line));
      } catch (const std::exception& error) {
        response.id = recover_id(line);
        response.ok = false;
        response.error = error.what();
      }
      emit(render_response(response));
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) pool.emplace_back(worker);

  std::string line;
  while (read_line(line)) {
    if (line.find_first_not_of(" \t\r\n") == std::string::npos) continue;
    // Control lines ({"cmd":...}) bypass the queue; the substring test is
    // only a cheap pre-filter — the parse decides.
    if (line.find("\"cmd\"") != std::string::npos) {
      std::string cmd;
      std::optional<std::string> id;
      try {
        const json::Value doc = json::Value::parse(line);
        if (const json::Value* field = doc.find("cmd")) {
          cmd = field->as_string();
        }
        if (const json::Value* field = doc.find("id");
            field && field->is_string()) {
          id = field->as_string();
        }
      } catch (...) {
        // Malformed line: fall through to the queue, a worker reports it.
      }
      if (cmd == "stats") {
        emit(stats_line(service_.cache_stats(), id).dump());
        continue;
      }
      if (cmd == "shutdown") break;
      if (!cmd.empty()) {
        json::Value doc;
        doc.set("ok", false);
        doc.set("error", "unknown command \"" + cmd + "\"");
        emit(doc.dump());
        continue;
      }
    }
    queue.push(line);
  }

  queue.close();
  for (auto& thread : pool) thread.join();
}

}  // namespace dmfb
