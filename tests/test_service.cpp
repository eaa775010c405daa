// Tests for the synthesis service (service/): the content-hashed compile
// cache's key covers everything that changes compile output and nothing
// that doesn't, exact hits are bit-identical to the original compile,
// warm starts are deterministic and never worse than cold, the deadline
// round budget leaves no-deadline runs bit-identical, and the JSON-line
// wire protocol round-trips through an in-process serve().
#include "service/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "assay/assay_library.h"
#include "assay/scheduler.h"
#include "io/assay_format.h"
#include "io/json.h"

namespace dmfb {
namespace {

/// Short annealing runs so the whole suite stays fast (mirrors
/// test_pipeline's fast_options).
PipelineOptions fast_options() {
  PipelineOptions options;
  options.placer_context.annealing.initial_temperature = 1000.0;
  options.placer_context.annealing.cooling_rate = 0.8;
  options.placer_context.annealing.iterations_per_module = 60;
  options.placer_context.ltsa.iterations_per_module = 60;
  return options;
}

/// The PCR assay with only its name changed: different cache key
/// (assay_fingerprint sees the name), identical schedule structure — the
/// canonical near-miss that should warm-start.
AssayCase renamed_pcr() {
  AssayCase assay = pcr_mixing_assay();
  assay.name = "pcr-variant";
  return assay;
}

CompileRequest make_request(std::string id, AssayCase assay,
                            PipelineOptions options) {
  CompileRequest request;
  request.id = std::move(id);
  request.assay = std::move(assay);
  request.options = std::move(options);
  return request;
}

// --- cache key -------------------------------------------------------

TEST(CompileCacheTest, OptionsFingerprintSeesCompileRelevantFields) {
  const PipelineOptions base = fast_options();
  const std::uint64_t fp = options_fingerprint(base);
  EXPECT_EQ(options_fingerprint(fast_options()), fp);  // stable

  const auto differs = [&](auto mutate, const char* what) {
    PipelineOptions changed = fast_options();
    mutate(changed);
    EXPECT_NE(options_fingerprint(changed), fp) << what;
  };
  differs([](PipelineOptions& o) { o.seed = 1; }, "seed");
  differs([](PipelineOptions& o) { o.placer = "greedy"; }, "placer");
  differs([](PipelineOptions& o) { o.router = "negotiated"; }, "router");
  differs([](PipelineOptions& o) { o.placer_context.canvas_width = 28; },
          "canvas");
  differs(
      [](PipelineOptions& o) {
        o.placer_context.defects.push_back(Point{3, 4});
      },
      "defect map");
  differs([](PipelineOptions& o) { o.placer_context.weights.gamma = 0.1; },
          "gamma");
  differs(
      [](PipelineOptions& o) {
        o.placer_context.annealing.iterations_per_module = 61;
      },
      "annealing schedule");
  differs([](PipelineOptions& o) { o.feedback_rounds = 2; },
          "feedback rounds");
  differs([](PipelineOptions& o) { o.deadline_s = 30.0; }, "deadline");
  differs([](PipelineOptions& o) { o.chip_width = 16; }, "chip geometry");
  differs([](PipelineOptions& o) { o.plan_droplet_routes = false; },
          "routing toggle");
  differs([](PipelineOptions& o) { o.simulate = true; }, "simulate");
  differs(
      [](PipelineOptions& o) {
        o.fault_plan.faults.push_back(PlannedFault{Point{3, 4}, 12.0, -1});
      },
      "fault plan");

  // With a plan present, outcome-affecting recovery knobs fork the key;
  // the host-wall deadline (execution-only, like `threads`) does not.
  PipelineOptions with_plan = fast_options();
  with_plan.fault_plan.faults.push_back(PlannedFault{Point{3, 4}, 12.0, -1});
  PipelineOptions no_replace = with_plan;
  no_replace.recovery.enable_replace = false;
  EXPECT_NE(options_fingerprint(no_replace), options_fingerprint(with_plan));
  PipelineOptions slow = with_plan;
  slow.recovery.deadline_s = 99.0;
  EXPECT_EQ(options_fingerprint(slow), options_fingerprint(with_plan));
}

TEST(CompileCacheTest, OptionsFingerprintSeesPortfolioOptions) {
  // A saved cache or batch ledger must never serve a portfolio result
  // computed under another replica count, exchange period, ladder or
  // early-stop target.
  const auto fingerprint = [](auto mutate) {
    PipelineOptions options = fast_options();
    options.placer = "portfolio";
    mutate(options.placer_context.portfolio);
    return options_fingerprint(options);
  };
  const std::uint64_t two = fingerprint([](PortfolioOptions& p) {
    p.replicas = 2;
  });
  EXPECT_NE(fingerprint([](PortfolioOptions& p) { p.replicas = 3; }), two);
  EXPECT_NE(fingerprint([](PortfolioOptions& p) {
              p.replicas = 2;
              p.exchange_period = 8;
            }),
            two);
  EXPECT_NE(fingerprint([](PortfolioOptions& p) {
              p.replicas = 2;
              p.ladder_ratio = 1.5;
            }),
            two);
  EXPECT_NE(fingerprint([](PortfolioOptions& p) {
              p.replicas = 2;
              p.target_cost = 100.0;
            }),
            two);
  // Execution-only: the worker thread count never changes the result.
  EXPECT_EQ(fingerprint([](PortfolioOptions& p) {
              p.replicas = 2;
              p.threads = 7;
            }),
            two);
  // replicas = 0 is the host's thread count, and fingerprints as such.
  const int host = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(fingerprint([](PortfolioOptions& p) { p.replicas = 0; }),
            fingerprint([&](PortfolioOptions& p) { p.replicas = host; }));
  EXPECT_NE(fingerprint([](PortfolioOptions& p) { p.replicas = 0; }),
            fingerprint([&](PortfolioOptions& p) { p.replicas = host + 1; }));
}

TEST(CompileCacheTest, OptionsFingerprintIgnoresExecutionOnlyFields) {
  const PipelineOptions base = fast_options();
  const std::uint64_t fp = options_fingerprint(base);

  // Execution-only knobs and the warm-start seams themselves must not
  // fork the key space of the cache that feeds them.
  PipelineOptions changed = fast_options();
  changed.threads = 8;
  changed.observer = [](PipelineStage, double, const std::string&) {};
  changed.warm_links.push_back(RouteLink{});
  changed.routing.congestion_ledger =
      std::make_shared<std::vector<double>>(10, 1.0);
  EXPECT_EQ(options_fingerprint(changed), fp);
}

TEST(CompileCacheTest, ScheduleSignatureIgnoresLabels) {
  const AssayCase a = pcr_mixing_assay();
  const AssayCase b = renamed_pcr();
  const Schedule sa = list_schedule(a.graph, a.binding, a.scheduler_options);
  const Schedule sb = list_schedule(b.graph, b.binding, b.scheduler_options);
  EXPECT_EQ(schedule_signature(sa), schedule_signature(sb));

  // Serializing the schedule removes every time overlap — a different
  // structure, so placements must not transfer.
  AssayCase serial = pcr_mixing_assay();
  serial.scheduler_options.constraints.max_concurrent_modules = 1;
  const Schedule ss = list_schedule(serial.graph, serial.binding,
                                    serial.scheduler_options);
  EXPECT_NE(schedule_signature(ss), schedule_signature(sa));
}

// --- exact hits ------------------------------------------------------

TEST(ServiceTest, ExactHitReturnsTheStoredResultBitIdentical) {
  CompileService service;
  const CompileRequest request =
      make_request("r1", pcr_mixing_assay(), fast_options());

  const CompileResponse first = service.compile(request);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.source, CompileSource::kMiss);

  const CompileResponse second = service.compile(request);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.source, CompileSource::kExactHit);
  // The very same stored object, not a recompute — bit-identical by
  // construction.
  EXPECT_EQ(second.result.get(), first.result.get());

  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.exact_hits, 1);
  EXPECT_EQ(stats.warm_hits, 0);
  EXPECT_EQ(stats.entries, 1);
}

TEST(ServiceTest, CacheBypassAlwaysCompilesColdAndStoresNothing) {
  CompileService service;
  CompileRequest request =
      make_request("r1", pcr_mixing_assay(), fast_options());
  request.use_cache = false;

  EXPECT_EQ(service.compile(request).source, CompileSource::kMiss);
  EXPECT_EQ(service.compile(request).source, CompileSource::kMiss);
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.misses, 0);  // bypass never consults the cache
}

TEST(ServiceTest, CompileErrorsComeBackAsResponsesNotThrows) {
  CompileService service;
  PipelineOptions options = fast_options();
  options.placer = "no-such-placer";
  const CompileResponse response =
      service.compile(make_request("r1", pcr_mixing_assay(), options));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.id, "r1");
  EXPECT_NE(response.error.find("no-such-placer"), std::string::npos)
      << response.error;
}

// --- warm starts -----------------------------------------------------

TEST(ServiceTest, NearMissWarmStartsDeterministicallyAndNeverWorse) {
  // A cold reference compile of the perturbed assay, outside any cache.
  CompileService cold_service;
  CompileRequest cold_request =
      make_request("cold", renamed_pcr(), fast_options());
  cold_request.use_cache = false;
  const CompileResponse cold = cold_service.compile(cold_request);
  ASSERT_TRUE(cold.ok) << cold.error;

  const auto run_sequence = [](CompileService& service) {
    const CompileResponse seed = service.compile(
        make_request("seed", pcr_mixing_assay(), fast_options()));
    EXPECT_TRUE(seed.ok) << seed.error;
    EXPECT_EQ(seed.source, CompileSource::kMiss);
    return service.compile(
        make_request("warm", renamed_pcr(), fast_options()));
  };

  CompileService a;
  const CompileResponse warm = run_sequence(a);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.source, CompileSource::kWarmStart);
  EXPECT_EQ(a.cache_stats().warm_hits, 1);

  // Never worse: the annealers record the (feasible) warm seed as the
  // initial best, and the seed *is* the cold solution here — same
  // structure, same master seed.
  EXPECT_LE(warm.result->placement.cost.value,
            cold.result->placement.cost.value + 1e-9);

  // Deterministic under a fixed seed: a fresh service running the same
  // request sequence lands on the identical placement.
  CompileService b;
  const CompileResponse again = run_sequence(b);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.source, CompileSource::kWarmStart);
  const Placement& p = warm.result->placement.placement;
  const Placement& q = again.result->placement.placement;
  ASSERT_EQ(p.module_count(), q.module_count());
  for (int i = 0; i < p.module_count(); ++i) {
    EXPECT_EQ(p.module(i).anchor, q.module(i).anchor) << "module " << i;
    EXPECT_EQ(p.module(i).rotated, q.module(i).rotated) << "module " << i;
  }
  EXPECT_DOUBLE_EQ(warm.result->placement.cost.value,
                   again.result->placement.cost.value);
}

// --- deadline round budget -------------------------------------------

TEST(DeadlineTest, NoDeadlineRunsAreBitIdenticalToTheDeadlinePath) {
  // deadline_s = 0 must take the exact legacy code path; an unmeetable
  // deadline must change nothing either (the check never fires).
  PipelineOptions options = fast_options();
  options.feedback_rounds = 2;
  options.placer_context.weights.gamma = 0.05;

  const PipelineResult zero = SynthesisPipeline(options).run(
      pcr_mixing_assay());
  options.deadline_s = 1e-9;  // never met: makespans are whole seconds
  const PipelineResult tiny = SynthesisPipeline(options).run(
      pcr_mixing_assay());

  ASSERT_EQ(tiny.feedback_history.size(), zero.feedback_history.size());
  for (std::size_t i = 0; i < zero.feedback_history.size(); ++i) {
    EXPECT_EQ(tiny.feedback_history[i].seed, zero.feedback_history[i].seed);
    EXPECT_EQ(tiny.feedback_history[i].routed,
              zero.feedback_history[i].routed);
    EXPECT_DOUBLE_EQ(tiny.feedback_history[i].transport_makespan_s,
                     zero.feedback_history[i].transport_makespan_s);
    EXPECT_DOUBLE_EQ(tiny.feedback_history[i].placement_cost,
                     zero.feedback_history[i].placement_cost);
  }
  EXPECT_EQ(tiny.selected_round, zero.selected_round);
  const Placement& p = zero.placement.placement;
  const Placement& q = tiny.placement.placement;
  ASSERT_EQ(p.module_count(), q.module_count());
  for (int i = 0; i < p.module_count(); ++i) {
    EXPECT_EQ(p.module(i).anchor, q.module(i).anchor);
    EXPECT_EQ(p.module(i).rotated, q.module(i).rotated);
  }
}

TEST(DeadlineTest, GenerousDeadlineStopsSpendingRounds) {
  PipelineOptions options = fast_options();
  options.feedback_rounds = 3;
  options.placer_context.weights.gamma = 0.05;
  options.deadline_s = 1e9;  // any routed round meets it

  const PipelineResult result = SynthesisPipeline(options).run(
      pcr_mixing_assay());
  ASSERT_FALSE(result.feedback_history.empty());
  ASSERT_TRUE(result.feedback_history.front().routed);
  // Round 0 routed under the deadline, so no feedback round runs.
  EXPECT_EQ(result.feedback_history.size(), 1u);
  EXPECT_EQ(result.selected_round, 0);
}

// --- wire protocol ---------------------------------------------------

TEST(ServerTest, ParseRequestReadsEveryField) {
  const CompileServer server;
  json::Value doc;
  doc.set("id", std::string("r7"));
  doc.set("assay", assay_to_string(pcr_mixing_assay()));
  doc.set("cache", false);
  json::Value options;
  options.set("seed", 99.0);
  options.set("placer", std::string("two-stage"));
  options.set("router", std::string("negotiated"));
  options.set("canvas", json::Value(json::Value::Array{
                            json::Value(28), json::Value(26)}));
  options.set("gamma", 0.05);
  options.set("feedback_rounds", 2.0);
  options.set("deadline_s", 40.0);
  options.set("persist_congestion_history", true);
  doc.set("options", std::move(options));

  const CompileRequest request = server.parse_request(doc.dump());
  EXPECT_EQ(request.id, "r7");
  EXPECT_FALSE(request.use_cache);
  EXPECT_EQ(request.assay.graph.operation_count(),
            pcr_mixing_assay().graph.operation_count());
  EXPECT_EQ(request.options.seed, 99u);
  EXPECT_EQ(request.options.placer, "two-stage");
  EXPECT_EQ(request.options.router, "negotiated");
  EXPECT_EQ(request.options.placer_context.canvas_width, 28);
  EXPECT_EQ(request.options.placer_context.canvas_height, 26);
  EXPECT_DOUBLE_EQ(request.options.placer_context.weights.gamma, 0.05);
  EXPECT_EQ(request.options.feedback_rounds, 2);
  EXPECT_DOUBLE_EQ(request.options.deadline_s, 40.0);
  EXPECT_TRUE(request.options.routing.persist_congestion_history);
}

TEST(ServerTest, ParseRequestRejectsUnknownOptionsAndMissingAssay) {
  const CompileServer server;
  EXPECT_THROW(server.parse_request("{\"id\":\"x\"}"),
               std::invalid_argument);  // no assay
  json::Value doc;
  doc.set("id", std::string("x"));
  doc.set("assay", assay_to_string(pcr_mixing_assay()));
  json::Value options;
  options.set("plaecr", std::string("sa"));  // misspelled: must be an error
  doc.set("options", std::move(options));
  EXPECT_THROW(server.parse_request(doc.dump()), std::invalid_argument);
  EXPECT_THROW(server.parse_request("not json"), json::JsonError);

  // The annealing-engine selector is gone: "engine" is just another
  // unknown option.
  json::Value retired_doc;
  retired_doc.set("assay", assay_to_string(pcr_mixing_assay()));
  json::Value retired;
  retired.set("engine", std::string("delta"));
  retired_doc.set("options", std::move(retired));
  try {
    server.parse_request(retired_doc.dump());
    FAIL() << "\"engine\" was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()), "unknown option \"engine\"");
  }
}

TEST(ServerTest, ParseRequestRejectsNumbersThatAreNotInts) {
  const CompileServer server;
  const auto parse_with = [&](const std::string& options_json) {
    return server.parse_request(
        "{\"id\":\"x\",\"assay\":" +
        json::Value(assay_to_string(pcr_mixing_assay())).dump() +
        ",\"options\":" + options_json + "}");
  };
  const auto rejects = [&](const std::string& options_json,
                           const std::string& field) {
    try {
      parse_with(options_json);
      ADD_FAILURE() << options_json << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
          << error.what();
    }
  };
  // 3.7e10 does not fit an int: casting it was undefined behaviour.
  rejects("{\"canvas\":[3.7e10,2]}", "canvas");
  rejects("{\"canvas\":[2.5,2]}", "canvas");
  rejects("{\"chip\":[16,-1e300]}", "chip");
  rejects("{\"defects\":[[1,1e19]]}", "defect cell");
  rejects("{\"fault_plan\":[[1.0,0.5,2]]}", "fault_plan cell");
  rejects("{\"annealing\":{\"iterations_per_module\":1e12}}",
          "iterations_per_module");
  rejects("{\"feedback_rounds\":-1}", "feedback_rounds");
  rejects("{\"recovery_max_cycles\":-1}", "recovery_max_cycles");
  const CompileRequest ok = parse_with("{\"canvas\":[-3,2147483647]}");
  EXPECT_EQ(ok.options.placer_context.canvas_width, -3);
  EXPECT_EQ(ok.options.placer_context.canvas_height, 2147483647);
}

TEST(ServerTest, ServeAnswersRequestsControlLinesAndErrors) {
  ServerOptions options;
  options.workers = 2;
  CompileServer server(options);

  json::Value request;
  request.set("id", std::string("r1"));
  request.set("assay", assay_to_string(pcr_mixing_assay()));
  json::Value request_options;
  json::Value annealing;
  annealing.set("T0", 1000.0);
  annealing.set("alpha", 0.8);
  annealing.set("iterations_per_module", 60.0);
  request_options.set("annealing", std::move(annealing));
  request.set("options", std::move(request_options));

  const std::vector<std::string> input = {
      request.dump(),
      "this is not json",
      "{\"cmd\":\"stats\"}",
      "{\"cmd\":\"shutdown\"}",
      "{\"id\":\"never-read\"}",  // after shutdown: must not be served
  };
  std::size_t cursor = 0;
  std::mutex output_mutex;
  std::vector<std::string> output;
  std::atomic<int> responses{0};
  server.serve(
      [&](std::string& line) {
        if (cursor >= input.size()) return false;
        // Control lines are answered inline by the reader; wait for the
        // queued requests to drain first so the counters and the output
        // size are deterministic.
        if (input[cursor].find("\"cmd\"") != std::string::npos) {
          while (responses.load() < 2) std::this_thread::yield();
        }
        line = input[cursor++];
        return true;
      },
      [&](const std::string& line) {
        {
          const std::lock_guard<std::mutex> lock(output_mutex);
          output.push_back(line);
        }
        responses.fetch_add(1);
      });

  // shutdown stops the reader before the trailing request.
  EXPECT_EQ(cursor, 4u);
  ASSERT_EQ(output.size(), 3u);  // r1 + parse error + stats

  bool saw_result = false, saw_error = false, saw_stats = false;
  for (const std::string& line : output) {
    const json::Value doc = json::Value::parse(line);
    if (doc.find("stats")) {
      saw_stats = true;
      EXPECT_EQ(doc.find("stats")->find("misses")->as_number(), 1.0);
    } else if (doc.find("id") && doc.find("id")->as_string() == "r1") {
      saw_result = true;
      EXPECT_TRUE(doc.find("ok")->as_bool());
      EXPECT_EQ(doc.find("source")->as_string(), "miss");
      const json::Value* result = doc.find("result");
      ASSERT_NE(result, nullptr);
      EXPECT_EQ(result->find("assay")->as_string(), "pcr-mixing-stage");
      EXPECT_GT(result->find("area_cells")->as_number(), 0.0);
      EXPECT_TRUE(result->find("routed")->as_bool());
      EXPECT_GT(result->find("transport_makespan_s")->as_number(), 0.0);
      // The placement text round-trips through the repo's one parser.
      EXPECT_EQ(result->find("placement")->as_string().rfind("placement ", 0),
                0u);
    } else {
      saw_error = true;
      EXPECT_FALSE(doc.find("ok")->as_bool());
      EXPECT_FALSE(doc.find("error")->as_string().empty());
    }
  }
  EXPECT_TRUE(saw_result);
  EXPECT_TRUE(saw_error);
  EXPECT_TRUE(saw_stats);
}

// --- hostile lines: an error response each, and the server keeps serving

/// One request line for the PCR assay with `options_json` spliced in.
std::string request_line(const std::string& id,
                         const std::string& options_json) {
  return "{\"id\":\"" + id + "\",\"assay\":" +
         json::Value(assay_to_string(pcr_mixing_assay())).dump() +
         ",\"cache\":false,\"options\":" + options_json + "}";
}

/// Serves `lines` and then a cheap valid request on one worker (so the
/// responses come back in order) and returns the parsed responses.
std::vector<json::Value> serve_then_probe(std::vector<std::string> lines) {
  lines.push_back(request_line("probe", "{\"placer\":\"greedy\"}"));
  ServerOptions options;
  options.workers = 1;
  CompileServer server(options);
  std::size_t cursor = 0;
  std::vector<std::string> output;
  server.serve(
      [&](std::string& line) {
        if (cursor >= lines.size()) return false;
        line = lines[cursor++];
        return true;
      },
      [&](const std::string& line) { output.push_back(line); });
  std::vector<json::Value> responses;
  for (const std::string& line : output) {
    responses.push_back(json::Value::parse(line));
  }
  return responses;
}

/// Every line but the probe got an error response containing
/// `expected`; the probe was then served.
void expect_errors_then_served(const std::vector<json::Value>& responses,
                               std::size_t errors,
                               const std::string& expected) {
  ASSERT_EQ(responses.size(), errors + 1);
  for (std::size_t i = 0; i < errors; ++i) {
    EXPECT_FALSE(responses[i].find("ok")->as_bool()) << i;
    EXPECT_NE(responses[i].find("error")->as_string().find(expected),
              std::string::npos)
        << responses[i].find("error")->as_string();
  }
  EXPECT_EQ(responses.back().find("id")->as_string(), "probe");
  EXPECT_TRUE(responses.back().find("ok")->as_bool());
}

TEST(ServerHardeningTest, CoolingRateOneIsAnErrorNotAHang) {
  expect_errors_then_served(
      serve_then_probe({request_line("a", "{\"annealing\":{\"alpha\":1}}")}),
      1, "cooling_rate");
}

TEST(ServerHardeningTest, NegativeMinTemperatureIsAnErrorNotAHang) {
  expect_errors_then_served(
      serve_then_probe(
          {request_line("m", "{\"annealing\":{\"min_temperature\":-1}}")}),
      1, "min_temperature");
}

TEST(ServerHardeningTest, NegativePortfolioIterationsNameTheField) {
  // Once answered with libstdc++'s "vector::_M_default_append".
  expect_errors_then_served(
      serve_then_probe({request_line(
          "p", "{\"placer\":\"portfolio\","
               "\"annealing\":{\"iterations_per_module\":-1}}")}),
      1, "iterations_per_module");
}

TEST(ServerHardeningTest, OutOfRangeCanvasIsAnError) {
  expect_errors_then_served(
      serve_then_probe({request_line("c", "{\"canvas\":[3.7e10,2]}")}), 1,
      "canvas must be an integer in int range");
}

TEST(ServerHardeningTest, NegativeCountsAreErrors) {
  expect_errors_then_served(
      serve_then_probe({request_line("f", "{\"feedback_rounds\":-1}"),
                        request_line("r", "{\"recovery_max_cycles\":-1}")}),
      2, ">= 0");
}

TEST(ServerHardeningTest, NegativeSeedIsAnError) {
  // Once served as seed 2^64 - 1 (printed 1.8446744073709552e+19).
  expect_errors_then_served(
      serve_then_probe({request_line("n", "{\"seed\":-1}")}), 1,
      "seed must be an integer in [0, 2^64)");
}

TEST(ServerHardeningTest, SeedOf2To64OrMoreIsAnError) {
  // 1e30 was once served as seed 0 (an out-of-range cast).
  expect_errors_then_served(
      serve_then_probe(
          {request_line("h", "{\"seed\":1e30}"),
           request_line("e", "{\"seed\":18446744073709551616}")}),
      2, "seed must be an integer in [0, 2^64)");
}

TEST(ServerHardeningTest, FractionalSeedIsAnError) {
  // Once silently truncated to seed 1.
  expect_errors_then_served(
      serve_then_probe({request_line("f", "{\"seed\":1.5}")}), 1,
      "seed must be an integer in [0, 2^64)");
}

TEST(ServerHardeningTest, NonFiniteBetaIsAnError) {
  // 1e999 parses to infinity; it was once served ok with "cost":null.
  expect_errors_then_served(
      serve_then_probe({request_line("b", "{\"beta\":1e999}"),
                        request_line("n", "{\"beta\":-1e999}")}),
      2, "beta must be a finite number");
}

TEST(ServerHardeningTest, NonFiniteGammaIsAnError) {
  expect_errors_then_served(
      serve_then_probe({request_line("g", "{\"gamma\":1e999}"),
                        request_line("n", "{\"gamma\":-1e999}")}),
      2, "gamma must be a finite number");
}

TEST(ServerHardeningTest, DeeplyNestedLineIsAnErrorNotACrash) {
  // 200k open brackets once overflowed the recursive parser's stack.
  expect_errors_then_served(
      serve_then_probe({std::string(200000, '[')}), 1, "nesting deeper");
}

TEST(ServerHardeningTest, OversizedChipIsRefusedBeforeItAllocates) {
  // Both once answered std::bad_alloc under a 3 GB address-space limit;
  // without one the kernel killed the server (routing volume grows with
  // the cube of the chip side).
  expect_errors_then_served(
      serve_then_probe(
          {request_line("g",
                        "{\"placer\":\"greedy\",\"chip\":[20000,20000]}"),
           request_line("s", "{\"simulate\":true,\"chip\":[3000,3000]}")}),
      2, "chip [");
}

TEST(ServerHardeningTest, OversizedCanvasIsRefusedBeforeItAllocates) {
  expect_errors_then_served(
      serve_then_probe(
          {request_line("a", "{\"placer\":\"sa\",\"canvas\":[3000,3000]}"),
           request_line("g",
                        "{\"placer\":\"greedy\",\"canvas\":[24,60000]}")}),
      2, "exceeds the grid side limit of 128 cells");
}

TEST(ServerHardeningTest, GridSideLimitIsInclusive) {
  const auto responses = serve_then_probe({request_line(
      "edge", "{\"placer\":\"greedy\",\"canvas\":[128,128],"
              "\"chip\":[128,128]}")});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses.front().find("ok")->as_bool())
      << responses.front().dump();
}

TEST(ServerTest, StatsEchoesTheIdWhenTheLineCarriesOne) {
  CompileServer server;
  const std::vector<std::string> input = {
      "{\"cmd\":\"stats\",\"id\":\"s1\"}", "{\"cmd\":\"stats\"}"};
  std::size_t cursor = 0;
  std::vector<std::string> output;
  server.serve(
      [&](std::string& line) {
        if (cursor >= input.size()) return false;
        line = input[cursor++];
        return true;
      },
      [&](const std::string& line) { output.push_back(line); });
  ASSERT_EQ(output.size(), 2u);
  const json::Value with_id = json::Value::parse(output[0]);
  ASSERT_NE(with_id.find("id"), nullptr) << output[0];
  EXPECT_EQ(with_id.find("id")->as_string(), "s1");
  EXPECT_TRUE(with_id.find("ok")->as_bool());
  EXPECT_NE(with_id.find("stats"), nullptr);
  EXPECT_EQ(json::Value::parse(output[1]).find("id"), nullptr) << output[1];
}

TEST(JsonTest, NestingDepthIsBounded) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(json::Value::parse(nested(json::kMaxDepth)));
  EXPECT_THROW(json::Value::parse(nested(json::kMaxDepth + 1)),
               json::JsonError);
  EXPECT_THROW(json::Value::parse("{\"a\":" + nested(json::kMaxDepth) + "}"),
               json::JsonError);
}

// --- options wire round-trip -----------------------------------------

TEST(ServerTest, PipelineOptionsJsonRoundTripsEveryWireField) {
  // Start from defaults and mutate only wire-surface fields; the
  // options fingerprint (which sees every compile-relevant field) then
  // proves emit -> parse loses nothing the wire can carry.
  PipelineOptions options;
  options.seed = 12345;
  options.placer = "two-stage";
  options.router = "negotiated";
  options.placer_context.canvas_width = 28;
  options.placer_context.canvas_height = 26;
  options.chip_width = 20;
  options.chip_height = 18;
  options.placer_context.defects = {Point{3, 4}, Point{5, 6}};
  options.placer_context.weights.gamma = 0.02;
  options.placer_context.weights.beta = 0.5;
  options.placer_context.annealing.initial_temperature = 1000.0;
  options.placer_context.annealing.cooling_rate = 0.8;
  options.placer_context.annealing.iterations_per_module = 60;
  options.placer_context.annealing.min_temperature = 0.25;
  options.feedback_rounds = 2;
  options.deadline_s = 1.5;
  options.plan_droplet_routes = false;
  options.routing.persist_congestion_history = true;
  options.simulate = true;
  options.fault_plan.faults.push_back(PlannedFault{Point{7, 8}, 25.0, -1});
  options.fault_plan.faults.push_back(PlannedFault{Point{2, 9}, 40.5, -1});
  options.recovery.deadline_s = 2.5;
  options.recovery.max_cycles = 3;
  options.evaluate_fault_tolerance = false;
  options.binding_policy = BindingPolicy::kSmallest;

  PipelineOptions parsed;
  parse_pipeline_options(pipeline_options_to_json(options), parsed);
  EXPECT_EQ(options_fingerprint(parsed), options_fingerprint(options));
  EXPECT_EQ(parsed.seed, options.seed);
  EXPECT_EQ(parsed.placer, options.placer);
  EXPECT_EQ(parsed.placer_context.defects.size(), 2u);
  EXPECT_EQ(parsed.binding_policy, options.binding_policy);
  ASSERT_EQ(parsed.fault_plan.faults.size(), 2u);
  EXPECT_EQ(parsed.fault_plan.faults[0].cell, (Point{7, 8}));
  EXPECT_EQ(parsed.fault_plan.faults[1].time_s, 40.5);
  EXPECT_EQ(parsed.recovery.deadline_s, 2.5);
  EXPECT_EQ(parsed.recovery.max_cycles, 3);

  // The dump itself parses as one JSON line (the batch handshake).
  const std::string line = pipeline_options_to_json(options).dump();
  PipelineOptions reparsed;
  parse_pipeline_options(json::Value::parse(line), reparsed);
  EXPECT_EQ(options_fingerprint(reparsed), options_fingerprint(options));
}

TEST(ServerTest, FaultPlanRequestCarriesRecoveryTelemetry) {
  CompileServer server;

  // Compile clean first to learn where module 0 lands; the response must
  // not carry a recovery block.
  json::Value clean_doc;
  clean_doc.set("id", std::string("clean"));
  clean_doc.set("assay", assay_to_string(pcr_mixing_assay()));
  json::Value clean_options;
  clean_options.set("placer", std::string("greedy"));
  clean_options.set("simulate", true);
  clean_options.set("chip", json::Value(json::Value::Array{
                                json::Value(20), json::Value(20)}));
  clean_doc.set("options", std::move(clean_options));
  CompileRequest clean_request = server.parse_request(clean_doc.dump());
  clean_request.use_cache = false;
  const CompileResponse clean = server.service().compile(clean_request);
  ASSERT_TRUE(clean.ok) << clean.error;
  const json::Value clean_line =
      json::Value::parse(CompileServer::render_response(clean));
  EXPECT_EQ(clean_line.find("result")->find("recovery"), nullptr);

  // Same compile with a fault planned mid-run under module 0.
  const Rect fp = clean.result->placement.placement.module(0).footprint();
  const ScheduledModule& sm = clean.result->schedule.module(0);
  json::Value doc;
  doc.set("id", std::string("faulty"));
  doc.set("assay", assay_to_string(pcr_mixing_assay()));
  json::Value options;
  options.set("placer", std::string("greedy"));
  options.set("simulate", true);
  options.set("chip", json::Value(json::Value::Array{json::Value(20),
                                                     json::Value(20)}));
  json::Value::Array fault;
  fault.push_back(json::Value(0.5 * (sm.start_s + sm.end_s)));
  fault.push_back(json::Value(fp.x + fp.width / 2));
  fault.push_back(json::Value(fp.y + fp.height / 2));
  json::Value::Array plan;
  plan.push_back(json::Value(std::move(fault)));
  options.set("fault_plan", json::Value(std::move(plan)));
  doc.set("options", std::move(options));
  CompileRequest request = server.parse_request(doc.dump());
  request.use_cache = false;
  ASSERT_EQ(request.options.fault_plan.faults.size(), 1u);

  const CompileResponse response = server.service().compile(request);
  ASSERT_TRUE(response.ok) << response.error;
  const json::Value line =
      json::Value::parse(CompileServer::render_response(response));
  const json::Value* recovery = line.find("result")->find("recovery");
  ASSERT_NE(recovery, nullptr);
  EXPECT_EQ(recovery->find("faults")->as_number(), 1.0);
  EXPECT_TRUE(recovery->find("recovered")->as_bool());
  EXPECT_TRUE(recovery->find("completed")->as_bool());
  EXPECT_GT(recovery->find("time_lost_s")->as_number(), 0.0);
  EXPECT_FALSE(recovery->find("attempts")->as_array().empty());
  EXPECT_GE(recovery->find("cycles")->as_number(), 1.0);
}

// --- cache persistence ------------------------------------------------

TEST(CompileCachePersistTest, SaveLoadRoundTripsTheResponseSurface) {
  const std::string path =
      testing::TempDir() + "dmfb_cache_roundtrip.txt";
  const AssayCase assay = pcr_mixing_assay();
  PipelineOptions options = fast_options();
  options.seed = 7;
  const std::uint64_t assay_fp = assay_fingerprint(assay);
  const std::uint64_t options_fp = options_fingerprint(options);

  auto result = std::make_shared<PipelineResult>(
      SynthesisPipeline(options).run(assay));
  const std::uint64_t signature = schedule_signature(result->schedule);

  CompileCache cache;
  cache.store(assay_fp, options_fp, signature, result, /*links=*/{},
              /*congestion=*/nullptr);
  ASSERT_TRUE(cache.save(path));

  CompileCache loaded;
  EXPECT_EQ(loaded.load(path), 1u);
  EXPECT_EQ(loaded.stats().entries, 1);
  const auto hit = loaded.lookup(assay_fp, options_fp, signature).exact;
  ASSERT_NE(hit, nullptr);

  // Every persisted field round-trips exactly (doubles by bit pattern).
  EXPECT_EQ(hit->assay_name, result->assay_name);
  EXPECT_EQ(hit->seed, result->seed);
  EXPECT_EQ(hit->ok, result->ok);
  EXPECT_EQ(hit->peak_concurrent_cells, result->peak_concurrent_cells);
  EXPECT_EQ(hit->placement.cost.area_cells,
            result->placement.cost.area_cells);
  EXPECT_EQ(hit->placement.cost.value, result->placement.cost.value);
  EXPECT_EQ(hit->fti.covered_cells, result->fti.covered_cells);
  EXPECT_EQ(hit->fti.total_cells, result->fti.total_cells);
  EXPECT_EQ(hit->fti.fti(), result->fti.fti());
  EXPECT_EQ(hit->transport_makespan_s, result->transport_makespan_s);
  EXPECT_EQ(hit->routes.success, result->routes.success);
  EXPECT_EQ(hit->routes.total_steps, result->routes.total_steps);
  EXPECT_EQ(hit->selected_round, result->selected_round);
  EXPECT_EQ(hit->feedback_history.size(), result->feedback_history.size());
  EXPECT_EQ(placement_to_string(hit->placement.placement),
            placement_to_string(result->placement.placement));
  EXPECT_EQ(hit->placement.placement.canvas_width(),
            result->placement.placement.canvas_width());

  // Loaded placements register as the layout's warm placement, so
  // cross-process warm starts work from disk: a different assay with
  // the same structure warm-hits.
  AssayCase variant = renamed_pcr();
  const auto warm =
      loaded.lookup(assay_fingerprint(variant), options_fp, signature);
  EXPECT_EQ(warm.exact, nullptr);
  ASSERT_NE(warm.warm_placement, nullptr);
  EXPECT_EQ(placement_to_string(*warm.warm_placement),
            placement_to_string(result->placement.placement));

  std::remove(path.c_str());
}

TEST(CompileCachePersistTest, CorruptOrMissingFilesLoadAsCold) {
  const std::string dir = testing::TempDir();

  CompileCache cache;
  EXPECT_EQ(cache.load(dir + "dmfb_cache_does_not_exist.txt"), 0u);

  // Garbage header: cold, not fatal.
  const std::string garbage = dir + "dmfb_cache_garbage.txt";
  {
    std::ofstream out(garbage, std::ios::trunc);
    out << "not a cache at all\nentry 1 2 3\n";
  }
  EXPECT_EQ(cache.load(garbage), 0u);

  // A valid entry followed by trailing garbage: the good prefix loads.
  const AssayCase assay = pcr_mixing_assay();
  PipelineOptions options = fast_options();
  options.seed = 11;
  auto result = std::make_shared<PipelineResult>(
      SynthesisPipeline(options).run(assay));
  CompileCache source;
  source.store(assay_fingerprint(assay), options_fingerprint(options),
               schedule_signature(result->schedule), result, {}, nullptr);
  const std::string torn = dir + "dmfb_cache_torn.txt";
  ASSERT_TRUE(source.save(torn));
  {
    std::ofstream out(torn, std::ios::app);
    out << "entry 9 9\nhalf a line without";
  }
  CompileCache tolerant;
  EXPECT_EQ(tolerant.load(torn), 1u);

  // The same file truncated mid-entry: whatever whole entries precede
  // the cut survive, the torn tail is dropped, nothing throws.
  std::ifstream in(torn, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::string truncated = dir + "dmfb_cache_truncated.txt";
  {
    std::ofstream out(truncated, std::ios::trunc | std::ios::binary);
    out << bytes.substr(0, bytes.size() / 2);
  }
  CompileCache half;
  EXPECT_LE(half.load(truncated), 1u);

  std::remove(garbage.c_str());
  std::remove(torn.c_str());
  std::remove(truncated.c_str());
}

}  // namespace
}  // namespace dmfb
