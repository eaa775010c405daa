// bench_service — the synthesis service's headline artifact: request
// latency and throughput under mixed traffic against the content-hashed
// placement cache (service/).
//
// Phase 1 drives CompileService in-process with three traffic classes —
// cold misses (unique assays), exact repeats (cache hits) and near-misses
// (label-perturbed assays on a known layout, which warm-start from the
// cached placement) — and reports per-class p50/p99 latency. Every
// near-miss is also compiled cold on a cache-less service as the
// reference its warm start must beat. Phase 2 replays the whole request
// mix as JSON lines through CompileServer::serve's worker pool and
// reports requests/sec.
//
// One JSON line per traffic class plus one for the mixed replay:
//   {"bench":"service","class":"miss","requests":...,"p50_ms":...,
//    "p99_ms":...,"mean_ms":...,"seed":...}
//   {"bench":"service","class":"mixed","requests":...,"workers":...,
//    "wall_seconds":...,"requests_per_second":...,"seed":...}
//
// Shape checks (non-zero exit on violation):
//   - exact hits are >= 10x faster than cold compiles of the same request,
//     each side's mean taken over a batch of repeats that runs >= 100 ms;
//   - every near-miss warm-starts, lands at equal-or-better placement
//     cost than its cold reference, and the class beats cold on p50
//     wall-clock.
//
// `--smoke` trims the assay set and anneal depth for CI.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "assay/random_assay.h"
#include "io/assay_format.h"
#include "io/json.h"
#include "service/server.h"
#include "util/table.h"

using namespace dmfb;

namespace {

/// The bench's compile options: classic feed-forward flow, anneal depth
/// scaled to the mode (the cache's speedup is the subject, not absolute
/// anneal quality).
PipelineOptions bench_options(bool smoke) {
  PipelineOptions options;
  options.seed = bench::kBenchSeed;
  options.placer_context = bench::paper_context();
  if (smoke) {
    options.placer_context.annealing.initial_temperature = 1000.0;
    options.placer_context.annealing.cooling_rate = 0.8;
    options.placer_context.annealing.iterations_per_module = 80;
  } else {
    options.placer_context.annealing.iterations_per_module = 150;
  }
  return options;
}

std::vector<AssayCase> base_assays(bool smoke) {
  const ModuleLibrary library = ModuleLibrary::standard();
  std::vector<AssayCase> assays;
  assays.push_back(pcr_mixing_assay());
  assays.push_back(permutation_assay(4, 2, library, 11));
  if (!smoke) {
    assays.push_back(permutation_assay(5, 2, library, 23));
    RandomAssayParams params;
    params.mix_operations = 8;
    assays.push_back(random_assay(params, library, 7));
  }
  return assays;
}

/// A near-miss of `base`: same graph structure and binding, perturbed
/// assay name and mix labels — a different cache key (the canonical form
/// sees names and labels) whose schedule signature still matches, so the
/// service warm-starts it from `base`'s cached placement.
AssayCase perturbed(const AssayCase& base, int variant) {
  const std::string tag = "-v" + std::to_string(variant);
  SequencingGraph graph(base.graph.name());
  for (const auto& op : base.graph.operations()) {
    const bool rename = op.type == OperationType::kMix;
    graph.add_operation(op.type, rename ? op.label + tag : op.label,
                        op.reagent);
  }
  for (const auto& op : base.graph.operations()) {
    for (const OperationId succ : base.graph.successors(op.id)) {
      graph.add_dependency(op.id, succ);
    }
  }
  AssayCase assay = base;
  assay.name = base.name + tag;
  assay.graph = std::move(graph);
  return assay;
}

struct ClassStats {
  std::vector<double> wall_ms;

  void record(double seconds) { wall_ms.push_back(seconds * 1000.0); }
  /// Nearest-rank percentile (q in [0,1]) over the recorded latencies.
  double percentile(double q) const {
    if (wall_ms.empty()) return 0.0;
    std::vector<double> sorted = wall_ms;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
  }
  double mean() const {
    if (wall_ms.empty()) return 0.0;
    double sum = 0.0;
    for (const double ms : wall_ms) sum += ms;
    return sum / static_cast<double>(wall_ms.size());
  }
};

/// A batch of repeats of one call, timed as a whole.
struct BatchTiming {
  int runs = 0;
  double seconds = 0.0;

  double mean_ms() const { return seconds * 1000.0 / runs; }
};

/// Repeats `call` until the batch has run for at least 100 ms, so the
/// mean is read off a wall time long enough to be stable.
template <typename Call>
BatchTiming time_batch(const Call& call) {
  BatchTiming timing;
  const auto start = std::chrono::steady_clock::now();
  do {
    call();
    ++timing.runs;
    timing.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  } while (timing.seconds < 0.1);
  return timing;
}

void emit_class_line(const std::string& traffic_class,
                     const ClassStats& stats) {
  std::cout << "{\"bench\":\"service\",\"class\":\"" << traffic_class
            << "\",\"requests\":" << stats.wall_ms.size()
            << ",\"p50_ms\":" << stats.percentile(0.50)
            << ",\"p99_ms\":" << stats.percentile(0.99)
            << ",\"mean_ms\":" << stats.mean()
            << ",\"seed\":" << bench::kBenchSeed << "}\n";
}

std::string request_line(const std::string& id, const AssayCase& assay,
                         bool smoke) {
  json::Value options;
  if (smoke) {
    json::Value annealing;
    annealing.set("T0", 1000.0);
    annealing.set("alpha", 0.8);
    annealing.set("iterations_per_module", 80);
    options.set("annealing", std::move(annealing));
  } else {
    json::Value annealing;
    annealing.set("iterations_per_module", 150);
    options.set("annealing", std::move(annealing));
  }
  options.set("seed", static_cast<long long>(bench::kBenchSeed));
  json::Value doc;
  doc.set("id", id);
  doc.set("assay", assay_to_string(assay));
  doc.set("options", std::move(options));
  return doc.dump();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_flag(argc, argv);
  bench::banner("Synthesis service — compile cache latency and throughput");

  const std::vector<AssayCase> bases = base_assays(smoke);
  const int exact_repeats = smoke ? 2 : 3;
  const int variants = smoke ? 1 : 2;
  std::cout << bases.size() << " base assays, " << exact_repeats
            << " exact repeats and " << variants
            << " near-miss variants each\n";

  bool shape_ok = true;
  CompileService service;
  CompileService cold_service;  // cache bypass: the warm starts' reference
  ClassStats miss, exact, warm, cold;
  std::vector<std::pair<std::string, std::string>> lines;  // (id, request)

  const auto expect_source = [&shape_ok](const CompileResponse& response,
                                         CompileSource source) {
    if (!response.ok) {
      std::cout << "request " << response.id << " FAILED: " << response.error
                << '\n';
      shape_ok = false;
      return false;
    }
    if (response.source != source) {
      std::cout << "request " << response.id << ": expected "
                << to_string(source) << ", got " << to_string(response.source)
                << '\n';
      shape_ok = false;
      return false;
    }
    return true;
  };

  for (const AssayCase& base : bases) {
    CompileRequest request;
    request.id = base.name;
    request.assay = base;
    request.options = bench_options(smoke);
    lines.emplace_back(request.id, request_line(request.id, base, smoke));

    const CompileResponse first = service.compile(request);
    if (expect_source(first, CompileSource::kMiss)) {
      miss.record(first.wall_seconds);
    }
    for (int repeat = 0; repeat < exact_repeats; ++repeat) {
      const CompileResponse hit = service.compile(request);
      if (expect_source(hit, CompileSource::kExactHit)) {
        exact.record(hit.wall_seconds);
      }
      lines.emplace_back(request.id, lines.back().second);
    }

    for (int variant = 0; variant < variants; ++variant) {
      CompileRequest near_miss = request;
      near_miss.assay = perturbed(base, variant);
      near_miss.id = near_miss.assay.name;
      lines.emplace_back(near_miss.id,
                         request_line(near_miss.id, near_miss.assay, smoke));

      const CompileResponse warmed = service.compile(near_miss);
      CompileRequest cold_request = near_miss;
      cold_request.use_cache = false;
      const CompileResponse reference = cold_service.compile(cold_request);
      if (!expect_source(warmed, CompileSource::kWarmStart) ||
          !expect_source(reference, CompileSource::kMiss)) {
        continue;
      }
      warm.record(warmed.wall_seconds);
      cold.record(reference.wall_seconds);
      // Equal-or-better cost: the warm anneal seeds from the cached
      // placement and never records a worse state than its seed.
      if (warmed.result->placement.cost.value >
          reference.result->placement.cost.value + 1e-9) {
        std::cout << near_miss.id << ": warm cost "
                  << warmed.result->placement.cost.value
                  << " WORSE than cold "
                  << reference.result->placement.cost.value << '\n';
        shape_ok = false;
      }
    }
  }

  // Portfolio warm-start seam: a structure-matched warm start seeds
  // replica 0 of the portfolio only (replicas 1..N-1 keep their fresh
  // split-seeded chains), so the cached placement's cost bounds the warm
  // incumbent from above and a warm-started portfolio compile must land
  // at equal-or-better cost than the same request compiled cold.
  {
    CompileRequest request;
    request.assay = bases.front();
    request.id = request.assay.name + "-portfolio";
    request.options = bench_options(smoke);
    request.options.placer = "portfolio";
    // Fixed replica count: the result is a function of (seed, N, K), so
    // the shape check is reproducible on any machine.
    request.options.placer_context.portfolio.replicas = 2;

    CompileService portfolio_service;
    const CompileResponse base_compile = portfolio_service.compile(request);
    CompileRequest near_miss = request;
    near_miss.assay = perturbed(bases.front(), 0);
    near_miss.assay.name += "-portfolio";
    near_miss.id = near_miss.assay.name;
    const CompileResponse warmed = portfolio_service.compile(near_miss);
    CompileRequest cold_request = near_miss;
    cold_request.use_cache = false;
    const CompileResponse reference = cold_service.compile(cold_request);
    if (expect_source(base_compile, CompileSource::kMiss) &&
        expect_source(warmed, CompileSource::kWarmStart) &&
        expect_source(reference, CompileSource::kMiss)) {
      const double warm_cost = warmed.result->placement.cost.value;
      const double cold_cost = reference.result->placement.cost.value;
      std::cout << "portfolio warm-start: warm cost " << warm_cost
                << " vs cold cost " << cold_cost << '\n';
      std::cout << "{\"bench\":\"service\",\"class\":\"portfolio-warm\","
                << "\"warm_cost\":" << warm_cost << ",\"cold_cost\":"
                << cold_cost << ",\"seed\":" << bench::kBenchSeed << "}\n";
      if (warm_cost > cold_cost + 1e-9) {
        std::cout << near_miss.id << ": warm-started portfolio cost "
                  << warm_cost << " WORSE than cold portfolio cost "
                  << cold_cost << '\n';
        shape_ok = false;
      }
    }
  }

  TextTable table("Service latency by traffic class (ms)");
  table.set_header({"class", "requests", "p50", "p99", "mean"});
  const auto add_class = [&table](const std::string& name,
                                  const ClassStats& stats) {
    table.add_row({name, std::to_string(stats.wall_ms.size()),
                   format_double(stats.percentile(0.50), 3),
                   format_double(stats.percentile(0.99), 3),
                   format_double(stats.mean(), 3)});
  };
  add_class("miss (cold)", miss);
  add_class("exact-hit", exact);
  add_class("warm-start", warm);
  add_class("cold reference", cold);
  table.print(std::cout);

  emit_class_line("miss", miss);
  emit_class_line("exact-hit", exact);
  emit_class_line("warm-start", warm);
  emit_class_line("cold-reference", cold);

  // Shape: exact hits only hash and schedule — they must sit far under
  // the cold compiles they replace. One hit takes well under a
  // millisecond, so both sides are timed as batches of repeats that run
  // >= 100 ms each, on the first base assay and a cache of its own.
  {
    CompileRequest request;
    request.id = bases.front().name;
    request.assay = bases.front();
    request.options = bench_options(smoke);
    CompileRequest cold_request = request;
    cold_request.use_cache = false;
    CompileService gate_service;
    expect_source(gate_service.compile(request), CompileSource::kMiss);
    const BatchTiming hits = time_batch([&] {
      expect_source(gate_service.compile(request), CompileSource::kExactHit);
    });
    const BatchTiming colds = time_batch([&] {
      expect_source(cold_service.compile(cold_request), CompileSource::kMiss);
    });
    std::cout << "exact-hit gate: " << hits.runs << " hits at "
              << format_double(hits.mean_ms(), 4) << " ms mean vs "
              << colds.runs << " cold compiles at "
              << format_double(colds.mean_ms(), 3) << " ms mean\n";
    std::cout << "{\"bench\":\"service\",\"class\":\"exact-hit-gate\","
              << "\"hit_runs\":" << hits.runs << ",\"hit_mean_ms\":"
              << hits.mean_ms() << ",\"cold_runs\":" << colds.runs
              << ",\"cold_mean_ms\":" << colds.mean_ms()
              << ",\"seed\":" << bench::kBenchSeed << "}\n";
    if (hits.mean_ms() * 10.0 > colds.mean_ms()) {
      std::cout << "exact-hit mean NOT >=10x faster than cold mean\n";
      shape_ok = false;
    }
  }
  // Shape: the short refinement anneal must buy wall-clock, not just tie.
  if (!warm.wall_ms.empty() &&
      warm.percentile(0.50) >= cold.percentile(0.50)) {
    std::cout << "warm-start p50 " << warm.percentile(0.50)
              << " ms not faster than cold p50 " << cold.percentile(0.50)
              << " ms\n";
    shape_ok = false;
  }

  // Phase 2: the same mix as wire traffic through the server's worker
  // pool (fresh cache, so first occurrences miss and repeats hit).
  ServerOptions server_options;
  server_options.workers =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  CompileServer server(server_options);
  std::size_t cursor = 0;
  std::size_t answered = 0;
  const auto start = std::chrono::steady_clock::now();
  server.serve(
      [&](std::string& line) {
        if (cursor >= lines.size()) return false;
        line = lines[cursor++].second;
        return true;
      },
      [&](const std::string&) { ++answered; });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double rps = answered / std::max(wall, 1e-9);
  std::cout << "\nmixed replay: " << answered << " responses from "
            << lines.size() << " requests over " << server_options.workers
            << " workers in " << format_double(wall, 3) << " s ("
            << format_double(rps, 1) << " req/s)\n";
  std::cout << "{\"bench\":\"service\",\"class\":\"mixed\",\"requests\":"
            << answered << ",\"workers\":" << server_options.workers
            << ",\"wall_seconds\":" << wall
            << ",\"requests_per_second\":" << rps
            << ",\"seed\":" << bench::kBenchSeed << "}\n";
  if (answered != lines.size()) {
    std::cout << "mixed replay LOST responses\n";
    shape_ok = false;
  }

  const CacheStats stats = service.cache_stats();
  std::cout << "cache: " << stats.exact_hits << " exact hits, "
            << stats.warm_hits << " warm hits, " << stats.misses
            << " misses, " << stats.entries << " entries\n";

  std::cout << "\nshape check (hits >=10x, warm faster at <= cost): "
            << (shape_ok ? "OK" : "VIOLATED") << '\n';
  return shape_ok ? 0 : 1;
}
