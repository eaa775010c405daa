// dmfb_batch — multi-process sharded batch synthesis with
// checkpoint/restart (service/batch.h).
//
//   dmfb_batch --manifest assays.jsonl --results out.jsonl
//       [--ledger out.jsonl.ledger] [--workers N] [--resume]
//       [--cache cache.txt] [--seed S] [--options '{"placer":"sa",...}']
//       [--max-respawns N] [--chaos-kill-after N]
//
// The manifest is one JSON object per line ({"id":...,"assay":...,
// "options":{...}}); --options sets the batch's base options (the
// compile server's option dialect), --seed the master seed every item
// seed derives from. The driver forks --workers copies of itself (the
// --worker mode below), shards the manifest across them, and each
// worker appends one JSON result line per item to --results plus a
// checkpoint line to the ledger. Kill the whole thing at any point and
// rerun with --resume: completed items are skipped, the rest recompute
// deterministically, and the final results file holds the same lines an
// uninterrupted run would have produced. With --cache, exact-hit items
// are served from the cache file and fresh compiles are merged back in.
// --seed takes an unsigned 64-bit integer (decimal, 0x hex or 0 octal);
// any other text is a usage error.
//
// A worker that dies mid-run (crash, OOM kill) is respawned by the
// parent with exactly its unreported items, up to --max-respawns times
// per shard (default 2) — the batch survives without a restart.
// --chaos-kill-after N is the fault-injection hook: the parent SIGKILLs
// the first worker after its N-th completed item (tests/bench only).
//
// On success prints one JSON summary line and exits 0; a failed worker
// or an incomplete shard exits 1.
//
//   dmfb_batch --worker --manifest M --results R --ledger L --shard K
//       [--cache C]
//
// is the internal worker mode (base options + item indices on stdin).
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include <unistd.h>

#include "io/json.h"
#include "service/batch.h"
#include "service/server.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --manifest FILE --results FILE [--ledger FILE]\n"
               "          [--workers N] [--resume] [--cache FILE]\n"
               "          [--seed S] [--options JSON] [--max-respawns N]\n"
               "          [--chaos-kill-after N]\n",
               argv0);
  return 2;
}

/// The path this very binary was exec'd from, for re-exec'ing workers.
std::string self_executable(const char* argv0) {
  char buffer[4096];
  const ssize_t got =
      ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (got > 0) return std::string(buffer, static_cast<std::size_t>(got));
  return argv0;
}

}  // namespace

int main(int argc, char** argv) {
  bool worker = false;
  bool resume = false;
  std::string manifest, results, ledger, cache, options_json;
  int workers = 1;
  int shard = 0;
  int max_respawns = 2;
  int chaos_kill_after = 0;
  std::uint64_t seed = 0;
  bool seed_set = false;

  for (int i = 1; i < argc; ++i) {
    const auto flag = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0;
    };
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag("--worker")) {
      worker = true;
    } else if (flag("--resume")) {
      resume = true;
    } else if (flag("--manifest")) {
      manifest = value();
    } else if (flag("--results")) {
      results = value();
    } else if (flag("--ledger")) {
      ledger = value();
    } else if (flag("--cache")) {
      cache = value();
    } else if (flag("--options")) {
      options_json = value();
    } else if (flag("--workers")) {
      workers = std::atoi(value());
    } else if (flag("--shard")) {
      shard = std::atoi(value());
    } else if (flag("--max-respawns")) {
      max_respawns = std::atoi(value());
    } else if (flag("--chaos-kill-after")) {
      chaos_kill_after = std::atoi(value());
    } else if (flag("--seed")) {
      // strtoull skips blanks, wraps "-1" to 2^64 - 1 and stops at junk,
      // so demand a leading digit, full consumption and no overflow.
      const char* text = value();
      char* end = nullptr;
      errno = 0;
      seed = std::strtoull(text, &end, 0);
      if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
          *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr,
                     "--seed must be an unsigned 64-bit integer, got "
                     "\"%s\"\n",
                     text);
        return 2;
      }
      seed_set = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (manifest.empty() || results.empty()) return usage(argv[0]);

  if (worker) {
    dmfb::BatchWorkerConfig config;
    config.manifest_path = manifest;
    config.results_path = results;
    config.ledger_path = ledger.empty() ? results + ".ledger" : ledger;
    config.cache_path = cache;
    config.shard = shard;
    return dmfb::batch_worker_main(config, std::cin, std::cout);
  }

  try {
    dmfb::BatchOptions options;
    options.manifest_path = manifest;
    options.results_path = results;
    options.ledger_path = ledger;
    options.cache_path = cache;
    options.workers = workers;
    options.resume = resume;
    options.max_respawns = max_respawns;
    options.chaos_kill_after = chaos_kill_after;
    options.worker_exe = self_executable(argv[0]);
    if (!options_json.empty()) {
      dmfb::parse_pipeline_options(dmfb::json::Value::parse(options_json),
                                   options.base);
    }
    if (seed_set) options.base.seed = seed;

    const dmfb::BatchSummary summary = dmfb::run_batch(options);

    dmfb::json::Value doc;
    doc.set("batch", "dmfb_batch");
    doc.set("items", static_cast<double>(summary.items));
    doc.set("skipped", static_cast<double>(summary.skipped));
    doc.set("completed", static_cast<double>(summary.completed));
    doc.set("failed", static_cast<double>(summary.failed));
    doc.set("exact_hits", static_cast<double>(summary.exact_hits));
    doc.set("workers", summary.workers);
    doc.set("respawns", static_cast<double>(summary.respawns));
    doc.set("wall_s", summary.wall_s);
    doc.set("critical_path_s", summary.critical_path_s);
    doc.set("ok", summary.ok);
    std::cout << doc.dump() << std::endl;
    return summary.ok ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dmfb_batch: %s\n", error.what());
    return 1;
  }
}
