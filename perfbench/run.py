#!/usr/bin/env python3
"""End-to-end benchmark of the synthesis service (dmfb_serve).

Usage, from the repository root:

    python3 perfbench/run.py --workload cold_area --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload cold_area --self-test

Each run builds the repository from source (perfbench/CMakeLists.txt, into
$CARGO_TARGET_DIR or .bench_build), generates the workload's request
corpus from --seed with perfbench_tool, starts one dmfb_serve process and
drives it over its stdin/stdout JSON-line protocol as a closed loop: every
client sends its next request only after reading the previous reply.
Every response is checked by this file's own code (geometry, area, FTI
range, exact-hit byte identity, cache source), and the last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
serves the same stream, then replays its first quarter in-process through
perfbench_tool, which records spans around each layer's public entry
points, and reports the per-layer metrics instead. --self-test feeds the
checker corrupted responses and exits non-zero unless every corruption is
counted as an error.
"""

import argparse
import collections
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A run must end within 180 s; past this the server is killed and the run
# fails without a result.
WATCHDOG_S = 170.0
# Set-up repeats: at least three, more while they fit in two seconds, so
# that a set-up of a few milliseconds still gets a steady median.
SETUP_REPEATS = (3, 15)
SETUP_BUDGET_S = 2.0
# --trace 1 replays the first quarter of the served stream (at least this
# many requests), twice: untraced, then traced.
TRACE_MIN_REQUESTS = 60

# clients: concurrent closed-loop callers (and server workers).
# min_requests: the run continues past --seconds until this many requests
#   were issued, so p90 has at least ten samples beyond it; the first
#   min_requests requests are also the fixed set the quality metrics
#   average over, which makes those repeat exactly for a seed.
# corpus_rate: requests generated per second of --seconds; a run that
#   exhausts its corpus ends early.
WORKLOADS = {
    "cold_area": {"clients": 2, "min_requests": 240, "corpus_rate": 40},
    "cold_fti": {"clients": 2, "min_requests": 120, "corpus_rate": 20},
    "cache_replay": {"clients": 1, "min_requests": 1000, "base": 12},
    "fluidic_recovery": {"clients": 2, "min_requests": 600, "corpus_rate": 100},
}

# cache_replay: in every run of four stream requests, three repeat a base
# request exactly and one is a label-perturbed near miss.
REPLAY_PATTERN = ("hit", "hit", "hit", "near")
BASE_CORPUS_SEED = 2005

LAYERS = ("io", "service", "assay", "core", "sim")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures and builds perfbench (incremental after the first run)."""
    for needed in ("CMakeLists.txt", "src/service/server.h", "tools/dmfb_serve.cpp"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found: run from a checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "perfbench-build.log"
    with open(log, "w") as sink:
        for command in (
            ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(out), "-j", "4"],
        ):
            if subprocess.run(command, stdout=sink, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed", 1)
    return out / "dmfb" / "dmfb_serve", out / "perfbench_tool"


# --- corpus -----------------------------------------------------------


class Item:
    """One request: the wire line plus what the checks need to know."""

    def __init__(self, bench, line, kind="miss", ref=None):
        self.id = response_id(line)
        self.bench = bench
        self.modules = bench["modules"]
        self.faulted = bench["faulted"]
        self.kind = kind  # the cache source the response must report
        self.ref = ref  # the base Item a hit or near miss derives from
        self.line = line
        self.index = None  # position in the generated corpus


def generate(tool, workload, seed, seconds):
    """The corpus: (base items seeded into the cache, timed stream)."""
    spec = WORKLOADS[workload]
    count = spec.get("base") or max(2 * spec["min_requests"], spec["corpus_rate"] * seconds)
    # cache_replay's base corpus is fixed: the workload measures the cache,
    # and a fixed catalogue keeps its quality figures comparable across
    # seeds. Its stream is drawn from --seed.
    corpus_seed = BASE_CORPUS_SEED if workload == "cache_replay" else seed
    out = subprocess.run([str(tool), "gen", workload, str(corpus_seed), str(count)],
                         capture_output=True, check=True).stdout.splitlines(keepends=True)
    items = [Item(json.loads(bench), line) for bench, line in zip(out[::2], out[1::2])]
    for index, item in enumerate(items):
        item.index = index
    if workload != "cache_replay":
        return [], items
    return items, replay_stream(items, seed, count=max(spec["min_requests"], 600 * seconds))


def perturb_labels(assay, tag):
    return re.sub(r"(?m)^(op \d+ \S+ )(\S+)", lambda m: f"{m.group(1)}{m.group(2)}~{tag}", assay)


def replay_stream(base, seed, count):
    """Exact repeats of base requests interleaved with near misses: the same
    request with every operation label changed, so the assay fingerprint
    misses while the layout and schedule structure still match. Hits and
    near misses each walk the base corpus in seeded shuffled rounds, so any
    stretch of the stream holds every base request about equally often."""
    rng = random.Random(seed)
    rounds = {"hit": [], "near": []}
    docs = [json.loads(item.line) for item in base]
    stream = []
    for k in range(count):
        kind = REPLAY_PATTERN[k % len(REPLAY_PATTERN)]
        if not rounds[kind]:
            rounds[kind] = rng.sample(range(len(base)), len(base))
        ref = rounds[kind].pop()
        new_id = f"replay-{k}"
        if kind == "hit":
            line = base[ref].line.replace(compact(base[ref].id), compact(new_id), 1)
            stream.append(Item(base[ref].bench, line, "exact-hit", base[ref]))
        else:
            doc = dict(docs[ref], id=new_id, assay=perturb_labels(docs[ref]["assay"], k))
            stream.append(Item(base[ref].bench, compact(doc) + b"\n", "warm-start", base[ref]))
    return stream


# --- server transport -------------------------------------------------


class Server:
    """One dmfb_serve process on pipes."""

    def __init__(self, exe, workers):
        self.proc = subprocess.Popen([str(exe), "--workers", str(workers)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, cwd=str(build_dir()))

    def send(self, line):
        self.proc.stdin.write(line)
        self.proc.stdin.flush()

    def recv(self):
        return self.proc.stdout.readline()

    def ready(self):
        self.send(b'{"cmd":"stats"}\n')
        if b'"stats"' not in self.recv():
            raise RuntimeError("dmfb_serve did not answer the stats probe")

    def close(self):
        """Ends the server (EOF drains its queue) and reaps it."""
        if self.proc.returncode is not None:
            return
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        self.proc.wait()
        self.proc.stdout.close()

    def peak_rss_mb(self):
        """The server's peak resident set so far (VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.close()


def response_id(line):
    end = line.index(b'"', 7)
    return line[7:end].decode()


def serve_sequentially(server, items):
    out = []
    for item in items:
        server.send(item.line)
        out.append(server.recv())
    return out


def drive(server, items, clients, seconds, min_requests):
    """The timed closed loop. Returns (records, wall seconds, peak RSS in
    MB), one record (index, sent, received, line) per completed request.
    The peak RSS is read when the min_requests-th response arrives: the
    cache grows with every miss, so later readings would grow with speed."""
    lock = threading.Lock()
    state = {"next": 0, "done": 0, "rss_mb": None}
    records = []
    start = time.perf_counter()

    def completed():
        state["done"] += 1
        if state["done"] == min_requests:
            state["rss_mb"] = server.peak_rss_mb()

    def take():
        with lock:
            index = state["next"]
            if index >= len(items):
                return None
            if index >= min_requests and time.perf_counter() - start >= seconds:
                return None
            state["next"] = index + 1
            return index

    if clients == 1:
        while (index := take()) is not None:
            sent = time.perf_counter()
            server.send(items[index].line)
            line = server.recv()
            records.append((index, sent, time.perf_counter(), line))
            completed()
        return records, time.perf_counter() - start, state["rss_mb"]

    slots = {}
    write_lock = threading.Lock()

    def reader():
        while line := server.recv():
            received = time.perf_counter()
            slot = slots.get(response_id(line)) if line.startswith(b'{"id":"') else None
            if slot is not None:
                slot[1], slot[2] = received, line
                slot[0].set()
        # The server is gone: release every waiting caller ("no response").
        for slot in list(slots.values()):
            if not slot[0].is_set():
                slot[1], slot[2] = time.perf_counter(), b""
                slot[0].set()

    def client():
        while (index := take()) is not None:
            slot = [threading.Event(), None, None]
            slots[items[index].id] = slot
            with write_lock:
                sent = time.perf_counter()
                server.send(items[index].line)
            slot[0].wait()
            with lock:
                records.append((index, sent, slot[1], slot[2]))
                completed()

    reading = threading.Thread(target=reader, daemon=True)
    reading.start()
    callers = [threading.Thread(target=client) for _ in range(clients)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join()
    wall = max(r[2] for r in records) - start
    server.close()
    reading.join()
    records.sort()
    return records, wall, state["rss_mb"]


# --- output checks ----------------------------------------------------


def result_body(line):
    """The response bytes from "result" on: what an exact hit must repeat."""
    return line[line.find(b'"result":'):].rstrip()


def parse_placement(text, modules):
    """(canvas width, height, {module index: (x0, y0, x1, y1)}) from the
    placement text, with footprints from the schedule; None if malformed."""
    lines = [ln.split("#")[0].split() for ln in text.splitlines()]
    try:
        if not lines or lines[0][:1] != ["placement"]:
            return None
        width, height = int(lines[0][1]), int(lines[0][2])
        rects = {}
        places = [fields for fields in lines[1:] if fields[:1] == ["place"]]
        for fields in places:
            index, x, y, rotated = (int(v) for v in fields[1:5])
            w, h, _, _ = modules[index]
            if rotated:
                w, h = h, w
            rects[index] = (x, y, x + w, y + h)
    except (ValueError, IndexError):
        return None
    if len(places) != len(modules) or sorted(rects) != list(range(len(modules))):
        return None
    return width, height, rects


def check_geometry(item, result):
    """Recomputes overlap, canvas containment and the bounding-box area from
    the placement text and the schedule's footprints."""
    errors = []
    parsed = parse_placement(result.get("placement", ""), item.modules)
    if parsed is None:
        return ["placement missing, malformed or not placing every module once"]
    width, height, rects = parsed
    for index, (x0, y0, x1, y1) in rects.items():
        if x0 < 0 or y0 < 0 or x1 > width or y1 > height:
            errors.append(f"module {index} leaves the {width}x{height} canvas")
    order = sorted(rects, key=lambda i: rects[i][0])
    for a_pos, a in enumerate(order):
        ax0, ay0, ax1, ay1 = rects[a]
        _, _, a_start, a_end = item.modules[a]
        for b in order[a_pos + 1:]:
            bx0, by0, bx1, by1 = rects[b]
            if bx0 >= ax1:
                break
            _, _, b_start, b_end = item.modules[b]
            if a_start < b_end and b_start < a_end and by0 < ay1 and ay0 < by1:
                errors.append(f"modules {a} and {b} overlap while both are live")
    xs0, ys0, xs1, ys1 = zip(*rects.values())
    area = (max(xs1) - min(xs0)) * (max(ys1) - min(ys0))
    if area != result.get("area_cells"):
        errors.append(f"area_cells {result.get('area_cells')} != bounding box {area}")
    return errors


def check_response(item, line, ref_line, memo):
    """Every reason `line` is not a correct answer to `item` (empty = correct)."""
    if not line:
        return ["no response"]
    try:
        doc = json.loads(line)
    except ValueError:
        return ["response is not JSON"]
    if doc.get("id") != item.id:
        return [f"response id {doc.get('id')!r} != {item.id!r}"]
    if doc.get("ok") is not True:
        return [f"ok:false ({doc.get('error')})"]
    errors = []
    if doc.get("source") != item.kind:
        errors.append(f"source {doc.get('source')} != expected {item.kind}")
    if item.kind == "exact-hit" and result_body(line) != result_body(ref_line):
        errors.append("exact hit differs from the response that stored it")
    result = doc.get("result", {})
    fti = result.get("fti")
    if not isinstance(fti, (int, float)) or not 0.0 <= fti <= 1.0:
        errors.append(f"fti {fti} outside [0,1]")
    body = result_body(line)
    key = (id(item.modules), body)
    if key not in memo:
        memo[key] = check_geometry(item, result)
    errors += memo[key]
    if item.faulted and "recovery" not in result:
        errors.append("fault-plan request without a recovery block")
    return errors


def compact(doc):
    return json.dumps(doc, separators=(",", ":")).encode()


def corrupted(item, line):
    """Three corrupted copies of a correct response: an overlap, a wrong
    area and an exact hit that differs from the miss that stored it."""
    doc = dict(json.loads(line), source="miss")
    result = doc["result"]
    miss = Item(item.bench, item.line)
    hit = Item(item.bench, item.line, "exact-hit", miss)
    out = []
    lines = result["placement"].splitlines()
    anchors = {int(f[1]): f[2:4] for f in (ln.split() for ln in lines) if f[:1] == ["place"]}
    live = [(a, b) for a, (_, _, a_start, a_end) in enumerate(item.modules)
            for b, (_, _, b_start, b_end) in enumerate(item.modules)
            if a < b and a_start < b_end and b_start < a_end]
    if live:
        a, b = live[0]
        moved = [" ".join(["place", str(b), *anchors[a], ln.split()[4]])
                 if ln.split()[:2] == ["place", str(b)] else ln for ln in lines]
        overlap = dict(doc, result=dict(result, placement="\n".join(moved) + "\n"))
        out.append(("overlap", miss, compact(overlap), None))
    wrong_area = dict(doc, result=dict(result, area_cells=result["area_cells"] + 1))
    out.append(("wrong area", miss, compact(wrong_area), None))
    mismatched = dict(doc, source="exact-hit", result=dict(result, cost=result["cost"] + 1))
    out.append(("mismatched hit", hit, compact(mismatched), compact(doc)))
    return out


def corruptions_counted(item, line):
    """True when the checker flags every corrupted copy of a correct line."""
    cases = corrupted(item, line)
    flagged = [bool(check_response(it, bad, ref, {})) for _, it, bad, ref in cases]
    return len(cases) == 3 and all(flagged), cases, flagged


# --- metrics ----------------------------------------------------------


def percentile(values, q):
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run):
    records, items, min_requests = run["records"], run["items"], run["min_requests"]
    latencies = [(r[2] - r[1]) * 1000.0 for r in records]
    quality = [run["docs"][i] for i in range(min_requests)]
    results = [d["result"] for d in quality if d and d.get("ok")]
    attempted = len(records)
    finished = 0
    for (index, _, _, _), doc, errors in zip(records, run["docs"], run["errors"]):
        if errors:
            continue
        recovery = doc["result"].get("recovery")
        finished += 1 if not items[index].faulted or (recovery and recovery["completed"]) else 0

    def mean(key):
        return statistics.fmean(float(r[key]) for r in results) if results else 0.0

    return {
        "latency_p50_ms": metric(percentile(latencies, 0.50), "ms"),
        "latency_p90_ms": metric(percentile(latencies, 0.90), "ms"),
        "requests_per_s": metric(attempted / run["wall"], "1/s"),
        "ok_fraction": metric(1.0 - run["failed"] / attempted, "fraction"),
        "completed_fraction": metric(finished / attempted, "fraction"),
        "area_cells_mean": metric(mean("area_cells"), "cells"),
        "fti_mean": metric(mean("fti"), "fraction"),
        "transport_makespan_s_mean": metric(mean("transport_makespan_s"), "s"),
        "routed_fraction": metric(
            sum(1 for r in results if r["routed"]) / max(1, len(quality)), "fraction"),
        "setup_s": metric(statistics.median(run["setup"]), "s"),
        "peak_rss_mb": metric(run["rss_mb"], "MB"),
    }


def self_times(spans):
    """Per-layer self time (ns) of one request's spans: a span's duration
    minus the part of it that its child spans cover."""
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys(LAYERS, 0)
    for (name, start, end, _), covered in zip(spans, child):
        layer = name.split(".")[0]
        out[layer if layer in out else "service"] += end - start - covered
    return out


def per_layer(run, trace_path):
    with open(trace_path) as f:
        header = json.loads(f.readline())
        rows = [json.loads(line) for line in f]
    setup_rows = [r for r in rows if r.get("setup")]
    rows = [r for r in rows if not r.get("setup")]
    items, records = run["items"], run["records"]
    served = {rec[0]: rec for rec in records}
    fidelity_errors = 0
    spent = collections.Counter()  # ms per entry point, summed over requests
    calls = collections.Counter()  # requests that reached the entry point
    layer_self = dict.fromkeys(LAYERS, 0.0)
    unattributed = []
    for row in rows:
        index = row["i"]
        line = served[index][3]
        composed = row["response"].encode()
        if (row["error"] or json.loads(line).get("source") != row["source"]
                or result_body(line) != result_body(composed)
                or result_body(composed) != result_body(row["untraced_response"].encode())):
            fidelity_errors += 1
        for name, start, end, _ in row["spans"]:
            spent[name] += (end - start) / 1e6
        calls.update({span[0] for span in row["spans"]})
        own = self_times(row["spans"])
        for layer, ns in own.items():
            layer_self[layer] += ns / 1e6
        # What the client waited beyond the layers' own time: transport,
        # queueing and the server's glue.
        unattributed.append((served[index][2] - served[index][1]) * 1000.0
                            - sum(own.values()) / 1e6)
    n = max(1, len(rows))

    def per_call(name):
        return spent[name] / calls[name] if calls[name] else 0.0

    counters = [r["counters"] for r in rows]
    placed = [c for c in counters if c["placed"]]
    annealed = [c for c in placed if c["proposals"] > 0 and c["anneal_s"] > 0]
    routed = [c for c in counters if c["routed_attempt"]]
    recovered = [c for c in counters if c["recovery"]]

    def avg(values):
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    proposals = sum(c["proposals"] for c in annealed)
    anneal_s = sum(c["anneal_s"] for c in annealed)
    place_ms = per_call("core.place")
    anneal_ms = avg(c["anneal_s"] * 1000.0 for c in placed)
    sources = [r["source"] for r in rows]
    base_proposals = {r["i"]: r["counters"]["proposals"] for r in setup_rows}
    warm_ratio = [
        r["counters"]["proposals"] / base_proposals[items[r["i"]].ref.index]
        for r in rows
        if r["source"] == "warm-start" and base_proposals.get(items[r["i"]].ref.index)
    ]
    queue_wait = [
        (rec[2] - rec[1]) * 1000.0 - json.loads(rec[3]).get("wall_s", 0.0) * 1000.0
        for rec in records
    ]
    layer_total = sum(layer_self.values()) or 1.0
    hit_self = [self_times(r["spans"]) for r in rows if r["source"] == "exact-hit"]
    hit_total = sum(sum(t.values()) for t in hit_self)
    metrics = {
        "core.place_ms": metric(place_ms, "ms"),
        "core.place.anneal_ms": metric(anneal_ms, "ms"),
        "core.place.initial_ms": metric(place_ms - anneal_ms, "ms"),
        "core.place.proposals": metric(avg(c["proposals"] for c in placed), "count"),
        "core.place.proposals_per_s": metric(proposals / anneal_s if anneal_s else 0.0, "1/s"),
        "core.place.accept_ratio": metric(
            sum(c["accepted"] for c in annealed) / proposals if proposals else 0.0, "fraction"),
        "core.place.post_best_fraction": metric(
            avg(1.0 - c["seconds_to_best"] / c["anneal_s"] for c in annealed), "fraction"),
        "core.place.improved_fraction": metric(
            avg(1.0 if c["seconds_to_best"] > 0 else 0.0 for c in annealed), "fraction"),
        "core.place.warm_proposal_ratio": metric(avg(warm_ratio), "fraction"),
        "core.fti_ms": metric(per_call("core.fti"), "ms"),
        "io.parse_request_ms": metric(per_call("io.parse_request"), "ms"),
        "io.render_response_ms": metric(per_call("io.render_response"), "ms"),
        "io.response_bytes": metric(avg(len(rec[3]) for rec in records), "bytes"),
        "service.cache.lookup_ms": metric(per_call("service.cache.lookup"), "ms"),
        "service.cache.store_ms": metric(per_call("service.cache.store"), "ms"),
        "service.cache.exact_hit_ratio": metric(sources.count("exact-hit") / n, "fraction"),
        "service.cache.warm_hit_ratio": metric(sources.count("warm-start") / n, "fraction"),
        "service.cache.exact_hit_ms": metric(hit_total / 1e6 / max(1, len(hit_self)), "ms"),
        "service.queue_wait_ms": metric(statistics.median(queue_wait), "ms"),
        "assay.bind_ms": metric(per_call("assay.bind"), "ms"),
        "assay.schedule_ms": metric(per_call("assay.schedule"), "ms"),
        "assay.modules": metric(avg(c["modules"] for c in counters), "count"),
        "sim.route_ms": metric(per_call("sim.route"), "ms"),
        "sim.route.changeovers": metric(avg(c["changeovers"] for c in routed), "count"),
        "sim.route.success_ratio": metric(avg(1.0 if c["routed"] else 0.0 for c in routed), "fraction"),
        "sim.simulate_ms": metric(per_call("sim.simulate"), "ms"),
        "sim.recover_ms": metric(avg(c["recover_s"] * 1000.0 for c in recovered), "ms"),
        "sim.recover.faults_fired": metric(avg(c["faults_fired"] for c in recovered), "count"),
        "sim.recover.cycles": metric(avg(c["cycles"] for c in recovered), "count"),
        "sim.recover.reconfigure": metric(avg(c["reconfigure"] for c in recovered), "count"),
        "sim.recover.reroute": metric(avg(c["reroute"] for c in recovered), "count"),
        "sim.recover.replace": metric(avg(c["replace"] for c in recovered), "count"),
        "trace.unattributed_ms": metric(statistics.median(unattributed), "ms"),
        "trace.overhead_ratio": metric(header["traced_s"] / header["untraced_s"], "ratio"),
        "trace.requests": metric(len(rows), "count"),
    }
    # Shares go to the table only: they are context for the self times.
    shares = {f"{layer}.self_share": metric(layer_self[layer] / layer_total, "fraction")
              for layer in LAYERS}
    shares["service.cache.exact_hit_io_service_share"] = metric(
        sum(t["io"] + t["service"] for t in hit_self) / hit_total if hit_total else 0.0,
        "fraction")
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = metric(layer_self[layer] / n, "ms")
    return metrics, shares, fidelity_errors


# --- the run ----------------------------------------------------------


def setup(exe, tool, workload, seed, seconds):
    """Corpus generation, server spawn until ready and (cache_replay) cache
    seeding. Returns (server, base, items, base responses, seconds)."""
    started = time.perf_counter()
    base, items = generate(tool, workload, seed, seconds)
    server = Server(exe, WORKLOADS[workload]["clients"])
    try:
        server.ready()
        seeded = serve_sequentially(server, base)
    except Exception:
        server.kill()
        raise
    return server, base, items, seeded, time.perf_counter() - started


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted responses are counted as errors")
    args = parser.parse_args()
    if args.self_test:
        args.seconds, args.trace = 1, 0

    exe, tool = build()
    spec = WORKLOADS[args.workload]
    work = build_dir() / f"perfbench-run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    children = []  # every process this run starts: servers, then the trace replay

    def expire():
        for child in children:
            child.kill()
        os._exit(1)

    watchdog = threading.Timer(WATCHDOG_S, expire)
    watchdog.daemon = True
    watchdog.start()
    try:
        setup_times = []
        fewest, most = SETUP_REPEATS
        while True:
            server, base, items, seeded, setup_s = setup(exe, tool, args.workload, args.seed,
                                                         args.seconds)
            children.append(server)
            setup_times.append(setup_s)
            if len(setup_times) >= most or (len(setup_times) >= fewest
                                            and sum(setup_times) >= SETUP_BUDGET_S):
                break
            server.close()
        min_requests = spec["min_requests"] if not args.self_test else 4
        records, wall, rss_mb = drive(server, items, spec["clients"], args.seconds,
                                      min_requests)
        server.close()
        if server.proc.returncode != 0:
            fail(f"dmfb_serve exited with {server.proc.returncode}", 1)

        base_lines = {id(item): line for item, line in zip(base, seeded)}
        memo = {}
        errors = [check_response(item, line, base_lines.get(id(item.ref)), memo)
                  for item, line in zip(base, seeded)]
        if any(errors):
            fail(f"cache seeding failed: {next(e for e in errors if e)}", 1)
        run = {"items": items, "records": records, "wall": wall, "setup": setup_times,
               "rss_mb": rss_mb, "min_requests": min_requests,
               "docs": [], "errors": []}
        for index, _, _, line in records:
            errs = check_response(items[index], line, base_lines.get(id(items[index].ref)), memo)
            run["errors"].append(errs)
            try:
                run["docs"].append(json.loads(line))
            except ValueError:
                run["docs"].append(None)
        if len(records) < min_requests:
            fail("fewer responses than the quality set needs", 1)
        run["failed"] = sum(1 for e in run["errors"] if e)

        # The checker must stay able to see errors: corrupt one correct
        # response three ways and require all three to be flagged.
        sample = next((i for i, e in enumerate(run["errors"]) if not e), None)
        guard_ok, cases, flagged = (False, [], []) if sample is None else \
            corruptions_counted(items[records[sample][0]], records[sample][3])
        if args.self_test:
            for (name, _, _, _), hit in zip(cases, flagged):
                print(f"self-test: {name:15s} counted as error: {'yes' if hit else 'NO'}")
            print(f"self-test: error_rate over the corrupted responses = "
                  f"{sum(flagged) / len(cases):.3f} (expected 1.000)")
            sys.exit(0 if guard_ok else 1)

        correct = run["failed"] == 0 and guard_ok
        for index, errs in [(r[0], e) for r, e in zip(records, run["errors"]) if e][:20]:
            print(f"check failed: {items[index].id}: {errs[0]}", file=sys.stderr)
        if args.trace:
            n_replay = max(min(len(records), TRACE_MIN_REQUESTS), math.ceil(len(records) / 4))
            setup_file, requests_file = work / "setup.jsonl", work / "requests.jsonl"
            setup_file.write_bytes(b"".join(item.line for item in base))
            requests_file.write_bytes(b"".join(items[r[0]].line for r in records[:n_replay]))
            trace_file = work / "trace.jsonl"
            replay = subprocess.Popen([str(tool), "trace", str(setup_file), str(requests_file),
                                       str(spec["clients"]), str(trace_file)])
            children.append(replay)
            if replay.wait():
                fail("the traced replay failed", 1)
            metrics, context, fidelity_errors = per_layer(run, trace_file)
            if fidelity_errors:
                print(f"fidelity: {fidelity_errors} replayed requests differ from the "
                      "served responses", file=sys.stderr)
                correct = False
        else:
            metrics, context = end_to_end(run), {}
        error_rate = run["failed"] / len(records)
        print(f"workload {args.workload} seed {args.seed}: {len(records)} requests, "
              f"error_rate {error_rate:.4f}")
        for name, m in {**metrics, **context}.items():
            print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps({"correct": correct, "attempted": len(records),
                          "failed": run["failed"], "metrics": metrics}))
    finally:
        for child in children:
            child.kill()
        shutil.rmtree(work, ignore_errors=True)
        watchdog.cancel()


if __name__ == "__main__":
    main()
