#!/usr/bin/env python3
"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload tune-meta|tune-data|fleet \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It runs the arithmetic self-tests, builds
perfbench_runner from ../src into .bench_build (a no-op when up to date),
runs the workload in a child process of its own, checks the outputs and
prints one line per metric (value, unit, samples), the provenance and the
digest of the canonical result documents. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ones. The exit code is 0
only when every output check passed. README.md defines every metric.
"""

import argparse
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUNNER = BUILD / "perfbench_runner"
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import test_stats  # noqa: E402

WORKLOADS = ("tune-meta", "tune-data", "fleet")
# The tail reported beside the median: p95 where 10 sessions lie beyond it
# (fleet's 240), else the slowest session (a tune-* panel holds 9 or 40).
TAIL = {"tune-meta": None, "tune-data": None, "fleet": 0.95}
TIME_LIMIT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def self_test():
    suite = unittest.defaultTestLoader.loadTestsFromModule(test_stats)
    out = io.StringIO()
    if not unittest.TextTestRunner(stream=out, verbosity=0).run(suite).wasSuccessful():
        print(out.getvalue(), file=sys.stderr)
        fail("arithmetic self-tests failed")


def scratch_env():
    """Compiler and runner temporaries stay inside the checkout."""
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp_root))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/ beside perfbench/ in {ROOT}: run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator],
                       stdout=sys.stderr, env=scratch_env(), check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench_runner",
                    "-j", str(os.cpu_count() or 2)], stdout=sys.stderr, env=scratch_env(),
                   check=True)


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the code when
    git describe cannot."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def filesystem_of(path):
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def sessions_of(rounds):
    return [s for r in rounds for s in r["sessions"]]


def succeeded(session):
    return (session.get("state", "completed") == "completed"
            and not session["aborted"] and session["best_s"] > 0)


def session_latencies(doc):
    """Mean latency of each distinct session of the plan over its repeats.

    Every panel (tune-*) or round (fleet) runs the same sessions, so each
    runs several times per run. Averaging the repeats first keeps a host
    that runs fast for part of a run from flipping the median between fast
    and slow repeats."""
    repeats = {}
    for r in doc["rounds"]:
        for i, s in enumerate(r["sessions"]):
            key = i if doc["workload"] == "fleet" else (s["app"], s["seed"])
            repeats.setdefault(key, []).append(s["latency_s"])
    return [stats.mean(v) for v in repeats.values()]


def end_to_end(doc):
    """name -> (value, unit, note) for the untraced rounds."""
    workload = doc["workload"]
    rounds = doc["rounds"]
    every = sessions_of(rounds)
    if workload == "fleet":
        wall = sum(r["wall_s"] for r in rounds)  # all waves, commits included
        panel = rounds[0]["sessions"]  # every round is byte-identical
    else:
        wall = sum(s["latency_s"] for s in every)  # the closed loop, back to back
        panel = sessions_of(rounds[:doc["panel_rounds"]])
    good = [s for s in panel if succeeded(s)]
    latency = session_latencies(doc)
    n = f"{len(latency)} sessions x {len(every) // len(latency)} repeats"
    q = TAIL[workload]
    if q is None:
        tail, tail_note = max(latency), f"slowest session, {n}"
    else:
        tail, tail_note = stats.percentile(latency, q), f"p{q * 100:g}, {n}"
    setups = [r["setup_s"] for r in rounds]
    return {
        "sessions_per_s": (len(every) / wall, "sessions/s", f"{len(every)} sessions"),
        "latency_s_p50": (stats.median(latency), "s", n),
        "latency_s_tail": (tail, "s", tail_note),
        "speedup_geomean": (stats.geomean([s["default_s"] / s["best_s"] for s in good]),
                            "x", f"panel n={len(good)}"),
        "iters_to_5pct_mean": (stats.mean([s["iters"] for s in panel]), "attempts",
                               f"panel n={len(panel)}"),
        "llm_tokens_per_session": (stats.mean([s["tokens"] for s in panel]), "tokens",
                                   f"panel n={len(panel)}"),
        "ok_share": (len(good) / len(panel), "fraction", f"panel n={len(panel)}"),
        "setup_s": (stats.median(setups), "s", f"median of {len(setups)}"),
        "peak_rss_mb": (doc["peak_rss_kb"] / 1024.0, "MB", "getrusage max RSS"),
    }


class Layers:
    """Span and counter sums over traced units of work (sessions or rounds)."""

    def __init__(self, units):
        self.spans = {}
        self.counters = {}
        self.tune_self = []
        self.service_self = []
        self.instants = 0
        self.dropped = 0
        for unit in units:
            spans = unit["spans"]
            for span in spans:
                self.spans.setdefault(span[0], []).append(span)
                if span[0] == "tune":
                    inner = [s[2:4] for s in stats.within(span, spans)
                             if s[0] in ("pfs.run", "offline-extraction")]
                    self.tune_self.append(stats.self_time(span[2:4], inner))
                elif span[0] == "service":
                    inner = [s[2:4] for s in stats.within(span, spans) if s[0] == "tune"]
                    self.service_self.append(stats.self_time(span[2:4], inner))
            for name, value in unit["counters"].items():
                self.counters[name] = self.counters.get(name, 0.0) + value
            self.instants += unit["instants"]
            self.dropped += unit["dropped"]

    def durations_us(self, kind):
        return [s[3] for s in self.spans.get(kind, [])]

    def total_us(self, kind):
        return sum(self.durations_us(kind))

    def counter(self, name):
        return self.counters.get(name, 0.0)


def service_layer(layers, rounds, workers):
    """service/exp/journal rows from traced service rounds; `layers` holds
    the rounds' traces."""
    queue_ms = []
    for r in rounds:  # pair each fresh session with its cell's span
        cell_us = {s[4]: s[3] for s in r["trace"]["spans"] if s[0] == "service"}
        queue_ms += [s["latency_s"] * 1e3 - cell_us[s["key"]] / 1e3
                     for s in r["sessions"] if not s["coalesced"] and s["key"] in cell_us]
    fresh = [s for s in sessions_of(rounds) if not s["coalesced"]]
    cells_us = layers.total_us("service")
    wall_us = sum(r["wall_s"] for r in rounds) * 1e6
    submitted = sum(r["stats"]["submitted"] for r in rounds)
    return {
        "service.submit_us": (stats.median([u for r in rounds for u in r["submit_us"]]), "us"),
        "service.cell_ms": (stats.median(layers.durations_us("service")) / 1e3, "ms"),
        "service.queue_wait_ms": (stats.median(queue_ms), "ms"),
        "service.overhead_ms": (stats.median(layers.service_self) / 1e3, "ms"),
        "service.coalesce_ratio": (stats.ratio(sum(r["stats"]["coalesced"] for r in rounds),
                                               submitted), "fraction"),
        "service.busy_ratio": (stats.ratio(cells_us, workers * wall_us), "fraction"),
        "service.share": (stats.ratio(sum(layers.service_self), cells_us), "fraction"),
        "exp.recall_us": (stats.median([u for r in rounds for u in r["recall_us"]]), "us"),
        "exp.store_records": (stats.median([r["stats"]["store_records"] for r in rounds]),
                              "count"),
        "exp.warm_hit_ratio": (stats.ratio(sum(1 for s in fresh if s["warm_started"]),
                                           len(fresh)), "fraction"),
        "exp.commit_ms": (stats.median([c for r in rounds for c in r["commit_ms"]]), "ms"),
        "core.journal_lines": (stats.ratio(sum(r["stats"]["journal_lines"] for r in rounds),
                                           submitted), "count/session"),
        "store.bytes_per_session": (stats.ratio(sum(r["stats"]["store_bytes"] for r in rounds),
                                                submitted), "bytes"),
    }


def per_layer(doc):
    """name -> (value, unit) for the traced rounds."""
    workload = doc["workload"]
    traced_rounds = doc["traced_rounds"]
    traced = sessions_of(traced_rounds)
    if workload == "fleet":
        units = [r["trace"] for r in traced_rounds]
        engine_runs = [s for s in traced if not s["coalesced"]]
        characterize = doc["characterize_ms"]
    else:
        units = [t for r in traced_rounds for t in r["traces"]]
        engine_runs = traced
        characterize = [row for r in traced_rounds for row in r["characterize_ms"]]
    layers = Layers(units)
    runs = len(engine_runs)
    if workload == "fleet":
        session_us = layers.total_us("service")  # cell time
    else:
        session_us = sum(s["latency_s"] for s in traced) * 1e6
    untraced_p50 = stats.median([s["latency_s"] for s in sessions_of(doc["rounds"])])
    out = {
        "pfs.run_ms": (stats.median(layers.durations_us("pfs.run")) / 1e3, "ms"),
        "pfs.runs": (len(layers.durations_us("pfs.run")) / runs, "count/session"),
        "sim.events": (layers.counter("sim.events_dispatched") / runs, "count/session"),
        "sim.us_per_event": (stats.ratio(layers.total_us("event-loop"),
                                         layers.counter("sim.events_dispatched")), "us"),
        "pfs.share": (stats.ratio(layers.total_us("pfs.run"), session_us), "fraction"),
        "pfs.rpc_data": (layers.counter("pfs.rpc.data") / runs, "count/session"),
        "pfs.rpc_meta": (layers.counter("pfs.rpc.meta") / runs, "count/session"),
        "pfs.lock_hit_ratio": (stats.ratio(layers.counter("pfs.lock.hits"),
                                           layers.counter("pfs.lock.hits")
                                           + layers.counter("pfs.lock.misses")), "fraction"),
        # 0 when nothing was prefetched (fleet's applications only write).
        "pfs.reada_useful_ratio": (layers.counter("pfs.reada.consumed_bytes")
                                   / max(layers.counter("pfs.reada.prefetched_bytes"), 1.0),
                                   "fraction"),
        "pfs.rpc_retries": (layers.counter("pfs.rpc.retries") / runs, "count/session"),
        "rag.extract_ms": (stats.median(layers.durations_us("offline-extraction")) / 1e3, "ms"),
        "rag.extracts": (layers.counter("core.extraction.cache_miss") / runs,
                         "count/session"),
        "rag.share": (stats.ratio(layers.total_us("offline-extraction"), session_us),
                      "fraction"),
        "darshan.characterize_ms": (stats.median([row[0] for row in characterize]), "ms"),
        "dataframe.tables_ms": (stats.median([row[1] for row in characterize]), "ms"),
        "agents.report_ms": (stats.median([row[2] for row in characterize]), "ms"),
        "agents.residual_ms": (stats.median(layers.tune_self) / 1e3, "ms"),
        "agents.share": (stats.ratio(sum(layers.tune_self), session_us), "fraction"),
        "llm.calls": (stats.mean([s["llm_calls"] for s in engine_runs]), "count/session"),
        "llm.retries": (layers.counter("agent.llm.retries") / runs, "count/session"),
        "json.doc_us": (stats.median([s["json_us"] for s in traced]), "us"),
        "obs.trace_overhead": (stats.median([s["latency_s"] for s in traced]) / untraced_p50,
                               "x"),
        "obs.trace_records": (layers.instants / runs, "count/session"),
        "obs.trace_dropped": (layers.dropped, "count"),
    }
    if workload == "fleet":
        out.update(service_layer(layers, traced_rounds, doc["workers"]))
    else:
        # A one-cell stellard round of this workload's first request.
        probe = doc["probe"]
        out.update(service_layer(Layers([probe["trace"]]), [probe], doc["probe_workers"]))
    return out


def check_declared(metrics, trace):
    """The metrics printed are exactly those BENCHMARK.json declares for this
    mode, with the same units."""
    declared_path = ROOT / "BENCHMARK.json"
    if not declared_path.is_file():
        return []
    declared = json.loads(declared_path.read_text())["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    have = {name: entry[1] for name, entry in metrics.items()}
    if want == have:
        return []
    return [f"metrics differ from BENCHMARK.json: {sorted(set(want.items()) ^ set(have.items()))}"]


# --------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    # SIGTERM unwinds like an error, so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    self_test()
    build()
    env = scratch_env()
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=env["TMPDIR"]))
    try:
        runner = subprocess.run(
            [str(RUNNER), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", str(tmp)],
            stdout=subprocess.PIPE, text=True, env=env,
            timeout=max(10.0, TIME_LIMIT_S - (time.monotonic() - started)))
        store_fs = filesystem_of(tmp)
    except subprocess.TimeoutExpired:
        fail("the workload ran past the time limit")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if runner.returncode != 0:
        fail(f"perfbench_runner exited with {runner.returncode}")
    doc = json.loads(runner.stdout.strip().splitlines()[-1])

    problems = list(doc["check_failures"])
    sessions = sessions_of(doc["rounds"]) + sessions_of(doc.get("traced_rounds", []))
    attempted = len(sessions)
    failed = sum(1 for s in sessions if not succeeded(s))
    try:
        metrics = per_layer(doc) if args.trace else end_to_end(doc)
        problems += check_declared(metrics, args.trace)
        if args.trace and metrics["obs.trace_dropped"][0] != 0:
            problems.append("the tracer dropped records")
    except (stats.Refused, KeyError, ZeroDivisionError) as err:
        problems.append(f"metric refused: {err}")
        metrics = {}

    provenance = doc["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"host: {provenance['cores']} cores; build: {provenance['build_type']}, "
          f"{provenance['compiler']}; git: {git_describe()}; source: {source_digest()}")
    print(f"store: fresh directory per service lifetime on {store_fs}; "
          "appends are fopen/fwrite/fclose, nothing is fsynced")
    print(f"digest of result documents: {doc['digest']}")
    for name, entry in metrics.items():
        value, unit = entry[0], entry[1]
        note = f"  ({entry[2]})" if len(entry) > 2 else ""
        print(f"  {name:<26} {value:>14.6g} {unit}{note}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": entry[0], "unit": entry[1]}
                    for name, entry in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
