#!/usr/bin/env python3
"""Benchmark of the cellres package: three seeded workloads, untraced
end-to-end metrics, and a traced run with per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload corpus_sweep --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one caller, one process): corpus_sweep,
ladder_verify, cli_mix; see bench/README.md.

A run imports cellres from src/ next to this directory and sets up its
inputs from the seed; untraced, it does so at least SETUP_MIN_REPS times
and for SETUP_MIN_SECONDS, each time on a fresh import.  It then makes
timed passes over the items while another pass is expected to end within
--seconds (at least MIN_PASSES), each pass on a fresh import so that
every pass does the same work.  Every item's output is checked.

On a shared host the speed of a core swings by up to 2x, for tens of
milliseconds or for minutes at a time.  Untraced runs therefore time set-up
and items on a calibrate.ScaledClock: seconds of work scaled to a
reference speed of the core, measured every 10 ms by a fixed loop that
shares no code with cellres.  The notes line holds the wall seconds of
each pass and the host's slowdown.  With --trace 1 the first half of the
time runs untraced passes and the second half runs under timing
wrappers; the traced run's times are wall seconds.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit code 2, with no result, when the package cannot be imported.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

import calibrate
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 2.0
MIN_PASSES = 2

END_TO_END = (
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

now = time.perf_counter


class Api:
    """The cellres modules of one import; attribute lookups go through
    here at call time, so re-imports and tracing wrappers take effect."""

    def __init__(self):
        importlib.invalidate_caches()
        for name in ("cellres", "cellres.cli"):
            importlib.import_module(name)
        origin = os.path.dirname(os.path.abspath(sys.modules["cellres"].__file__))
        if origin != os.path.join(SRC, "cellres"):
            raise ImportError("cellres imported from %s, not %s" % (origin, SRC))
        for layer in tracing.LAYERS + ("errors",):
            setattr(self, layer, sys.modules["cellres." + layer])

    @staticmethod
    def modules():
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "cellres" or name.startswith("cellres.")
        ]


def fresh_api():
    """Drop every cellres module and import the package again, so module
    caches start empty."""
    for name in [m for m in sys.modules if m == "cellres" or m.startswith("cellres.")]:
        del sys.modules[name]
    return Api()


class Tally:
    """Items attempted and failed, and the pass digests seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_digest = None


def run_pass(api, workload, seed, items, tally):
    """One pass over the items, then the checks; per-item seconds."""
    gc.collect()
    timed = [workload.run(api, item) for item in items]
    latencies = [dt for dt, _ in timed]
    results = [check() for _, check in timed]
    failed = sum(1 for ok, _ in results if not ok)
    digests = [d for _, d in results if d is not None]
    if digests:
        digest = workloads.pass_digest(digests)
        if tally.first_digest is None:
            tally.first_digest = digest
        if digest != tally.first_digest or not workload.pass_ok(seed, digests):
            print("bench: pass output digest %s is not the expected one" % digest, file=sys.stderr)
            failed = len(items)
    tally.attempted += len(items)
    tally.failed += failed
    return latencies


def timed_passes(api, workload, seed, items, seconds, tally, min_passes=MIN_PASSES, fresh=False):
    """Passes while another one is expected to end within `seconds` of
    wall time, and at least `min_passes`, each on a fresh import when
    `fresh`; the per-item seconds and the wall seconds of each pass."""
    passes, walls = [], []
    start = now()
    while len(passes) < min_passes or now() - start + walls[-1] <= seconds:
        t0 = now()
        if fresh:
            api = fresh_api()
        passes.append(run_pass(api, workload, seed, items, tally))
        walls.append(now() - t0)
    return passes, walls


def slowdown(loops):
    """The host's slowdown over a run of reference-loop times."""
    return round(statistics.median(loops) / calibrate.REFERENCE_S, 3)


def untraced_run(workload, seed, seconds, size):
    """Set-ups, then passes, all timed on a ScaledClock."""
    setups = []
    with calibrate.ScaledClock() as clock:
        workloads.now = clock.now
        try:
            t_start = now()
            while len(setups) < SETUP_MIN_REPS or now() - t_start < SETUP_MIN_SECONDS:
                gc.collect()
                t0 = clock.now()
                api = fresh_api()
                items = workload.setup(api, seed, size)
                setups.append(clock.now() - t0)
            tally = Tally()
            setup_loops = len(clock.loops)
            passes, walls = timed_passes(api, workload, seed, items, seconds, tally, fresh=True)
        finally:
            workloads.now = now
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    per_item = [statistics.median(lat) for lat in zip(*passes)]
    if len(per_item) > 1:
        deciles = statistics.quantiles(per_item, n=10, method="inclusive")
    else:  # a smoke run with one item
        deciles = per_item * 9
    metrics = {
        "wall_s": statistics.median(sum(lat) for lat in passes),
        "item_p50_ms": deciles[4] * 1e3,
        "item_p90_ms": deciles[8] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {
        "items_per_pass": len(items),
        "passes_scaled_s": [round(sum(lat), 4) for lat in passes],
        "passes_wall_s": [round(w, 4) for w in walls],
        "setups_scaled_s": [round(s, 4) for s in setups],
        "host_slowdown": {
            "setup": slowdown(clock.loops[:setup_loops]),
            "passes": slowdown(clock.loops[setup_loops:] or clock.loops[-1:]),
        },
        "reference_loops": len(clock.loops),
    }
    return tally, metrics, list(END_TO_END), notes


def traced_run(workload, seed, seconds, size):
    """Untraced passes for the first half of `seconds`, traced passes for
    the second; per-layer numbers are medians (times) or the common value
    (counters) over the traced passes."""
    api = fresh_api()
    tracer = tracing.Tracer(api)
    tracer.install()
    try:
        items = workload.setup(api, seed, size)
    finally:
        tracer.uninstall()
    gen_s = tracer.stage_seconds("corpus.gen_s")
    tally = Tally()
    plain, _ = timed_passes(api, workload, seed, items, seconds / 2.0, tally, 1)
    plain = [sum(lat) for lat in plain]
    traced, per_pass = [], []
    start = now()
    while not traced or now() - start + traced[-1] <= seconds / 2.0:
        tracer.reset()
        tracer.install()
        try:
            lat = run_pass(api, workload, seed, items, tally)
        finally:
            tracer.uninstall()
        traced.append(sum(lat))
        per_pass.append(tracer.layer_metrics())
        if len(traced) == 1:
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.dump(
                os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (workload.name, seed)),
                {"workload": workload.name, "seed": seed, "items": len(items)},
            )
    metrics, units = {}, []
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key.endswith("_s"):
            metrics[key], unit = statistics.median(values), "s"
        elif key == "ekcells.chain_yield":
            metrics[key], unit = values[0], "ratio"
        else:
            if any(v != values[0] for v in values):
                print("bench: counter %s differs between passes: %s" % (key, values), file=sys.stderr)
                tally.failed += 1
            metrics[key], unit = values[0], "count"
        units.append((key, unit))
    metrics["corpus.gen_s"] = gen_s
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    units.append(("trace.overhead_s", "s"))
    notes = {
        "untraced_passes": [round(s, 4) for s in plain],
        "traced_passes": [round(s, 4) for s in traced],
        "items_per_pass": len(items),
    }
    return tally, metrics, units, notes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--items", type=int, help="items per pass (smoke runs)")
    args = p.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    size = args.items or workload.items
    if not os.path.isdir(os.path.join(SRC, "cellres")):
        print("bench: no cellres package under %s" % SRC, file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    run = traced_run if args.trace else untraced_run
    try:
        tally, metrics, units, notes = run(workload, args.seed, args.seconds, size)
    except ImportError as exc:
        print("bench: cannot import cellres: %s" % exc, file=sys.stderr)
        return 2
    for name, unit in units:
        print("%-28s %14.6f %s" % (name, metrics[name], unit))
    fail_ratio = tally.failed / tally.attempted
    print("%-28s %14.6f ratio (%d of %d items)" % ("fail_ratio", fail_ratio, tally.failed, tally.attempted))
    print("notes " + json.dumps(notes, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
