"""Benchmark for gpq: four seeded workloads, end-to-end and per-layer metrics.

One workload run (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload ball-build --seed 1 --seconds 20 --trace 0

Every workload, each metric printed with its unit, results saved for compare:

    python3 perfbench/run.py --all --seeds 1,2,3 --out base.json
    python3 perfbench/run.py --compare base.json new.json
    python3 perfbench/run.py --smoke

A run is one process with one caller in a closed loop.  It runs a warm-up
list drawn from its own seed stream on fixtures of its own, then runs the
timed operation list again and again until --seconds have passed.  Before
each pass, untimed by the pass, it imports gpq afresh and builds the fixtures
again, so no gpq object or module state outlives a pass and a cache kept
across calls cannot make a later pass faster than the first.  Those set-ups
are timed as setup_s.  Times are scaled to a reference host speed (see
PROBE_REF_S).  Every answer is checked against reference.py outside the
timed region.  --trace 1 instead runs a traced pass between two untraced
ones and reports the per-layer metrics.  Metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-ups before the passes.  Each pass makes one more; setup_s is the median
# of them all.  One set-up takes about 0.1 s and varies by a fifth.
SETUP_REPEATS = 15
MIN_OPS_FOR_PERCENTILES = 100  # so that ten samples lie beyond p90

# Host speed.  On a shared machine the speed of one core drifts by a third
# within minutes, and every pure-Python workload drifts with it; medians over
# passes cannot remove a drift that outlasts the run.  So a fixed probe (tuple,
# dict, list and small-object work, no gpq) is timed before a pass, every
# PROBE_EVERY_S from a timer signal (inside an operation too, so that a
# seconds-long operation is cut into slices), and after the pass.  Each slice
# of an operation's time is scaled by PROBE_REF_S over the mean of the probes
# at its two ends, and the probes themselves are left out: times are seconds
# at the host speed at which the probe takes PROBE_REF_S.
PROBE_REF_S = 0.004
PROBE_EVERY_S = 0.25


def generate(workload, seed, smoke=False):
    """The operation lists for a seed, and the sha256 of their JSON."""
    rng = random.Random(f"{workload}/{seed}/timed")
    warm_rng = random.Random(f"{workload}/{seed}/warmup")
    data = WORKLOADS[workload].generate(rng, warm_rng, smoke)
    blob = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return data, hashlib.sha256(blob).hexdigest()


def spec():
    """BENCHMARK.json: the workloads and the metrics' names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def forget_gpq():
    """Drop gpq's modules, so that the next import runs them afresh."""
    for name in [m for m in sys.modules if m == "gpq" or m.startswith("gpq.")]:
        del sys.modules[name]


def load_gpq():
    mods = {name: importlib.import_module(f"gpq.{name}") for name in MODULES + ("errors",)}
    return SimpleNamespace(package=sys.modules["gpq"], **mods)


class _Node:
    __slots__ = ("word", "parent")

    def __init__(self, word, parent):
        self.word = word
        self.parent = parent


def _probe_work():
    """Fixed work in the style of gpq's: tuple words, free cancellation, a
    dict of words seen, small objects and short lists."""
    seen = {}
    frontier = [()]
    kept = []
    for i in range(1500):
        parent = frontier[i % len(frontier)]
        letter = (i % 3, 1 - 2 * ((i >> 1) & 1))
        if parent and parent[-1] == (letter[0], -letter[1]):
            word = parent[:-1]
        else:
            word = (parent + (letter,))[-6:]
        if word not in seen:
            seen[word] = _Node(word, seen.get(parent))
            frontier.append(word)
        kept.append([x for x in word if x[1] > 0])
    return len(seen)


def probe():
    """Seconds the probe takes now: the best of three.  The collector is off
    meanwhile, so that a probe inside an operation neither collects the
    operation's objects nor moves its collections."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _probe_work()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


class Fresh:
    """Fresh gpq imports and fixtures for one operation list, each set-up
    timed up to the first operation."""

    def __init__(self, workload, ops):
        self.workload = WORKLOADS[workload]
        self.ops = ops
        self.prep = self.workload.prepare(ops)  # reference work, untimed
        self.times = Scaled()

    def __call__(self):
        """(gpq modules, one job per operation).  The last set-up's objects
        are collected first; everything left, which is the benchmark's own
        (operation lists, reference answers), is frozen, so that the
        program's full collections do not traverse it."""
        forget_gpq()
        gc.collect()
        gc.freeze()
        self.times.start()
        g = load_gpq()
        jobs = self.workload.setup(g, self.ops, self.prep)
        self.times.stop()
        self.times.close()
        return g, jobs


class Scaled:
    """Raw times of operations, and the same scaled to the reference speed.

    A probe cuts the operation in progress, if any, into slices; each slice
    is scaled by the mean of the probes at its two ends.  ``close`` probes and
    may run from a timer signal at any point, so every method holds ``_busy``
    and a tick that finds it set is skipped."""

    def __init__(self):
        self.before = probe()
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.on_probe = None  # called with the length of a probe taken inside an operation
        self._pending: list[tuple[int, float]] = []  # (operation, raw slice) since the last probe
        self._start = None  # start of the open slice, while an operation runs
        self._busy = False

    def start(self):
        self._busy = True
        self.raw.append(0.0)
        self.scaled.append(0.0)
        self._start = time.perf_counter()
        self._busy = False

    def stop(self):
        self._busy = True
        self._cut()
        self._start = None
        self._busy = False

    def _cut(self):
        dt = time.perf_counter() - self._start
        self.raw[-1] += dt
        self._pending.append((len(self.raw) - 1, dt))

    def close(self):
        """Probe, and scale the slices since the last probe by the mean of
        that probe and this one."""
        self._busy = True
        inside = self._start is not None
        if inside:
            self._cut()
        t0 = time.perf_counter()
        after = probe()
        scale = 2.0 * PROBE_REF_S / (self.before + after)
        for i, dt in self._pending:
            self.scaled[i] += dt * scale
        self._pending.clear()
        self.before = after
        if inside:
            self._start = time.perf_counter()
            if self.on_probe:
                self.on_probe(self._start - t0)
        self._busy = False

    def tick(self, *_):
        if not self._busy:
            self.close()


@contextlib.contextmanager
def ticking(times):
    """Call ``times.tick`` every PROBE_EVERY_S, whatever runs."""
    old = signal.signal(signal.SIGALRM, times.tick)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.errors: list[str] = []

    def fail(self, weight, message):
        self.failed += weight
        if len(self.errors) < 10:
            self.errors.append(message)


_UNCHECKED = object()


def run_pass(jobs, tally, verified, order=None, tracer=None):
    """Run every job once, in list order or in the order `order` draws;
    returns a Scaled with the latency of each, in list order.  Checks and
    probes are untimed and untraced.  An answer is checked in full the first
    time its operation runs, and its fingerprint kept in `verified` by list
    index; on later passes the answer must repeat it.

    A timed pass draws its order, so that operations of one kind, which sit
    side by side in the list, run at times spread over the pass and see
    more than one state of the host."""
    sequence = list(range(len(jobs)))
    if order:
        order.shuffle(sequence)
    times = Scaled()
    if tracer:
        times.on_probe = tracer.leave_out
    with ticking(times):
        for i in sequence:
            _run_job(i, jobs[i], times, tally, verified, tracer)
    times.close()
    slot = sorted(range(len(sequence)), key=sequence.__getitem__)
    times.raw = [times.raw[k] for k in slot]
    times.scaled = [times.scaled[k] for k in slot]
    return times


def _run_job(i, job, times, tally, verified, tracer):
    ans = exc = error = None
    if tracer:
        tracer.active = True
    times.start()
    try:
        ans = job.call()
    except job.documented as e:
        exc = e
    except Exception:
        error = "undocumented error\n" + traceback.format_exc(limit=6)
    times.stop()
    if tracer:
        tracer.active = False
    tally.attempted += job.weight
    if error is None:
        try:
            fp = job.fingerprint(ans, exc)
            if verified[i] is _UNCHECKED:
                error = job.check(ans, exc)
                if error is None:
                    verified[i] = fp
            elif fp != verified[i]:
                error = "answer differs from the first verified answer"
        except Exception:
            error = "check raised\n" + traceback.format_exc(limit=4)
    if error:
        tally.fail(job.weight, f"{job.kind}: {error}")
    else:
        tally.decided += job.decided_count(ans, exc)


def code_hash():
    h = hashlib.sha256()
    for path in sorted(SRC.glob("gpq/**/*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _check_repeat(workload, seed, smoke, counts):
    """Per-layer counts must repeat exactly between runs of one code on one seed."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"counts-{workload}-{seed}{'-smoke' if smoke else ''}.json"
    code = code_hash()
    if path.is_file():
        saved = json.loads(path.read_text())
        if saved["code"] == code:
            diff = sorted(k for k in counts if saved["counts"].get(k) != counts[k])
            return f"per-layer counts differ from the last run on this seed: {diff}" if diff else None
    path.write_text(json.dumps({"code": code, "counts": counts}, sort_keys=True))
    return None


def _metric_line(name, value, unit, note=""):
    print(f"{name:42s} {value:>16.6g} {unit:6s} {note}".rstrip())


def run_workload(workload, seed, seconds, trace, smoke, spec):
    if not (SRC / "gpq" / "__init__.py").is_file():
        print(f"error: gpq sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    data, digest = generate(workload, seed, smoke)
    warm_tally, tally = Tally(), Tally()
    run_pass(Fresh(workload, data["warmup"])()[1], warm_tally, [_UNCHECKED] * len(data["warmup"]))
    fresh = Fresh(workload, data["timed"])
    verified = [_UNCHECKED] * len(fresh.ops)
    order = random.Random(f"{workload}/{seed}/order")
    print(f"# {workload} seed={seed} trace={trace} ops={len(fresh.ops)} warmup={len(data['warmup'])} oplist=sha256:{digest[:16]}")
    if trace:
        result = _traced(fresh, verified, order, workload, seed, smoke, tally, spec["per_layer"])
    else:
        for _ in range(0 if smoke else SETUP_REPEATS):
            fresh()
        passes = []
        start = time.perf_counter()
        while True:
            g, jobs = fresh()
            passes.append(run_pass(jobs, tally, verified, order))
            del g, jobs
            if time.perf_counter() - start >= seconds:
                break
        result = _end_to_end(len(fresh.ops), passes, fresh.times, tally, spec["end_to_end"])
    failed = tally.failed + warm_tally.failed
    attempted = tally.attempted + warm_tally.attempted
    _metric_line("failed_ratio", failed / attempted, "ratio", f"{failed} of {attempted} operations")
    for msg in warm_tally.errors + tally.errors:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 1 if failed else 0


def _end_to_end(n_ops, passes, setup_times, tally, names):
    walls = [sum(p.scaled) for p in passes]
    wall = statistics.median(walls)
    raw_wall = statistics.median(sum(p.raw) for p in passes)
    per_op = [statistics.median(p.scaled[i] for p in passes) * 1000.0 for i in range(n_ops)]
    if len(per_op) >= MIN_OPS_FOR_PERCENTILES:
        q = statistics.quantiles(per_op, n=10)
        p50, p90 = statistics.median(per_op), q[8]
        note = f"{len(per_op)} ops, each the median of {len(passes)} passes"
    else:
        p50 = p90 = wall * 1000.0
        note = f"{len(per_op)} ops per pass: the pass is the latency"
    values = {
        "wall_s": (wall, f"median of {len(passes)} passes; unscaled {raw_wall:.4g} s"),
        "op_p50_ms": (p50, note),
        "op_p90_ms": (p90, note),
        "setup_s": (
            statistics.median(setup_times.scaled),
            f"median of {len(setup_times.raw)} set-ups; unscaled {statistics.median(setup_times.raw):.4g} s",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "ru_maxrss"),
        "decided_ratio": (tally.decided / tally.attempted, f"{tally.decided} of {tally.attempted}"),
    }
    out = {}
    for m in names:
        value, note = values[m["name"]]
        _metric_line(m["name"], value, m["unit"], note)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def _traced(fresh, verified, order, workload, seed, smoke, tally, names):
    """One traced pass between two untraced ones, each on fresh fixtures; the
    tracing overhead is the traced pass over the mean of the two others."""
    untraced = [sum(run_pass(fresh()[1], tally, verified, order).scaled)]
    g, jobs = fresh()
    tracer = Tracer()
    tracer.install(g)
    try:
        wall_traced = sum(run_pass(jobs, tally, verified, order, tracer).scaled)
    finally:
        tracer.uninstall()
    moves = sum(j.moves for j in jobs)
    del g, jobs
    untraced.append(sum(run_pass(fresh()[1], tally, verified, order).scaled))
    wall_untraced = statistics.fmean(untraced)
    values = metrics.layer_metrics(tracer, [m["name"] for m in names], moves, wall_traced, wall_untraced)
    err = _check_repeat(workload, seed, smoke, metrics.repeat_counts(values))
    if err:
        tally.fail(1, err)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload}-{seed}.tsv.gz")
    out = {}
    for m in names:
        name = m["name"]
        _metric_line(name, values[name], m["unit"], f"moves: {metrics.effect(name)}")
        out[name] = {"value": values[name], "unit": m["unit"]}
    return out


# --- every workload ------------------------------------------------------------------


def run_all(seeds, seconds, smoke, out_path):
    results = []
    for workload in WORKLOADS:
        runs = [(seed, 0) for seed in seeds] + [(seeds[0], 1)]
        for seed, trace in runs:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed={seed} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                results.append({"workload": workload, "seed": seed, "trace": trace, "result": None})
                continue
            result = json.loads(lines[-1])
            results.append({"workload": workload, "seed": seed, "trace": trace, "result": result})
            if proc.stderr:
                print(proc.stderr, file=sys.stderr, end="")
    compare.print_table(results)
    if out_path:
        Path(out_path).write_text(json.dumps({"python": sys.version.split()[0], "results": results}, indent=1))
    ok = all(r["result"] and r["result"]["correct"] for r in results)
    return 0 if ok else 1


def main(argv=None):
    bench = spec()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="short operation lists, one pass; with no --workload, every workload once")
    ap.add_argument("--all", action="store_true", help="run every workload, once per seed plus one traced run")
    ap.add_argument("--seeds", default="1", help="comma-separated seeds for --all")
    ap.add_argument("--out", help="with --all: write the result set here")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two result sets")
    args = ap.parse_args(argv)
    if args.compare:
        return compare.compare_files(*args.compare, bench)
    if args.workload:
        return run_workload(args.workload, args.seed, 0 if args.smoke else args.seconds, args.trace, args.smoke, bench)
    if args.all or args.smoke:
        seeds = [int(s) for s in args.seeds.split(",")]
        return run_all(seeds, 0 if args.smoke else args.seconds, args.smoke, args.out)
    ap.error("give --workload, --all, --smoke or --compare")


if __name__ == "__main__":
    sys.exit(main())
