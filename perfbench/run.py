"""hyperforms benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload census|sweep|bigtrees|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src`.
The run makes its inputs from the seed (five times, for setup_s), then
repeats whole passes over the workload's op list (closed loop, one caller)
until S seconds have passed and at least the workload's `k_min` passes are
done.  Every output is checked.  Stdout ends with two JSON lines: an "info"
object (inputs' SHA-256, versions, nproc, git revision, passes, samples, the
tail percentile, error types, unscaled figures), then {"correct",
"attempted", "failed", "metrics"}.  "correct" is false when an output was
wrong; an op that raised counts in "failed" only.

Times are scaled to a nominal machine speed.  On a shared 2-core virtual
machine, speed was seen to drift by up to 2x for minutes at a time, for
every process alike.  So a fixed reference is timed between ops (at least
every 0.1 s; every 1 s for `cli`), and each op's time is multiplied by
(nominal reference time) / (reference time around that op): the figures
read as on a machine where the reference takes its nominal time.  The
reference is pure-Python work in this process (nominal 0.5 ms), or, for
`cli`, whose ops are processes, a fresh interpreter importing a fixed set of
standard-library modules (nominal 150 ms).  An op's time is then its median
over the passes.  With --trace 0 the metrics are:
  setup_s        median of five set-ups: package import in a fresh
                 interpreter plus input generation
  ops_per_s      ops in a pass / sum of op times
  op_p50_ms      median op time
  op_tail_ms     op time at the highest percentile that leaves ten samples
                 beyond it in a run of k_min passes (in "info")
  ok_ratio       1 - failed / attempted
  peak_rss_mb    peak RSS of this process (of the CLI processes for `cli`)
  classes_per_s  stable-tree classes handled per second: census classes
                 produced, or input trees taken through the pipeline
With --trace 1 every library call the benchmark makes runs inside a span
(name, start, end, parent, op id), and the metrics are per pass:
<span>.calls, <span>.self_s and <span>.errors, work counts read off the
outputs, and op.wall_s (the traced pass time, to set against the untraced
pass time for the tracing overhead).  Spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("census", "sweep", "bigtrees", "cli")
SETUP_REPEATS = 5
MAX_MEASURE_S = 120.0  # stop starting passes after this, to exit well within 180 s

# Spans whose calls, self time and errors are reported per layer.
SPANS = (
    "trees.from_dict",
    "trees.validate_stable",
    "trees.canonical_code",
    "central.find_central",
    "central.contract_F_m",
    "forms.classify",
    "strata.classify_stratum",
    "strata.image_dimension",
    "covers.build_cover",
    "covers.stable_model",
    "covers.model_canonical_code",
    "reduction.reduce",
    "census.enumerate_stable_trees",
    "cli.interpreter",
    "cli.import",
    "cli.main",
    "cli.process",
    "op",
)
COUNTS = (
    "covers.cover_components",
    "covers.cover_nodes",
    "covers.model_components",
    "covers.model_code_perms",
    "reduction.depth_one_checked",
    "census.classes",
)


class PythonWork:
    """A leaf-stripping pass and a canonical code on a fixed 120-vertex tree,
    with the benchmark's own code, never the library's.  Editing that code in
    oracles.py rescales every reported time."""

    nominal_s = 0.0005
    repeats = 3
    every_s = 0.1

    def __init__(self):
        rng = random.Random(0)
        parent = [None] + [rng.randrange(i) for i in range(1, 120)]
        self.weights = {v: 1 + v % 3 for v in range(120)}
        self.edges = [(parent[v], v) for v in range(1, 120)]
        self.adj = oracles.adjacency(self.weights, self.edges)

    def __call__(self):
        oracles.TreeFacts(self.weights, self.edges)
        oracles.canonical_code(self.weights, self.adj)


class StdlibImport:
    """A fresh interpreter importing a fixed set of standard-library modules:
    process start plus module loading, like a CLI op, without the library."""

    nominal_s = 0.15
    repeats = 1
    every_s = 1.0
    MODULES = ("asyncio, email.mime.multipart, http.client, xml.dom.minidom, decimal, "
               "fractions, statistics, argparse, json, dataclasses, unittest")

    def __call__(self):
        subprocess.run([sys.executable, "-c", f"import {self.MODULES}"], check=True,
                       timeout=60)


class SpeedGauge:
    """Times a reference between ops, to scale op times to a nominal speed."""

    def __init__(self, reference):
        self.reference = reference
        self.samples: list[float] = []
        self.last = -math.inf

    def probe(self, force: bool = False) -> int:
        """Time the reference (best of a few) if due; index of the latest sample."""
        if force or time.perf_counter() - self.last >= self.reference.every_s:
            best = math.inf
            for _ in range(self.reference.repeats):
                t0 = time.perf_counter()
                self.reference()
                best = min(best, time.perf_counter() - t0)
            self.samples.append(best)
            self.last = time.perf_counter()
        return len(self.samples) - 1

    def scale(self, i: int) -> float:
        """Factor for work done between samples i and i + 1."""
        after = self.samples[min(i + 1, len(self.samples) - 1)]
        return self.reference.nominal_s / ((self.samples[i] + after) / 2)


class NullTracer:
    enabled = False
    op_id = None

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """Spans in memory: (name, start, end, parent index, op id, raised).

    A span is stored as a tuple of atoms once it ends, so the collector stops
    tracking it and a long trace does not slow later collections.
    """

    enabled = True

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.op_id = None
        self._open: list[int] = []

    def call(self, name, fn, *args):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        raised = False
        start = time.perf_counter()
        try:
            return fn(*args)
        except BaseException:
            raised = True
            raise
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.op_id, raised)

    def per_name(self, op_scale: dict) -> dict[str, tuple[int, float, int]]:
        """name -> (calls, scaled self seconds per pass, errors).

        Self time is a span's duration minus its children's.  Like the op
        times, each op's self time in a layer is its median over the passes.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: Counter = Counter()
        errors: Counter = Counter()
        by_slot: dict[tuple, dict[int, float]] = {}
        for i, (name, start, end, _, op, raised) in enumerate(self.spans):
            calls[name] += 1
            errors[name] += raised
            per_pass = by_slot.setdefault((name, op[1]), {})
            own = (end - start - child[i]) * op_scale[op]
            per_pass[op[0]] = per_pass.get(op[0], 0.0) + own
        self_s: Counter = Counter()
        for (name, _), per_pass in by_slot.items():
            self_s[name] += statistics.median(per_pass.values())
        # cli.import is a bare `import hyperforms.cli` process minus a bare
        # interpreter process, both timed whole.
        self_s["cli.import"] -= self_s["cli.interpreter"]
        return {name: (calls[name], self_s[name], errors[name]) for name in SPANS}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op, raised in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "error": raised}) + "\n")


def child_import_seconds() -> float:
    """Import time of the package in a fresh interpreter, timed inside it."""
    code = ("import time; t = time.perf_counter(); import hyperforms, hyperforms.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed in a child interpreter: {proc.stderr.strip()}")
    return float(proc.stdout)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                          cwd=ROOT, timeout=30)
    return proc.stdout.strip() or "unknown"


class Measurement:
    """Whole passes until `seconds` have passed and wl.k_min passes are done."""

    def __init__(self, wl, inputs, tracer, gauge: SpeedGauge, seconds: float):
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.attempted = self.failed = self.wrong = self.passes = 0
        samples = []  # (pass, slot, seconds, gauge sample index)
        start = time.perf_counter()
        while self.passes < wl.k_min or time.perf_counter() - start < seconds:
            if time.perf_counter() - start > MAX_MEASURE_S:
                break
            ops = wl.ops(inputs, self.counts)
            # Modules, inputs and the op list live all run: keep them out of
            # every collection, so a collection costs what the ops allocate.
            gc.collect()
            gc.freeze()
            for i, op in enumerate(ops):
                tracer.op_id = (self.passes, i)
                result = None  # free the last output here, not inside the next timing
                gc.collect()  # between ops only; the collector stays on while timing
                g = gauge.probe()
                t0 = time.perf_counter()
                try:
                    result = tracer.call("op", op.run, tracer)
                except Exception as exc:
                    result, error = None, exc
                else:
                    error = None
                samples.append((self.passes, i, time.perf_counter() - t0, g))
                self._judge(op, result, error, tracer)
            gauge.probe(force=True)
            self.passes += 1
        self.op_scale = {(p, i): gauge.scale(g) for p, i, _, g in samples}
        n_slots = max(i for _, i, _, _ in samples) + 1
        raw = [[] for _ in range(n_slots)]
        scaled = [[] for _ in range(n_slots)]
        for p, i, t, _ in samples:
            raw[i].append(t)
            scaled[i].append(t * self.op_scale[p, i])
        # Each op's time is its median over the passes.
        self.raw = [statistics.median(ts) for ts in raw]
        self.slot = [statistics.median(ts) for ts in scaled]

    def _judge(self, op, result, error, tracer) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors[type(error).__name__] += 1
            return
        try:
            ok = op.check(result)
            if ok and tracer.enabled and op.probe is not None:
                ok = op.probe(tracer)
        except Exception:  # a check that cannot read the output: wrong output
            ok = False
        if not ok:
            self.failed += 1
            self.wrong += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hyperforms" / "__init__.py").is_file():
        print(f"benchmark: no hyperforms package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports hyperforms from SRC

    nproc = len(os.sched_getaffinity(0))
    # One core for this process and the CLI processes it starts, so that the
    # speed gauge and the ops run where the same neighbours slow them.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = workloads.make(args.workload, SRC)
    gauge = SpeedGauge(StdlibImport() if wl.runs_processes else PythonWork())
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        g = gauge.probe(force=True)
        import_s = child_import_seconds()
        t0 = time.perf_counter()
        inputs = wl.make_inputs(random.Random(args.seed))
        raw_setups.append(import_s + time.perf_counter() - t0)
        gauge.probe(force=True)
        setups.append(raw_setups[-1] * gauge.scale(g))
    serialized = json.dumps(inputs, sort_keys=True).encode()

    tracer = Tracer() if args.trace else NullTracer()
    run = Measurement(wl, inputs, tracer, gauge, args.seconds)

    pass_s = sum(run.slot)
    tail_q = 1 - 10.5 / (len(run.slot) * wl.k_min)  # ten samples beyond, at k_min passes
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": hashlib.sha256(serialized).hexdigest(),
        "python": sys.version.split()[0],
        "networkx": getattr(sys.modules.get("networkx"), "__version__", "not loaded"),
        "nproc": nproc,
        "git_revision": git_revision(),
        "passes": run.passes,
        "ops_per_pass": len(run.slot),
        "samples": run.attempted,
        "op_tail_percentile": round(100 * tail_q, 2),
        "errors": dict(run.errors),
        "wrong_outputs": run.wrong,
        "reference_ms": {"nominal": 1000 * gauge.reference.nominal_s,
                         "median": 1000 * statistics.median(gauge.samples)},
        "unscaled": {"setup_s": statistics.median(raw_setups),
                     "ops_per_s": len(run.raw) / sum(run.raw),
                     "op_p50_ms": 1000 * nearest_rank(run.raw, 0.5),
                     "op_tail_ms": 1000 * nearest_rank(run.raw, tail_q)},
    }
    if args.trace:
        metrics = {}
        for name, (calls, self_s, errs) in tracer.per_name(run.op_scale).items():
            metrics[f"{name}.calls"] = {"value": calls / run.passes, "unit": "count"}
            metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
            metrics[f"{name}.errors"] = {"value": errs / run.passes, "unit": "count"}
        for name in COUNTS:
            metrics[name] = {"value": run.counts[name] / run.passes, "unit": "count"}
        metrics["op.wall_s"] = {"value": pass_s, "unit": "s"}
        tracer.dump(ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(run.slot) / pass_s, "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * nearest_rank(run.slot, 0.5), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * nearest_rank(run.slot, tail_q), "unit": "ms"},
            "ok_ratio": {"value": 1 - run.failed / run.attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
            "classes_per_s": {"value": wl.classes_per_pass(inputs) / pass_s, "unit": "1/s"},
        }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": run.wrong == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
