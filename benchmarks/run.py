#!/usr/bin/env python3
"""The axheights benchmark: one workload per invocation.

    python3 benchmarks/run.py --workload sweep-serial --seed 0 --seconds 36 --trace 0

Workloads (see README.md for why each exists):

* sweep-serial  `axheights sweep` over a 401-curve window, search bound 100,
                one worker, then the point-request stream for the rest of
                the time.
* sweep-par     the same window with two workers, an untimed one-worker
                sweep whose output must match byte for byte, then the point
                stream for the rest of the time.
* point         the point-request stream only.

With --trace 0 the last stdout line carries every end-to-end metric of
BENCHMARK.json; with --trace 1 it carries every per-layer metric, taken from
a traced pass that repeats an untraced one.  The line before it holds the
run metadata, latency detail, failure records and gate findings.  The exit
code is 0 only when the correctness gate passes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("sweep-serial", "sweep-par", "point")
PAR_WORKERS = 2
SETUP_RUNS = 7
WARM_UP = (
    "import time\n"
    "import axheights\n"
    "from axheights import Curve, affine, certify_point, find_points\n"
    "from axheights.arithmetic import small_primes\n"
    "small_primes()\n"
    "certify_point(Curve(-2), affine(-1, 1))\n"
    "find_points(Curve(-2), 10)\n"
    "ready = time.perf_counter()\n"
    "import point\n"
    "print(ready, point.machine_speed('big'))\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> list[tuple[float, float]]:
    """Fresh interpreters that import axheights and warm up: for each, the
    seconds from launch to ready and the machine speed read right after."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    samples = []
    for _ in range(SETUP_RUNS):
        started = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", WARM_UP], env=env, check=True,
                               stdout=subprocess.PIPE, text=True)
        ready, kernel = map(float, child.stdout.split())
        samples.append((ready - started, kernel))
    return samples


@contextlib.contextmanager
def curve_speeds(directory: str):
    """Read the machine's speed after every curve of a sweep.

    `bounds.sweep_curve` is wrapped for the duration; pool workers are
    forked and inherit the wrapper.  Each process appends, per curve, the
    curve's seconds, the mean of the speed readings around it and the
    seconds the reading after it took to speed-<pid>.txt in `directory`.
    Yields a function that returns every record written so far.
    """
    import point
    from axheights import bounds

    original = bounds.sweep_curve
    last: dict[int, float] = {}

    def timed(*args, **kwargs):
        pid = os.getpid()
        before = last[pid] if pid in last else point.machine_speed()
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - started
            last[pid] = point.machine_speed()
            probing = time.perf_counter() - started - seconds
            with open(os.path.join(directory, f"speed-{pid}.txt"), "a", encoding="utf-8") as out:
                out.write(f"{seconds} {(before + last[pid]) / 2} {probing}\n")

    def records() -> list[tuple[float, float, float]]:
        rows = []
        for name in os.listdir(directory):
            if name.startswith("speed-"):
                with open(os.path.join(directory, name), encoding="utf-8") as handle:
                    rows += [tuple(map(float, line.split())) for line in handle]
        return rows

    bounds.sweep_curve = timed
    try:
        yield records
    finally:
        bounds.sweep_curve = original


def git_commit() -> str | None:
    """HEAD of the checkout read from .git directly; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed: int) -> dict:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "axheights")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
        "calibration_ms": calibration_ms(),
    }


def calibration_ms() -> float:
    """Median time of the speed kernel, which never touches axheights: a
    reading of the machine's speed at that moment, not of the program."""
    import point

    return 1e3 * statistics.median(point.speed_kernel() for _ in range(25))


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def sweep_gate(raw: bytes, code: int) -> tuple[dict, list[str]]:
    doc = json.loads(raw)
    problems = []
    if code != 0:
        problems.append(f"sweep exited with {code}")
    if doc["violations"]:
        problems.append(f"{len(doc['violations'])} violations, first {doc['violations'][0]}")
    if doc["failures"]:
        problems.append(f"{len(doc['failures'])} failures, first {doc['failures'][0]}")
    bad = [(r["a"], r["x"]) for r in doc["rows"] if not r["all_pass"]]
    if bad:
        problems.append(f"{len(bad)} rows without all_pass, first {bad[0]}")
    if doc["points_certified"] != len(doc["rows"]):
        problems.append("points_certified does not match the row count")
    return doc, problems


def sweep_failures(workload: str, doc: dict) -> list[dict]:
    """Structured records from the sweep's per-curve "a=<a>: <repr>" strings."""
    records = []
    for text in doc["failures"]:
        head, _, rest = text.partition(": ")
        records.append({"workload": workload, "request": "sweep_curve",
                        "input": {"a": int(head[2:])},
                        "exception": rest.split("(", 1)[0], "message": rest[:200]})
    return records


class Run:
    """One benchmark invocation: what it attempted, what failed, what the
    gate found, and the detail printed before the result line."""

    def __init__(self, args, out_dir: str):
        from axheights import cli

        self.cli = cli
        self.workload, self.seed, self.seconds = args.workload, args.seed, args.seconds
        self.workers = PAR_WORKERS if self.workload == "sweep-par" else 1
        self.window = inputs.sweep_window(self.seed)
        self.stream = inputs.point_stream(self.seed)
        self.out_dir = out_dir
        self.problems: list[str] = []
        self.failures: list[dict] = []
        self.attempted = 0
        self.detail: dict = {"workload": self.workload, "run": metadata(self.seed)}
        if self.workload != "point":
            self.detail["window"] = self.window

    def sweep(self, workers: int, tracer=None) -> tuple[float, bytes, dict]:
        """`axheights sweep` in-process, gated; returns (seconds, JSON bytes, doc)."""
        path = os.path.join(self.out_dir, f"sweep-w{workers}.json")
        argv = ["sweep", "--amin", str(self.window[0]), "--amax", str(self.window[1]),
                "--search-bound", str(inputs.SEARCH_BOUND), "--workers", str(workers),
                "--out", path]
        if tracer is not None:
            tracer.request = f"sweep-w{workers}"
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.request = None
        with open(path, "rb") as handle:
            raw = handle.read()
        doc, problems = sweep_gate(raw, code)
        self.problems += problems
        return seconds, raw, doc

    def same_output(self, raw: bytes, other: bytes, what: str) -> None:
        if raw != other:
            self.problems.append(f"sweep output differs {what}")

    def record(self, doc: dict | None = None, outcomes=()) -> None:
        """Count and gate the operations of one measured sweep or request list."""
        import point

        if doc is not None:
            self.attempted += doc["curves_scanned"]
            self.failures += sweep_failures(self.workload, doc)
        self.attempted += len(outcomes)
        self.failures += point.failure_records(self.workload, outcomes)
        self.problems += point.gate(outcomes)

    def measure(self) -> dict[str, float]:
        """End-to-end metrics, with tracing off."""
        import point

        setup = measure_setup()
        scaled = [point.at_reference(seconds, kernel, "big") for seconds, kernel in setup]
        self.detail["setup"] = {"wall_s": [seconds for seconds, _ in setup],
                                "kernel_ms": [1e3 * kernel for _, kernel in setup],
                                "scaled_s": scaled}
        values = {"setup_s": statistics.median(scaled)}
        if self.workload == "point":
            outcomes, _ = point.run_for(self.stream, self.seconds)
            self.record(outcomes=outcomes)
            busy = sum(o.latency_ms for o in outcomes) / 1e3
            values["points_per_s"] = sum(o.error is None for o in outcomes) / busy
        else:
            began = time.perf_counter()
            with curve_speeds(self.out_dir) as records:
                elapsed, raw, doc = self.sweep(self.workers)
                curves = records()
            self.record(doc)
            # the sweep's time less the readings' own, spread over the
            # workers, scaled by the ratio its curves show
            work = sum(seconds for seconds, _, _ in curves)
            scaled_work = sum(point.at_reference(s, k) for s, k, _ in curves)
            probing = sum(p for _, _, p in curves) / self.workers
            sweep_seconds = (elapsed - probing) * scaled_work / work
            values["points_per_s"] = doc["points_certified"] / sweep_seconds
            self.detail["sweep"] = {"wall_s": elapsed, "probing_s": probing,
                                    "scaled_s": sweep_seconds, "points": doc["points_certified"],
                                    "curves": doc["curves_scanned"], "timed_curves": len(curves)}
            del doc
            if self.workers > 1:
                self.same_output(raw, self.sweep(1)[1], f"between 1 and {self.workers} workers")
            # the point phase takes the rest of the run, and at least a third
            rest = self.seconds - (time.perf_counter() - began)
            outcomes, _ = point.run_for(self.stream, max(rest, self.seconds / 3))
            self.record(outcomes=outcomes)
        latency = point.latency_summary(outcomes, inputs.CLASSES)
        for cls, row in latency.items():
            values[f"latency_p50_ms.{cls}"] = row["p50_ms"]
            values[f"latency_tail_ms.{cls}"] = row["tail_ms"]
        self.detail["latency"] = latency
        values["ok_ratio"] = (self.attempted - len(self.failures)) / self.attempted
        values["peak_rss_mb"] = peak_rss_mb()
        return values

    def trace(self, failure_kinds: list[str]) -> dict[str, float]:
        """Per-layer metrics from a traced pass that repeats an untraced one."""
        import point
        import trace

        tracer = trace.Tracer()
        if self.workload == "point":
            first, untraced = point.run_for(self.stream, self.seconds / 2)
            self.problems += point.gate(first)
            tracer.install()
            try:
                began = time.perf_counter()
                outcomes = [point.execute(o.request, tracer) for o in first]
                wall = time.perf_counter() - began
            finally:
                tracer.uninstall()
            self.record(outcomes=outcomes)
            tracer.request = "probe"
            for o in outcomes:
                trace.probe_outcome(tracer, o)
            ids = {o.request.id for o in outcomes}
        else:
            untraced, raw, doc = self.sweep(self.workers)
            self.record(doc)
            tracer.install()
            try:
                if self.workers > 1:
                    # the one-worker sweep gives the per-curve serial times
                    reference = self.sweep(1, tracer)[1]
                    self.same_output(raw, reference, f"between 1 and {self.workers} workers")
                wall, traced, _ = self.sweep(self.workers, tracer)
            finally:
                tracer.uninstall()
            self.same_output(raw, traced, "with tracing on")
            tracer.request = "probe"
            for row in doc["rows"]:
                trace.probe_point(tracer, row["a"], Fraction(row["x"]), Fraction(row["y"]))
            ids = {f"sweep-w{self.workers}"}
        values = trace.layer_metrics(tracer, self.workers)
        values.update({"trace.wall_s": wall, "trace.overhead_s": wall - untraced,
                       "trace.unattributed_s": wall - tracer.stage_seconds(ids)})
        for kind in failure_kinds:
            values[f"failed.{kind}"] = sum(f["exception"] == kind for f in self.failures)
        values["failed.other"] = sum(f["exception"] not in failure_kinds for f in self.failures)
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        path = os.path.join(HERE, "traces", f"{self.workload}-seed{self.seed}.jsonl")
        tracer.write(path)
        self.detail["trace_file"] = os.path.relpath(path, ROOT)
        return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "axheights", "__init__.py")):
        print(f"error: no axheights sources at {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    section = spec["per_layer" if args.trace else "end_to_end"]
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=HERE) as out_dir:
        run = Run(args, out_dir)
        if args.trace:
            kinds = [m["name"][7:] for m in section
                     if m["name"].startswith("failed.") and m["name"] != "failed.other"]
            values = run.trace(kinds)
        else:
            values = run.measure()
    run.detail.update(gate=run.problems, failures=run.failures,
                      wall_s=time.perf_counter() - started, calibration_end_ms=calibration_ms())
    print(json.dumps(run.detail))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }))
    for line in run.problems:
        print(f"gate: {line}", file=sys.stderr)
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
