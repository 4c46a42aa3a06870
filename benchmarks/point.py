"""Point requests: execution as the CLI does it, latency, and the gate.

Library calls go through module attributes (`bounds.certify_point`, not a
name imported once) so that installed trace wrappers see them.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

from axheights import bounds, cli, curve, errors, heights

from inputs import ROUND_SIZE, Request

#: Family results the CLI documents with their own exit codes.
DOCUMENTED = (errors.RowValidationFailed, errors.NoRationalHalf)

#: Depth of the oracle requests.
ORACLE_DEPTH = 8

#: Runs of a speed kernel per reading; the best of them reads the machine's
#: speed at that moment.
PROBES = 3

#: Which speed kernel scales each class (README, "Machine speed"): the
#: machine's slow state costs Fraction arithmetic on numbers of at most a
#: few hundred digits about what it costs the small kernel, and arithmetic
#: on thousands of digits about what it costs the big one.
KERNEL_OF = {"verify-d100": "small", "extremal": "small",
             "verify-d1000": "big", "verify-d4000": "big", "oracle8": "big"}


@dataclass
class Outcome:
    request: Request
    seconds: float
    result: object = None
    error: str | None = None
    message: str = ""
    #: mean of the speed readings just before and just after the request
    kernel_seconds: float = 0.0

    @property
    def latency_ms(self) -> float:
        """Latency in ms at the reference machine speed."""
        kind = KERNEL_OF[self.request.cls]
        return 1e3 * at_reference(self.seconds, self.kernel_seconds, kind)


def x_digits(x) -> int:
    """Decimal digits of max(|num|, den), from bit_length (no str())."""
    bits = max(abs(x.numerator), x.denominator).bit_length()
    return int(bits * math.log10(2)) + 1


def _verify(req: Request):
    c = curve.Curve(req.a)
    q = c.multiply(req.n, curve.Point(req.x, req.y))
    if not c.contains(q):
        raise errors.NotOnCurve(f"{req.n}P is not on the curve")
    return bounds.certify_point(c, q), heights.canonical_height(c, q), q


def _extremal(req: Request):
    candidate = cli._extremal_candidate(req.family, req.parameter)
    c = curve.Curve(candidate.a)
    checks = bounds.certify_point(c, candidate.point)
    return candidate, checks, heights.canonical_height(c, candidate.point)


def _oracle(req: Request):
    c = curve.Curve(req.a)
    p = curve.Point(req.x, req.y)
    if not c.contains(p):
        raise errors.NotOnCurve(f"{p} is not on the curve")
    bd = heights.canonical_height(c, p)
    return bd, heights.limit_oracle(c, p, ORACLE_DEPTH)


_RUN = {"verify-d100": _verify, "verify-d1000": _verify, "verify-d4000": _verify,
        "extremal": _extremal, "oracle8": _oracle}


def execute(req: Request, tracer=None) -> Outcome:
    """Run one request; an undocumented exception becomes a failure record."""
    run = _RUN[req.cls]
    span = None
    if tracer is not None:
        tracer.request = req.id
        span = tracer.open(f"request.{req.cls}")
    started = time.perf_counter()
    outcome = Outcome(req, 0.0)
    try:
        outcome.result = run(req)
    except DOCUMENTED:
        pass  # a documented result: the request completed without a point
    except Exception as exc:  # every other exception is a counted failure
        outcome.error, outcome.message = type(exc).__name__, str(exc)[:200]
    outcome.seconds = time.perf_counter() - started
    if span is not None:
        if run is _verify and outcome.result is not None:
            tracer.spans[span].attrs["digits"] = x_digits(outcome.result[2].x)
        tracer.close(span)
        tracer.request = None
    return outcome


def _double(x: Fraction) -> Fraction:
    return (x * x - 3) ** 2 / (4 * (x**3 + 3 * x))


_BIG_X = Fraction(27, 121)
for _ in range(4):
    _BIG_X = _double(_BIG_X)


def _small_kernel() -> None:
    x = Fraction(27, 121)
    for _ in range(4):
        x = _double(x)


def _big_kernel() -> None:
    _double(_BIG_X)


#: Speed kernels, fixed Fraction arithmetic that never touches axheights:
#: four x -> x(2x) steps from 27/121 (small), and one step on the result,
#: a fraction of about 500 digits (big).  Each comes with the reading, in
#: ms, at which scaled times equal measured ones: about its best run when
#: the machine is in its fast state.
KERNELS = {"small": (_small_kernel, 0.1), "big": (_big_kernel, 0.3)}


def speed_kernel(kind: str = "small") -> float:
    """Seconds of one run of a speed kernel."""
    started = time.perf_counter()
    KERNELS[kind][0]()
    return time.perf_counter() - started


def machine_speed(kind: str = "small") -> float:
    """Best of PROBES kernel runs: the machine's speed at this moment."""
    return min(speed_kernel(kind) for _ in range(PROBES))


def at_reference(seconds: float, kernel_seconds: float, kind: str = "small") -> float:
    """`seconds` measured while a reading of kernel `kind` gave
    `kernel_seconds`, scaled to the reference machine speed."""
    return seconds * KERNELS[kind][1] / (1e3 * kernel_seconds)


def run_for(requests, seconds: float) -> tuple[list[Outcome], float]:
    """Closed loop with one caller: next request once the last one returns.

    Stops at the end of the round in which the time runs out, so every class
    keeps its share of the requests.  The class's speed kernel is read just
    before and just after each request (a reading between two requests of
    one kernel serves both), and the outcome keeps the mean of the two.
    Returns the outcomes and the seconds spent in requests, readings left out.
    """
    outcomes = []
    deadline = time.perf_counter() + seconds
    last: dict[str, float] = {}
    for req in requests:
        if outcomes and req.id % ROUND_SIZE == 0 and time.perf_counter() >= deadline:
            break
        kind = KERNEL_OF[req.cls]
        before = last[kind] if kind in last else machine_speed(kind)
        outcome = execute(req)
        last = {kind: machine_speed(kind)}
        outcome.kernel_seconds = (before + last[kind]) / 2
        outcomes.append(outcome)
    return outcomes, sum(o.seconds for o in outcomes)


def oracle_envelope(a: int, depth: int = ORACLE_DEPTH) -> float:
    """|hhat - (1/2)h(2^d P)/4^d| < ((1/4)log|a| + 0.6)/4^d on a minimal model."""
    return (0.25 * math.log(abs(a)) + 0.6) / 4.0**depth


def gate(outcomes: list[Outcome]) -> list[str]:
    """Correctness problems in completed requests, one line each."""
    problems = []
    base_heights: dict[tuple, object] = {}
    for o in outcomes:
        req = o.request
        if o.result is None:
            continue
        if req.cls == "oracle8":
            bd, oracle = o.result
            gap = abs(bd.canonical - oracle)
            if not gap < oracle_envelope(req.a):
                problems.append(f"request {req.id}: oracle gap {gap:.3e} outside envelope "
                                f"{oracle_envelope(req.a):.3e} (a={req.a}, x={req.x})")
            continue
        if req.cls == "extremal":
            candidate, checks, _ = o.result
            if not candidate.validated:
                problems.append(f"request {req.id}: {req.family}({req.parameter}) not validated")
        else:
            checks, bd, _ = o.result
            key = (req.a, req.x, req.y)
            if key not in base_heights:
                base_heights[key] = heights.canonical_height(
                    curve.Curve(req.a), curve.Point(req.x, req.y))
            base = base_heights[key]
            n2 = req.n * req.n
            drift = abs(bd.canonical - n2 * base.canonical)
            allowed = bd.error_bound + n2 * base.error_bound
            if not drift <= allowed:
                problems.append(
                    f"request {req.id}: |hhat(nP) - n^2 hhat(P)| = {drift:.3e} > {allowed:.3e} "
                    f"(a={req.a}, x={req.x}, n={req.n})")
        failed = [c.theorem for c in checks if c.status == "fail"]
        if failed:
            problems.append(f"request {req.id}: {req.cls} failed {failed}")
    return problems


def failure_records(workload: str, outcomes: list[Outcome]) -> list[dict]:
    records = []
    for o in outcomes:
        if o.error is None:
            continue
        req = o.request
        if req.cls == "extremal":
            inputs = {"family": req.family, "parameter": req.parameter}
        else:
            inputs = {"a": req.a, "x": str(req.x), "y": str(req.y), "n": req.n}
        records.append({"workload": workload, "request": req.cls, "input": inputs,
                        "exception": o.error, "message": o.message})
    return records


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its value.

    With ten samples or fewer no such percentile exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return 100.0, ordered[-1]
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def latency_summary(outcomes: list[Outcome], classes) -> dict[str, dict]:
    """Median and tail latency per class over completed requests, with the
    wall-clock figures and the median speed reading beside."""
    out = {}
    for cls in classes:
        done = [o for o in outcomes if o.request.cls == cls and o.error is None]
        if not done:
            out[cls] = {"n": 0, "p50_ms": float("nan"), "tail_ms": float("nan"),
                        "tail_percentile": None}
            continue
        samples = [o.latency_ms for o in done]
        wall = [o.seconds * 1e3 for o in done]
        pct, value = tail(samples)
        out[cls] = {"n": len(done), "p50_ms": statistics.median(samples),
                    "tail_ms": value, "tail_percentile": pct,
                    "wall_p50_ms": statistics.median(wall), "wall_tail_ms": tail(wall)[1],
                    "kernel": KERNEL_OF[cls],
                    "kernel_ms": 1e3 * statistics.median(o.kernel_seconds for o in done)}
    return out
