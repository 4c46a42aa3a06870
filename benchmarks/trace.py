"""Spans around the public calls of each axheights module, kept in memory.

The wrappers are installed from outside the package: each traced function
is replaced in every module namespace that holds it (and methods on their
class), so calls the package makes internally are recorded too, and
`uninstall` puts the originals back.  Leaf functions that run thousands of
times per point (`Curve.contains`, `factorize`, the local heights) are not
wrapped; `probe` times standalone calls to them on the same inputs instead,
and marks those spans as probes.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import dataclass, field

from axheights import arithmetic, bounds, cli, curve, families, heights, local_heights

MODULES = (arithmetic, curve, local_heights, heights, bounds, families, cli)

#: Spans that only hold stages: their self time is the part of the wall
#: time that no stage accounts for.
CONTAINERS = ("cli.main", "bounds.sweep", "bounds.sweep_curve")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: object = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _oracle_name(args, kwargs) -> str:
    depth = kwargs.get("doublings", args[2] if len(args) > 2 else 6)
    return f"heights.limit_oracle.d{depth}"


def _mark_inconclusive(span, result) -> None:
    checks = result[0]
    span.attrs["inconclusive"] = any(c.status == "inconclusive" for c in checks)


def _mark_found(span, result) -> None:
    span.attrs["points_found"] = len(result)


class Tracer:
    """Records spans (name, start, end, parent, request id) in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: object = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               request=self.request, attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, error: BaseException | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if error is not None:
            span.attrs["error"] = type(error).__name__
        self._stack.pop()

    def wrap(self, fn, name, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index, exc)
                raise
            tracer.close(index)
            if on_result is not None:
                on_result(tracer.spans[index], result)
            return result

        return traced

    def probe(self, name: str, fn, *args):
        """Time one standalone call; a raised exception is kept on the span."""
        index = self.open(name, probe=True)
        try:
            fn(*args)
        except Exception as exc:  # a probe failing must not stop the run
            self.close(index, exc)
            return
        self.close(index)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        targets = [
            (cli, "main", "cli.main", None),
            (bounds, "sweep", "bounds.sweep", None),
            (bounds, "sweep_curve", "bounds.sweep_curve", None),
            (bounds, "find_points", "bounds.find_points", _mark_found),
            # certify_point is _certify(...)[0]; the sweep calls _certify
            # directly, so the span sits on _certify to catch both callers
            (bounds, "_certify", "bounds.certify_point", _mark_inconclusive),
            (bounds, "check_b2_bounds", "bounds.check_b2_bounds", None),
            (heights, "canonical_height", "heights.canonical_height", None),
            (heights, "nonarch_sum_identity", "heights.nonarch_sum_identity", None),
            (heights, "limit_oracle", _oracle_name, None),
            (families, "family_lang_pos", "families.generate", None),
            (families, "family_lang_neg", "families.generate", None),
            (families, "family_diff", "families.generate", None),
            (families, "halve_point", "families.halve_point", None),
        ]
        for owner, attr, name, hook in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, hook)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)
        for attr in ("multiply", "double"):
            original = getattr(curve.Curve, attr)
            self._undo.append((curve.Curve, attr, original))
            setattr(curve.Curve, attr, self.wrap(original, f"curve.Curve.{attr}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        return [s.seconds - c for s, c in zip(self.spans, covered)]

    def stage_seconds(self, requests: set) -> float:
        """Self time of every library stage recorded for these requests."""
        return sum(t for s, t in zip(self.spans, self.self_seconds())
                   if s.request in requests and not s.attrs.get("probe")
                   and s.name not in CONTAINERS and not s.name.startswith("request."))

    def write(self, path: str) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "parent": span.parent,
                    "request": span.request,
                    **span.attrs,
                }) + "\n")


def probe_point(tracer, a, x, y) -> None:
    """Standalone leaf calls on one point, on its fourth-power-free model."""
    c = curve.Curve(a)
    p = curve.Point(x, y)
    tracer.probe("curve.Curve.contains", c.contains, p)
    minimal, q, _ = heights._to_minimal(c, p)
    two_a = 2 * minimal.a
    tracer.probe("arithmetic.factorize", arithmetic._factorize_cached.__wrapped__,
                 two_a, arithmetic.RHO_BUDGET)
    tracer.probe("local_heights.lambda_archimedean", local_heights.lambda_archimedean, minimal, q)
    for prime in arithmetic.factorize(two_a):
        tracer.probe("local_heights.lambda_nonarch", local_heights.lambda_nonarch, minimal, q, prime)
    # canonical_height itself stops factoring denominators beyond this size
    if q.x.denominator <= heights._ITEMIZE_LIMIT:
        tracer.probe("heights.height_primes", heights.height_primes, minimal, q)


def probe_outcome(tracer, outcome) -> None:
    """Probe the point a completed request worked on."""
    req = outcome.request
    if outcome.result is None:
        return
    if req.cls == "extremal":
        candidate = outcome.result[0]
        probe_point(tracer, candidate.a, candidate.point.x, candidate.point.y)
    elif req.cls == "oracle8":
        probe_point(tracer, req.a, req.x, req.y)
    else:
        q = outcome.result[2]
        probe_point(tracer, req.a, q.x, q.y)



def layer_metrics(tracer: Tracer, workers: int) -> dict[str, float]:
    """Per-layer figures from the recorded spans.

    `.s` figures are self times.  Sweep figures come from the serial sweep
    (request "sweep-w1"); the pool overhead compares the parallel sweep
    (request "sweep-w<workers>") with the ideal makespan of those per-curve
    serial times.
    """
    own = tracer.self_seconds()
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, seconds in zip(tracer.spans, own):
        total[span.name] = total.get(span.name, 0.0) + seconds
        calls[span.name] = calls.get(span.name, 0) + 1

    def spans(name, request=None):
        return [s for s in tracer.spans
                if s.name == name and (request is None or s.request == request)]

    curves = [s.seconds for s in spans("bounds.sweep_curve", "sweep-w1")]
    serial = spans("bounds.sweep", "sweep-w1")
    parallel = spans("bounds.sweep", f"sweep-w{workers}")
    if parallel and curves:
        ideal = max(sum(curves) / workers, max(curves))
        overhead = parallel[0].seconds - ideal
    elif serial and curves:
        overhead = serial[0].seconds - sum(curves)
    else:
        overhead = 0.0
    main_request = f"sweep-w{workers}" if parallel else "sweep-w1"
    out = {
        "bounds.find_points.s": total.get("bounds.find_points", 0.0),
        "bounds.find_points.calls": calls.get("bounds.find_points", 0),
        "bounds.find_points.points_found": sum(
            s.attrs.get("points_found", 0) for s in spans("bounds.find_points")),
        "heights.limit_oracle.d6.s": total.get("heights.limit_oracle.d6", 0.0),
        "heights.limit_oracle.d8.s": total.get("heights.limit_oracle.d8", 0.0),
        "bounds.certify_point.s": total.get("bounds.certify_point", 0.0),
        "bounds.certify_point.calls": calls.get("bounds.certify_point", 0),
        "bounds.certify_point.inconclusive": sum(
            1 for s in spans("bounds.certify_point") if s.attrs.get("inconclusive")),
        "bounds.check_b2_bounds.s": total.get("bounds.check_b2_bounds", 0.0),
        "heights.canonical_height.s": total.get("heights.canonical_height", 0.0),
        "heights.height_primes.s": total.get("heights.height_primes", 0.0),
        "heights.nonarch_sum_identity.s": total.get("heights.nonarch_sum_identity", 0.0),
        "local_heights.lambda_archimedean.s": total.get("local_heights.lambda_archimedean", 0.0),
        "local_heights.lambda_archimedean.calls": calls.get("local_heights.lambda_archimedean", 0),
        "local_heights.lambda_nonarch.s": total.get("local_heights.lambda_nonarch", 0.0),
        "local_heights.lambda_nonarch.calls": calls.get("local_heights.lambda_nonarch", 0),
        "curve.Curve.multiply.s": total.get("curve.Curve.multiply", 0.0),
        "curve.Curve.double.s": total.get("curve.Curve.double", 0.0),
        "curve.Curve.contains.s": total.get("curve.Curve.contains", 0.0),
        "arithmetic.factorize.s": total.get("arithmetic.factorize", 0.0),
        "families.generate.s": total.get("families.generate", 0.0),
        "families.halve_point.s": total.get("families.halve_point", 0.0),
        "families.no_half": sum(
            1 for s in spans("families.generate") if s.attrs.get("error") == "NoRationalHalf"),
        "families.row_invalid": sum(
            1 for s in spans("families.generate") if s.attrs.get("error") == "RowValidationFailed"),
        "bounds.sweep_curve.p50_ms": 1e3 * statistics.median(curves) if curves else 0.0,
        "bounds.sweep_curve.max_s": max(curves) if curves else 0.0,
        "bounds.sweep.pool_overhead_s": overhead,
        "cli.main.s": sum(own[i] for i, s in enumerate(tracer.spans)
                          if s.name == "cli.main" and s.request == main_request),
    }
    return out
