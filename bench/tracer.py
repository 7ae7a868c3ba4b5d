"""Span tracing of aqbell's layers, applied from outside the package.

Each layer's public entry points are wrapped by rebinding the function in
every ``aqbell`` module that holds it by name (``solve`` inside ``aqset`` and
``seesaw``, ``aq_extremize`` inside ``nbf``, ``seesaw`` and ``cli``, ...), so
calls between modules pass through the wrapper.  Spans (name, start, end,
parent) are kept in memory; per-layer figures are derived from them when a
unit of work ends.
"""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, function): the public entry points of each layer
ENTRY_POINTS = (
    ("aqbell.cli", "main"),
    ("aqbell.nbf", "verify_nbf"),
    ("aqbell.nbf", "compose"),
    ("aqbell.seesaw", "run"),
    ("aqbell.seesaw", "step_behavior"),
    ("aqbell.seesaw", "step_functionals"),
    ("aqbell.aqset", "aq_extremize"),
    ("aqbell.aqset", "compile_extremize"),
    ("aqbell.aqset", "build_moment_structure"),
    ("aqbell.algebra", "word_classes"),
    ("aqbell.sdp", "solve"),
    ("aqbell.scenario", "from_collins_gisin"),
)
# layers that do work inside a unit; algebra runs only while structures are
# built, and is reported through algebra.word_classes_s
UNIT_LAYERS = ("cli", "nbf", "seesaw", "aqset", "sdp", "scenario")
SOLVE_KINDS = ("extremize", "family", "outer")
STEP_KINDS = ("behavior", "family", "outer")


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs", "children")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs = {}
        self.children = []

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(child.duration for child in self.children)

    def covered(self, names) -> float:
        """Time of the outermost descendants whose name is in ``names``."""
        total = 0.0
        for child in self.children:
            total += child.duration if child.name in names else child.covered(names)
        return total

    def to_json(self, index_of) -> dict:
        parent = None if self.parent is None else index_of[id(self.parent)]
        return {"name": self.name, "start": self.start, "end": self.end, "parent": parent, **self.attrs}


def _annotate_call(span, name, args, kwargs):
    if name == "aqset.aq_extremize":
        span.attrs["solve_kind"] = "extremize"
    elif name == "seesaw.step_behavior":
        span.attrs["step"] = "behavior"
    elif name == "seesaw.step_functionals":
        free = kwargs.get("free", args[3] if len(args) > 3 else None)
        span.attrs["step"] = free
        span.attrs["solve_kind"] = free


def _annotate_result(span, name, args, result):
    if name == "sdp.solve":
        problem = args[0]
        span.attrs.update(
            n=problem.total_dim,
            block_dims=list(problem.block_dims),
            m=problem.num_constraints,
            iterations=result.iterations,
            status=result.status.value,
            residuals=[result.residuals.primal, result.residuals.dual, result.residuals.gap],
        )
    elif name == "aqset.compile_extremize":
        problem = result.problem
        nbytes = problem.b.nbytes + sum(a.nbytes for a in problem.a_stacks) + sum(
            c.nbytes for c in problem.c_blocks
        )
        span.attrs["problem_bytes"] = nbytes


class Tracer:
    """Collects spans while installed; ``roots`` holds the top-level spans."""

    def __init__(self):
        self.roots: list = []
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, parent, time.perf_counter())
            (parent.children if parent else tracer.roots).append(span)
            if name == "sdp.solve":
                span.attrs["kind"] = next(
                    (s.attrs["solve_kind"] for s in reversed(tracer._stack) if "solve_kind" in s.attrs),
                    "other",
                )
            _annotate_call(span, name, args, kwargs)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            _annotate_result(span, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Rebind every entry point in every aqbell module that holds it."""
        modules = [mod for key, mod in sys.modules.items() if key == "aqbell" or key.startswith("aqbell.")]
        try:
            for module_name, attr in ENTRY_POINTS:
                original = getattr(sys.modules[module_name], attr)
                layer = module_name.rsplit(".", 1)[1]
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            while self._saved:
                mod, key, original = self._saved.pop()
                setattr(mod, key, original)

    def take(self) -> list:
        """Detach and return the spans recorded so far."""
        roots, self.roots = self.roots, []
        return roots


def walk(roots):
    for span in roots:
        yield span
        yield from walk(span.children)


def spans_to_json(roots) -> list:
    spans = list(walk(roots))
    index_of = {id(span): i for i, span in enumerate(spans)}
    return [span.to_json(index_of) for span in spans]


def setup_metrics(roots) -> dict:
    """Per-layer figures of the set-up phase (moment-structure builds)."""
    spans = list(walk(roots))
    return {
        "aqset.build_moment_structure_s": sum(
            s.duration for s in spans if s.name == "aqset.build_moment_structure" and s.parent is None
        ),
        "algebra.word_classes_s": sum(s.duration for s in spans if s.name == "algebra.word_classes"),
    }


def unit_metrics(roots) -> dict:
    """Per-layer figures of one unit of work."""
    spans = list(walk(roots))
    out = {}
    solves = [s for s in spans if s.name == "sdp.solve"]
    for kind in SOLVE_KINDS:
        of_kind = [s for s in solves if s.attrs["kind"] == kind]
        seconds = sum(s.duration for s in of_kind)
        iterations = sum(s.attrs["iterations"] for s in of_kind)
        out[f"sdp.solve_s.{kind}"] = seconds
        out[f"sdp.iterations.{kind}"] = iterations
        out[f"sdp.iter_ms.{kind}"] = 1e3 * seconds / iterations if iterations else 0.0
    out["sdp.solves"] = len(solves)
    out["sdp.failed"] = sum(1 for s in solves if s.attrs["status"] != "optimal")

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    out["aqset.compile_s"] = total("aqset.compile_extremize")
    out["aqset.extremize_self_s"] = sum(
        s.duration - s.covered({"aqset.compile_extremize", "sdp.solve"})
        for s in spans
        if s.name == "aqset.aq_extremize"
    )
    out["aqset.problem_mb"] = max(
        (s.attrs["problem_bytes"] / 1e6 for s in spans if s.name == "aqset.compile_extremize"), default=0.0
    )
    out["scenario.from_collins_gisin_s"] = total("scenario.from_collins_gisin")
    out["nbf.verify_nbf_s"] = total("nbf.verify_nbf")
    out["nbf.verify_nbf_calls"] = calls("nbf.verify_nbf")
    out["nbf.compose_s"] = total("nbf.compose")
    out["nbf.compose_calls"] = calls("nbf.compose")
    for step in STEP_KINDS:
        steps = [s for s in spans if s.name.startswith("seesaw.step_") and s.attrs["step"] == step]
        out[f"seesaw.step_s.{step}"] = sum(s.duration for s in steps)
        out[f"seesaw.self_s.{step}"] = sum(s.duration - s.covered({"sdp.solve", "nbf.compose"}) for s in steps)
    out["seesaw.sweeps"] = calls("seesaw.step_behavior")
    for layer in UNIT_LAYERS:
        out[f"{layer}.self_s"] = sum(s.self_time for s in spans if s.layer == layer)
    return out


def solve_context(roots) -> dict:
    """Problem size, iterations, status and worst residuals per solve kind
    and problem shape."""
    out: dict = {}
    for s in walk(roots):
        if s.name != "sdp.solve":
            continue
        a = s.attrs
        shape = f"n={a['n']} blocks={'+'.join(map(str, a['block_dims']))} m={a['m']}"
        entry = out.setdefault(a["kind"], {}).setdefault(
            shape,
            {"n": a["n"], "block_dims": a["block_dims"], "m": a["m"], "solves": 0,
             "iterations": [], "status": {}, "worst_residuals": [0.0, 0.0, 0.0]},
        )
        entry["solves"] += 1
        entry["iterations"].append(a["iterations"])
        entry["status"][a["status"]] = entry["status"].get(a["status"], 0) + 1
        entry["worst_residuals"] = [max(w, r) for w, r in zip(entry["worst_residuals"], a["residuals"])]
    for shapes in out.values():
        for entry in shapes.values():
            its = entry.pop("iterations")
            entry["iterations"] = {"min": min(its), "max": max(its), "total": sum(its)}
    return out
