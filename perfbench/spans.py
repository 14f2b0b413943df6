"""Spans around the package's public functions, for the traced run.

The package's modules import names directly (``propagator`` does
``from .operators import assemble``), so a wrapper is installed on every
module of the package that holds the original function under its name.
Factorization has no public function: it is wrapped at the library call,
through a stand-in for the ``scipy.sparse.linalg`` module that
``propagator`` alone sees.  Per-step calls such as ``step_values`` are not
wrapped; the march span covers them.

Spans stay in memory (name, start, end, parent, operation) and are written
out when the run ends.  A span's self time is its duration minus that of its
direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

LAYER_FUNCTIONS = (
    ("grid", "build_grid"),
    ("operators", "assemble"),
    ("operators", "validate_coefficients"),
    ("fredholm", "solve_profile_shift"),
    ("fredholm", "dense_propagator"),
    ("fredholm", "spectral_analysis"),
    ("validation", "check_fixed_shift"),
    ("validation", "check_positivity"),
    ("validation", "check_mass"),
    ("cli", "parse_config"),
    ("cli", "run"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _ModuleStandIn:
    """Module look-alike that serves some attributes itself."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _march_steps(stepper, values, start_index=0, keep=False):
    return {"steps": stepper.timegrid.steps - start_index}


def _implicit_nnz(matrix, *args, **kwargs):
    return {"implicit_nnz": int(matrix.nnz)}


def _keep_factor(span, lu):
    # nnz(L) + nnz(U) is read after the operation, outside every span.
    span.attrs["lu"] = lu


def _keep_iterations(span, report):
    span.attrs["iterations"] = int(report.iterations)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._op = -1
        self._op_first = 0

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op, attrs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after:
                after(span, result)
            return result

        return wrapper

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self, op: int) -> None:
        """Wrap the layer functions for operation ``op``."""
        self._op = op
        self._op_first = len(self.spans)
        modules = [
            module for name, module in sys.modules.items()
            if name == "profile_shift" or name.startswith("profile_shift.")
        ]
        for home, name in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"profile_shift.{home}"], name)
            after = _keep_iterations if name == "solve_profile_shift" else None
            wrapper = self.wrap(f"{home}.{name}", original, after=after)
            for module in modules:
                if getattr(module, name, None) is original:
                    self._patch(module, name, wrapper)
        propagator = sys.modules["profile_shift.propagator"]
        stepper = propagator.ThetaStepper
        self._patch(stepper, "run", self.wrap("propagator.march", stepper.run, before=_march_steps))
        splu = self.wrap(
            "propagator.factor", propagator.spla.splu, before=_implicit_nnz, after=_keep_factor
        )
        self._patch(propagator, "spla", _ModuleStandIn(propagator.spla, splu=splu))

    def uninstall(self) -> None:
        """Restore every patched name and finish the operation's spans."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        for span in self.spans[self._op_first:]:
            lu = span.attrs.pop("lu", None)
            if lu is not None:
                span.attrs["lu_nnz"] = int(lu.L.nnz + lu.U.nnz)

    def layer_metrics(self, op: int) -> dict:
        """Per-layer figures of one operation, keyed by metric name."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.op == op]
        children = defaultdict(float)
        for _, s in spans:
            if s.parent is not None:
                children[s.parent] += s.seconds
        total = defaultdict(float)
        own = defaultdict(float)
        count = defaultdict(int)
        attrs = defaultdict(float)
        for i, s in spans:
            total[s.name] += s.seconds
            own[s.name] += s.seconds - children[i]
            count[s.name] += 1
            for key, value in s.attrs.items():
                attrs[key] += value
        steps = attrs["steps"]
        solves = count["fredholm.solve_profile_shift"]
        return {
            "grid.build_s": total["grid.build_grid"],
            "operators.assemble_s": total["operators.assemble"],
            "operators.assemble_calls": count["operators.assemble"],
            "operators.validate_coefficients_s": total["operators.validate_coefficients"],
            "propagator.factor_s": total["propagator.factor"],
            "propagator.factorizations": count["propagator.factor"],
            "propagator.lu_fill": attrs["lu_nnz"] / attrs["implicit_nnz"]
            if attrs["implicit_nnz"] else 0.0,
            "propagator.lu_nnz": int(attrs["lu_nnz"]),
            "propagator.implicit_nnz": int(attrs["implicit_nnz"]),
            "propagator.march_s": own["propagator.march"],
            "propagator.marches": count["propagator.march"],
            "propagator.steps": int(steps),
            "propagator.step_us": 1e6 * own["propagator.march"] / steps if steps else 0.0,
            "fredholm.gmres_iters": attrs["iterations"] / solves if solves else 0.0,
            "fredholm.solve_self_s": own["fredholm.solve_profile_shift"],
            "fredholm.dense_propagator_s": total["fredholm.dense_propagator"],
            "fredholm.spectral_s": total["fredholm.spectral_analysis"],
            "validation.checks_s": sum(
                total[f"validation.{name}"]
                for name in ("check_fixed_shift", "check_positivity", "check_mass")
            ),
            "cli.parse_s": total["cli.parse_config"],
            "cli.self_s": own["cli.run"],
        }

    def write(self, path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))
