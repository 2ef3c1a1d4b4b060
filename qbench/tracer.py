"""Outside-in layer tracing: wrap littleq's public functions from outside.

``Tracer.install()`` replaces each target function or method with a wrapper,
in every littleq namespace that binds it (``det_laurent`` lives in
``littleq.exact`` and is imported into ``littleq.darboux`` and ``littleq``),
so calls between modules are seen.  ``uninstall()`` restores the originals.

Each wrapped call records a span (group, start, end, parent span index) in
memory.  Per group it counts:

- ``calls``: outermost calls, so ``a - b`` (``__sub__`` calling ``__add__``)
  is one add/sub call;
- ``busy_s``: wall time covered by the outermost calls;
- ``self_s``: span time not covered by any traced child span.

Hooks add counters where the work is done: determinant size, coefficient bit
length, orthogonality terms and distinct root-finding levels.
"""
from __future__ import annotations

import contextlib
import importlib
import sys
import time
from dataclasses import dataclass, field

# group -> "module:attribute" targets; an attribute may be Class.method
TARGETS = {
    "exact.mul": ["littleq.exact:LaurentPoly.__mul__", "littleq.exact:LaurentPoly.__rmul__"],
    "exact.addsub": [
        "littleq.exact:LaurentPoly.__add__", "littleq.exact:LaurentPoly.__radd__",
        "littleq.exact:LaurentPoly.__sub__", "littleq.exact:LaurentPoly.__rsub__",
    ],
    "exact.divide_exact": ["littleq.exact:LaurentPoly.divide_exact"],
    "exact.eval_int": ["littleq.exact:LaurentPoly.eval_int", "littleq.exact:EtaPoly.eval_int"],
    "exact.det_laurent": ["littleq.exact:det_laurent"],
    "darboux.multi_indexed_poly_y": ["littleq.darboux:multi_indexed_poly_y"],
    "darboux.denominator_poly_y": ["littleq.darboux:denominator_poly_y"],
    "darboux.typeI_eigen_numerator": ["littleq.darboux:typeI_eigen_numerator"],
    "darboux.residual_checks": [
        "littleq.darboux:deformed_eigencheck", "littleq.darboux:deformed_forward_check",
        "littleq.darboux:deformed_backward_check",
    ],
    "base.groundstate_sq": ["littleq.base:groundstate_sq"],
    "base.eigenpoly_y": ["littleq.base:eigenpoly_y"],
    "virtual.virtual_poly_y": ["littleq.virtual:virtual_poly_y"],
    "verify.ortho": [
        "littleq.verify:orthogonality_check", "littleq.verify:OrthogonalityData.__init__",
        "littleq.verify:OrthogonalityData.pair_sum",
    ],
    "verify.zeros": ["littleq.verify:polynomial_roots"],
    "verify.zeros.polyroots": ["mpmath:polyroots"],
}


@dataclass
class GroupStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    depth: int = 0
    counters: dict = field(default_factory=dict)

    def bump(self, name: str, by=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def peak(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)


def _coeff_bits(poly) -> int:
    coeffs = getattr(poly, "coeffs", None)
    if not coeffs:
        return 0
    values = coeffs.values() if isinstance(coeffs, dict) else coeffs
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in values)


def _note_bits(stats, tracer, args, result):
    tracer.groups["exact"].peak("max_coeff_bits", _coeff_bits(result))


def _note_det(stats, tracer, args, result):
    stats.peak("max_size", len(args[0]))
    _note_bits(stats, tracer, args, result)


def _note_pair_sum(stats, tracer, args, result):
    stats.bump("pair_sums")
    stats.bump("terms", result.truncation_x + 1)


def _note_roots(stats, tracer, args, result):
    tracer.root_levels.add(args[:3])


HOOKS = {
    "littleq.exact:LaurentPoly.__mul__": _note_bits,
    "littleq.exact:LaurentPoly.__rmul__": _note_bits,
    "littleq.exact:LaurentPoly.divide_exact": _note_bits,
    "littleq.exact:det_laurent": _note_det,
    "littleq.verify:OrthogonalityData.pair_sum": _note_pair_sum,
    "littleq.verify:polynomial_roots": _note_roots,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (group, start, end, parent index or -1)
        self.groups: dict[str, GroupStats] = {"exact": GroupStats()}
        self.root_levels: set = set()
        self._open: list[list] = []  # [span index, child time] of open spans
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------
    def _enter(self, stats: GroupStats):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1][0] if self._open else -1
        self._open.append([index, 0.0])
        stats.depth += 1
        return index, parent, time.perf_counter()

    def _exit(self, stats: GroupStats, group: str, index: int, parent: int, start: float):
        end = time.perf_counter()
        _, child = self._open.pop()
        stats.depth -= 1
        duration = end - start
        self.spans[index] = (group, start, end, parent)
        stats.self_s += duration - child
        if self._open:
            self._open[-1][1] += duration
        if stats.depth == 0:
            stats.calls += 1
            stats.busy_s += duration

    @contextlib.contextmanager
    def span(self, group: str):
        """A span opened by the benchmark itself, e.g. around one command."""
        stats = self.groups.setdefault(group, GroupStats())
        index, parent, start = self._enter(stats)
        try:
            yield stats
        finally:
            self._exit(stats, group, index, parent, start)

    def wrap(self, group: str, fn, hook=None):
        stats = self.groups.setdefault(group, GroupStats())

        def traced(*args, **kwargs):
            index, parent, start = self._enter(stats)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(stats, group, index, parent, start)
            if hook is not None:
                hook(stats, self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every target in every littleq namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for group, targets in TARGETS.items():
            for target in targets:
                module_name, attr = target.split(":")
                owner = importlib.import_module(module_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[name]
                traced = self.wrap(group, original, HOOKS.get(target))
                if isinstance(owner, type):
                    self._set(owner, name, traced)
                    continue
                for module in list(sys.modules.values()):
                    mod_name = getattr(module, "__name__", "")
                    if mod_name == module_name or mod_name.startswith("littleq"):
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._set(module, key, traced)

    def uninstall(self) -> None:
        """Restore every original binding, last patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
