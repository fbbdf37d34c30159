"""Per-layer spans recorded around halfsphere's public functions.

The tracer replaces functions and methods of the package with wrappers that
record a span per call: its count and its self time (duration minus the time
of the spans it caused).  Spans live in the benchmark's own files; nothing in
the program is edited.  ``from .x import y`` binds a second name for ``y`` in
the importing module, so every module attribute that *is* the original object
is replaced, and every alias inside a class (``__rmul__ = __mul__``) too.
lru_cache wrappers are kept as the wrapped object so ``cache_info`` still
reads the real cache.  Scalar operations are counted but not timed: timing
each of them would swamp the trace.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "cli",
    "parsing",
    "algebra",
    "sphere_ring",
    "scalars",
    "linalg",
    "subspaces",
    "representations",
    "projective",
)

# span name -> (module, attribute path) targets; "Class.method" patches a class
SPANS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "cli.run": (("cli", "run"),),
    "cli.build_parser": (("cli", "build_parser"),),
    "parsing.parse_expr": (("parsing", "parse_expr"),),
    "parsing.format": tuple(
        ("parsing", f)
        for f in (
            "format_zpoly",
            "format_ncpoly",
            "format_pexpr",
            "format_crossed",
            "format_lift",
            "format_mat2",
            "format_value",
            "format_point",
        )
    ),
    "algebra.ncpoly_mul": (("algebra", "NCPoly.__mul__"),),
    "algebra.pi": (("algebra", "pi"),),
    "algebra.nc_lift": (("algebra", "nc_lift"),),
    "algebra.crossed_mul": (("algebra", "CrossedElem.__mul__"), ("algebra", "CrossedElem.__rmul__")),
    "sphere_ring.reduce": (("sphere_ring", "ZPoly.reduce"),),
    "sphere_ring.evaluate": (("sphere_ring", "ZPoly.evaluate"),),
    "sphere_ring.zpoly_mul": (("sphere_ring", "ZPoly.__mul__"),),
    "linalg.insert": (("linalg", "Echelon.insert"),),
    "linalg.reduce_vector": (("linalg", "Echelon.reduce_vector"),),
    "linalg.nullspace": (("linalg", "nullspace"),),
    "linalg.echelon_from": (("linalg", "echelon_from"),),
    "subspaces.ideal_span": (("subspaces", "ideal_span"),),
    "subspaces.is_graded": (("subspaces", "is_graded"),),
    "subspaces.membership": (("subspaces", "membership"),),
    "subspaces.vanishing_ideal": (("subspaces", "vanishing_ideal"),),
    "subspaces.classify_pair": (("subspaces", "classify_pair"),),
    "subspaces.lift_basis": (("subspaces", "lift_basis"),),
    "representations.theta": (("representations", "theta"),),
    "representations.sample_points": (("representations", "sample_points"),),
    "representations.orbit_equivalent": (("representations", "orbit_equivalent"),),
    "projective.pexpr_mul": (("projective", "PExpr.__mul__"),),
    "projective.phi": (("projective", "PExpr.phi"),),
    "projective.to_model": (("projective", "PExpr.to_model"),),
    "projective.phi_inv": (("projective", "phi_inv"),),
}

COUNTERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "scalars.mul": (("scalars", "ExactComplex.__mul__"),),
    "scalars.add": (("scalars", "ExactComplex.__add__"), ("scalars", "ExactComplex.__sub__")),
    "scalars.div": (("scalars", "ExactComplex.__truediv__"),),
}


class _Frame:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0


class Tracer:
    """Span and counter registry; one per traced pass."""

    def __init__(self):
        self.calls: Dict[str, int] = {name: 0 for name in list(SPANS) + list(COUNTERS)}
        self.self_s: Dict[str, float] = {name: 0.0 for name in SPANS}
        self.extra: Dict[str, float] = {
            "sphere_ring.reduce.terms_in": 0,
            "sphere_ring.reduce.terms_out": 0,
            "parsing.parse_expr.nc_terms": 0,
            "linalg.insert.useful": 0,
            "subspaces.span_dim_total": 0,
        }
        self.root_s = 0.0  # summed duration of outermost spans
        self.missing_targets: List[str] = []
        self._stack: List[_Frame] = []
        self._restore: List[Tuple[object, str, object]] = []
        self.ideal_span_cache = None
        self._last_misses = 0

    # -- wrappers ------------------------------------------------------

    def _span(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        tracer = self

        def wrapper(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame.child
                if stack:
                    stack[-1].child += dur
                else:
                    tracer.root_s += dur
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-span extras -----------------------------------------------

    def _after(self, name: str) -> Optional[Callable]:
        extra = self.extra
        if name == "sphere_ring.reduce":
            def after(args, result):
                extra["sphere_ring.reduce.terms_in"] += len(args[0].terms)
                extra["sphere_ring.reduce.terms_out"] += len(result.terms)
            return after
        if name == "parsing.parse_expr":
            def after(args, result):
                body = result.nc if result.nc is not None else result.p
                extra["parsing.parse_expr.nc_terms"] += len(body.terms)
            return after
        if name == "linalg.insert":
            def after(args, result):
                if result:
                    extra["linalg.insert.useful"] += 1
            return after
        if name == "subspaces.ideal_span":
            def after(args, result):
                info = self.ideal_span_cache.cache_info()
                if info.misses != self._last_misses:
                    self._last_misses = info.misses
                    extra["subspaces.span_dim_total"] += result.dimension
            return after
        return None

    # -- installation --------------------------------------------------

    def install(self, package: str = "halfsphere"):
        modules = [m for k, m in list(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for name, targets in SPANS.items():
            for mod, path in targets:
                self._patch(package, modules, mod, path, lambda fn, n=name: self._span(n, fn, self._after(n)))
        for name, targets in COUNTERS.items():
            for mod, path in targets:
                self._patch(package, modules, mod, path, lambda fn, n=name: self._counter(n, fn))
        subspaces = sys.modules.get(f"{package}.subspaces")
        ideal_span = self.original(subspaces, "ideal_span") if subspaces else None
        if ideal_span is not None and hasattr(ideal_span, "cache_info"):
            self.ideal_span_cache = ideal_span
            self._last_misses = ideal_span.cache_info().misses

    def _patch(self, package, modules, mod, path, make):
        module = sys.modules.get(f"{package}.{mod}")
        if module is None:
            self.missing_targets.append(f"{mod}.{path}")
            return
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            orig = cls.__dict__.get(attr) if cls is not None else None
            if orig is None:
                self.missing_targets.append(f"{mod}.{path}")
                return
            wrapper = make(orig)
            for key, value in list(cls.__dict__.items()):
                if value is orig:
                    self._restore.append((cls, key, value))
                    setattr(cls, key, wrapper)
            return
        orig = getattr(module, path, None)
        if orig is None:
            self.missing_targets.append(f"{mod}.{path}")
            return
        wrapper = make(orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._restore.append((m, key, value))
                    setattr(m, key, wrapper)

    @staticmethod
    def original(module, attr):
        fn = getattr(module, attr, None)
        while hasattr(fn, "__wrapped__") and not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__
        return fn

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()
