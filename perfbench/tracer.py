"""Layer tracer that wraps gonalslope's public calls from outside the package.

Functions are wrapped where callers look them up: in the defining module,
in every gonalslope module that imported the same object with
``from .x import f``, and as class attributes for methods (``RatFunc``
dunders, ``NumClass`` construction and arithmetic).  A span opens where a
call crosses into another layer; calls inside the same layer only bump
counters, which keeps the overhead down and the span list small.

Spans stay in memory as ``[layer, parent, thread, start, end]``, timed on
the calling thread's CPU clock.  A layer's self time is its spans'
durations minus those of their children on the same thread.  The ``sweep``
pool runs derivations on two threads that take turns under the interpreter
lock; a wall clock would charge each thread for the other's turns, a thread
clock does not.  Counters live per thread and are summed on read, so a
thread switch never loses an update.
"""
from __future__ import annotations

import sys
import threading
from collections import Counter
from time import thread_time

PACKAGE = "gonalslope"

#: (layer, module, owner class or None, attribute, counter or None)
TARGETS = (
    ("ratcalc", "ratcalc", "RatFunc", "__init__", "ratcalc.construct_n"),
    *(("ratcalc", "ratcalc", "RatFunc", op, "ratcalc.arith_n")
      for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__")),
    ("ratcalc", "ratcalc", "RatFunc", "compose", "ratcalc.compose_n"),
    ("ratcalc", "ratcalc", "RatFunc", "__call__", "ratcalc.eval_n"),
    ("chow", "chow", None, "intersect", "chow.intersect_n"),
    ("chow", "chow", None, "self_intersection", None),
    ("chow", "chow", None, "canonical_class", None),
    ("chow", "chow", None, "chi_structure", None),
    ("chow", "chow", "NumClass", "__init__", "chow.numclass_n"),
    *(("chow", "chow", "NumClass", op, None)
      for op in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")),
    ("chern", "chern", None, "sym2", "chern.sym2_n"),
    ("chern", "chern", None, "sym2_roots_oracle", None),
    ("chern", "chern", None, "whitney", "chern.whitney_n"),
    ("chern", "chern", None, "whitney_quotient", "chern.whitney_n"),
    ("chern", "chern", None, "chern_character", None),
    ("chern", "chern", "BundleData", "__init__", None),
    *(("grr", "grr", None, name, "grr.call_n")
      for name in ("upstairs_pairing", "push_ramification", "chi_total_space",
                   "push_2r_bundle", "trigonal_rsq", "fourgonal_rsq", "conics_kernel",
                   "c1_decomposition", "exceptional_coefficient",
                   "exceptional_coefficients", "blownup_c1")),
    *(("slope", "slope", None, name, "slope.call_n")
      for name in ("slope_general", "slope_general_via_surface", "slope_trigonal",
                   "slope_fourgonal", "fourgonal_rearranged", "trigonal_blowup_parts",
                   "slope_trigonal_blowup", "fourgonal_blowup_parts",
                   "slope_fourgonal_blowup", "moduli_conversion",
                   "harris_stankova_reference")),
    ("bounds", "bounds", None, "derived_slope_bound", "bounds.derive_n"),
    ("bounds", "bounds", None, "c2_bounds_blowup", "bounds.c2_bound_n"),
    ("bounds", "bounds", None, "blowup_bound_report", "bounds.report_n"),
    *(("bounds", "bounds", None, name, None)
      for name in ("compare", "stated_closed_form", "splitting_for_scenario",
                   "weak_positivity_bound", "index_bound", "c2e_bound_fourgonal")),
    ("bounds", "bounds", "ScenarioSpec", "validate", None),
    ("cli", "cli", None, "main", None),
    ("verify", "verify", None, "run", None),
)

LAYERS = ("ratcalc", "chow", "chern", "grr", "slope", "bounds", "cli")

COUNTERS = (*dict.fromkeys(counter for *_, counter in TARGETS if counter),
            "slope.zero_chi_n")


class _ThreadState:
    __slots__ = ("stack", "counts")

    def __init__(self):
        self.stack = []
        self.counts = Counter()


class Tracer:
    """Install with ``install()``, run the traced work, then ``restore()``."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[list] = []
        self.root = None
        self.derived: set = set()

    # -- per-thread state --------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            self._states.append(state)
            return state

    def counts(self) -> Counter:
        total = Counter()
        for state in self._states:
            total.update(state.counts)
        return total

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.spans, self.root, self.derived = [], None, set()
        self._local, self._states = threading.local(), []
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        zero_chi = sys.modules[f"{PACKAGE}.slope"].ZeroChiError
        for layer, modname, owner, attr, counter in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{modname}"]
            if owner is not None:
                cls = getattr(mod, owner)
                self._patch(cls, attr, self._wrap(vars(cls)[attr], layer, counter, zero_chi))
                continue
            fn = getattr(mod, attr)
            wrapped = self._wrap(fn, layer, counter, zero_chi)
            for m in mods:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, name, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> list[str]:
        """Undo every patch; return the names that did not come back intact."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        broken = [name for owner, name, original in self._patches
                  if vars(owner)[name] is not original]
        self._patches = []
        return broken

    def _wrap(self, fn, layer: str, counter: str | None, zero_chi):
        tracer = self
        track_derived = counter == "bounds.derive_n"

        def traced(*args, **kwargs):
            state = tracer._state()
            if counter is not None:
                state.counts[counter] += 1
            stack = state.stack
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                result = tracer._in_span(state, layer, fn, args, kwargs, zero_chi)
            if track_derived:
                spec = args[0] if args else kwargs["spec"]
                tracer.derived.add((spec.n, spec.case, spec.gamma,
                                    result.derived_bound.num, result.derived_bound.den))
            return result

        return traced

    def _in_span(self, state: _ThreadState, layer: str, fn, args, kwargs, zero_chi):
        stack = state.stack
        parent = stack[-1] if stack else self.root
        span = [layer, parent, state, 0.0, 0.0]
        is_root = parent is None
        if is_root:
            self.root = span
        stack.append(span)
        span[3] = thread_time()
        try:
            return fn(*args, **kwargs)
        except zero_chi:
            if layer == "slope":
                state.counts["slope.zero_chi_n"] += 1
            raise
        finally:
            span[4] = thread_time()
            stack.pop()
            self.spans.append(span)
            if is_root:
                self.root = None

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """CPU seconds per layer: each span minus its children on the same thread."""
        out = dict.fromkeys(LAYERS, 0.0)
        for layer, parent, thread, start, end in self.spans:
            if layer in out:
                out[layer] += end - start
            if parent is not None and parent[2] is thread and parent[0] in out:
                out[parent[0]] -= end - start
        return out
