"""Spans and counters around jetflow's public functions, installed from outside the package.

Each target is a function as the calling module imported it, for example
``experiments.estimate_pushforward``: replacing that module attribute makes the
caller's next lookup hit the wrapper, and restoring it leaves no trace.  A
span's self time is its duration minus the time its child spans cover.

Helpers that run once per grid point or per ODE right-hand side are counted,
not spanned: their time stays in the enclosing layer (read-off or flow), which
is how the layer table in README.md attributes it.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

import numpy as np

from jetflow import experiments, hankel, pushforward, reconstruct, vectorfield
from jetflow.errors import EstimatorIllPosedError
from jetflow.multiindex import jet_dimension

ROOT = "experiments.run_experiment"
_MARK = "__perfbench_layer__"


def _eigen_counts(counts, bound, out):
    if out is not None:
        counts["hankel.smallest_eigenvalue.order_sum"] += out.n
        counts["hankel.smallest_eigenvalue.certified"] += bool(out.certified)


def _solve_counts(counts, bound, out):
    # computed, not measured: an N x r_n thin SVD costs O(N r_n^2)
    d = np.atleast_1d(bound.arguments["p"]).shape[0]
    r_n = jet_dimension(d, bound.arguments["n"])
    counts["pushforward.estimate_pushforward.solve_flops"] += len(bound.arguments["samples"]) * r_n ** 2
    if out is not None:
        cond = out.largest_sv / out.smallest_kept_sv
        counts["pushforward.estimate_pushforward.cond_max"] = max(
            counts["pushforward.estimate_pushforward.cond_max"], cond)


def _cells(counts, bound, out):
    if out is not None:
        counts["fock.feature_matrix.cells"] += out.size


def _rows(counts, bound, out):
    if out is not None:
        counts["maps.eval_map_batch.rows"] += out.shape[0]


# (module, attribute as imported there, span name or None, call counter, hook);
# a hook gets (counts, bound arguments, result or None on an exception)
TARGETS = (
    (experiments, "smallest_eigenvalue", "hankel.smallest_eigenvalue",
     "hankel.smallest_eigenvalue.calls", _eigen_counts),
    (hankel, "smallest_eigenvalue", "hankel.smallest_eigenvalue",
     "hankel.smallest_eigenvalue.calls", _eigen_counts),
    (experiments, "moment_matrix", "hankel.moment_matrix", None, None),
    (experiments, "gamma_check", "pushforward.gamma_check", None, None),
    (experiments, "oracle_pushforward", "pushforward.oracle_pushforward", None, None),
    (experiments, "estimate_pushforward", "pushforward.estimate_pushforward",
     "pushforward.estimate_pushforward.calls", _solve_counts),
    (pushforward, "feature_matrix_U", "fock.feature_matrix", None, _cells),
    (pushforward, "feature_matrix_V", "fock.feature_matrix", None, _cells),
    (experiments, "reconstruct_eval", "reconstruct.readoff", "reconstruct.readoff.points", None),
    (experiments, "reconstruct_field", "reconstruct.readoff", "reconstruct.readoff.points", None),
    (reconstruct, "basis_gradient_at_zero", None, "fock.basis_gradient_at_zero.calls", None),
    (vectorfield, "basis_gradient_at_zero", None, "fock.basis_gradient_at_zero.calls", None),
    (experiments, "flow_sample_set", "vectorfield.flow", None, None),
    (vectorfield, "eval_map_batch", None, "vectorfield.flow.rhs_calls", None),
    (experiments, "estimate_generator", "vectorfield.estimate_generator", None, None),
    (experiments, "bound_B", "vectorfield.bound_B", None, None),
    (experiments, "draw_samples", "sampling.draw_samples", None, None),
    (experiments, "eval_map_batch", "maps.eval_map_batch", None, _rows),
)

SPANS = tuple(dict.fromkeys([ROOT] + [t[2] for t in TARGETS if t[2]]))

# counts that must repeat exactly between traced calls of one config
EXACT_COUNTS = (
    "hankel.smallest_eigenvalue.calls",
    "hankel.smallest_eigenvalue.order_sum",
    "pushforward.estimate_pushforward.calls",
    "pushforward.estimate_pushforward.illposed",
    "pushforward.estimate_pushforward.solve_flops",
    "fock.feature_matrix.cells",
    "reconstruct.readoff.points",
    "fock.basis_gradient_at_zero.calls",
    "vectorfield.flow.rhs_calls",
    "maps.eval_map_batch.rows",
)


def wrapped_names() -> list[str]:
    """Targets that currently hold a wrapper; empty when tracing is off."""
    return [f"{mod.__name__}.{attr}" for mod, attr, *_ in TARGETS
            if hasattr(getattr(mod, attr), _MARK)]


class Tracer:
    """Collects spans and counts for one traced call at a time."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # (id, name, start, end, parent id or -1), appended as spans close
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [id, name, start, time covered by children]
        self._next_id = 0

    def _open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _close(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        parent = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans.append((span_id, name, start, end, parent))

    def _wrap(self, fn, span, counter, hook):
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                self.counts[counter] += 1
            out = None
            if span:
                self._open(span)
            try:
                out = fn(*args, **kwargs)
                return out
            except EstimatorIllPosedError:
                self.counts[f"{span}.illposed"] += 1
                raise
            finally:
                if span:
                    self._close()
                if hook:
                    hook(self.counts, sig.bind(*args, **kwargs), out)

        setattr(wrapper, _MARK, span or counter)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod, attr, span, counter, hook in TARGETS:
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, span, counter, hook))

    def remove(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def call(self, fn, *args):
        """Run fn under the root span with every wrapper installed; returns its result."""
        self.reset()
        self.install()
        try:
            self._open(ROOT)
            try:
                return fn(*args)
            finally:
                self._close()
        finally:
            self.remove()

    @property
    def wall_s(self) -> float:
        """Duration of the last root span."""
        _, _, start, end, _ = self.spans[-1]
        return end - start
