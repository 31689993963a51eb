"""Per-layer tracing of vermaspin from outside the package.

The tracer replaces the public functions of each module, and the hot
``SparseMatrix`` and ``Context`` methods, with wrappers that open a span and
update counters.  Modules bind imported names locally (``singular`` imports
``nullspace`` and ``_canonical_basis``; ``fischer``, ``singular`` and
``context`` import ``assemble``, and ``equivariant`` imports it inside
``verify_intertwining``), so a function is replaced under every name that any
``vermaspin`` module binds it to, and restored the same way.

A span's self time is its duration minus the time of the spans it opened.
Spans are aggregated in memory by name, per pass; no span is written out.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from vermaspin import cli, context, equivariant, exact, fischer, polyspinor, realization, singular

# Every span name the tracer opens.  A name may cover several functions.
SPANS = [
    "cli", "context.build", "realization.spec", "polyspinor.assemble",
    "exact.modp_cert", "exact.nullspace", "exact.rref", "exact.express_in_span",
    "exact.matmul", "exact.mul_vec",
    "singular.special_conformal_matrices", "singular.singular_vectors",
    "singular.isotypic_split", "singular.classify",
    "fischer.monogenic_basis",
    "equivariant.build", "equivariant.operator_matrix", "equivariant.verify_intertwining",
]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counters for one pass of a job list."""

    def __init__(self):
        self._patched = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.classify_durations = []
        self._stack = []

    def exclude(self, seconds):
        """Leave time spent outside the program out of the innermost open span."""
        if self._stack:
            self._stack[-1][0] += seconds

    def snapshot(self):
        return dict(self.self_s), len(self.classify_durations)

    def rescale(self, since, scale):
        """Multiply the times recorded after snapshot ``since`` by ``scale``."""
        before, n = since
        for name, value in self.self_s.items():
            old = before.get(name, 0.0)
            self.self_s[name] = old + (value - old) * scale
        self.classify_durations[n:] = [d * scale for d in self.classify_durations[n:]]

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            frame = [0.0]
            stack = tracer._stack
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                tracer.self_s[name] += dur - frame[0]
                tracer.counts["span." + name] += 1
            if after:
                after(args, kwargs, result, dur, state)
            return result

        return wrapper

    def _counted(self, fn, before):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _lookup(self, ctx, key):
        """One lookup at a cached entry point; True when it hits."""
        hit = key in ctx.cache
        self.counts["cache.lookups"] += 1
        self.counts["cache.hits"] += hit
        return hit

    # -- the wrapped surface ---------------------------------------------------

    def _targets(self):
        """(owner, attribute, wrapper factory) for every traced callable."""
        c = self.counts

        def modp_after(args, kwargs, result, dur, state):
            c["exact.modp_cert_calls"] += 1
            c["exact.modp_cert_trivial"] += bool(result)

        def nullspace_after(args, kwargs, result, dur, state):
            m = _arg(args, kwargs, 0, "m")
            c["exact.nullspace_calls"] += 1
            c["exact.nullspace_cells"] += m.rows * m.cols
            c["exact.kernel_dim_total"] += len(result)

        def matmul_after(args, kwargs, result, dur, state):
            c["exact.matmul_calls"] += 1
            c["exact.matmul_nnz_out"] += result.num_entries()

        def mul_vec_after(args, kwargs, result, dur, state):
            c["exact.mul_vec_calls"] += 1

        def assemble_after(args, kwargs, result, dur, state):
            c["polyspinor.assemble_calls"] += 1
            c["polyspinor.assemble_nnz"] += result.matrix.num_entries()

        def sc_before(args, kwargs):
            ctx, degree = _arg(args, kwargs, 0, "ctx"), _arg(args, kwargs, 2, "degree")
            return self._lookup(ctx, ("sc-base", 1, degree))

        def classify_after(args, kwargs, result, dur, state):
            self.classify_durations.append(dur)
            c["singular.found_components"] += len(result.found)

        def monogenic_before(args, kwargs):
            ctx, a = _arg(args, kwargs, 0, "ctx"), _arg(args, kwargs, 1, "a")
            return self._lookup(ctx, ("monogenic", a))

        def monogenic_after(args, kwargs, result, dur, hit):
            if not hit:
                c["fischer.monogenic_dim_total"] += len(result.elements)

        def verify_after(args, kwargs, result, dur, state):
            c["equivariant.test_elements"] += result.test_elements

        def assemble_cached_before(args, kwargs):
            ctx = args[0]
            key, degree = _arg(args, kwargs, 1, "key"), _arg(args, kwargs, 3, "degree")
            self._lookup(ctx, ("assemble", key, degree))

        def xd_before(args, kwargs):
            self._lookup(_arg(args, kwargs, 0, "ctx"), ("xd", _arg(args, kwargs, 1, "degree")))

        def xpow_before(args, kwargs):
            ctx = _arg(args, kwargs, 0, "ctx")
            k, degree = _arg(args, kwargs, 1, "k"), _arg(args, kwargs, 2, "degree")
            self._lookup(ctx, ("xpow", k, degree))

        def span(name, before=None, after=None):
            return lambda fn: self._span(name, fn, before, after)

        def counted(before):
            return lambda fn: self._counted(fn, before)

        SM, Ctx = exact.SparseMatrix, context.Context
        return [
            (cli, "main", span("cli")),
            (Ctx, "__init__", span("context.build")),
            (Ctx, "assemble_cached", counted(assemble_cached_before)),
            (realization, "verma_action", span("realization.spec")),
            (realization, "function_action", span("realization.spec")),
            (realization, "osp_generators", span("realization.spec")),
            (polyspinor, "assemble", span("polyspinor.assemble", after=assemble_after)),
            (exact, "kernel_is_trivial_hint", span("exact.modp_cert", after=modp_after)),
            (exact, "nullspace", span("exact.nullspace", after=nullspace_after)),
            (exact, "rref", span("exact.rref")),
            (exact, "_canonical_basis", span("exact.rref")),
            (exact, "express_in_span", span("exact.express_in_span")),
            (SM, "__matmul__", span("exact.matmul", after=matmul_after)),
            (SM, "mul_vec", span("exact.mul_vec", after=mul_vec_after)),
            (singular, "special_conformal_matrices",
             span("singular.special_conformal_matrices", before=sc_before)),
            (singular, "singular_vectors", span("singular.singular_vectors")),
            (singular, "isotypic_split", span("singular.isotypic_split")),
            (singular, "classify", span("singular.classify", after=classify_after)),
            (singular, "xd_matrix", counted(xd_before)),
            (fischer, "monogenic_basis",
             span("fischer.monogenic_basis", before=monogenic_before, after=monogenic_after)),
            (fischer, "x_power_matrix", counted(xpow_before)),
            (equivariant, "dirac_power", span("equivariant.build")),
            (equivariant, "twistor", span("equivariant.build")),
            (equivariant, "from_singular_vector", span("equivariant.build")),
            (equivariant, "dual_dirac_symbol", span("equivariant.build")),
            (equivariant, "operator_matrix", span("equivariant.operator_matrix")),
            (equivariant, "verify_intertwining",
             span("equivariant.verify_intertwining", after=verify_after)),
        ]

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        """Wrap every target under every binding a vermaspin module holds."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "vermaspin" or name.startswith("vermaspin."))]
        for owner, attr, factory in self._targets():
            original = owner.__dict__[attr]
            wrapper = factory(original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []

    def originals(self):
        """(owner, attribute, original) for every binding replaced."""
        return list(self._patched)

    # -- metrics ----------------------------------------------------------------

    def fired(self):
        return {name for name in SPANS if self.counts["span." + name]}

    def metrics(self):
        """Per-layer metrics of the pass: name -> (value, unit)."""
        s, c = self.self_s, self.counts
        durations = self.classify_durations

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "context.build_s": (s["context.build"], "s"),
            "context.cache_hit_ratio": (ratio(c["cache.hits"], c["cache.lookups"]), "ratio"),
            "context.cache_lookups": (c["cache.lookups"], "count"),
            "realization.spec_s": (s["realization.spec"], "s"),
            "polyspinor.assemble_s": (s["polyspinor.assemble"], "s"),
            "polyspinor.assemble_calls": (c["polyspinor.assemble_calls"], "count"),
            "polyspinor.assemble_nnz": (c["polyspinor.assemble_nnz"], "count"),
            "exact.modp_cert_s": (s["exact.modp_cert"], "s"),
            "exact.modp_cert_calls": (c["exact.modp_cert_calls"], "count"),
            "exact.modp_cert_trivial_ratio": (
                ratio(c["exact.modp_cert_trivial"], c["exact.modp_cert_calls"]), "ratio"),
            "exact.nullspace_s": (s["exact.nullspace"], "s"),
            "exact.nullspace_calls": (c["exact.nullspace_calls"], "count"),
            "exact.nullspace_cells": (c["exact.nullspace_cells"], "count"),
            "exact.kernel_dim_total": (c["exact.kernel_dim_total"], "count"),
            "exact.rref_s": (s["exact.rref"], "s"),
            "exact.express_in_span_s": (s["exact.express_in_span"], "s"),
            "exact.matmul_s": (s["exact.matmul"], "s"),
            "exact.matmul_calls": (c["exact.matmul_calls"], "count"),
            "exact.matmul_nnz_out": (c["exact.matmul_nnz_out"], "count"),
            "exact.mul_vec_s": (s["exact.mul_vec"], "s"),
            "exact.mul_vec_calls": (c["exact.mul_vec_calls"], "count"),
            "singular.special_conformal_matrices_s": (
                s["singular.special_conformal_matrices"], "s"),
            "singular.singular_vectors_s": (s["singular.singular_vectors"], "s"),
            "singular.isotypic_split_s": (s["singular.isotypic_split"], "s"),
            "singular.classify_self_s": (s["singular.classify"], "s"),
            "singular.classify_p50_s": (
                statistics.median(durations) if durations else 0.0, "s"),
            "singular.classify_max_s": (max(durations, default=0.0), "s"),
            "singular.classify_calls": (len(durations), "count"),
            "singular.found_components": (c["singular.found_components"], "count"),
            "fischer.monogenic_basis_s": (s["fischer.monogenic_basis"], "s"),
            "fischer.monogenic_dim_total": (c["fischer.monogenic_dim_total"], "count"),
            "equivariant.build_s": (s["equivariant.build"], "s"),
            "equivariant.operator_matrix_s": (s["equivariant.operator_matrix"], "s"),
            "equivariant.verify_intertwining_s": (s["equivariant.verify_intertwining"], "s"),
            "equivariant.test_elements": (c["equivariant.test_elements"], "count"),
            "cli.self_s": (s["cli"], "s"),
        }
