"""Shared computation context: signature, gamma model, and result caches.

Every memoized result of a Context sits in ``Context.cache``, and
:meth:`Context.cached` is the one way in: it returns the entry under a key,
and calls the builder only when the key is absent, so a falsy result is
built once too.  Everything cached is immutable once computed (graded
bases, assembled matrices, monogenic bases, closed-form verdicts), so a
Context can be shared freely across independent computations.  The keys are
listed in the README.
"""

from __future__ import annotations

from .clifford import Signature, build_gamma_rep, chirality_split
from .polyspinor import GradedBasis, assemble

_MISSING = object()


class Context:
    def __init__(self, p, q, variant="standard"):
        self.sig = Signature(p, q)
        self.rep = build_gamma_rep(self.sig, variant=variant)
        self.chirality = chirality_split(self.rep) if self.sig.n % 2 == 0 else None
        self.cache = {}

    @property
    def n(self):
        return self.sig.n

    @property
    def spinor_dim(self):
        return self.rep.spinor_dim

    def cached(self, key, build):
        """The entry under ``key``; ``build()`` makes and stores it on a miss."""
        value = self.cache.get(key, _MISSING)
        if value is _MISSING:
            value = self.cache[key] = build()
        return value

    def graded_basis(self, degree, dim=None) -> GradedBasis:
        dim = self.spinor_dim if dim is None else dim
        return self.cached(("basis", degree, dim), lambda: GradedBasis(self.n, dim, degree))

    def assemble_cached(self, key, spec, degree):
        """Assemble spec at the given degree, memoized under (key, degree)."""
        return self.cached(("assemble", key, degree),
                           lambda: assemble(spec, degree, self.graded_basis))

    def __repr__(self):
        return "Context(p=%d, q=%d, variant=%s)" % (self.sig.p, self.sig.q, self.rep.variant)
