"""Shared computation context: signature, gamma model, and result caches.

Everything cached here is immutable once computed (graded bases, assembled
matrices, monogenic bases), so a Context can be shared freely across
independent computations.
"""

from __future__ import annotations

from .clifford import Signature, build_gamma_rep, chirality_split
from .polyspinor import GradedBasis, assemble


class Context:
    def __init__(self, p, q, variant="standard"):
        self.sig = Signature(p, q)
        self.rep = build_gamma_rep(self.sig, variant=variant)
        self.chirality = chirality_split(self.rep) if self.sig.n % 2 == 0 else None
        self._bases = {}
        self.cache = {}

    @property
    def n(self):
        return self.sig.n

    @property
    def spinor_dim(self):
        return self.rep.spinor_dim

    def graded_basis(self, degree, dim=None) -> GradedBasis:
        dim = self.spinor_dim if dim is None else dim
        key = (degree, dim)
        basis = self._bases.get(key)
        if basis is None:
            basis = GradedBasis(self.n, dim, degree)
            self._bases[key] = basis
        return basis

    def assemble_cached(self, key, spec, degree):
        """Assemble spec at the given degree, memoized under (key, degree)."""
        full = ("assemble", key, degree)
        op = self.cache.get(full)
        if op is None:
            op = assemble(spec, degree, self.graded_basis)
            self.cache[full] = op
        return op

    def __repr__(self):
        return "Context(p=%d, q=%d, variant=%s)" % (self.sig.p, self.sig.q, self.rep.variant)
