"""Shared computation context: signature, gamma model, and result caches.

A Context is a :class:`~vermaspin.clifford.Memo` of what depends on the
degree (graded bases, assembled matrices, monogenic bases); what the gamma
model alone fixes is stored on the shared model, ``Context.rep``.  Every
entry is immutable once computed, so a Context can be shared freely across
independent computations.  The keys are listed in the README.
"""

from __future__ import annotations

from .clifford import Memo, Signature, build_gamma_rep, chirality_split
from .polyspinor import GradedBasis, assemble


class Context(Memo):
    def __init__(self, p, q, variant="standard"):
        super().__init__()
        self.sig = Signature(p, q)
        self.rep = build_gamma_rep(self.sig, variant=variant)
        self.chirality = chirality_split(self.rep) if self.sig.n % 2 == 0 else None

    @property
    def n(self):
        return self.sig.n

    @property
    def spinor_dim(self):
        return self.rep.spinor_dim

    def graded_basis(self, degree, dim=None) -> GradedBasis:
        dim = self.spinor_dim if dim is None else dim
        return self.cached(("basis", degree, dim), lambda: GradedBasis(self.n, dim, degree))

    def assemble_cached(self, key, spec, degree):
        """Assemble spec at the given degree, memoized under (key, degree)."""
        return self.cached(("assemble", key, degree),
                           lambda: assemble(spec, degree, self.graded_basis))

    def __repr__(self):
        return "Context(p=%d, q=%d, variant=%s)" % (self.sig.p, self.sig.q, self.rep.variant)
