"""Operator realizations of the conformal orthogonal Lie algebra.

Two pictures of the same algebra act on fiber-valued polynomials:

* ``verma_action`` — the picture in which the generalized Verma module is the
  polynomial model; translation generators act by coordinate multiplication
  and the special-conformal generators by the second-order system whose joint
  kernel is the space of singular vectors.
* ``function_action`` — the non-compact function picture used by the
  equivariance checker; translations act by derivatives.

The module also provides the abstract (n+2)x(n+2) matrix model of the
algebra (used to compute structure constants independently of any operator
realization), the osp(1|2) triple D, E, X, and the three invariant
contractions of the special-conformal action in both their defining-sum and
closed forms.

Known convention pin (see the package README): within ``verma_action`` the
grading element's constant is lambda - n/2 - 1, the unique value for which
all brackets close exactly onto the structure constants given the
special-conformal formulas that drive the classification.
"""

from __future__ import annotations

from typing import NamedTuple

from .exact import (
    GaussianRational,
    SparseMatrix,
    QI_ONE,
    qi,
    rational,
    express_in_span,
)
from .clifford import GammaRep, Signature, so_generator
from .polyspinor import OperatorSpec

__all__ = [
    "generators",
    "conformal_matrix",
    "structure_constants",
    "osp_generators",
    "verma_action",
    "function_action",
    "invariant_contractions",
    "clifford_contraction",
    "coordinate_contraction",
    "derivative_contraction",
    "contraction_eigenvalue",
]


HALF = rational(1, 2)


# ---------------------------------------------------------------------------
# abstract matrix model
# ---------------------------------------------------------------------------


def generators(n):
    """Ordered generator ids: translations, grading, rotations, special."""
    gens = [("f", i) for i in range(1, n + 1)]
    gens.append(("h",))
    gens.extend(("l", i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    gens.extend(("g", i) for i in range(1, n + 1))
    return gens


def conformal_matrix(gen, sig: Signature) -> SparseMatrix:
    """The generator as an (n+2)x(n+2) matrix preserving the split form."""
    n = sig.n
    N = n + 2
    kind = gen[0]
    if kind == "f":
        i = gen[1]
        return SparseMatrix.from_entries(N, N, [
            (i, 0, QI_ONE),
            (n + 1, i, qi(-sig.eps(i))),
        ])
    if kind == "g":
        i = gen[1]
        return SparseMatrix.from_entries(N, N, [
            (0, i, QI_ONE),
            (i, n + 1, qi(-sig.eps(i))),
        ])
    if kind == "h":
        return SparseMatrix.from_entries(N, N, [
            (0, 0, QI_ONE),
            (n + 1, n + 1, qi(-1)),
        ])
    if kind == "l":
        i, j = gen[1], gen[2]
        # middle block eps_i eps_j E_ij - E_ji
        return SparseMatrix.from_entries(N, N, [
            (i, j, qi(sig.eps(i) * sig.eps(j))),
            (j, i, qi(-1)),
        ])
    raise ValueError("unknown generator %r" % (gen,))


class structure_constants:
    """Brackets of the abstract model expanded in the generator basis."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.gens = generators(sig.n)
        self._mats = {g: conformal_matrix(g, sig) for g in self.gens}
        N = sig.n + 2
        self._dim = N
        self._basis_vecs = [self._flatten(self._mats[g]) for g in self.gens]
        self._cache = {}

    def _flatten(self, m: SparseMatrix):
        N = self._dim
        return {r * N + c: v for r, row in m.data.items() for c, v in row.items()}

    def matrix(self, gen):
        return self._mats[gen]

    def bracket(self, a, b):
        """[a, b] as a list of (generator, coefficient), exact."""
        key = (a, b)
        if key in self._cache:
            return self._cache[key]
        ma, mb = self._mats[a], self._mats[b]
        comm = ma @ mb - mb @ ma
        coeffs = express_in_span(self._basis_vecs, [self._flatten(comm)],
                                 self._dim * self._dim)
        if coeffs is None:
            raise ValueError("bracket escaped the algebra: %r, %r" % (a, b))
        out = [(g, c) for g, c in zip(self.gens, coeffs[0]) if c]
        self._cache[key] = out
        return out


# ---------------------------------------------------------------------------
# osp(1|2) triple
# ---------------------------------------------------------------------------


def osp_generators(rep: GammaRep):
    """(D, E, X): Dirac operator, Euler operator, Clifford multiplication.

    D lowers polynomial degree by one, X raises it by one, E preserves it.
    """
    n, dim = rep.n, rep.spinor_dim
    sig = rep.sig
    D = OperatorSpec.zero(n, dim)
    E = OperatorSpec.zero(n, dim)
    X = OperatorSpec.zero(n, dim)
    for j in range(1, n + 1):
        D = D + OperatorSpec.fiber(n, rep.gamma(j)).compose(
            OperatorSpec.derivative(n, dim, j))
        E = E + OperatorSpec.coordinate(n, dim, j).compose(
            OperatorSpec.derivative(n, dim, j))
        X = X + OperatorSpec.fiber(n, rep.gamma(j)).compose(
            OperatorSpec.coordinate(n, dim, j)).scale(sig.eps(j))
    return D, E, X


# ---------------------------------------------------------------------------
# the two realizations
# ---------------------------------------------------------------------------


def _dual_so_generator(i, j, rep):
    """Negative transpose of the rotation action: the dual fiber action."""
    return so_generator(i, j, rep).transpose().scale(-1)


def _fiber_action(i, j, rep, module):
    if module == "spinor":
        return so_generator(i, j, rep)
    if module == "dual-spinor":
        return _dual_so_generator(i, j, rep)
    raise ValueError("unknown module %r" % (module,))


def verma_action(gen, lam, rep: GammaRep) -> OperatorSpec:
    """Action of a generator on the polynomial model of the Verma module.

    ``lam`` is the realization parameter of the classification formulas (an
    exact rational).  Translations multiply by -x_i; the special-conformal
    action is

        1/2 eps_i x_i D^2 + d_i (E - lam + n/2 + 1/2) + 1/2 eps_i e_i D,

    and the grading element acts by -E + lam - n/2 - 1 (the constant is
    pinned by exact bracket closure; see README).
    """
    n, dim = rep.n, rep.spinor_dim
    sig = rep.sig
    kind = gen[0]
    if kind == "f":
        return OperatorSpec.coordinate(n, dim, gen[1], qi(-1))
    if kind == "h":
        E = _osp_cached(rep).E
        return E.scale(-1) + OperatorSpec.scalar(n, dim, qi(lam - n * HALF - 1))
    if kind == "l":
        i, j = gen[1], gen[2]
        eij = qi(sig.eps(i) * sig.eps(j))
        spec = OperatorSpec.coordinate(n, dim, i, eij).compose(
            OperatorSpec.derivative(n, dim, j))
        spec = spec + OperatorSpec.coordinate(n, dim, j, qi(-1)).compose(
            OperatorSpec.derivative(n, dim, i))
        return spec + OperatorSpec.fiber(n, so_generator(i, j, rep))
    if kind == "g":
        i = gen[1]
        o = _osp_cached(rep)
        half_eps = qi(sig.eps(i) * HALF)
        term1 = OperatorSpec.coordinate(n, dim, i, half_eps).compose(o.DD)
        inner = o.E + OperatorSpec.scalar(n, dim, qi(-lam + n * HALF + HALF))
        term2 = OperatorSpec.derivative(n, dim, i).compose(inner)
        term3 = OperatorSpec.fiber(n, rep.gamma(i), half_eps).compose(o.D)
        return (term1 + term2 + term3).combined()
    raise ValueError("unknown generator %r" % (gen,))


def function_action(gen, lam, rep: GammaRep, module="spinor",
                    fiber_matrices=None, fiber_dim=None) -> OperatorSpec:
    """Action of a generator in the non-compact function picture.

    ``module`` selects the fiber: "spinor", "dual-spinor", or — via
    ``fiber_matrices`` (a map (i, j) -> SparseMatrix for i < j, already
    dualized) — an arbitrary fiber with trivially acting grading element.
    The grading element acts by E + lam + n/2 on every such fiber.
    """
    n = rep.n
    sig = rep.sig
    if fiber_matrices is not None:
        if fiber_dim is None:
            raise ValueError("fiber_dim required with fiber_matrices")
        dim = fiber_dim

        def fib(i, j):
            if i < j:
                return fiber_matrices[(i, j)]
            m = fiber_matrices[(j, i)]
            # pair(i,j) = -eps_i eps_j pair(j,i) as abstract generators
            return m.scale(-sig.eps(i) * sig.eps(j))
    else:
        dim = rep.spinor_dim

        def fib(i, j):
            return _fiber_action(i, j, rep, module)

    kind = gen[0]
    if kind == "f":
        return OperatorSpec.derivative(n, dim, gen[1], qi(-1))
    if kind == "h":
        E = _euler(n, dim)
        return E + OperatorSpec.scalar(n, dim, qi(lam + n * HALF))
    if kind == "l":
        i, j = gen[1], gen[2]
        eij = qi(sig.eps(i) * sig.eps(j))
        spec = OperatorSpec.coordinate(n, dim, j, -eij).compose(
            OperatorSpec.derivative(n, dim, i))
        spec = spec + OperatorSpec.coordinate(n, dim, i).compose(
            OperatorSpec.derivative(n, dim, j))
        return spec + OperatorSpec.fiber(n, fib(i, j))
    if kind == "g":
        i = gen[1]
        out = OperatorSpec.zero(n, dim)
        half_eps = qi(sig.eps(i) * HALF)
        for j in range(1, n + 1):
            out = out + OperatorSpec.monomial_mult(n, dim, j, 2, -half_eps * sig.eps(j)) \
                .compose(OperatorSpec.derivative(n, dim, i))
        E = _euler(n, dim)
        out = out + OperatorSpec.coordinate(n, dim, i).compose(E)
        out = out + OperatorSpec.coordinate(n, dim, i, qi(lam + n * HALF))
        for j in range(1, n + 1):
            if j != i:  # the (i, i) rotation is zero
                out = out + OperatorSpec.coordinate(n, dim, j).compose(
                    OperatorSpec.fiber(n, fib(i, j)))
        return out.combined()
    raise ValueError("unknown generator %r" % (gen,))


def _euler(n, dim):
    E = OperatorSpec.zero(n, dim)
    for j in range(1, n + 1):
        E = E + OperatorSpec.coordinate(n, dim, j).compose(
            OperatorSpec.derivative(n, dim, j))
    return E


class _OspProducts(NamedTuple):
    """The osp(1|2) triple and the products the special-conformal formulas reuse."""

    D: OperatorSpec
    E: OperatorSpec
    X: OperatorSpec
    DD: OperatorSpec  # D o D
    XX: OperatorSpec  # X o X
    XD: OperatorSpec  # X o D


_OSP_CACHE = {}


def _osp_cached(rep: GammaRep) -> _OspProducts:
    """D, E, X and the products D^2, X^2, X D, composed once per gamma model."""
    key = (rep.sig, rep.variant)
    out = _OSP_CACHE.get(key)
    if out is None:
        D, E, X = osp_generators(rep)
        out = _OspProducts(D, E, X, D.compose(D), X.compose(X), X.compose(D))
        _OSP_CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# invariant contractions of the special-conformal action
# ---------------------------------------------------------------------------


def invariant_contractions(lam, rep: GammaRep):
    """The Clifford, coordinate, and derivative contractions of the
    special-conformal action, each as a (defining_sum, closed_form) pair.

    The defining sums are C1 = sum_j gamma_j g_j, C2 = sum_j x_j g_j and
    C3 = sum_j eps_j d_j g_j; the closed forms are
    :func:`clifford_contraction`, :func:`coordinate_contraction` and
    :func:`derivative_contraction`.
    """
    n, dim = rep.n, rep.spinor_dim
    sig = rep.sig
    g = {i: verma_action(("g", i), lam, rep) for i in range(1, n + 1)}

    sum1 = OperatorSpec.zero(n, dim)
    sum2 = OperatorSpec.zero(n, dim)
    sum3 = OperatorSpec.zero(n, dim)
    for j in range(1, n + 1):
        sum1 = sum1 + OperatorSpec.fiber(n, rep.gamma(j)).compose(g[j])
        sum2 = sum2 + OperatorSpec.coordinate(n, dim, j).compose(g[j])
        sum3 = sum3 + OperatorSpec.derivative(n, dim, j, qi(sig.eps(j))).compose(g[j])

    return (
        (sum1.combined(), clifford_contraction(lam, rep)),
        (sum2.combined(), coordinate_contraction(lam, rep)),
        (sum3.combined(), derivative_contraction(lam, rep)),
    )


def clifford_contraction(lam, rep: GammaRep):
    """Closed form of C1: (E - lam + 3/2) D + 1/2 X D^2."""
    n, dim = rep.n, rep.spinor_dim
    o = _osp_cached(rep)
    return ((o.E + OperatorSpec.scalar(n, dim, qi(-lam + 3 * HALF))).compose(o.D)
            + o.X.compose(o.DD).scale(qi(HALF))).combined()


def coordinate_contraction(lam, rep: GammaRep):
    """Closed form of C2: -1/2 X^2 D^2 + (E - lam + n/2 + 1/2) E + 1/2 X D."""
    n, dim = rep.n, rep.spinor_dim
    o = _osp_cached(rep)
    half = qi(HALF)
    return (o.XX.compose(o.DD).scale(-half)
            + (o.E + OperatorSpec.scalar(n, dim, qi(-lam + n * HALF + HALF))).compose(o.E)
            + o.XD.scale(half)).combined()


def derivative_contraction(lam, rep: GammaRep):
    """Closed form of C3: (lam - 1/2 E - 2) D^2."""
    n, dim = rep.n, rep.spinor_dim
    o = _osp_cached(rep)
    return (OperatorSpec.scalar(n, dim, qi(lam - 2)) + o.E.scale(qi(-HALF))) \
        .compose(o.DD).combined()


def contraction_eigenvalue(idx, k, m, lam, n):
    """Exact scalar of contraction ``idx`` on the component X^k M_m.

    Contraction 1 maps into X^(k-1) M_m, contraction 2 preserves X^k M_m,
    contraction 3 maps into X^(k-2) M_m.  With lam = a/b the scalars are

        C1:  -k ((k - n + 3)/2 - lam)                   k even
             -(2m + n + k - 1) ((k + 2m + 2)/2 - lam)   k odd
        C2:  (m + k) (m + k - lam + (n + 1)/2) - k (2m + n + k - 1)/2
        C3:  k (2m + n + k - 2) (lam - (m + k + 2)/2)   k even
             (k - 1) (2m + n + k - 1) (lam - (m + k + 2)/2)   k odd

    each computed in integers over the common denominator 2b.
    """
    lam = rational(lam)
    a, b = lam.numerator, lam.denominator
    if idx == 1:
        if k % 2 == 0:
            num = -k * ((k - n + 3) * b - 2 * a)
        else:
            num = -(2 * m + n + k - 1) * ((k + 2 * m + 2) * b - 2 * a)
    elif idx == 2:
        s = m + k
        num = (s * (2 * s + n + 1) - k * (2 * m + n + k - 1)) * b - 2 * s * a
    elif idx == 3:
        ladder = k * (2 * m + n + k - 2) if k % 2 == 0 else (k - 1) * (2 * m + n + k - 1)
        num = ladder * (2 * a - (m + k + 2) * b)
    else:
        raise ValueError("contraction index must be 1, 2 or 3")
    return qi(rational(num, 2 * b))
