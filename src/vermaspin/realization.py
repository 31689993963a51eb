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
contractions of the special-conformal action, each stated once in
``_CONTRACTIONS`` and built from there as a defining sum and a closed form.

Known convention pin (see the package README): within ``verma_action`` the
grading element's constant is lambda - n/2 - 1, the unique value for which
all brackets close exactly onto the structure constants given the
special-conformal formulas that drive the classification.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple

from .exact import SparseMatrix, QI_ONE, qi, rational, express_in_span
from .clifford import GammaRep, Memo, Signature, so_generator
from .polyspinor import OpTerm, OperatorSpec, _product_sum

__all__ = [
    "generators",
    "conformal_matrix",
    "structure_constants",
    "bracket_multiple",
    "osp_generators",
    "verma_action",
    "function_action",
    "spinor_fiber",
    "dual_fiber",
    "invariant_contractions",
    "contraction_sum",
    "contraction_at_zero",
    "contraction_slope",
    "contraction_numerator",
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


class structure_constants(Memo):
    """Brackets of the abstract model expanded in the generator basis."""

    def __init__(self, sig: Signature):
        super().__init__()
        self.sig = sig
        self.gens = generators(sig.n)
        self._mats = {g: conformal_matrix(g, sig) for g in self.gens}
        self._dim = N = sig.n + 2
        self._basis = SparseMatrix.from_columns(
            N * N, [self._flatten(self._mats[g]) for g in self.gens])

    def _flatten(self, m: SparseMatrix):
        N = self._dim
        return {r * N + c: v for r, row in m.data.items() for c, v in row.items()}

    def matrix(self, gen):
        return self._mats[gen]

    def bracket(self, a, b):
        """[a, b] as a list of (generator, coefficient), exact; built once."""
        return self.cached((a, b), lambda: self._bracket(a, b))

    def _bracket(self, a, b):
        ma, mb = self._mats[a], self._mats[b]
        comm = ma @ mb - mb @ ma
        coeffs = express_in_span(
            self._basis, SparseMatrix.from_columns(self._basis.rows, [self._flatten(comm)]))
        if coeffs is None:
            raise ValueError("bracket escaped the algebra: %r, %r" % (a, b))
        column = coeffs.columns().get(0, {})
        return [(g, column[j]) for j, g in enumerate(self.gens) if j in column]


def bracket_multiple(a, b, y, sig: Signature):
    """The constant c != 0 with [a, b] = c y in the abstract model, or None.

    c is :meth:`SparseMatrix.multiple_of` of the commutator over y's matrix.
    The generator matrices are linearly independent, so a nonzero c means
    that y is the only generator in the expansion of [a, b].
    """
    ma, mb, my = (conformal_matrix(g, sig) for g in (a, b, y))
    c = (ma @ mb - mb @ ma).multiple_of(my)
    return c or None


# ---------------------------------------------------------------------------
# osp(1|2) triple
# ---------------------------------------------------------------------------


def osp_generators(rep: GammaRep):
    """(D, E, X): Dirac operator, Euler operator, Clifford multiplication.

    D lowers polynomial degree by one, X raises it by one, E preserves it.
    """
    n, dim = rep.n, rep.spinor_dim
    z = (0,) * n
    js = range(1, n + 1)
    D = OperatorSpec(n, dim, [OpTerm(z, _unit(n, j), rep.gamma(j), QI_ONE) for j in js])
    X = OperatorSpec(n, dim, [OpTerm(_unit(n, j), z, rep.gamma(j), qi(rep.sig.eps(j)))
                              for j in js])
    return D, _euler(n, dim), X


# ---------------------------------------------------------------------------
# the two realizations
# ---------------------------------------------------------------------------


def spinor_fiber(rep: GammaRep):
    """The spinor rotations as the map (i, j) -> matrix, i < j, of :func:`function_action`."""
    return {(i, j): so_generator(i, j, rep)
            for i in range(1, rep.n + 1) for j in range(i + 1, rep.n + 1)}


def dual_fiber(fiber):
    """The dual fiber: the negative transpose of every rotation matrix."""
    return {key: m.transpose().scale(-1) for key, m in fiber.items()}


def verma_action(gen, lam, rep: GammaRep) -> OperatorSpec:
    """Action of a generator on the polynomial model of the Verma module.

    ``lam`` is the realization parameter of the classification formulas (an
    exact rational).  Translations multiply by -x_i; the special-conformal
    action is

        1/2 eps_i x_i D^2 + d_i (E - lam + n/2 + 1/2) + 1/2 eps_i e_i D,

    built as one ``_product_sum`` over those three products, so it is
    normal-ordered and merged once; the grading element acts by
    -E + lam - n/2 - 1 (the constant is pinned by exact bracket closure; see
    README).
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
        return _rotation(n, dim, i, j, qi(sig.eps(i) * sig.eps(j)), qi(-1),
                         so_generator(i, j, rep))
    if kind == "g":
        i = gen[1]
        o = _osp_cached(rep)
        half_eps = qi(sig.eps(i) * HALF)
        return _product_sum([
            (OperatorSpec.coordinate(n, dim, i, half_eps), o.DD),
            (OperatorSpec.derivative(n, dim, i), _shifted_euler(o, -lam + n * HALF + HALF)),
            (OperatorSpec.fiber(n, rep.gamma(i), half_eps), o.D)])
    raise ValueError("unknown generator %r" % (gen,))


def function_action(gen, lam, rep: GammaRep, fiber) -> OperatorSpec:
    """Action of a generator in the non-compact function picture.

    ``fiber`` maps each pair (i, j), i < j, to the matrix of its rotation
    generator on the fiber, e.g. :func:`spinor_fiber` or its
    :func:`dual_fiber`; the fiber dimension is read off those matrices.  The
    grading element acts by E + lam + n/2 on every fiber.
    """
    n = rep.n
    sig = rep.sig
    dim = fiber[(1, 2)].cols

    def fib(i, j):
        if i < j:
            return fiber[(i, j)]
        # pair(i,j) = -eps_i eps_j pair(j,i) as abstract generators
        return fiber[(j, i)].scale(-sig.eps(i) * sig.eps(j))

    kind = gen[0]
    if kind == "f":
        return OperatorSpec.derivative(n, dim, gen[1], qi(-1))
    if kind == "h":
        return _euler(n, dim) + OperatorSpec.scalar(n, dim, qi(lam + n * HALF))
    if kind == "l":
        i, j = gen[1], gen[2]
        return _rotation(n, dim, j, i, qi(-sig.eps(i) * sig.eps(j)), QI_ONE, fib(i, j))
    if kind == "g":
        # -1/2 eps_i sum_j eps_j x_j^2 d_i + x_i (E + lam + n/2) + sum_j x_j pair(i, j),
        # normal-ordered once; the (i, i) rotation is zero
        i = gen[1]
        half_eps = qi(sig.eps(i) * HALF)
        d_i = OperatorSpec.derivative(n, dim, i)
        pairs = [(OperatorSpec.monomial_mult(n, dim, j, 2, -half_eps * sig.eps(j)), d_i)
                 for j in range(1, n + 1)]
        pairs.append((OperatorSpec.coordinate(n, dim, i),
                      function_action(("h",), lam, rep, fiber)))
        pairs += [(OperatorSpec.coordinate(n, dim, j), OperatorSpec.fiber(n, fib(i, j)))
                  for j in range(1, n + 1) if j != i]
        return _product_sum(pairs)
    raise ValueError("unknown generator %r" % (gen,))


def _unit(n, j):
    """The exponent tuple of x_j, or the multi-index of d_j (1-based)."""
    return tuple(int(k == j - 1) for k in range(n))


def _euler(n, dim):
    """E = sum_j x_j d_j, whose terms are already normal-ordered."""
    units = [_unit(n, j) for j in range(1, n + 1)]
    return OperatorSpec(n, dim, [OpTerm(e, e, None, QI_ONE) for e in units])


def _rotation(n, dim, i, j, a, b, mat):
    """a x_i d_j + b x_j d_i + mat, whose terms are already normal-ordered."""
    ei, ej = _unit(n, i), _unit(n, j)
    z = (0,) * n
    return OperatorSpec(n, dim, [OpTerm(ei, ej, None, a), OpTerm(ej, ei, None, b),
                                 OpTerm(z, z, mat, QI_ONE)])


class _OspProducts:
    """D, E, X and the products the special-conformal formulas reuse, each
    composed on first use: ``dirac_matrix`` and ``x_mult_matrix`` read none."""

    def __init__(self, rep: GammaRep):
        self.D, self.E, self.X = osp_generators(rep)

    @cached_property
    def DD(self):
        return self.D.compose(self.D)

    @cached_property
    def XX(self):
        return self.X.compose(self.X)

    @cached_property
    def XD(self):
        return self.X.compose(self.D)


def _osp_cached(rep: GammaRep) -> _OspProducts:
    """D, E, X and their products D^2, X^2, X D, kept in the gamma model's store."""
    return rep.cached("osp", lambda: _OspProducts(rep))


# ---------------------------------------------------------------------------
# invariant contractions of the special-conformal action
# ---------------------------------------------------------------------------


class _Contraction(NamedTuple):
    """C = sum_j left(rep, j) g_j, whose closed form is C(0) + lam * slope(o)
    for the stored osp(1|2) products o of the gamma model.

    ``at_zero(o)`` states C(0) as a list of (a, b) product pairs, C(0) being
    the sum of a after b over them, so that a closed form, or a residual
    against it, is one ``_product_sum`` stream; ``slope(o)`` is a spec.
    """

    left: Callable
    at_zero: Callable
    slope: Callable


def _shifted_euler(o: _OspProducts, c):
    return o.E + OperatorSpec.scalar(o.E.n, o.E.dim, qi(c))


def _one(o: _OspProducts):
    return OperatorSpec.scalar(o.E.n, o.E.dim, QI_ONE)


_CONTRACTIONS = {
    # C1 = sum_j gamma_j g_j = (E - lam + 3/2) D + 1/2 X D^2
    1: _Contraction(
        lambda rep, j: OperatorSpec.fiber(rep.n, rep.gamma(j)),
        lambda o: [(_shifted_euler(o, 3 * HALF), o.D), (o.X.scale(HALF), o.DD)],
        lambda o: o.D.scale(-1)),
    # C2 = sum_j x_j g_j = -1/2 X^2 D^2 + (E - lam + n/2 + 1/2) E + 1/2 X D
    2: _Contraction(
        lambda rep, j: OperatorSpec.coordinate(rep.n, rep.spinor_dim, j),
        lambda o: [(o.XX.scale(-HALF), o.DD), (o.XD.scale(HALF), _one(o)),
                   (_shifted_euler(o, (o.E.n + 1) * HALF), o.E)],
        lambda o: o.E.scale(-1)),
    # C3 = sum_j eps_j d_j g_j = (lam - 1/2 E - 2) D^2
    3: _Contraction(
        lambda rep, j: OperatorSpec.derivative(rep.n, rep.spinor_dim, j, qi(rep.sig.eps(j))),
        lambda o: [(_shifted_euler(o, 4).scale(-HALF), o.DD)],
        lambda o: o.DD),
}


def contraction_sum(idx, rep: GammaRep, right, minus=()):
    """sum_j left_j o right(j) for contraction ``idx``, less the sum of a o b
    over the (a, b) pairs ``minus``, as one ``_product_sum`` stream, merged
    once; right(j) = g_j(lam) gives the defining sum of C_idx, and ``minus``
    = ``contraction_at_zero(idx, rep)`` its residual against C(0)."""
    left = _CONTRACTIONS[idx].left
    pairs = [(left(rep, j), right(j)) for j in range(1, rep.n + 1)]
    pairs += [(a.scale(-1), b) for a, b in minus]
    return _product_sum(pairs)


def contraction_at_zero(idx, rep: GammaRep):
    """The lambda-free part C(0) of contraction ``idx``'s closed form, as the
    (a, b) pairs whose products a o b sum to it."""
    return _CONTRACTIONS[idx].at_zero(_osp_cached(rep))


def contraction_slope(idx, rep: GammaRep):
    """The lambda slope of contraction ``idx``'s closed form: -D, -E or D^2."""
    return _CONTRACTIONS[idx].slope(_osp_cached(rep))


def _closed_form(idx, lam, rep: GammaRep):
    c, o = _CONTRACTIONS[idx], _osp_cached(rep)
    return _product_sum(c.at_zero(o) + [(c.slope(o).scale(lam), _one(o))])


def invariant_contractions(lam, rep: GammaRep):
    """The Clifford, coordinate and derivative contractions C1, C2 and C3 of
    the special-conformal action, each as a (defining_sum, closed_form) pair."""
    g = {j: verma_action(("g", j), lam, rep) for j in range(1, rep.n + 1)}
    return tuple((contraction_sum(idx, rep, g.get), _closed_form(idx, lam, rep))
                 for idx in (1, 2, 3))


def contraction_numerator(idx, k, m, a, b, n):
    """The scalar of contraction ``idx`` on X^k M_m at lam = a/b (b > 0),
    times 2b: an integer, zero exactly when the scalar is zero.

    Contraction 1 maps X^k M_m into X^(k-1) M_m, contraction 2 preserves it,
    and contraction 3 maps it into X^(k-2) M_m.  The scalars are

        C1:  -k ((k - n + 3)/2 - lam)                   k even
             -(2m + n + k - 1) ((k + 2m + 2)/2 - lam)   k odd
        C2:  (m + k) (m + k - lam + (n + 1)/2) - k (2m + n + k - 1)/2
        C3:  k (2m + n + k - 2) (lam - (m + k + 2)/2)   k even
             (k - 1) (2m + n + k - 1) (lam - (m + k + 2)/2)   k odd
    """
    if idx == 1:
        if k % 2 == 0:
            return -k * ((k - n + 3) * b - 2 * a)
        return -(2 * m + n + k - 1) * ((k + 2 * m + 2) * b - 2 * a)
    if idx == 2:
        s = m + k
        return (s * (2 * s + n + 1) - k * (2 * m + n + k - 1)) * b - 2 * s * a
    if idx == 3:
        ladder = k * (2 * m + n + k - 2) if k % 2 == 0 else (k - 1) * (2 * m + n + k - 1)
        return ladder * (2 * a - (m + k + 2) * b)
    raise ValueError("contraction index must be 1, 2 or 3")
