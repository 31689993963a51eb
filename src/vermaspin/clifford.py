"""Exact gamma-matrix models of Cl_{p,q} and their blade tables.

A signature (p, q) fixes eps_i = +1 for i <= p and -1 for i > p, and the
defining relations e_i e_j + e_j e_i = -2 eps_i delta_ij.  Blades are
bitmasks over the n generators, and ``_blade_mul`` gives the product of two
as a sign and a blade.  The spinor model is a table: each
Euclidean gamma is a Kronecker product of the 2x2 factors i sigma_1,
i sigma_2, sigma_3 and I, written as rows with one unit i^e per row, and
``_CONSTRUCTIONS`` says which factors each of the two constructions
uses.  Every matrix entry is in {0, +-1, +-i}, so every downstream
computation stays inside Q(i), and no entry is built as a GaussianRational.

Each gamma model (one per signature and construction) is its
:class:`BladeTable`: the gammas are the table's generators.  Its blades
Gamma_S, the ordered products of the gammas in S, are shared
:class:`BladeMatrix` objects labelled (S, 1), and a matrix known to equal
s Gamma_S carries the label (S, s): the gammas, the blades, and what
``scale``, ``transpose`` and ``so_generator`` make of them.  The product of
two labelled matrices is read off the table as ``_blade_mul`` gives it, with
no matrix product, once the table has checked the Clifford relations on its
integer tables; the transpose signs and the volume element are read off the
tables too, and a table whose G_i is neither symmetric nor antisymmetric is
refused.  An unlabelled matrix is multiplied with ``@``.  The table is the
only code that multiplies blades, and it keeps its blades and products in
its :class:`Memo` store, like every other per-model entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

from .exact import SparseMatrix, QI_ONE, QI_I, qi, rational

__all__ = [
    "Signature",
    "GammaRep",
    "Memo",
    "BladeMatrix",
    "BladeTable",
    "ChiralityProjector",
    "build_gamma_rep",
    "so_generator",
    "chirality_split",
]


@dataclass(frozen=True)
class Signature:
    """Metric signature (p pluses, q minuses); n = p + q >= 3."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0 or self.n < 3:
            raise ValueError("signature needs p, q >= 0 and p + q >= 3")

    @property
    def n(self):
        return self.p + self.q

    def eps(self, i):
        """Sign of e_i^2 relation; i is 1-based."""
        if not 1 <= i <= self.n:
            raise IndexError("index %d outside 1..%d" % (i, self.n))
        return 1 if i <= self.p else -1


def _blade_mul(a_mask, b_mask, eps):
    """Product of two basis blades: (sign, blade) with e_i^2 = -eps_i."""
    sign = 1
    # count transpositions to move each generator of b past the tail of a
    a_high = a_mask
    result = a_mask ^ b_mask
    b = b_mask
    while b:
        low = b & -b
        i = low.bit_length() - 1
        # generators of a strictly above i must hop over e_{i+1}
        swaps = bin(a_high >> (i + 1)).count("1")
        if swaps & 1:
            sign = -sign
        if a_high & low:
            # e_i e_i = -eps_i
            if eps[i] > 0:
                sign = -sign
            a_high &= ~low
        else:
            a_high |= low
        b &= b - 1
    return sign, result


# ---------------------------------------------------------------------------
# gamma-matrix model
# ---------------------------------------------------------------------------

# 2x2 factors with one unit per row: row r holds (col, e), the entry i^e at
# (r, col); _UNITS[e] is i^e as a Gaussian integer (a, b) = a + b i, and
# _UNIT_QI[e] as a GaussianRational.
_I_PAULI_1 = ((1, 1), (0, 1))   # i sigma_1
_I_PAULI_2 = ((1, 0), (0, 2))   # i sigma_2
_PAULI_3 = ((0, 0), (1, 2))     # sigma_3
_ID2 = ((0, 0), (1, 0))
_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))
_UNIT_QI = (QI_ONE, QI_I, -QI_ONE, -QI_I)

# construction -> (pre, post, first, second): the k-th pair of Euclidean
# gammas is pre^(k-1) (x) first|second (x) post^(m-k)
_CONSTRUCTIONS = {
    "standard": (_PAULI_3, _ID2, _I_PAULI_1, _I_PAULI_2),
    "alt": (_ID2, _PAULI_3, _I_PAULI_2, _I_PAULI_1),
}


def _kron(factors):
    """The unit-per-row table of a Kronecker product of 2x2 unit-per-row factors."""
    rows = [(0, 0)]
    for factor in factors:
        rows = [(c * 2 + fc, (e + fe) & 3) for c, e in rows for fc, fe in factor]
    return tuple(rows)


def _compose(a, b):
    """The unit-per-row table of the product A B of two unit-per-row tables."""
    return tuple((b[c][0], (e + b[c][1]) & 3) for c, e in a)


def _times_i(table):
    return tuple((c, (e + 1) & 3) for c, e in table)


def _is_scalar(table, e):
    """Whether a unit-per-row table is i^e times the identity."""
    return all(c == r and f == e for r, (c, f) in enumerate(table))


def _euclidean_gammas(n, variant):
    """The tables of n anticommuting matrices each squaring to -I."""
    if variant not in _CONSTRUCTIONS:
        raise ValueError("unknown gamma construction %r" % (variant,))
    pre, post, first, second = _CONSTRUCTIONS[variant]
    m = n // 2
    gammas = [_kron([pre] * (k - 1) + [middle] + [post] * (m - k))
              for k in range(1, m + 1) for middle in (first, second)]
    if n % 2 == 1:
        last = reduce(_compose, gammas)
        if _is_scalar(_compose(last, last), 0):
            last = _times_i(last)
        gammas.append(last)
    return gammas


class BladeMatrix(SparseMatrix):
    """A fiber matrix known to equal ``scalar`` times Gamma_``mask`` of ``table``.

    ``scale`` (so also negation) and ``transpose`` keep the label; every
    other operation gives a plain SparseMatrix.
    """

    __slots__ = ("table", "mask", "scalar")

    def scale(self, s):
        m = SparseMatrix.scale(self, s)
        return _labelled(m, self.table, self.mask, self.scalar * s) if m.num else m

    def transpose(self):
        t = self.table.transpose_sign(self.mask)
        return _labelled(SparseMatrix.transpose(self), self.table, self.mask, self.scalar * t)


def _labelled(m, table, mask, scalar):
    out = object.__new__(BladeMatrix)
    out.rows, out.cols, out.num, out.den = m.rows, m.cols, m.num, m.den
    out.table, out.mask, out.scalar = table, mask, scalar
    return out


class Memo:
    """A store whose one way in, :meth:`cached`, builds an entry only when its
    key is absent, so a falsy entry is built once too (see the README)."""

    _MISSING = object()

    def __init__(self):
        self.cache = {}

    def cached(self, key, build):
        """The entry under ``key``; ``build()`` makes and stores it on a miss."""
        value = self.cache.get(key, Memo._MISSING)
        if value is Memo._MISSING:
            value = self.cache[key] = build()
        return value


class BladeTable(Memo):
    """The blades Gamma_S of one gamma model and their products, read off tables.

    ``rows[i]`` is the unit-per-row table of G_(i+1).  Gamma_S is the ordered
    product of the G_i with i in S, built lazily from the tables; the
    generators ``gammas`` and every Gamma_S are labelled :class:`BladeMatrix`
    objects, one per blade, shared by every user of the model.  Before the
    first product is read off, :meth:`check` verifies the Clifford relations
    on the tables, so that Gamma_S Gamma_T = +-Gamma_(S xor T) follows from
    ``_blade_mul``.  For odd n, G_1 ... G_n is a unit omega times I (also
    checked), and a blade of more than n/2 generators is stored as a unit
    times its complement.  The store holds the blades under ``("blade",
    mask)`` and the products under ``("product", a, b)``.
    """

    def __init__(self, sig: Signature, rows):
        super().__init__()
        self.sig = sig
        self.rows = rows
        self.dim = len(rows[0])
        self._eps = [sig.eps(i + 1) for i in range(sig.n)]
        self._omega = None
        self.gammas = tuple(self.blade(1 << i) for i in range(sig.n))

    def blade(self, mask):
        """Gamma_mask, the ordered product of the G_i in mask (the identity
        for 0), built from the tables on first use."""
        def build():
            gens = [t for i, t in enumerate(self.rows) if mask >> i & 1]
            table = reduce(_compose, gens) if gens else tuple((r, 0) for r in range(self.dim))
            m = SparseMatrix.from_int_rows(self.dim, [{c: _UNITS[e]} for c, e in table])
            return _labelled(m, self, mask, QI_ONE)
        return self.cached(("blade", mask), build)

    def check(self):
        """Check G_i G_j + G_j G_i = -2 eps_i delta_ij I on the tables, and for
        odd n that G_1 ... G_n is a unit times I; runs once.  Raises
        ArithmeticError naming the pair, or the volume element."""
        if self._omega is not None:
            return
        rows, where = self.rows, "signature (%d,%d)" % (self.sig.p, self.sig.q)
        for i, gi in enumerate(rows):
            if not _is_scalar(_compose(gi, gi), 2 if self._eps[i] > 0 else 0):
                raise ArithmeticError("%s: G_%d G_%d is not %d I"
                                      % (where, i + 1, i + 1, -self._eps[i]))
            for j in range(i):
                if any(c != d or (e - f) & 3 != 2
                       for (c, e), (d, f) in zip(_compose(gi, rows[j]), _compose(rows[j], gi))):
                    raise ArithmeticError("%s: G_%d G_%d + G_%d G_%d is not 0"
                                          % (where, j + 1, i + 1, i + 1, j + 1))
        omega = 0
        if self.sig.n % 2:
            vol = reduce(_compose, rows)
            omega = vol[0][1]
            if not _is_scalar(vol, omega):
                raise ArithmeticError("%s: G_1 ... G_%d is not a multiple of I"
                                      % (where, self.sig.n))
        self._omega = omega

    def product(self, a, b):
        """(mask, s) with Gamma_a Gamma_b = s Gamma_mask, s in {+-1, +-i}."""
        def build():
            self.check()
            sign, mask = _blade_mul(a, b, self._eps)
            e = 0 if sign > 0 else 2
            n = self.sig.n
            if n % 2 and 2 * bin(mask).count("1") > n:
                # Gamma_T Gamma_full = sigma Gamma_mask, T = mask's complement,
                # and Gamma_full = omega I
                full = (1 << n) - 1
                sigma, _ = _blade_mul(mask ^ full, full, self._eps)
                mask ^= full
                e += self._omega + (0 if sigma > 0 else 2)
            return mask, _UNIT_QI[e & 3]
        return self.cached(("product", a, b), build)

    def times(self, x: BladeMatrix, y: BladeMatrix):
        """(mask, s) with x y = s Gamma_mask, for two matrices this table labels."""
        mask, s = self.product(x.mask, y.mask)
        return mask, x.scalar * y.scalar * s

    @cached_property
    def _transpose_signs(self):
        """t_i with G_i^T = t_i G_i.  Raises ArithmeticError naming the
        signature and i when G_i is neither symmetric nor antisymmetric."""
        out = []
        for i, table in enumerate(self.rows, 1):
            flips = {(e - table[c][1]) & 3 if table[c][0] == r else 1
                     for r, (c, e) in enumerate(table)}
            if len(flips) != 1 or flips & {1, 3}:
                raise ArithmeticError("signature (%d,%d): G_%d^T is neither G_%d nor -G_%d"
                                      % (self.sig.p, self.sig.q, i, i, i))
            out.append(-1 if flips == {2} else 1)
        return out

    def transpose_sign(self, mask):
        """The t with Gamma_mask^T = t Gamma_mask: reversing k anticommuting
        factors gives (-1)^(k(k-1)/2).  Raises ArithmeticError for a table
        that fails :meth:`check` or has a G_i of neither symmetry."""
        self.check()
        signs = self._transpose_signs
        k = bin(mask).count("1")
        t = -1 if k * (k - 1) // 2 % 2 else 1
        for i, s in enumerate(signs):
            if mask >> i & 1:
                t *= s
        return t


@dataclass
class GammaRep(Memo):
    """Concrete spinor model: the blade table of n matrices with
    G_i G_j + G_j G_i = -2 eps_i d_ij, which its ``table`` checks.

    The gammas are the table's generators.  The store holds what the model
    fixes (the osp(1|2) products, g_i(0) specs and closed-form verdicts); a
    copy starts empty.
    """

    sig: Signature
    variant: str
    table: BladeTable

    def __post_init__(self):
        super().__init__()

    @property
    def gammas(self):
        """The generators G_1 .. G_n of the table."""
        return self.table.gammas

    @property
    def n(self):
        return self.sig.n

    @property
    def spinor_dim(self):
        return 1 << (self.sig.n // 2)

    def gamma(self, i):
        """1-based access to the i-th generator matrix."""
        return self.gammas[i - 1]


_MODELS = Memo()


def build_gamma_rep(sig: Signature, variant="standard") -> GammaRep:
    """The exact gamma model of a signature and construction, one per process.

    The Euclidean-convention set (every square -I) is built by the tensor
    recursion, then each generator with eps_i = -1 is rescaled by i so that
    G_i^2 = -eps_i I.  ``_MODELS`` keeps the model, shared by all its users.
    """
    def build():
        rows = [_times_i(t) if sig.eps(i + 1) < 0 else t
                for i, t in enumerate(_euclidean_gammas(sig.n, variant))]
        return GammaRep(sig=sig, variant=variant, table=BladeTable(sig, rows))
    return _MODELS.cached((sig, variant), build)


def so_generator(i, j, rep: GammaRep) -> SparseMatrix:
    """Spinor action of the rotation generator attached to the pair (i, j).

    Returns -1/2 eps_i G_i G_j - 1/2 delta_ij I; vanishes for i = j.  For
    i != j the matrix is the blade G_i G_j read off the table, with its label.
    """
    sig = rep.sig
    if not (1 <= i <= sig.n and 1 <= j <= sig.n):
        raise IndexError("so generator indices outside 1..%d" % sig.n)
    half = qi(rational(-1, 2))
    mask, s = rep.table.times(rep.gamma(i), rep.gamma(j))
    out = rep.table.blade(mask).scale(s * half * sig.eps(i))
    if i == j:
        out = out + SparseMatrix.identity(rep.spinor_dim, half)
    return out


@dataclass
class ChiralityProjector:
    """The split of the fiber into half-spinor subspaces (n even).

    The volume element is diagonal +-1 in both gamma models, so each half is
    spanned by fiber basis vectors: ``plus_index`` holds those of the + half,
    whose projector is (I + volume)/2.
    """

    volume: SparseMatrix
    plus_index: frozenset

    def half(self, fiber_index):
        """'+' or '-': the half-spinor subspace holding a fiber basis vector."""
        return "+" if fiber_index in self.plus_index else "-"

    def half_of(self, fiber_indices, degree):
        """'+' or '-': the one half holding every given fiber index.

        Reads the chirality of a vector off its support.  Raises
        ArithmeticError naming ``degree`` when the indices touch both halves.
        """
        sides = {self.half(i) for i in fiber_indices}
        if len(sides) != 1:
            raise ArithmeticError("degree %d: a kernel vector touches both chirality halves"
                                  % degree)
        return sides.pop()


def chirality_split(rep: GammaRep) -> ChiralityProjector:
    """The halves of G_vol = c G_1 ... G_n, scaled so G_vol^2 = I.

    G_vol is read off the unit-per-row tables of the model's blade table.
    Raises ValueError unless G_vol is diagonal with entries +-1.
    """
    n = rep.n
    if n % 2 == 1:
        raise ValueError("no chirality split: dimension must be even")
    vol = reduce(_compose, rep.table.rows)
    if any(e & 1 for _, e in vol):
        vol = _times_i(vol)
    if any(c != r or e & 1 for r, (c, e) in enumerate(vol)):
        raise ValueError("no chirality split by fiber index: the volume element of the "
                         "%s gamma model at n = %d is not diagonal +-1" % (rep.variant, n))
    volume = SparseMatrix.from_int_rows(rep.spinor_dim, [{c: _UNITS[e]} for c, e in vol])
    return ChiralityProjector(volume=volume,
                              plus_index=frozenset(r for r, (_, e) in enumerate(vol) if e == 0))
