"""Clifford algebra Cl_{p,q} in blade form and an exact gamma-matrix model.

A signature (p, q) fixes eps_i = +1 for i <= p and -1 for i > p, and the
defining relations e_i e_j + e_j e_i = -2 eps_i delta_ij.  Blades are stored
as bitmasks over the n generators.  The spinor model is a table: each
Euclidean gamma is a Kronecker product of the 2x2 factors i sigma_1,
i sigma_2, sigma_3 and I, written as rows with one unit i^e per row, and
``_CONSTRUCTIONS`` says which factors each of the two constructions
uses.  Every matrix entry is in {0, +-1, +-i}, so every downstream
computation stays inside Q(i), and no entry is built as a GaussianRational.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce

from .exact import GaussianRational, SparseMatrix, QI_ONE, QI_I, qi, rational

__all__ = [
    "Signature",
    "CliffordElement",
    "GammaRep",
    "ChiralityProjector",
    "blade_product",
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


class CliffordElement:
    """Finite Q(i)-combination of blades; a blade is a bitmask over e_1..e_n."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for blade, coeff in terms.items():
                if coeff:
                    self.terms[blade] = coeff

    @classmethod
    def scalar(cls, n, value):
        return cls(n, {0: value if isinstance(value, GaussianRational) else qi(value)})

    @classmethod
    def generator(cls, n, i):
        if not 1 <= i <= n:
            raise IndexError("generator index %d outside 1..%d" % (i, n))
        return cls(n, {1 << (i - 1): QI_ONE})

    @classmethod
    def blade(cls, n, indices, coeff=QI_ONE):
        mask = 0
        for i in indices:
            if not 1 <= i <= n:
                raise IndexError("blade index %d outside 1..%d" % (i, n))
            if mask & (1 << (i - 1)):
                raise ValueError("repeated index in blade")
            mask |= 1 << (i - 1)
        return cls(n, {mask: coeff})

    def __add__(self, other):
        terms = dict(self.terms)
        for b, c in other.terms.items():
            nc = terms.get(b, None)
            nc = c if nc is None else nc + c
            if nc:
                terms[b] = nc
            elif b in terms:
                del terms[b]
        return CliffordElement(self.n, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        s = s if isinstance(s, GaussianRational) else qi(s)
        return CliffordElement(self.n, {b: c * s for b, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, CliffordElement) and self.n == other.n \
            and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "CliffordElement(0)"
        bits = []
        for blade in sorted(self.terms):
            idx = [str(i + 1) for i in range(self.n) if blade & (1 << i)]
            name = "e" + "".join(idx) if idx else "1"
            bits.append("%s*%s" % (self.terms[blade].to_string(), name))
        return "CliffordElement(%s)" % " + ".join(bits)


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


def blade_product(a: CliffordElement, b: CliffordElement, sig: Signature) -> CliffordElement:
    """Associative Clifford product of blade combinations."""
    if a.n != sig.n or b.n != sig.n:
        raise IndexError("blade index range does not match signature")
    eps = [sig.eps(i + 1) for i in range(sig.n)]
    terms = {}
    for ba, ca in a.terms.items():
        for bb, cb in b.terms.items():
            sign, blade = _blade_mul(ba, bb, eps)
            c = ca * cb
            if sign < 0:
                c = -c
            cur = terms.get(blade)
            nc = c if cur is None else cur + c
            if nc:
                terms[blade] = nc
            elif blade in terms:
                del terms[blade]
    return CliffordElement(sig.n, terms)


# ---------------------------------------------------------------------------
# gamma-matrix model
# ---------------------------------------------------------------------------

# 2x2 factors with one unit per row: row r holds (col, e), the entry i^e at
# (r, col); _UNITS[e % 4] is i^e as a Gaussian integer (a, b) = a + b i.
_I_PAULI_1 = ((1, 1), (0, 1))   # i sigma_1
_I_PAULI_2 = ((1, 0), (0, 2))   # i sigma_2
_PAULI_3 = ((0, 0), (1, 2))     # sigma_3
_ID2 = ((0, 0), (1, 0))
_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))

# construction -> (pre, post, first, second): the k-th pair of Euclidean
# gammas is pre^(k-1) (x) first|second (x) post^(m-k)
_CONSTRUCTIONS = {
    "standard": (_PAULI_3, _ID2, _I_PAULI_1, _I_PAULI_2),
    "alt": (_ID2, _PAULI_3, _I_PAULI_2, _I_PAULI_1),
}


def _kron(factors):
    """Kronecker product of 2x2 unit-per-row factors: a SparseMatrix over den 1."""
    rows = [(0, 0)]
    for factor in factors:
        rows = [(c * 2 + fc, e + fe) for c, e in rows for fc, fe in factor]
    return SparseMatrix.from_int_rows(1 << len(factors),
                                      [{c: _UNITS[e % 4]} for c, e in rows])


def _product(dim, mats):
    """The ordered product of dim x dim matrices; the identity when there are none."""
    return reduce(operator.matmul, mats, SparseMatrix.identity(dim))


def _euclidean_gammas(n, variant):
    """n anticommuting matrices each squaring to -I, entries in {0,+-1,+-i}."""
    if variant not in _CONSTRUCTIONS:
        raise ValueError("unknown gamma construction %r" % (variant,))
    pre, post, first, second = _CONSTRUCTIONS[variant]
    m = n // 2
    gammas = [_kron([pre] * (k - 1) + [middle] + [post] * (m - k))
              for k in range(1, m + 1) for middle in (first, second)]
    if n % 2 == 1:
        last = _product(1 << m, gammas)
        if last @ last == SparseMatrix.identity(1 << m):
            last = last.scale(QI_I)
        gammas.append(last)
    return gammas


@dataclass
class GammaRep:
    """Concrete spinor model: n matrices with G_i G_j + G_j G_i = -2 eps_i d_ij."""

    sig: Signature
    variant: str = "standard"
    gammas: list = field(default_factory=list)

    @property
    def n(self):
        return self.sig.n

    @property
    def spinor_dim(self):
        return 1 << (self.sig.n // 2)

    def gamma(self, i):
        """1-based access to the i-th generator matrix."""
        return self.gammas[i - 1]

    def blade_matrix(self, blade_mask):
        return _product(self.spinor_dim,
                        [g for i, g in enumerate(self.gammas) if blade_mask >> i & 1])

    def element_matrix(self, elem: CliffordElement):
        out = SparseMatrix.zero(self.spinor_dim, self.spinor_dim)
        for blade, coeff in elem.terms.items():
            out = out + self.blade_matrix(blade).scale(coeff)
        return out


def build_gamma_rep(sig: Signature, variant="standard") -> GammaRep:
    """Exact gamma matrices for the given signature.

    The Euclidean-convention set (every square -I) is built by the tensor
    recursion, then each generator with eps_i = -1 is rescaled by i so that
    G_i^2 = -eps_i I.
    """
    gammas = _euclidean_gammas(sig.n, variant)
    for i in range(sig.n):
        if sig.eps(i + 1) < 0:
            gammas[i] = gammas[i].scale(QI_I)
    return GammaRep(sig=sig, variant=variant, gammas=gammas)


def so_generator(i, j, rep: GammaRep) -> SparseMatrix:
    """Spinor action of the rotation generator attached to the pair (i, j).

    Returns -1/2 eps_i G_i G_j - 1/2 delta_ij I; vanishes for i = j.
    """
    sig = rep.sig
    if not (1 <= i <= sig.n and 1 <= j <= sig.n):
        raise IndexError("so generator indices outside 1..%d" % sig.n)
    half = qi(rational(-1, 2))
    out = (rep.gamma(i) @ rep.gamma(j)).scale(half * sig.eps(i))
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

    Raises ValueError unless G_vol is diagonal with entries +-1.
    """
    n = rep.n
    if n % 2 == 1:
        raise ValueError("no chirality split: dimension must be even")
    dim = rep.spinor_dim
    ident = SparseMatrix.identity(dim)
    vol = _product(dim, rep.gammas)
    if vol @ vol != ident:
        vol = vol.scale(QI_I)
    signs = {r: row[r] for r, row in vol.num.items() if row.keys() == {r}}
    if vol.den != 1 or len(signs) != dim or not set(signs.values()) <= {(1, 0), (-1, 0)}:
        raise ValueError("no chirality split by fiber index: the volume element of the "
                         "%s gamma model at n = %d is not diagonal +-1" % (rep.variant, n))
    plus_index = frozenset(r for r, s in signs.items() if s == (1, 0))
    return ChiralityProjector(volume=vol, plus_index=plus_index)
