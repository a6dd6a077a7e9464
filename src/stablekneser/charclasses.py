"""Graded GF(2) cohomology rings of cyclic and dihedral 2-groups, and the
Stiefel-Whitney calculus that certifies or refutes test-graph behaviour.

Polynomials are truncated at a degree bound D.  Four ring presentations
appear:

  ODD         Z2[a],            deg a = 1        (m odd; also H*(C_2))
  TWO_MOD_4   Z2[a, b],         deg a = b = 1
  ZERO_MOD_4  Z2[x, y, u]/(xy), deg x = y = 1, deg u = 2
  CYCLIC_4    Z2[x, u]/(x^2),   deg x = 1, deg u = 2

Everything is mod 2, so a polynomial is stored bit-packed: one int per
degree d = 0..D, one bit per monomial of a fixed basis of that degree.
The last generator's exponent follows from d and the others' exponents:

  ODD         a^d                       -> bit 0
  TWO_MOD_4   a^i b^(d-i)               -> bit i
  CYCLIC_4    x^i u^((d-i)/2), i <= 1   -> bit i
  ZERO_MOD_4  x^i u^((d-i)/2)           -> bit D + i
              y^j u^((d-j)/2)           -> bit D - j

Multiplying a component by a basis monomial is an AND that clears what
the monomial ideal kills (x·x in CYCLIC_4, the y side under x and the x
side under y in ZERO_MOD_4), then a shift by the monomial's offset; a
homogeneous product XORs these over the monomials of one factor, which
in ODD and TWO_MOD_4 is a plain carry-less multiply.  ZERO_MOD_4 puts x
and y on either side of bit D rather than on two strides, so its masks
stay 2D + 1 bits wide instead of D·(D + 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .geometry import ZERO_TOL, representation
from .graphs import set_bits

ODD = "ODD"
TWO_MOD_4 = "TWO_MOD_4"
ZERO_MOD_4 = "ZERO_MOD_4"
CYCLIC_4 = "CYCLIC_4"

_GENS = {
    ODD: ("a",),
    TWO_MOD_4: ("a", "b"),
    ZERO_MOD_4: ("x", "y", "u"),
    CYCLIC_4: ("x", "u"),
}
_DEGS = {
    ODD: (1,),
    TWO_MOD_4: (1, 1),
    ZERO_MOD_4: (1, 1, 2),
    CYCLIC_4: (1, 2),
}

Monomial = tuple[int, ...]


def monomial_degree(ring: str, mono: Monomial) -> int:
    return sum(e * d for e, d in zip(mono, _DEGS[ring]))


def _mono_ok(ring: str, mono: Monomial) -> bool:
    """Quotient relations: xy = 0 and, in the cyclic ring, x^2 = 0."""
    if ring == ZERO_MOD_4 and mono[0] > 0 and mono[1] > 0:
        return False
    if ring == CYCLIC_4 and mono[0] > 1:
        return False
    return True


# ---------------------------------------------------------------------------
# the bit layout of one homogeneous component


def _bit_of(ring: str, max_degree: int, mono: Monomial) -> int:
    """Bit position of a monomial inside its degree's mask."""
    if ring == ZERO_MOD_4:
        return max_degree + mono[0] - mono[1]
    if ring == ODD:
        return 0
    return mono[0]


def _monomial_at(ring: str, max_degree: int, degree: int, bit: int) -> Monomial:
    """Inverse of _bit_of within one degree."""
    if ring == ODD:
        return (degree,)
    if ring == TWO_MOD_4:
        return (bit, degree - bit)
    if ring == CYCLIC_4:
        return (bit, (degree - bit) // 2)
    i, j = max(bit - max_degree, 0), max(max_degree - bit, 0)
    return (i, j, (degree - i - j) // 2)


def _times_monomial(ring: str, max_degree: int, bit: int, mask: int) -> int:
    """A component times the basis monomial at `bit` of another component."""
    if ring == ZERO_MOD_4:
        if bit > max_degree:   # x^i: the y side dies, the rest moves up i
            return (mask >> max_degree) << bit
        if bit < max_degree:   # y^j: the x side dies, the rest moves down j
            return (mask & ((2 << max_degree) - 1)) >> (max_degree - bit)
        return mask
    if ring == CYCLIC_4 and bit:
        return (mask & 1) << 1
    return mask << bit


def _times(ring: str, max_degree: int, a: int, b: int) -> int:
    """Product of two homogeneous components, iterating over a's monomials."""
    out = 0
    for bit in set_bits(a):
        out ^= _times_monomial(ring, max_degree, bit, b)
    return out


class GradedPoly:
    """Element of a graded GF(2) quotient ring, truncated at max_degree.

    `GradedPoly(ring, max_degree, terms)` takes a set of exponent tuples and
    checks each against the ring relations and the degree bound; arithmetic
    builds its results from packed masks without re-checking.  Instances
    are immutable.
    """

    __slots__ = ("ring", "max_degree", "masks")

    def __init__(self, ring: str, max_degree: int,
                 terms: Iterable[Monomial] = frozenset()):
        if ring not in _GENS:
            raise ValueError("unknown ring %r" % (ring,))
        if max_degree < 0:
            raise ValueError("negative degree bound %d" % max_degree)
        masks = [0] * (max_degree + 1)
        for t in frozenset(terms):
            if len(t) != len(_GENS[ring]) or min(t) < 0:
                raise ValueError("%s is not an exponent tuple of ring %s" % (t, ring))
            if not _mono_ok(ring, t):
                raise ValueError("monomial %s violates the ring relations" % (t,))
            d = monomial_degree(ring, t)
            if d > max_degree:
                raise ValueError("monomial above the degree bound")
            masks[d] ^= 1 << _bit_of(ring, max_degree, t)
        self.ring = ring
        self.max_degree = max_degree
        self.masks = tuple(masks)

    @classmethod
    def _packed(cls, ring: str, max_degree: int, masks) -> "GradedPoly":
        p = object.__new__(cls)
        p.ring = ring
        p.max_degree = max_degree
        p.masks = tuple(masks)
        return p

    def _monomials(self, degree: int) -> list[Monomial]:
        return [_monomial_at(self.ring, self.max_degree, degree, bit)
                for bit in set_bits(self.masks[degree])]

    @property
    def terms(self) -> frozenset:
        """The monomials as exponent tuples, in generator order."""
        return frozenset(t for d in range(self.max_degree + 1)
                         for t in self._monomials(d))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return (self.ring, self.max_degree, self.masks) == \
            (other.ring, other.max_degree, other.masks)

    def __hash__(self) -> int:
        return hash((self.ring, self.max_degree, self.masks))

    def __repr__(self) -> str:
        return "GradedPoly(%r, %d, %s)" % (self.ring, self.max_degree, self)

    def is_zero(self) -> bool:
        return not any(self.masks)

    def constant_term(self) -> int:
        return 1 if self.masks[0] else 0

    def component(self, degree: int) -> "GradedPoly":
        masks = [0] * (self.max_degree + 1)
        if 0 <= degree <= self.max_degree:
            masks[degree] = self.masks[degree]
        return GradedPoly._packed(self.ring, self.max_degree, masks)

    def vanishing_degrees(self) -> list[int]:
        """Degrees 1..max_degree with zero homogeneous component."""
        return [d for d in range(1, self.max_degree + 1) if not self.masks[d]]

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_compatible(other)
        return GradedPoly._packed(self.ring, self.max_degree,
                                  [a ^ b for a, b in zip(self.masks, other.masks)])

    def __mul__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_compatible(other)
        ring, top = self.ring, self.max_degree
        out = [0] * (top + 1)
        rhs = [(d, b) for d, b in enumerate(other.masks) if b]
        for d1, a in enumerate(self.masks):
            if not a:
                continue
            for d2, b in rhs:
                if d1 + d2 > top:
                    break
                if a.bit_count() <= b.bit_count():
                    out[d1 + d2] ^= _times(ring, top, a, b)
                else:
                    out[d1 + d2] ^= _times(ring, top, b, a)
        return GradedPoly._packed(ring, top, out)

    def __pow__(self, e: int) -> "GradedPoly":
        if e < 0:
            raise ValueError("negative exponent %d" % e)
        out = poly_one(self.ring, self.max_degree)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def _check_compatible(self, other: "GradedPoly") -> None:
        if self.ring != other.ring or self.max_degree != other.max_degree:
            raise ValueError("ring or degree bound mismatch")

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        gens = _GENS[self.ring]
        parts = []
        for d in range(self.max_degree + 1):
            for t in sorted(self._monomials(d)):
                factors = []
                for g, e in zip(gens, t):
                    if e == 1:
                        factors.append(g)
                    elif e > 1:
                        factors.append("%s^%d" % (g, e))
                parts.append("·".join(factors) if factors else "1")
        return " + ".join(parts)


def poly_one(ring: str, max_degree: int) -> GradedPoly:
    return GradedPoly(ring, max_degree, ((0,) * len(_GENS[ring]),))


def generator(ring: str, name: str, max_degree: int) -> GradedPoly:
    gens = _GENS[ring]
    if name not in gens:
        raise ValueError("ring %s has no generator %r" % (ring, name))
    mono = tuple(1 if g == name else 0 for g in gens)
    return GradedPoly(ring, max_degree, (mono,))


def one_plus(ring: str, max_degree: int, *names: str) -> GradedPoly:
    out = poly_one(ring, max_degree)
    for name in names:
        out = out + generator(ring, name, max_degree)
    return out


def poly_invert(p: GradedPoly) -> GradedPoly:
    """Inverse of a unit power series, degree by degree up to the bound.

    inv_d = sum of p_i · inv_(d-i) over the degrees 1 <= i <= d where p is
    nonzero, so the work grows with the bound times the support of p.
    """
    if p.constant_term() != 1:
        raise ValueError("not invertible: constant term is 0")
    ring, top = p.ring, p.max_degree
    support = [(i, tuple(set_bits(a))) for i, a in enumerate(p.masks) if i and a]
    inv = [p.masks[0]]
    for d in range(1, top + 1):
        acc = 0
        for i, bits in support:
            if i > d:
                break
            b = inv[d - i]
            if b:
                for bit in bits:
                    acc ^= _times_monomial(ring, top, bit, b)
        inv.append(acc)
    return GradedPoly._packed(ring, top, inv)


# ---------------------------------------------------------------------------
# the rings attached to (n, k), and the total Stiefel-Whitney classes


def ring_for(n: int, k: int) -> str:
    """Presentation of H*(D_{2m}; Z2) for m = 2n+k, by m mod 4 (odd parts drop out)."""
    m = 2 * n + k
    if m % 2 == 1:
        return ODD
    return TWO_MOD_4 if m % 4 == 2 else ZERO_MOD_4


def total_sw_class(n: int, k: int, max_degree: int = 64) -> GradedPoly:
    """Closed-form total class of the bundle attached to the dihedral action.

    The bound must reach the ring's largest generator degree, or the class
    cannot be written down: 1 in ODD and TWO_MOD_4, 2 in ZERO_MOD_4.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0, got (n, k) = (%d, %d)" % (n, k))
    ring = ring_for(n, k)
    least = max(_DEGS[ring])
    if max_degree < least:
        raise ValueError("(n, k) = (%d, %d): the total class in ring %s needs "
                         "max_degree >= %d, got %d" % (n, k, ring, least, max_degree))
    if k % 2 == 1:
        r = (k - 1) // 2
        return one_plus(ODD, max_degree, "a") ** (r + 1)
    r = k // 2
    if ring == TWO_MOD_4:
        w = one_plus(ring, max_degree, "a")
        w = w * one_plus(ring, max_degree, "b") ** ((r + 1) // 2)
        mixed = one_plus(ring, max_degree, "a") * one_plus(ring, max_degree, "a", "b")
        return w * mixed ** (r // 2)
    w = one_plus(ring, max_degree, "y")
    w = w * one_plus(ring, max_degree, "x", "y", "u") ** ((r + 1) // 2)
    return w * one_plus(ring, max_degree, "x", "y") ** (r // 2)


def _diag_sign_pattern(mat: np.ndarray) -> list[int]:
    dim = mat.shape[0]
    off = mat - np.diag(np.diag(mat))
    if np.abs(off).max() > ZERO_TOL:
        raise ValueError("matrix is not diagonal")
    pattern = []
    for v in np.diag(mat):
        if abs(v - 1) < ZERO_TOL:
            pattern.append(1)
        elif abs(v + 1) < ZERO_TOL:
            pattern.append(-1)
        else:
            raise ValueError("diagonal entry %r is not +-1" % v)
    return pattern


def total_sw_class_from_blocks(n: int, k: int, max_degree: int = 64) -> GradedPoly:
    """Whitney-sum route: per-block classes read off the actual matrices.

    Independent of the closed form: the involutions' eigenvalue patterns on
    each rotation block decide the degree-1 and degree-2 contributions.
    """
    ring = ring_for(n, k)
    rep = representation(n, k)
    m = rep.m
    if ring == ODD:
        negatives = sum(1 for v in np.diag(rep.rho_matrix) if v < 0)
        return one_plus(ODD, max_degree, "a") ** negatives
    if ring == TWO_MOD_4:
        half_turn = np.linalg.matrix_power(rep.sigma_matrix, m // 2)
        eps_sigma = _diag_sign_pattern(half_turn)
        eps_rho = _diag_sign_pattern(rep.rho_matrix)
        w = poly_one(ring, max_degree)
        for e1, e2 in zip(eps_sigma, eps_rho):
            names = [name for name, e in (("a", e1), ("b", e2)) if e < 0]
            w = w * one_plus(ring, max_degree, *names)
        return w
    # ZERO_MOD_4: one line block then 2-dim rotation blocks
    half_turn = np.linalg.matrix_power(rep.sigma_matrix, m // 2)
    sigma_rho = rep.rho_matrix @ rep.sigma_matrix
    blocks = [(0, 1)] + [(2 * j - 1, 2 * j + 1) for j in range(1, k // 2 + 1)]
    w = poly_one(ring, max_degree)
    for lo, hi in blocks:
        det_rho = float(np.linalg.det(rep.rho_matrix[lo:hi, lo:hi]))
        det_srho = float(np.linalg.det(sigma_rho[lo:hi, lo:hi]))
        names = []
        if det_rho < 0:
            names.append("x")
        if det_srho < 0:
            names.append("y")
        w1 = one_plus(ring, max_degree, *names)
        if hi - lo == 2:
            blk = half_turn[lo:hi, lo:hi]
            if np.abs(blk + np.eye(2)).max() < ZERO_TOL:
                w1 = w1 + generator(ring, "u", max_degree)
            elif np.abs(blk - np.eye(2)).max() >= ZERO_TOL:
                raise ValueError("half turn is not +-identity on a block")
        w = w * w1
    return w


def wbar(n: int, k: int, max_degree: int = 64) -> GradedPoly:
    """Dual class: the series inverse of the total class."""
    return poly_invert(total_sw_class(n, k, max_degree))


# ---------------------------------------------------------------------------
# restriction homomorphisms

_RESTRICTIONS: dict[tuple[str, str], tuple[str, dict[str, tuple]]] = {
    # target ring, generator name -> image monomial exponent tuple (or None for 0)
    (ZERO_MOD_4, "j"): (CYCLIC_4, {"x": (1, 0), "y": (1, 0), "u": (0, 1)}),
    (ZERO_MOD_4, "phi_rho"): (ODD, {"x": (1,), "y": None, "u": None}),
    (ZERO_MOD_4, "phi_sigma_rho"): (ODD, {"x": None, "y": (1,), "u": None}),
    (TWO_MOD_4, "phi_rho"): (ODD, {"a": None, "b": (1,)}),
    (TWO_MOD_4, "phi_sigma_m2"): (ODD, {"a": (1,), "b": None}),
    (CYCLIC_4, "phi_sigma_m2"): (ODD, {"x": None, "u": (2,)}),
    (ODD, "p"): (CYCLIC_4, {"a": (1, 0)}),
    (ODD, "phi_rho"): (ODD, {"a": (1,)}),
}


def restriction_names(ring: str) -> list[str]:
    return sorted(name for (src, name) in _RESTRICTIONS if src == ring)


def restrict(p: GradedPoly, hom_name: str) -> GradedPoly:
    """Apply a named restriction homomorphism monomial-wise.

    Every generator maps to a monomial of the same degree or to 0, so each
    bit of a degree-d mask maps to one bit of the target's degree-d mask,
    or to nothing when a factor dies or the image meets a relation.
    """
    key = (p.ring, hom_name)
    if key not in _RESTRICTIONS:
        raise ValueError("no homomorphism %r out of ring %s (valid: %s)"
                         % (hom_name, p.ring, restriction_names(p.ring)))
    target, images = _RESTRICTIONS[key]
    gens = _GENS[p.ring]
    top = p.max_degree
    out = [0] * (top + 1)
    for d in range(top + 1):
        for mono in p._monomials(d):
            image = (0,) * len(_GENS[target])
            for g, e in zip(gens, mono):
                if e and images[g] is None:
                    break
                if e:
                    image = tuple(a + e * b for a, b in zip(image, images[g]))
            else:
                if _mono_ok(target, image):
                    out[d] ^= 1 << _bit_of(target, top, image)
    return GradedPoly._packed(target, top, out)


# ---------------------------------------------------------------------------
# vanishing windows and classification


def _two_adic(s: int) -> int:
    return (s & -s).bit_length() - 1


def vanishing_windows(n: int, k: int) -> list[tuple[int, int]]:
    """Predicted ranges [lo, hi) of guaranteed dual-class vanishing.

    Case analysis on k's parity and m mod 4; each entry says wbar_d = 0 for
    lo <= d < hi.  Several cases can apply to one (n, k).
    """
    out = []
    if k % 2 == 1:
        r = (k - 1) // 2
        if r > 0:
            a = _two_adic(r)
            out.append((2 ** a, 2 ** (a + 1)))
        return out
    r = k // 2
    ring = ring_for(n, k)
    if ring == ZERO_MOD_4 and r >= 3:
        if r % 2 == 0 and r >= 2:
            a = _two_adic(r // 2)
            if a > 0:
                out.append((3 * 2 ** a + 1, 2 ** (a + 2)))
        if r % 2 == 1 and r >= 3:
            a = _two_adic((r - 1) // 2)
            out.append((3 * 2 ** a - 1, 2 ** (a + 2)))
        if r % 2 == 0 and r >= 4:
            a = _two_adic((r - 2) // 2)
            if a > 0:
                out.append((3 * 2 ** a - 2, 2 ** (a + 2)))
        if r % 2 == 0 and r >= 6:
            a = _two_adic((r - 4) // 2)
            if a > 1:
                out.append((3 * 2 ** a - 5, 2 ** (a + 2)))
    elif ring == TWO_MOD_4 and r >= 2:
        if r % 2 == 0:
            a = _two_adic(r // 2)
            out.append((3 * 2 ** a, 2 ** (a + 2)))
        if r % 2 == 1 and r >= 3:
            a = _two_adic((r - 1) // 2)
            out.append((3 * 2 ** a - 1, 2 ** (a + 2)))
        if r % 2 == 0 and r >= 4:
            a = _two_adic((r - 2) // 2)
            if a > 0:
                out.append((3 * 2 ** a - 3, 2 ** (a + 2)))
    return out


TEST_GRAPH_CERTIFIED = "TEST_GRAPH_CERTIFIED"
TEST_GRAPH_UP_TO_DEGREE = "TEST_GRAPH_UP_TO_DEGREE"
NON_TEST_FOR_LARGE_N = "NON_TEST_FOR_LARGE_N"


@dataclass
class ClassificationReport:
    n: int
    k: int
    m: int
    ring_case: str
    w: GradedPoly
    wbar: GradedPoly
    wbar_vanishing_degrees: list[int]
    windows: list[tuple[int, int]]
    verdict: str
    certificate: Optional[str]
    caveats: list[str]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "ring_case": self.ring_case,
            "w": str(self.w),
            "wbar_vanishing_degrees": self.wbar_vanishing_degrees,
            "window": list(self.windows[0]) if self.windows else None,
            "verdict": self.verdict,
            "certificate": self.certificate,
            "caveats": self.caveats,
        }


def _never_vanishing_certificate(w: GradedPoly, max_degree: int) -> Optional[str]:
    """A restriction under which the dual class provably never vanishes.

    Two exact patterns are recognized: phi(w) = 1 + a, whose inverse is the
    geometric series sum a^i, and j(w) = (1+x)(1+u) in the cyclic ring,
    whose inverse is (1+x) sum u^i; both are nonzero in every degree.
    """
    one_plus_alpha = one_plus(ODD, max_degree, "a")
    if w.ring == ODD and w == one_plus_alpha:
        return "identity"
    for name in restriction_names(w.ring):
        target, _ = _RESTRICTIONS[(w.ring, name)]
        if target == ODD and restrict(w, name) == one_plus_alpha:
            return name
    if w.ring == ZERO_MOD_4:
        expected = one_plus(CYCLIC_4, max_degree, "x") * \
            (poly_one(CYCLIC_4, max_degree) + generator(CYCLIC_4, "u", max_degree))
        if restrict(w, "j") == expected:
            return "j"
    return None


def classify(n: int, k: int, max_degree: int = 64) -> ClassificationReport:
    """Full dual-class analysis of one stable Kneser graph.

    Certified families carry an exact geometric-series certificate; a
    vanishing dual class in degree 1 or any even degree refutes test-graph
    behaviour for all large n of the same parity class.
    """
    m = 2 * n + k
    ring = ring_for(n, k)
    w = total_sw_class(n, k, max_degree)
    wb = poly_invert(w)
    vanishing = wb.vanishing_degrees()
    windows = vanishing_windows(n, k)
    caveats: list[str] = []

    certificate = _never_vanishing_certificate(w, max_degree)
    if certificate is not None:
        verdict = TEST_GRAPH_CERTIFIED
    else:
        obstruction = [d for d in vanishing if d == 1 or d % 2 == 0]
        if obstruction:
            verdict = NON_TEST_FOR_LARGE_N
            caveats.append("holds for n >= N(k) of this parity class; "
                           "no bound on N(k) is computed")
            caveats.append("first refuting degree: %d" % obstruction[0])
        else:
            verdict = TEST_GRAPH_UP_TO_DEGREE
            caveats.append("dual class checked up to degree %d only" % max_degree)
            odd_vanishing = [d for d in vanishing if d % 2 == 1 and d > 1]
            if odd_vanishing:
                caveats.append("odd-degree vanishing at %s blocks the full "
                               "certificate but refutes nothing" % odd_vanishing)
    return ClassificationReport(
        n=n, k=k, m=m, ring_case=ring, w=w, wbar=wb,
        wbar_vanishing_degrees=vanishing, windows=windows,
        verdict=verdict, certificate=certificate, caveats=caveats,
    )
