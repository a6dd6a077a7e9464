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

A product of two components shifts whole components: each bit of the
sparser factor shifts the other factor up, shifts it down, or keeps it.
In ODD and TWO_MOD_4 that is a plain carry-less multiply.  In ZERO_MOD_4
an x^i shifts the x side and centre (the mask above bit D) up by i, a y^j
shifts the y side and centre down by j, and the side that xy = 0 kills is
cut off first; in CYCLIC_4 an x keeps only the x-free bit.  ZERO_MOD_4 puts
x and y on either side of bit D rather than on two strides, so its masks
stay 2D + 1 bits wide instead of D·(D + 1).  A restriction homomorphism
reads at most two bits of each component.  Every loop over degrees skips
the zero components, so a total class of degree k + 1 costs little at any D.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Optional

from .graphs import _Frozen, set_bits

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


def _split(ring: str, max_degree: int, a: int) -> tuple[list, list, int]:
    """The bits of a as (ups, downs, keep): a · b is the XOR of hi << s over
    ups, lo >> s over downs, and b itself if keep, with hi and lo from _cuts."""
    bits = set_bits(a)
    if ring == ZERO_MOD_4:
        return ([s for s in bits if s > max_degree],
                [max_degree - s for s in bits if s < max_degree], (a >> max_degree) & 1)
    if ring == CYCLIC_4:
        return bits[a & 1:], [], a & 1
    return bits, [], 0


def _cuts(ring: str, max_degree: int) -> tuple[int, int, int]:
    """(shift, hi_mask, lo_mask): a component b keeps hi = b >> shift & hi_mask
    under an up shift and lo = b & lo_mask under a down shift."""
    if ring == ZERO_MOD_4:   # x^i kills the y side, y^j the x side
        return max_degree, -1, (2 << max_degree) - 1
    if ring == CYCLIC_4:     # x kills x
        return 0, 1, 0
    return 0, -1, 0


def _times(ring: str, max_degree: int, a: int, b: int) -> int:
    """Product of two homogeneous components, one shift per bit of the sparser.

    In ODD and TWO_MOD_4 this is a carry-less multiply.
    """
    if a.bit_count() > b.bit_count():
        a, b = b, a
    ups, downs, keep = _split(ring, max_degree, a)
    cut, hi_mask, lo_mask = _cuts(ring, max_degree)
    hi, lo = b >> cut & hi_mask, b & lo_mask
    out = b if keep else 0
    for s in ups:
        out ^= hi << s
    for s in downs:
        out ^= lo >> s
    return out


def _support(masks) -> list[int]:
    """The degrees of the nonzero components."""
    return list(compress(range(len(masks)), masks))


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
        return frozenset(t for d in _support(self.masks) for t in self._monomials(d))

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
        rhs = [(d, other.masks[d]) for d in _support(other.masks)]
        for d1 in _support(self.masks):
            a = self.masks[d1]
            for d2, b in rhs:
                if d1 + d2 > top:
                    break
                out[d1 + d2] ^= _times(ring, top, a, b)
        return GradedPoly._packed(ring, top, out)

    def __pow__(self, e: int) -> "GradedPoly":
        if e < 0:
            raise ValueError("negative exponent %d" % e)
        out = poly_one(self.ring, self.max_degree)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def _check_compatible(self, other: "GradedPoly") -> None:
        if self.ring != other.ring or self.max_degree != other.max_degree:
            raise ValueError("ring or degree bound mismatch")

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        gens = _GENS[self.ring]
        parts = []
        for d in _support(self.masks):
            for t in sorted(self._monomials(d)):
                factors = []
                for g, e in zip(gens, t):
                    if e == 1:
                        factors.append(g)
                    elif e > 1:
                        factors.append("%s^%d" % (g, e))
                parts.append("·".join(factors) if factors else "1")
        return " + ".join(parts)


def _exponents(ring: str, name: str) -> Monomial:
    gens = _GENS[ring]
    if name not in gens:
        raise ValueError("ring %s has no generator %r" % (ring, name))
    return tuple(1 if g == name else 0 for g in gens)


def poly_one(ring: str, max_degree: int) -> GradedPoly:
    return one_plus(ring, max_degree)


def generator(ring: str, name: str, max_degree: int) -> GradedPoly:
    return GradedPoly(ring, max_degree, (_exponents(ring, name),))


def one_plus(ring: str, max_degree: int, *names: str) -> GradedPoly:
    """1 plus the sum of the distinct named generators."""
    return GradedPoly(ring, max_degree, [(0,) * len(_GENS[ring])] +
                      [_exponents(ring, name) for name in names])


def poly_invert(p: GradedPoly) -> GradedPoly:
    """Inverse of a unit power series, degree by degree up to the bound.

    inv_d = sum of p_i · inv_(d-i) over the degrees 1 <= i <= d where p is
    nonzero.  Each such p_i is split into its shifts once, and each inv_d
    cut into its hi and lo parts once, so degree d costs one shift per bit
    of p's support, inline, whatever the ring.
    """
    if p.constant_term() != 1:
        raise ValueError("not invertible: constant term is 0")
    ring, top = p.ring, p.max_degree
    cut, hi_mask, lo_mask = _cuts(ring, top)
    ups, downs, keeps = [], [], []
    degrees = _support(p.masks)[1:]   # all but degree 0, which holds the 1
    for i in degrees:
        u, dn, keep = _split(ring, top, p.masks[i])
        ups += [(i, s) for s in u]
        downs += [(i, s) for s in dn]
        keeps += [i] * keep
    # degree d sits at index d + pad; the pad zeros stand for degrees < 0
    pad = degrees[-1] if degrees else 0
    one = p.masks[0]
    inv = [0] * pad + [one]
    his = [0] * pad + [one >> cut & hi_mask]
    los = [0] * pad + [one & lo_mask]
    for t in range(pad + 1, pad + top + 1):
        acc = 0
        for i, s in ups:
            acc ^= his[t - i] << s
        for i, s in downs:
            acc ^= los[t - i] >> s
        for i in keeps:
            acc ^= inv[t - i]
        inv.append(acc)
        his.append(acc >> cut & hi_mask)
        los.append(acc & lo_mask)
    return GradedPoly._packed(ring, top, inv[pad:])


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


def wbar(n: int, k: int, max_degree: int = 64) -> GradedPoly:
    """Dual class: the series inverse of the total class."""
    return poly_invert(total_sw_class(n, k, max_degree))


# ---------------------------------------------------------------------------
# restriction homomorphisms

# (source ring, name) -> (target ring, image of a nonzero degree-d component
# as a function of (mask, d, D)).  Each generator maps to a generator, a
# power of one or 0, so a basis monomial maps to one basis monomial or to 0
# and each map reads at most two bits.  Shifts stay nonnegative at D = 0.
_RESTRICTIONS = {
    # x, y -> x, u -> u: u^c (bit D) -> bit 0; x u^c, y u^c -> x u^c (bit 1)
    (ZERO_MOD_4, "j"): (CYCLIC_4, lambda m, d, top: (m >> top) & 1 |
                        (((m >> (top + 1)) ^ ((m << 1) >> top)) & 1) << 1),
    # x -> a, y, u -> 0: only x^d (bit D + d) survives
    (ZERO_MOD_4, "phi_rho"): (ODD, lambda m, d, top: (m >> (top + d)) & 1),
    # y -> a, x, u -> 0: only y^d (bit D - d) survives
    (ZERO_MOD_4, "phi_sigma_rho"): (ODD, lambda m, d, top: (m >> (top - d)) & 1),
    # b -> a, a -> 0: only b^d (bit 0) survives
    (TWO_MOD_4, "phi_rho"): (ODD, lambda m, d, top: m & 1),
    # a -> a, b -> 0: only a^d (bit d) survives
    (TWO_MOD_4, "phi_sigma_m2"): (ODD, lambda m, d, top: (m >> d) & 1),
    # u -> a^2, x -> 0: only u^(d/2) (bit 0, set only when d is even) survives
    (CYCLIC_4, "phi_sigma_m2"): (ODD, lambda m, d, top: m & 1),
    # a -> x: a^d survives as x^d for d <= 1 only, as x^2 = 0
    (ODD, "p"): (CYCLIC_4, lambda m, d, top: m << d if d <= 1 else 0),
    (ODD, "phi_rho"): (ODD, lambda m, d, top: m),
}


def restriction_names(ring: str) -> list[str]:
    return sorted(name for (src, name) in _RESTRICTIONS if src == ring)


def restrict(p: GradedPoly, hom_name: str) -> GradedPoly:
    """Apply a named restriction homomorphism, one bit map per nonzero degree.

    Every generator maps to a monomial of the same degree or to 0, so each
    bit of a degree-d mask maps to one bit of the target's degree-d mask,
    or to nothing when a factor dies or the image meets a relation.
    """
    key = (p.ring, hom_name)
    if key not in _RESTRICTIONS:
        raise ValueError("no homomorphism %r out of ring %s (valid: %s)"
                         % (hom_name, p.ring, restriction_names(p.ring)))
    target, image = _RESTRICTIONS[key]
    top = p.max_degree
    out = [0] * (top + 1)
    for d in _support(p.masks):
        out[d] = image(p.masks[d], d, top)
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


class ClassificationReport(_Frozen):
    __slots__ = ("n", "k", "m", "ring_case", "w", "wbar", "wbar_vanishing_degrees",
                 "windows", "verdict", "certificate", "caveats")

    def __init__(self, n: int, k: int, m: int, ring_case: str, w: GradedPoly,
                 wbar: GradedPoly, wbar_vanishing_degrees: list[int],
                 windows: list[tuple[int, int]], verdict: str,
                 certificate: Optional[str], caveats: list[str]):
        self._init(n, k, m, ring_case, w, wbar, wbar_vanishing_degrees, windows,
                   verdict, certificate, caveats)

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
        expected = one_plus(CYCLIC_4, max_degree, "x") * one_plus(CYCLIC_4, max_degree, "u")
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
