"""The alternating oriented matroid on m points of the moment curve.

Sign vectors over {-1, 0, +1}; a covector is a sign pattern attained by a
real polynomial of degree <= k at m increasing points.  The membership test
is a closed-form minimal-degree count, validated elsewhere against an
exhaustive polynomial oracle and against the geometric realization.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from operator import itemgetter, neg
from typing import Callable, Optional, Sequence

from .graphs import DihedralElement

SignVector = tuple[int, ...]

_CHARS = {-1: "-", 0: "0", 1: "+"}
_VALS = {"-": -1, "0": 0, "+": 1}


def parse_sign_vector(text: str) -> SignVector:
    """Parse a string over '+', '-', '0' such as '++0-'; spaces at either end are ignored."""
    text = text.strip()
    for i, c in enumerate(text):
        if c not in _VALS:
            raise ValueError("bad sign %r at position %d of %r; expected '+', '-' or '0'"
                             % (c, i, text))
    return tuple(_VALS[c] for c in text)


def render_sign_vector(s: SignVector) -> str:
    return "".join(_CHARS[v] for v in s)


def negate(s: SignVector) -> SignVector:
    return tuple(map(neg, s))


def minimal_degree(s: SignVector) -> int:
    """Least degree of a real polynomial matching s at m increasing points.

    Each zero entry forces a root.  Between consecutive nonzero entries the
    forced roots flip the sign once each; when the flip parity disagrees
    with the required one, a single extra root is needed.
    """
    nz = [i for i, v in enumerate(s) if v != 0]
    if not nz:
        raise ValueError("zero sign vector")
    deg = len(s) - len(nz)
    for a, b in zip(nz, nz[1:]):
        zeros_between = b - a - 1
        differ = s[a] != s[b]
        if (differ and zeros_between % 2 == 0) or (not differ and zeros_between % 2 == 1):
            deg += 1
    return deg


def is_covector(s: SignVector, k: int) -> bool:
    if all(v == 0 for v in s):
        return False
    return minimal_degree(s) <= k


def is_cocircuit(s: SignVector, k: int) -> bool:
    return sum(1 for v in s if v == 0) == k and is_covector(s, k)


def check_instance(m: int, k: int) -> None:
    """Refuse (m, k) unless 0 <= k < m, the range where C^{m,k+1} is defined."""
    if not 0 <= k < m:
        raise ValueError("C^{m,k+1} needs 0 <= k < m, got (m, k) = (%d, %d)" % (m, k))


def count_covectors(m: int, k: int) -> int:
    """Number of nonzero covectors of C^{m,k+1}, without listing them.

    The matroid is uniform of rank r = k+1.  A covector with zero set Z,
    |Z| = z < r, is a tope of the contraction by Z, uniform of rank r - z on
    m - z elements, which has 2 * sum_{i < r-z} C(m-z-1, i) topes
    (Zaslavsky; Bjorner et al., Oriented Matroids, 4.6 and 9.4).
    """
    check_instance(m, k)
    r = k + 1
    return sum(comb(m, z) * 2 * sum(comb(m - z - 1, i) for i in range(r - z))
               for z in range(r))


def enumerate_covectors(m: int, k: int) -> list[SignVector]:
    """All covectors of C^{m,k+1}, lexicographic in the order (-1, 0, +1).

    Depth-first over entries with degree pruning; the accumulated degree
    only grows along a prefix, so branches above k are cut early.
    """
    check_instance(m, k)
    out: list[SignVector] = []
    prefix = [0] * m

    def rec(i: int, last_sign: int, zeros_since: int, deg: int, nonzero: bool) -> None:
        if deg > k:
            return
        if i == m:
            if nonzero:
                out.append(tuple(prefix))
            return
        for v in (-1, 0, 1):
            prefix[i] = v
            if v == 0:
                rec(i + 1, last_sign, zeros_since + 1, deg + 1, nonzero)
            else:
                d = deg
                if last_sign != 0:
                    differ = v != last_sign
                    if (differ and zeros_since % 2 == 0) or (not differ and zeros_since % 2 == 1):
                        d += 1
                rec(i + 1, v, 0, d, True)
        prefix[i] = 0

    rec(0, 0, 0, 0, False)
    return out


def enumerate_cocircuits(m: int, k: int) -> list[SignVector]:
    """Covectors with exactly k zeros; 2*C(m,k) of them.

    Built directly: pick the zero set, then the nonzero signs are forced up
    to a global flip by the sign-change-at-every-zero condition.
    """
    check_instance(m, k)
    out = []
    for zeros in itertools.combinations(range(m), k):
        zs = set(zeros)
        nz = [i for i in range(m) if i not in zs]
        for eps in (-1, 1):
            s = [0] * m
            sign = eps
            prev = None
            for i in nz:
                if prev is not None:
                    gap = i - prev - 1
                    if gap % 2 == 1:
                        sign = -sign
                s[i] = sign
                prev = i
            out.append(tuple(s))
    out.sort()
    return out


def cocircuit_count(m: int, k: int) -> int:
    return 2 * comb(m, k)


def is_vector(s: SignVector, k: int) -> bool:
    """Vector of C^{m,k+1}: an alternating nonzero subsequence of length k+2.

    The longest alternating subsequence picks one entry per maximal block
    of equal consecutive signs, so it has the length of the block count.
    """
    if all(v == 0 for v in s):
        raise ValueError("zero sign vector")
    nz = [v for v in s if v != 0]
    blocks = 1 + sum(1 for a, b in zip(nz, nz[1:]) if a != b)
    return blocks >= k + 2


def covector_leq(s: SignVector, t: SignVector) -> bool:
    """Coordinatewise order: s_i = 0 or s_i = t_i."""
    if len(s) != len(t):
        raise ValueError("length mismatch")
    return all(a == 0 or a == b for a, b in zip(s, t))


@lru_cache(maxsize=1024)
def _sign_action_getter(m: int, shift: int, flip: bool) -> Callable:
    """Picks (s.g)_j out of s + negate(s) for g = sigma^shift rho^flip.

    Entry j is (-1)^shift * s_i with i = -j - shift if flip else j - shift,
    read in s extended to Z by s_{i+m} = (-1)^m s_i; index r of the
    concatenation is s_r and index r + m is -s_r.
    """
    mirror = -1 if flip else 1
    index = []
    for j in range(m):
        q, r = divmod(mirror * j - shift, m)
        negative = (shift % 2 == 1) != (m % 2 == 1 and q % 2 == 1)
        index.append(r + m if negative else r)
    if m == 1:   # itemgetter with one index returns the entry, not a tuple
        return lambda both: (both[index[0]],)
    return itemgetter(*index)


def dihedral_act_sign(s: SignVector, g: DihedralElement,
                      k: Optional[int] = None) -> SignVector:
    """Right dihedral action on sign vectors.

    Extend s to Z with the sign twist s_{j+m} = (-1)^m s_j, then
    (s.sigma)_j = -s_{j-1} and (s.rho)_j = s_{-j}.  Composed in one pass,
    (s.sigma^t)_j = (-1)^t s_{j-t} and (s.sigma^t rho)_j = (-1)^t s_{-j-t}.
    Commutes with taking sign vectors of points under the moment-curve
    action and with the covector-to-Hom map.  When k is given the input
    must be a covector and m - k even (m = 2n + k): the twist (-1)^m then
    matches the moment curve's (-1)^k, and C^{m,k+1} is preserved.
    """
    m = g.m
    if len(s) != m:
        raise ValueError("length %d does not match modulus %d" % (len(s), m))
    if k is not None and (m - k) % 2:
        raise ValueError("m = %d and k = %d differ in parity: the twisted action "
                         "does not preserve C^{m,k+1}" % (m, k))
    if k is not None and not is_covector(s, k):
        raise ValueError("not a covector: %s" % render_sign_vector(s))
    return _sign_action_getter(m, g.shift, g.flip)(tuple(s) + negate(s))


FREE = None  # free slot marker in partial sign vectors


def covector_extension_feasible(partial: Sequence[Optional[int]], k: int) -> bool:
    """Can the free slots be filled so the result is a covector of C^{m,k+1}?

    Dynamic programme over positions; state is (sign of last nonzero entry,
    parity of zeros since it), value the least accumulated degree.  An
    all-free pattern is feasible for every k >= 0 (constant signs).
    """
    m = len(partial)
    if m <= k:
        raise ValueError("need m > k")
    # state: (last_sign, zero_parity, any_nonzero) -> min degree
    states = {(0, 0, False): 0}

    def step(st, val):
        (last, par, nonzero), deg = st, states[st]
        if val == 0:
            return (last, par ^ 1, nonzero), deg + 1
        d = deg
        if last != 0:
            differ = val != last
            if (differ and par == 0) or (not differ and par == 1):
                d += 1
        return (val, 0, True), d

    for entry in partial:
        choices = (-1, 0, 1) if entry is FREE else (entry,)
        nxt: dict = {}
        for st in states:
            for val in choices:
                key, deg = step(st, val)
                if deg <= k and (key not in nxt or deg < nxt[key]):
                    nxt[key] = deg
        states = nxt
        if not states:
            return False
    return any(nonzero for (_, _, nonzero) in states)


def covectors_to_json_dict(m: int, k: int,
                           covectors: Sequence[SignVector]) -> dict:
    return {
        "m": m,
        "k": k,
        "count": len(covectors),
        "covectors": [render_sign_vector(s) for s in covectors],
    }
