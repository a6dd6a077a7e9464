"""Orthogonal dihedral representations and trigonometric moment configurations.

The m configuration vectors in R^{k+1} realize the alternating oriented
matroid and intertwine the dihedral matrices with index shifts; every
floating-point check reports its maximum deviation, and ZERO_TOL is both the
one zero test of a sign and the sweep's pass bound on those deviations.  A
stable set is its bitmask, as in graphs: v_of_set takes one, point_to_vertex
returns one, and the sweeps read all stable n-sets at once as the member
rows of enumerate_stable_sets, tested for disjointness as uint64 words.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graphs import (DihedralElement, _check_in_z, _Frozen, enumerate_stable_sets, render_set,
                     set_bits)
from .matroid import (SignVector, check_instance, enumerate_cocircuits,
                      enumerate_covectors, is_covector, render_sign_vector,
                      side_masks)


# a sign-vector entry below this in absolute value is 0, and the geometry sweep
# passes only with every deviation below it
ZERO_TOL = 1e-9


class RealizationError(RuntimeError):
    """A geometric check contradicted the combinatorial covector rule."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


def _rotation(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


class OrthogonalRep(_Frozen):
    """The (k+1)-dimensional orthogonal right action of D_{2m}.

    x.g is matrix(g) @ x; tau acts by global negation.  For even k the
    shift generator is -diag(1, R_{2pi/m}, ..., R_{k pi/m}); for odd k it
    is -diag(R_{pi/m}, R_{3pi/m}, ..., R_{k pi/m}), with the reflection
    diag(1, [1,-1]...) resp. diag([1,-1]...).
    """

    __slots__ = ("n", "k", "sigma_matrix", "rho_matrix")

    def __init__(self, n: int, k: int, sigma_matrix: np.ndarray, rho_matrix: np.ndarray):
        self._init(n, k, sigma_matrix, rho_matrix)

    @property
    def m(self) -> int:
        return 2 * self.n + self.k

    @property
    def dim(self) -> int:
        return self.k + 1

    def matrix(self, g: DihedralElement) -> np.ndarray:
        if g.m != self.m:
            raise ValueError("modulus mismatch: the representation of (n, k) = (%d, %d) "
                             "acts for m = %d, got an element of D_{2m} with m = %d"
                             % (self.n, self.k, self.m, g.m))
        out = np.linalg.matrix_power(self.sigma_matrix, g.shift % self.m)
        if g.flip:
            out = self.rho_matrix @ out
        return out

    def relation_deviations(self) -> dict[str, float]:
        eye = np.eye(self.dim)
        sig, rho = self.sigma_matrix, self.rho_matrix
        srs = rho @ sig
        return {
            "sigma_orthogonal": float(np.abs(sig.T @ sig - eye).max()),
            "rho_orthogonal": float(np.abs(rho.T @ rho - eye).max()),
            "sigma_order_m": float(np.abs(np.linalg.matrix_power(sig, self.m) - eye).max()),
            "rho_involution": float(np.abs(rho @ rho - eye).max()),
            "sigma_rho_involution": float(np.abs(srs @ srs - eye).max()),
        }


def representation(n: int, k: int) -> OrthogonalRep:
    if n < 1 or k < 0:
        raise ValueError("the representation of D_{2m} needs n >= 1 and k >= 0, "
                         "got (n, k) = (%d, %d)" % (n, k))
    m = 2 * n + k
    dim = k + 1
    sigma = np.zeros((dim, dim))
    if k % 2 == 0:
        r = k // 2
        sigma[0, 0] = 1.0
        for l in range(1, r + 1):
            sigma[2 * l - 1: 2 * l + 1, 2 * l - 1: 2 * l + 1] = _rotation(2 * np.pi * l / m)
        rho_diag = [1.0] + [1.0, -1.0] * r
    else:
        r = (k - 1) // 2
        for l in range(r + 1):
            sigma[2 * l: 2 * l + 2, 2 * l: 2 * l + 2] = _rotation((2 * l + 1) * np.pi / m)
        rho_diag = [1.0, -1.0] * (r + 1)
    return OrthogonalRep(n, k, -sigma, np.diag(rho_diag))


class MomentConfig(_Frozen):
    """Vectors v_0..v_{m-1} on the trigonometric moment curve in R^{k+1}."""

    __slots__ = ("m", "k", "vectors")

    def __init__(self, m: int, k: int, vectors: np.ndarray):
        self._init(m, k, vectors)

    def vector(self, j: int) -> np.ndarray:
        """v_j for any integer j via the curve formula (not reduced mod m)."""
        return _curve([j], self.m, self.k)[0]


def _curve(t: Sequence[float], m: int, k: int) -> np.ndarray:
    """The moment curve at every t, one row each; the angles l*t*2pi/m (even k)
    or (2l+1)*t*pi/m (odd k) are multiplied out left to right, as for one t."""
    t = np.asarray(t, dtype=float)[:, None]
    if k % 2 == 0:
        ang, lead = 2.0 * np.pi * np.arange(1, k // 2 + 1) * t / m, [np.ones_like(t)]
    else:
        ang, lead = np.arange(1, k + 1, 2) * np.pi * t / m, []
    return np.hstack(lead + [np.stack([np.cos(ang), np.sin(ang)], axis=2).reshape(len(t), -1)])


def config_for(m: int, k: int) -> MomentConfig:
    """Configuration keyed on (m, k); n need not be integral here."""
    check_instance(m, k)
    return MomentConfig(m, k, _curve(np.arange(m), m, k))


def moment_vectors(n: int, k: int) -> MomentConfig:
    if n < 1 or k < 0:
        raise ValueError("the moment configuration needs n >= 1 and k >= 0, "
                         "got (n, k) = (%d, %d)" % (n, k))
    return config_for(2 * n + k, k)


def eq3_deviations(config: MomentConfig, rep: OrthogonalRep) -> dict[str, float]:
    """Max deviations of the three shift identities over all j, by stacked
    products that give the floats of one matrix product and norm per j."""
    m, k, v = config.m, config.k, config.vectors
    j = np.arange(m)
    sign = -1.0 if m % 2 else 1.0
    gaps = (np.matmul(rep.sigma_matrix, v[:, :, None])[:, :, 0] + _curve(j + 1, m, k),
            np.matmul(rep.rho_matrix, v[:, :, None])[:, :, 0] - _curve(-j, m, k),
            _curve(j + m, m, k) - sign * v)
    dev = [float(np.sqrt(x[:, None, :] @ x[:, :, None]).max()) for x in gaps]
    return {"sigma_shift": dev[0], "rho_flip": dev[1], "periodicity": dev[2]}


def sign_vector_of_point(x: np.ndarray, config: MomentConfig) -> SignVector:
    vals = config.vectors @ np.asarray(x, dtype=float)
    return tuple(0 if abs(t) < ZERO_TOL else (1 if t > 0 else -1) for t in vals)


_REALIZE_BLOCK = 1 << 12   # zero sets per stacked product of sines, points per sampled block


def _zero_set_points(zeros: np.ndarray, m: int, k: int) -> np.ndarray:
    """The unit coefficient rows of P(t) = prod_{j in Z} sin(pi (j - t) / m)
    in the basis of _curve's columns, one row per zero set Z of k indices.

    P has degree k/2 in 2 pi t/m for even k and odd harmonics <= k in pi t/m
    for odd k, so <x, curve(t)> = P(t) up to a positive factor: 0 on Z and
    nonzero at every other integer in [0, m).  The k factors
    2 sin(pi (j - t)/m) = b w^-1 + conj(b) w, with w = e^{i pi t/m} and
    b = e^{i pi (j/m - 1/2)}, are multiplied as Laurent polynomials in w,
    all rows at once; entry i of a row then holds the coefficient c_q of
    w^q, q = 2i - k, and c_{-q} = conj(c_q) since P is real.  The row reads
    (c_0, 2 Re c_p, -2 Im c_p, ...) over the p > 0 of _curve's angles.
    The factors are taken in van der Corput order of their column, so the
    partial products of a zero set spread around the circle stay spread:
    in sorted order their large coefficients cancel at the end, and at
    Z = {0..61}, m = 63 the row came out 5e-3 away from the exact one.
    """
    order = sorted(range(k), key=lambda i: bin(i)[:1:-1])   # 0, 4, 2, 6, 1, 5, 3, 7 at k = 8
    c = np.zeros((len(zeros), k + 1), dtype=complex)
    c[:, 0] = 1.0
    for b in np.exp(1j * np.pi * (zeros[:, order].T / m - 0.5)):
        c[:, 1:] = b[:, None] * c[:, 1:] + b.conj()[:, None] * c[:, :-1]
        c[:, 0] *= b
    pos = c[:, k // 2 + 1:]
    x = np.hstack([c[:, k // 2:k // 2 + 1].real] * (1 - k % 2)
                  + [np.stack([2 * pos.real, -2 * pos.imag], axis=2).reshape(len(c), -1)])
    return x / np.linalg.norm(x, axis=1)[:, None]


def _realize_zero_sets(vectors: np.ndarray | Sequence[SignVector],
                       config: MomentConfig) -> np.ndarray:
    """Unit points with the given sign rows, one row each, via their zero sets.

    The rows, an array or a sequence of sign vectors, must form an m-column
    array and each have exactly k zeros; anything else is refused with a
    ValueError before any point is computed.  Each point is the
    _zero_set_points row of its zero set, a block of rows at a time, negated
    when that gives the target sign row.  With no zeros (k = 0) the product is empty and the point is
    +-1, which realizes the two cocircuits.  Raises RealizationError naming
    the first row, in the given order, that neither the point nor its
    negative realizes.
    """
    m, k = config.m, config.k
    signs = np.asarray(vectors, dtype=np.int8)
    if signs.ndim != 2 or signs.shape[1] != m:
        raise ValueError("realization of (m, k) = (%d, %d) needs rows of %d signs, got shape %s"
                         % (m, k, m, signs.shape))
    counts = (signs == 0).sum(axis=1)
    wrong = np.flatnonzero(counts != k)
    if len(wrong):
        i = wrong[0]
        raise ValueError("realization of (m, k) = (%d, %d) needs %d zeros per sign row, row %d "
                         "(%s) has %d" % (m, k, k, i, render_sign_vector(signs[i].tolist()), counts[i]))
    zeros = np.nonzero(signs == 0)[1].reshape(len(signs), k)
    points = np.empty((len(signs), k + 1))
    for lo in range(0, len(signs), _REALIZE_BLOCK):
        block = slice(lo, lo + _REALIZE_BLOCK)
        x = _zero_set_points(zeros[block], m, k)
        vals = x @ config.vectors.T
        got = np.where(np.abs(vals) < ZERO_TOL, 0, np.sign(vals)).astype(np.int8)
        direct = (got == signs[block]).all(axis=1)
        negated = (got == -signs[block]).all(axis=1)
        if not (direct | negated).all():
            i = int(np.argmin(direct | negated))
            s = render_sign_vector(signs[lo + i].tolist())
            raise RealizationError("cocircuit %s not realized by its zero set" % s,
                                   {"cocircuit": s, "got": render_sign_vector(got[i].tolist())})
        points[block] = np.where(direct[:, None], x, -x)
    return points


def _tally(keys: np.ndarray, counts: np.ndarray,
           block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct keys and their int64 counts, with one more block of keys counted in."""
    new, more = np.unique(block, return_counts=True)
    at = np.searchsorted(keys, new)
    seen = at < len(keys)
    seen[seen] = keys[at[seen]] == new[seen]
    counts[at[seen]] += more[seen]
    return np.insert(keys, at[~seen], new[~seen]), np.insert(counts, at[~seen], more[~seen])


def verify_realization(m: int, k: int, samples: int = 100000, seed: int = 0) -> dict:
    """Cross-validate the covector rule against the geometric configuration.

    (a) every sampled generic sign vector satisfies the covector rule;
    (c) every cocircuit is realized by the point of its zero set from
        _zero_set_points, once per +- pair: the rows must end with the
        first half negated in reverse, and their points are then the first
        half's points negated in reverse;
    (b) for m <= 8, k <= 4 the sampled full-support sign patterns are
        zero-free covectors, and every zero-free covector t is realized by
        the sum of the points of (c) of the cocircuits below it, those c
        with t.c = m - k.  Every covector is the composition of the
        cocircuits below it (Bjorner et al., Oriented Matroids, ch. 3), so at
        each j every term has sign t_j or 0 and some term has t_j: the sum
        has sign vector t exactly.
    Any discrepancy raises RealizationError.  The points of (a) are drawn
    _REALIZE_BLOCK at a time, the same stream as one draw, and each block's
    sign rows are tallied by _tally into one sorted array of distinct row
    keys and their counts, so memory follows the distinct patterns, not the
    samples.  The kept keys are decoded once into int8 signs for one
    is_covector call, and non_covector_samples sums the counts of the rows
    it rejects.  Every sign is read with ZERO_TOL.  A negative samples or
    seed is refused before any sampling.
    """
    config = config_for(m, k)
    if samples < 0:
        raise ValueError("realization of (m, k) = (%d, %d) needs samples >= 0, got %d"
                         % (m, k, samples))
    if seed < 0:
        raise ValueError("realization of (m, k) = (%d, %d) needs seed >= 0, got %d"
                         % (m, k, seed))
    rng = np.random.default_rng(seed)
    report: dict = {"m": m, "k": k, "samples": samples, "seed": seed}

    # a full-support row's key: bit j % 63 of int64 word j // 63 set when sign
    # j is +, and from m = 64 on the words folded into a Python int
    word, bit = np.divmod(np.arange(m), 63)
    weights = np.where(word[:, None] == np.arange(word[-1] + 1), 1 << bit[:, None], 0)
    keys, counts = np.zeros(0, dtype=np.int64 if m < 64 else object), np.zeros(0, dtype=np.int64)
    for lo in range(0, samples, _REALIZE_BLOCK):
        size = min(_REALIZE_BLOCK, samples - lo)
        vals = rng.standard_normal((size, k + 1)) @ config.vectors.T
        small = np.abs(vals) < ZERO_TOL
        if small.any():   # rows with a zero sign leave; else no copy
            vals = vals[~small.any(axis=1)]
        codes = ((vals > 0) @ weights).astype(keys.dtype, copy=False)
        keys, counts = _tally(keys, counts, sum(c << 63 * i for i, c in enumerate(codes.T)))
    codes = np.array([keys >> 63 * i & (1 << 63) - 1 for i in range(word[-1] + 1)], np.int64).T
    signs = np.where(codes[:, word] >> bit & 1, 1, -1).astype(np.int8)
    non_covector = int(counts[~is_covector(signs, k)].sum())
    report["sampled_full_support_patterns"] = len(signs)
    report["non_covector_samples"] = non_covector
    if non_covector:
        raise RealizationError("sampled sign pattern violates the covector rule", report)

    cocircuits = enumerate_cocircuits(m, k)
    half = _realize_zero_sets(cocircuits[:len(cocircuits) // 2], config)
    unpaired = np.flatnonzero((cocircuits[::-1] != -cocircuits).any(axis=1))
    if len(unpaired):
        s = render_sign_vector(cocircuits[unpaired[0]].tolist())
        raise RealizationError("cocircuit %s is not the negation of its mirror row" % s,
                               {"cocircuit": s})
    points = np.concatenate([half, -half[::-1]])
    if m <= 8 and k <= 4:
        topes = np.array([s for s in enumerate_covectors(m, k) if 0 not in s])
        vals = (topes @ cocircuits.T == m - k) @ points @ config.vectors.T
        got = np.where(np.abs(vals) < ZERO_TOL, 0, np.sign(vals))
        missed = sorted(map(tuple, topes[(got != topes).any(axis=1)].tolist()))
        extra = sorted(set(map(tuple, signs.tolist())).difference(map(tuple, topes.tolist())))
        report["zero_free_covectors"] = len(topes)
        if missed or extra:
            report["missed"] = [render_sign_vector(s) for s in missed]
            report["extra"] = [render_sign_vector(s) for s in extra]
            raise RealizationError("full-support patterns != zero-free covectors", report)
    report["cocircuits_realized"] = len(cocircuits)
    report["status"] = "pass"
    return report


# ---------------------------------------------------------------------------
# the vertex map v(S) and Borsuk-graph experiments


def v_of_set(mask: int, config: MomentConfig) -> np.ndarray:
    """Normalized alternating sum over the set with bitmask mask; never zero on stable sets."""
    _check_in_z(mask, config.m)
    total = _signed_sums(np.array([set_bits(mask)], dtype=np.intp), config)[0]
    nrm = float(np.linalg.norm(total))
    if nrm < 1e-12:
        raise ValueError("alternating sum vanished on %s; "
                         "this contradicts stability" % render_set(mask))
    return total / nrm


def _signed_sums(members: np.ndarray, config: MomentConfig) -> np.ndarray:
    """The alternating sum of (-1)^i v_i over the members i of every set, as rows.

    Each row of members lists one set in increasing order; the terms are added
    in that order, all rows at once, so every row equals that loop bit for bit.
    """
    terms = np.where(np.arange(config.m) % 2 == 0, 1.0, -1.0)[:, None] * config.vectors
    total = np.zeros((len(members), config.k + 1))
    for col in members.T:
        total += terms.take(col, axis=0)
    return total


def _vertex_rows(n: int, k: int) -> tuple[MomentConfig, np.ndarray, np.ndarray]:
    """The configuration, and the member rows and sums of the stable n-sets."""
    config = moment_vectors(n, k)
    members = enumerate_stable_sets(n, config.m, members=True)
    return config, members, _signed_sums(members, config)


def min_vertex_norm(n: int, k: int) -> float:
    """Exact minimum of the unnormalized sums over all stable n-sets."""
    return _min_norm(_vertex_rows(n, k)[2])


def _min_norm(sums: np.ndarray) -> float:
    return float(np.linalg.norm(sums, axis=1).min())


def max_edge_defect(n: int, k: int) -> float:
    """Max of ||v(S) + v(T)|| over the edges of SG_{n,k}.

    ||v(S) + v(T)||^2 = 2 + 2<v(S), v(T)> is monotone in the Gram entry, so
    the largest entry over disjoint pairs S < T gives the maximum exactly.
    """
    config, members, sums = _vertex_rows(n, k)
    return _max_defect(members, sums, config.m)


_ORBIT_MARGIN = 1e-9   # Gram entries this close to the best orbit's are rescanned


def _max_defect(members: np.ndarray, sums: np.ndarray, m: int) -> float:
    """The defect from the largest Gram entry over disjoint pairs S < T.

    D_{2m} permutes the sets and acts orthogonally on their sums, so each
    orbit's best entry shows on its least set's row against all sets.  Then
    the orbits within _ORBIT_MARGIN of the top get every row scanned against
    the later sets: the float of a scan of all pairs, bit for bit.
    """
    unit = sums / np.linalg.norm(sums, axis=1)[:, None]
    words, *images = _dihedral_words(members, m)
    least = _orbit_least(words, images, m)
    reps = np.flatnonzero(least == np.arange(len(least)))
    best = _best_gram(reps, np.full(len(reps), -1), unit, words)
    rows = np.flatnonzero((best >= best.max() - _ORBIT_MARGIN)[np.searchsorted(reps, least)])
    worst = 2.0 + 2.0 * float(_best_gram(rows, rows, unit, words).max())
    return float(np.sqrt(max(worst, 0.0)))


def _dihedral_words(members: np.ndarray, m: int) -> list[np.ndarray]:
    """Each row's set, then its images under sigma (j -> j + 1) and rho (j -> -j),
    as ceil(m / 64) uint64 words; member j is bit 7 - j % 8 of byte j // 8, so
    the sets' bytes compare, as memory, in reverse lexicographic member order."""
    j = np.arange(-(-m // 64) * 64)
    incidence = np.zeros((len(members), len(j)), dtype=bool)
    incidence.ravel()[members + len(j) * np.arange(len(members))[:, None]] = True
    return [np.packbits(incidence.take(cols, axis=1), axis=1).view(np.uint64)
            for cols in (j, np.where(j < m, (j - 1) % m, j), np.where(j < m, -j % m, j))]


def _orbit_least(words: np.ndarray, images: list[np.ndarray], m: int) -> np.ndarray:
    """The least index in the <sigma, rho>-orbit of every row's set.

    The rows, _dihedral_words with their images, must list distinct sets closed
    under D_{2m} in lexicographic order, such as all stable n-sets.  Each image
    is found among the rows by its words, the least over a sigma-cycle by doubling.
    """
    own = words.view("V%d" % (8 * words.shape[1])).ravel()[::-1]   # ascending
    sigma, rho = (len(own) - 1 - np.searchsorted(own, w.view(own.dtype).ravel()) for w in images)
    least = np.arange(len(own))
    for _ in range(m.bit_length()):   # least over sigma^0 .. sigma^(2^t - 1) after t rounds
        least, sigma = np.minimum(least, least[sigma]), sigma[sigma]
    return np.minimum(least, least[rho])


def _best_gram(rows: np.ndarray, after: np.ndarray, unit: np.ndarray,
               words: np.ndarray) -> np.ndarray:
    """Per row i, the largest Gram entry <u_i, u_j> over the sets j > after[i]
    disjoint from set i, or -inf; about 2^18 entries per block of rows."""
    step = max(1, (1 << 18) // len(unit))
    best = np.empty(len(rows))
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        edge = ((words[block, None] & words) == 0).all(axis=2) \
            & (np.arange(len(unit)) > after[lo:lo + step, None])
        best[lo:lo + step] = (unit[block] @ unit.T).max(axis=1, where=edge, initial=-np.inf)
    return best


def borsuk_adjacent(x: np.ndarray, y: np.ndarray, eps: float) -> bool:
    """Borsuk graph edge: within eps of each other's antipode."""
    return float(np.linalg.norm(np.asarray(x) + np.asarray(y))) < eps


def point_to_vertex(x: np.ndarray, l: int, n: int, k: int) -> int:
    """The bitmask of a stable n-set inside S_l of the point's sign vector
    against moment_vectors(n, k), which it builds itself.

    Deterministically the lexicographically least one, the first of
    enumerate_stable_sets inside the side: 0 with the earliest gapped picks
    from [2, m - 2] if those give n members, else the earliest gapped picks
    from [1, m - 1].  Near-antipodal points with l = 0 map to disjoint
    (hence adjacent) vertices.
    """
    if l not in (0, 1):
        raise ValueError("point_to_vertex for (n, k) = (%d, %d): l must be 0 or 1, got %r"
                         % (n, k, l))
    config = moment_vectors(n, k)
    m = config.m
    side = side_masks(sign_vector_of_point(x, config))[l]
    for mask, j, hi in ((1, 2, m - 2), (0, 1, m - 1)):   # the sets with 0 come first
        if mask & ~side:
            continue
        while j <= hi and mask.bit_count() < n:
            if side >> j & 1:
                mask |= 1 << j
                j += 1
            j += 1
        if mask.bit_count() == n:
            return mask
    raise ValueError("no stable %d-subset inside S_%d = %s" % (n, l, render_set(side)))


def geometry_row(n: int, k: int) -> dict:
    """One sweep row: norms, defects and equivariance deviations."""
    rep = representation(n, k)
    config, members, sums = _vertex_rows(n, k)
    eq3 = eq3_deviations(config, rep)
    rel = rep.relation_deviations()
    return {
        "n": n,
        "k": k,
        "min_vertex_norm": _min_norm(sums),
        "max_edge_defect": _max_defect(members, sums, config.m),
        "eq3_sigma_dev": eq3["sigma_shift"],
        "eq3_rho_dev": eq3["rho_flip"],
        "eq3_period_dev": eq3["periodicity"],
        "group_relation_dev": max(rel.values()),
    }
