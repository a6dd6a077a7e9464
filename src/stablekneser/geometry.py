"""Orthogonal dihedral representations and trigonometric moment configurations.

The m configuration vectors in R^{k+1} realize the alternating oriented
matroid and intertwine the dihedral matrices with index shifts; every
floating-point check reports its maximum deviation, and ZERO_TOL is both the
one zero test of a sign and the sweep's pass bound on those deviations.  A
stable set is its bitmask, as in graphs: v_of_set takes one, point_to_vertex
returns one, and the sweeps unpack all of enumerate_stable_sets into
membership rows at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import (DihedralElement, _check_in_z, enumerate_stable_sets, position_map,
                     render_set)
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


@dataclass(frozen=True)
class OrthogonalRep:
    """The (k+1)-dimensional orthogonal right action of D_{2m}.

    x.g is matrix(g) @ x; tau acts by global negation.  For even k the
    shift generator is -diag(1, R_{2pi/m}, ..., R_{k pi/m}); for odd k it
    is -diag(R_{pi/m}, R_{3pi/m}, ..., R_{k pi/m}), with the reflection
    diag(1, [1,-1]...) resp. diag([1,-1]...).
    """

    n: int
    k: int
    sigma_matrix: np.ndarray
    rho_matrix: np.ndarray

    @property
    def m(self) -> int:
        return 2 * self.n + self.k

    @property
    def dim(self) -> int:
        return self.k + 1

    def matrix(self, g: DihedralElement) -> np.ndarray:
        if g.m != self.m:
            raise ValueError("modulus mismatch")
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


@dataclass(frozen=True)
class MomentConfig:
    """Vectors v_0..v_{m-1} on the trigonometric moment curve in R^{k+1}."""

    m: int
    k: int
    vectors: np.ndarray

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


_REALIZE_BLOCK = 1 << 12   # sign vectors per stacked complete QR, points per sampled block


def _realize_zero_sets(vectors: np.ndarray | Sequence[SignVector],
                       config: MomentConfig) -> np.ndarray:
    """Unit points with the given sign rows, one row each, via their zero sets.

    The rows, an array or a sequence of sign vectors, must share one zero
    count z <= k.  Each point is the last column of the complete Householder
    QR of its z zero-set rows taken as columns, a unit vector orthogonal to
    all of them, negated when that gives the target sign row; the QRs run
    stacked, a block of rows at a time.  With no zeros the complete QR is
    the identity and the point is +-e_k, which realizes the two cocircuits
    at k = 0.  Raises RealizationError naming the first row, in the given
    order, that neither the point nor its negative realizes.
    """
    signs = np.asarray(vectors, dtype=np.int8).reshape(-1, config.m)
    zeros = np.nonzero(signs == 0)[1].reshape(len(signs), -1)
    points = np.empty((len(signs), config.k + 1))
    for lo in range(0, len(signs), _REALIZE_BLOCK):
        block = slice(lo, lo + _REALIZE_BLOCK)
        rows = config.vectors[zeros[block]]
        x = np.linalg.qr(np.swapaxes(rows, 1, 2), mode="complete")[0][:, :, -1]
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


def verify_realization(m: int, k: int, samples: int = 100000, seed: int = 0) -> dict:
    """Cross-validate the covector rule against the geometric configuration.

    (a) every sampled generic sign vector satisfies the covector rule;
    (c) every cocircuit is realized by solving its zero set, once per +-
        pair: the rows must end with the first half negated in reverse, and
        their points are then the first half's points negated in reverse;
    (b) for m <= 8, k <= 4 the sampled full-support sign patterns are
        zero-free covectors, and every zero-free covector t is realized by
        the sum of the points of (c) of the cocircuits below it, those c
        with t.c = m - k.  Every covector is the composition of the
        cocircuits below it (Bjorner et al., Oriented Matroids, ch. 3), so at
        each j every term has sign t_j or 0 and some term has t_j: the sum
        has sign vector t exactly.
    Any discrepancy raises RealizationError.  The points of (a) are drawn
    _REALIZE_BLOCK at a time, the same stream as one draw, and only the
    distinct sign patterns are kept between blocks, merged by np.unique on
    one integer key per row, so memory follows the number of distinct
    patterns, not samples.  Every sign is read with ZERO_TOL.  A negative
    samples or seed is refused before any sampling.
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

    # each full-support row as int64 words, bit j % 63 of word j // 63 set
    # when sign j is +; only the distinct rows seen so far are kept between
    # blocks, merged on one 1-D key per row: the first word, ranked with each next
    word, bit = np.divmod(np.arange(m), 63)
    weights = np.zeros((m, word[-1] + 1), dtype=np.int64)
    weights[np.arange(m), word] = 1 << bit
    codes = np.zeros((0, weights.shape[1]), dtype=np.int64)
    counts = np.zeros(0)
    for lo in range(0, samples, _REALIZE_BLOCK):
        size = min(_REALIZE_BLOCK, samples - lo)
        vals = rng.normal(size=(size, k + 1)) @ config.vectors.T
        block = (vals[(np.abs(vals) >= ZERO_TOL).all(axis=1)] > 0) @ weights
        codes = np.concatenate([codes, block])
        key = codes[:, 0]
        for column in codes.T[1:]:
            key = (np.unique(key, return_inverse=True)[1] * len(key)
                   + np.unique(column, return_inverse=True)[1])
        inverse = np.unique(key, return_inverse=True)[1]
        counts = np.bincount(inverse, np.concatenate([counts, np.ones(len(block))]))
        first = np.empty(len(counts), dtype=np.intp)
        first[inverse] = np.arange(len(inverse))   # any row of each key will do
        codes = codes[first]
    plus = codes[:, word] >> bit & 1
    sampled = list(map(tuple, np.where(plus, 1, -1).tolist()))
    non_covector = sum(int(c) for s, c in zip(sampled, counts.tolist()) if not is_covector(s, k))
    report["sampled_full_support_patterns"] = len(sampled)
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
        extra = sorted(set(sampled).difference(map(tuple, topes.tolist())))
        report["zero_free_covectors"] = len(topes)
        if missed or extra:
            report["missed"] = [render_sign_vector(s) for s in missed]
            report["extra"] = [render_sign_vector(s) for s in extra]
            raise RealizationError("full-support patterns != zero-free covectors", report)
    report["cocircuits_realized"] = len(cocircuits) if k > 0 else 0
    report["status"] = "pass"
    return report


# ---------------------------------------------------------------------------
# the vertex map v(S) and Borsuk-graph experiments


def v_of_set(mask: int, config: MomentConfig) -> np.ndarray:
    """Normalized alternating sum over the set with bitmask mask; never zero on stable sets."""
    _check_in_z(mask, config.m)
    total = _signed_sums(_incidence([mask], config.m), config)[0]
    nrm = float(np.linalg.norm(total))
    if nrm < 1e-12:
        raise ValueError("alternating sum vanished on %s; "
                         "this contradicts stability" % render_set(mask))
    return total / nrm


def _incidence(masks: Sequence[int], m: int) -> np.ndarray:
    """Rows of 0/1 membership flags, one row per set mask, one column per j < m."""
    width = (m + 7) // 8
    packed = np.frombuffer(b"".join(s.to_bytes(width, "little") for s in masks),
                           dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=m, bitorder="little")


def _signed_sums(incidence: np.ndarray, config: MomentConfig) -> np.ndarray:
    """The alternating sum of (-1)^i v_i over the members i of every set, as rows.

    The sets, given by their incidence rows, must have equal size.  Adds the
    terms member by member in increasing order, all sets at once, so every
    row equals that loop over one set bit for bit.
    """
    members = np.nonzero(incidence)[1].reshape(len(incidence), -1)
    terms = np.where(np.arange(config.m) % 2 == 0, 1.0, -1.0)[:, None] * config.vectors
    total = np.zeros((len(incidence), config.k + 1))
    for col in members.T:
        total += terms[col]
    return total


def _vertex_rows(n: int, k: int) -> tuple[MomentConfig, np.ndarray, np.ndarray]:
    """The configuration, and the incidence rows and sums of the stable n-sets."""
    config = moment_vectors(n, k)
    incidence = _incidence(enumerate_stable_sets(n, config.m), config.m)
    return config, incidence, _signed_sums(incidence, config)


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
    _, incidence, sums = _vertex_rows(n, k)
    return _max_defect(incidence, sums)


_ORBIT_MARGIN = 1e-9   # Gram entries this close to the best orbit's are rescanned


def _max_defect(incidence: np.ndarray, sums: np.ndarray) -> float:
    """The defect from the largest Gram entry over disjoint pairs S < T.

    D_{2m} permutes the sets and acts orthogonally on their sums, so each
    orbit's best entry shows on its least set's row against all sets.  Then
    the orbits within _ORBIT_MARGIN of the top get every row scanned against
    the later sets: the float of a scan of all pairs, bit for bit.
    """
    unit = sums / np.linalg.norm(sums, axis=1)[:, None]
    least = _orbit_least(incidence)
    reps = np.flatnonzero(least == np.arange(len(least)))
    member = incidence.astype(np.float32)
    best = _best_gram(reps, np.full(len(reps), -1), unit, member)
    rows = np.flatnonzero(np.isin(least, reps[best >= best.max() - _ORBIT_MARGIN]))
    worst = 2.0 + 2.0 * float(_best_gram(rows, rows, unit, member).max())
    return float(np.sqrt(max(worst, 0.0)))


def _orbit_least(incidence: np.ndarray) -> np.ndarray:
    """The least index in the <sigma, rho>-orbit of every row's set.

    The rows must be distinct sets closed under D_{2m}, such as all stable
    n-sets.  Finds each row's image under sigma and rho by its packed bytes,
    then takes the least index over the sigma-cycle by doubling and over rho.
    """
    def keys(rows):
        packed = np.packbits(rows, axis=1, bitorder="little")
        return np.ascontiguousarray(packed).view("V%d" % packed.shape[1]).ravel()

    m = incidence.shape[1]
    own = keys(incidence)
    order = np.argsort(own)
    sigma, rho = (order[np.searchsorted(own, keys(incidence[:, np.argsort(position_map(m, *g))]),
                                        sorter=order)] for g in ((1, False), (0, True)))
    least = np.arange(len(own))
    for _ in range(m.bit_length()):   # least over sigma^0 .. sigma^(2^t - 1) after t rounds
        least, sigma = np.minimum(least, least[sigma]), sigma[sigma]
    return np.minimum(least, least[rho])


def _best_gram(rows: np.ndarray, after: np.ndarray, unit: np.ndarray,
               member: np.ndarray) -> np.ndarray:
    """Per row i, the largest Gram entry <u_i, u_j> over the sets j > after[i]
    disjoint from set i, or -inf; about 2^18 entries per block of rows."""
    step = max(1, (1 << 18) // len(unit))
    best = np.empty(len(rows))
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        edge = (member[block] @ member.T == 0) & (np.arange(len(unit)) > after[lo:lo + step, None])
        best[lo:lo + step] = np.where(edge, unit[block] @ unit.T, -np.inf).max(axis=1)
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
        raise ValueError("l must be 0 or 1")
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
    config, incidence, sums = _vertex_rows(n, k)
    eq3 = eq3_deviations(config, rep)
    rel = rep.relation_deviations()
    return {
        "n": n,
        "k": k,
        "min_vertex_norm": _min_norm(sums),
        "max_edge_defect": _max_defect(incidence, sums),
        "eq3_sigma_dev": eq3["sigma_shift"],
        "eq3_rho_dev": eq3["rho_flip"],
        "eq3_period_dev": eq3["periodicity"],
        "group_relation_dev": max(rel.values()),
    }
