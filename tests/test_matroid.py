import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from stablekneser.graphs import DihedralElement, dihedral_act
from stablekneser.matroid import (cocircuit_count, count_covectors,
                                  covector_extension_feasible,
                                  covector_leq, covector_sides, dihedral_act_sign,
                                  enumerate_cocircuits, enumerate_covectors,
                                  is_covector, is_vector, minimal_degree,
                                  parse_sign_vector, render_sign_vector,
                                  side_masks, sign_vector_from_sides)
from oracles import (cocircuits_by_support_loop, covectors_by_prefix_dfs,
                     dihedral_sign_reference, is_cocircuit,
                     lp_sign_feasible, minimal_degree_by_gap_parity, negate,
                     polynomial_sign_patterns, random_polynomial_patterns,
                     sign_vectors_orthogonal)

P = parse_sign_vector


def all_nonzero_sign_vectors(m):
    for s in itertools.product((-1, 0, 1), repeat=m):
        if any(s):
            yield s


def test_parse_sign_vector_round_trip_and_bad_character():
    assert P(" +0- ") == (1, 0, -1)
    assert render_sign_vector(P("++0-")) == "++0-"
    with pytest.raises(ValueError, match="'x' at position 1"):
        P("+x-")
    with pytest.raises(ValueError, match="'1' at position 0"):
        P("1")


def test_minimal_degree_examples():
    assert minimal_degree(P("+0-")) == 1
    assert minimal_degree(P("+0+")) == 2
    assert minimal_degree(P("+++")) == 0
    assert minimal_degree(P("+-+")) == 2
    assert minimal_degree(P("0+")) == 1
    with pytest.raises(ValueError, match="zero sign vector '000' has no minimal degree"):
        minimal_degree(P("000"))


def test_minimal_degree_against_lp():
    for m in (2, 3, 4):
        for s in all_nonzero_sign_vectors(m):
            d = minimal_degree(s)
            assert lp_sign_feasible(s, d), s
            if d > 0:
                assert not lp_sign_feasible(s, d - 1), s


def test_covector_rule_against_polynomial_enumeration():
    for m in (2, 3, 4, 5):
        for k in range(0, m):
            realized = polynomial_sign_patterns(m, k)
            claimed = {s for s in all_nonzero_sign_vectors(m) if is_covector(s, k)}
            assert claimed == realized, (m, k)


def test_random_polynomials_only_hit_covectors():
    for m, k in [(5, 1), (6, 2), (7, 3)]:
        for s in random_polynomial_patterns(m, k, trials=2000, seed=5):
            assert is_covector(s, k)


@st.composite
def sign_vectors(draw, max_m, nonzero=False):
    m = draw(st.integers(1, max_m))
    s = tuple(draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=m, max_size=m)))
    assume(not nonzero or any(s))
    return s


@settings(deadline=None)
@given(sign_vectors(12, nonzero=True))
def test_minimal_degree_counts_zeros_and_same_side_pairs(s):
    assert minimal_degree(s) == minimal_degree_by_gap_parity(s)


@st.composite
def sign_rows(draw, max_m):
    """An int8 array of up to 6 rows over {-1, 0, +1}, zero rows allowed, and a k <= m."""
    m = draw(st.integers(1, max_m))
    rows = draw(arrays(np.int8, (draw(st.integers(0, 6)), m),
                       elements=st.sampled_from((-1, 0, 1))))
    return rows, draw(st.integers(0, m))


@settings(deadline=None)
@given(sign_rows(70))
def test_array_rule_matches_gap_parity_row_by_row(case):
    rows, k = case
    nonzero = rows.any(axis=1)
    degrees = [minimal_degree_by_gap_parity(r) for r in rows[nonzero].tolist()]
    assert minimal_degree(rows[nonzero]).tolist() == degrees
    assert is_covector(rows, k).tolist() == [
        bool(r.any()) and minimal_degree_by_gap_parity(r.tolist()) <= k for r in rows]


@settings(deadline=None)
@given(sign_vectors(70), st.integers(0, 70))
def test_one_sign_vector_is_the_one_row_case(s, k):
    row = np.array([s], dtype=np.int8)
    covector = is_covector(s, k)
    assert type(covector) is bool and covector == is_covector(row, k)[0]
    if any(s):
        degree = minimal_degree(s)
        assert type(degree) is int and degree == minimal_degree(row)[0]


def test_zero_sign_rows_are_refused_by_name():
    rows = np.array([[1, 0, -1], [0, 0, 0], [1, 1, 1]], dtype=np.int8)
    with pytest.raises(ValueError, match="zero sign vector '000' at row 1 has no minimal degree"):
        minimal_degree(rows)
    assert is_covector(rows, 2).tolist() == [True, False, True]
    with pytest.raises(ValueError, match=r"2-D array of sign rows, got shape \(1, 2, 3\)"):
        minimal_degree(rows[None, :2])


@settings(deadline=None)
@given(sign_vectors(12))
def test_sign_vector_from_sides_inverts_side_masks(s):
    assert sign_vector_from_sides(len(s), *side_masks(s)) == s


def test_sign_vector_from_sides_refuses_bad_masks():
    assert sign_vector_from_sides(5, 0b00101, 0b10010) == P("+++0-")
    with pytest.raises(ValueError, match="not disjoint"):
        sign_vector_from_sides(5, 0b00101, 0b00100)
    with pytest.raises(ValueError, match="Z_5"):
        sign_vector_from_sides(5, 0b100000, 0)


@st.composite
def instances(draw, max_m):
    m = draw(st.integers(1, max_m))
    return m, draw(st.integers(0, m - 1))


@settings(deadline=None, max_examples=15)
@given(instances(12))
def test_covector_sides_follow_the_prefix_dfs(case):
    m, k = case
    s0, s1 = covector_sides(m, k)
    assert s0.dtype == s1.dtype == np.int64
    assert list(zip(s0.tolist(), s1.tolist())) == \
        [side_masks(s) for s in covectors_by_prefix_dfs(m, k)]


@pytest.mark.parametrize("m, k", [(33, 1), (33, 2), (34, 1), (34, 2)])
def test_covector_sides_hold_python_ints_once_the_key_overflows_int64(m, k):
    # the key S_0 | S_1 << m needs 2m bits, so from m = 32 on the masks are
    # Python ints in object arrays, built by the same code
    s0, s1 = covector_sides(m, k)
    assert s0.dtype == s1.dtype == object
    assert list(zip(s0.tolist(), s1.tolist())) == \
        [side_masks(s) for s in covectors_by_prefix_dfs(m, k)]
    assert enumerate_covectors(m, k) == covectors_by_prefix_dfs(m, k)


def test_covector_sides_refuse_before_enumerating(monkeypatch):
    import stablekneser.matroid as matroid_module
    count = count_covectors(22, 20)
    assert count > matroid_module.MAX_COVECTORS
    with pytest.raises(ValueError, match=r"\(m, k\) = \(22, 20\): %d covectors" % count):
        covector_sides(22, 20)
    # the refusal compares the closed-form count, so it lists nothing first
    monkeypatch.setattr(matroid_module, "MAX_COVECTORS", count_covectors(5, 2) - 1)
    with pytest.raises(ValueError, match=r"\(m, k\) = \(5, 2\)"):
        enumerate_covectors(5, 2)
    assert len(covector_sides(5, 1)[0]) == count_covectors(5, 1)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_covectors_closed_under_negation_and_the_sign_action(data):
    # m = 2n + k, so that the twisted action preserves C^{m,k+1}
    m = data.draw(st.integers(2, 12), label="m")
    k = data.draw(st.sampled_from(range(m % 2, m, 2)), label="k")
    sides = list(zip(*(side.tolist() for side in covector_sides(m, k))))
    covs = set(sides)
    assert all((s1, s0) in covs for s0, s1 in sides)
    s = sign_vector_from_sides(m, *data.draw(st.sampled_from(sides), label="s"))
    g = DihedralElement(m, data.draw(st.integers(0, m - 1)), data.draw(st.booleans()))
    assert side_masks(dihedral_act_sign(s, g, k)) in covs


def test_side_masks_example():
    # alternating signs stay on one side; a repeated sign changes side
    assert side_masks(P("+-0-+")) == (0b11011, 0)
    assert side_masks(P("+++0-")) == (0b00101, 0b10010)
    assert side_masks(P("000")) == (0, 0)


def test_is_covector_examples():
    assert not is_covector(P("+-+"), 1)
    assert is_covector(P("+0-"), 1)
    for m in (2, 3, 4, 5):
        for s in all_nonzero_sign_vectors(m):
            assert is_covector(s, m - 1)
    assert not is_covector((0, 0, 0), 2)


def test_enumerate_covectors_and_cocircuits_3_1():
    covs = enumerate_covectors(3, 1)
    cocs = enumerate_cocircuits(3, 1)
    assert len(covs) == 12
    assert len(cocs) == 6
    assert set(map(tuple, cocs.tolist())) <= set(covs)
    with pytest.raises(ValueError):
        enumerate_covectors(3, 3)


def test_enumeration_is_lexicographic_and_complete():
    for m, k in [(3, 1), (4, 2), (5, 1), (5, 3)]:
        covs = enumerate_covectors(m, k)
        assert covs == sorted(covs)
        assert len(set(covs)) == len(covs)
        brute = [s for s in all_nonzero_sign_vectors(m)
                 if minimal_degree_by_gap_parity(s) <= k]
        assert set(covs) == set(brute)


def test_cocircuits_direct_vs_filter():
    for m in range(2, 8):
        for k in range(0, m):
            direct = set(map(tuple, enumerate_cocircuits(m, k).tolist()))
            filtered = {s for s in enumerate_covectors(m, k)
                        if sum(1 for v in s if v == 0) == k}
            assert direct == filtered
            assert all(is_cocircuit(s, k) for s in direct)


def test_cocircuits_equal_the_support_loop():
    cases = [(m, k) for m in range(1, 13) for k in range(m)] + [(14, 6), (70, 2)]
    for m, k in cases:
        cocs = enumerate_cocircuits(m, k)
        assert cocs.dtype == np.int8, (m, k)
        assert list(map(tuple, cocs.tolist())) == cocircuits_by_support_loop(m, k), (m, k)
        # verify_realization solves the first half and mirrors its points
        assert np.array_equal(cocs[::-1], -cocs), (m, k)


def test_count_covectors_closed_form():
    for m in range(1, 13):
        for k in range(m):
            assert count_covectors(m, k) == len(covector_sides(m, k)[0]), (m, k)
    assert count_covectors(14, 6) == 417146
    assert count_covectors(7, 6) == 3 ** 7 - 1


@pytest.mark.parametrize("m, k", [(3, 5), (4, 4), (4, -1)])
def test_instances_outside_0_le_k_lt_m_are_refused(m, k):
    for fn in (count_covectors, enumerate_covectors, enumerate_cocircuits):
        with pytest.raises(ValueError, match=r"\(m, k\) = \(%d, %d\)" % (m, k)):
            fn(m, k)


def test_cocircuit_count_closed_form():
    for m in range(2, 11):
        for k in range(0, m):
            assert len(enumerate_cocircuits(m, k)) == cocircuit_count(m, k)


def test_cocircuits_of_5_1_include_example():
    assert P("+++0-") in map(tuple, enumerate_cocircuits(5, 1).tolist())


def test_covectors_closed_under_negation():
    for m, k in [(4, 1), (5, 2), (6, 3)]:
        covs = set(enumerate_covectors(m, k))
        assert len(covs) % 2 == 0
        assert all(negate(s) in covs for s in covs)


def test_is_vector():
    assert is_vector(P("+-+"), 1)
    assert not is_vector(P("+++"), 0)
    assert not is_vector(P("+++"), 2)
    assert is_vector(P("+0-0+"), 1)
    assert is_vector(P("+--+"), 1)  # subsequence, not contiguous alternation
    with pytest.raises(ValueError, match="zero sign vector '00' is not a vector"):
        is_vector(P("00"), 0)


def test_is_vector_against_dependence_oracle():
    from oracles import is_dependence_pattern
    for m, k in [(4, 1), (5, 1), (5, 2)]:
        for s in all_nonzero_sign_vectors(m):
            assert is_vector(s, k) == is_dependence_pattern(s, k), (m, k, s)


def test_vector_covector_orthogonality():
    covs = enumerate_covectors(5, 1)
    vecs = [s for s in all_nonzero_sign_vectors(5) if is_vector(s, 1)]
    for s in covs:
        for v in vecs:
            assert sign_vectors_orthogonal(s, v)


def test_covector_leq():
    assert covector_leq(P("0+0"), P("-++"))
    assert not covector_leq(P("++"), P("-+"))
    for s in enumerate_covectors(4, 2):
        assert covector_leq(s, s)
    with pytest.raises(ValueError, match="one length, got 2 and 3"):
        covector_leq(P("++"), P("+-+"))


def test_dihedral_act_sign_twisted_shift():
    # odd m: the wraparound entry picks up the periodicity sign twist
    sigma = DihedralElement.sigma(5)
    assert dihedral_act_sign(P("+++0-"), sigma) == P("----0")
    # even m: plain rotation with negation
    sigma6 = DihedralElement.sigma(6)
    assert dihedral_act_sign(P("++++0-"), sigma6) == P("+----0")


def test_dihedral_act_sign_is_order_m():
    for m, k in [(5, 1), (6, 2), (7, 2)]:
        sigma = DihedralElement.sigma(m)
        for s in enumerate_covectors(m, k):
            t = s
            for _ in range(m):
                t = dihedral_act_sign(t, sigma)
            assert t == s


def test_dihedral_act_sign_right_action_and_closure():
    rng = random.Random(1)
    for m, k in [(5, 1), (6, 2)]:
        covs = enumerate_covectors(m, k)
        elems = [DihedralElement(m, a, f) for a in range(m) for f in (False, True)]
        for _ in range(60):
            s = rng.choice(covs)
            g, h = rng.choice(elems), rng.choice(elems)
            assert dihedral_act_sign(s, g * h) == \
                dihedral_act_sign(dihedral_act_sign(s, g), h)
            assert is_covector(dihedral_act_sign(s, g), k)


def test_dihedral_act_sign_order_preserving():
    covs = enumerate_covectors(5, 1)
    sigma, rho = DihedralElement.sigma(5), DihedralElement.rho(5)
    for s in covs:
        for t in covs:
            if covector_leq(s, t):
                for g in (sigma, rho):
                    assert covector_leq(dihedral_act_sign(s, g),
                                        dihedral_act_sign(t, g))


def test_dihedral_act_sign_rejects_non_covector_when_k_given():
    with pytest.raises(ValueError):
        dihedral_act_sign(P("+-+-0"), DihedralElement.sigma(5), k=1)


def test_dihedral_act_sign_rejects_k_of_the_wrong_parity():
    # (---)·rho = (-++) is no covector of C^{3,1}: m - k must be even
    assert is_covector(P("---"), 0) and not is_covector(P("-++"), 0)
    with pytest.raises(ValueError, match="m = 3 and k = 0"):
        dihedral_act_sign(P("---"), DihedralElement.rho(3), k=0)
    assert dihedral_act_sign(P("---"), DihedralElement.rho(3), k=1) == P("-++")


@st.composite
def sign_vector_and_elements(draw, count):
    s = draw(sign_vectors(10))
    m = len(s)
    elems = [DihedralElement(m, draw(st.integers(-2 * m, 2 * m)), draw(st.booleans()))
             for _ in range(count)]
    return (s, *elems)


@settings(deadline=None)
@given(sign_vector_and_elements(2))
def test_dihedral_act_sign_action_law(case):
    s, g, h = case
    assert dihedral_act_sign(dihedral_act_sign(s, g), h) == dihedral_act_sign(s, g * h)


@settings(deadline=None)
@given(sign_vector_and_elements(1))
# m = 1 always runs: one index map entry, so no itemgetter tuple to lean on
@example(((1,), DihedralElement(1, 0, False)))
@example(((-1,), DihedralElement(1, 0, True)))
@example(((0,), DihedralElement(1, 0, True)))
def test_dihedral_act_sign_matches_stepwise_reference(case):
    s, g = case
    assert dihedral_act_sign(s, g) == dihedral_sign_reference(s, g.shift, g.flip)


@settings(deadline=None)
@given(sign_vector_and_elements(1))
def test_dihedral_action_moves_sides_as_circular_sets(case):
    s, g = case
    moved = tuple(dihedral_act(side, g) for side in side_masks(s))
    assert side_masks(dihedral_act_sign(s, g)) == moved
    s0, s1 = side_masks(s)
    assert side_masks(negate(s)) == (s1, s0)


@settings(deadline=None)
@given(sign_vector_and_elements(1), st.integers(0, 4))
def test_dihedral_act_sign_maps_covectors_to_covectors(case, half):
    # m = 2n + k: the twist (-1)^m is the moment curve's (-1)^k
    s, g = case
    k = len(s) % 2 + 2 * half
    assume(k < len(s))
    assert is_covector(dihedral_act_sign(s, g), k) == is_covector(s, k)


def test_covector_extension_feasible():
    assert covector_extension_feasible([1, -1, None], 1)
    assert not covector_extension_feasible([1, -1, 1, -1, None], 1)
    assert covector_extension_feasible([None] * 4, 0)
    assert not covector_extension_feasible([0, 0, 0], 2)
    with pytest.raises(ValueError, match=r"needs m > k, got \(m, k\) = \(3, 3\)"):
        covector_extension_feasible([None] * 3, 3)


def test_covector_extension_against_brute_force():
    rng = random.Random(9)
    for _ in range(200):
        m = rng.randint(2, 6)
        k = rng.randint(0, m - 1)
        partial = [rng.choice([-1, 0, 1, None, None]) for _ in range(m)]
        free = [i for i, v in enumerate(partial) if v is None]
        brute = False
        for fill in itertools.product((-1, 0, 1), repeat=len(free)):
            s = list(partial)
            for i, v in zip(free, fill):
                s[i] = v
            if any(s) and minimal_degree_by_gap_parity(tuple(s)) <= k:
                brute = True
                break
        assert covector_extension_feasible(partial, k) == brute, (partial, k)


def test_render_parse_roundtrip():
    for s in enumerate_covectors(4, 2):
        assert parse_sign_vector(render_sign_vector(s)) == s
