import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (TERM_GENS, poly_zero, term_degree, term_monomials,
                     term_ok, terms_invert, terms_mul, terms_pow,
                     terms_restrict, terms_str)
from stablekneser.charclasses import (CYCLIC_4, ODD, TWO_MOD_4, ZERO_MOD_4,
                                      GradedPoly, classify, generator,
                                      one_plus, poly_invert, poly_one,
                                      restrict, restriction_names,
                                      ring_for, total_sw_class,
                                      total_sw_class_from_blocks,
                                      vanishing_windows, wbar)
import stablekneser.charclasses as charclasses_module

D = 24  # default truncation for the small tests


def mono(ring, *exps):
    return GradedPoly(ring, D, frozenset((tuple(exps),)))


def test_ring_for():
    assert ring_for(3, 1) == ODD
    assert ring_for(2, 2) == TWO_MOD_4
    assert ring_for(2, 4) == ZERO_MOD_4
    assert ring_for(1, 0) == TWO_MOD_4
    assert ring_for(2, 0) == ZERO_MOD_4


def test_ring_relations_enforced():
    with pytest.raises(ValueError):
        GradedPoly(ZERO_MOD_4, D, frozenset(((1, 1, 0),)))  # xy = 0
    with pytest.raises(ValueError):
        GradedPoly(CYCLIC_4, D, frozenset(((2, 0),)))  # x^2 = 0
    x = generator(ZERO_MOD_4, "x", D)
    y = generator(ZERO_MOD_4, "y", D)
    assert (x * y).is_zero()
    xc = generator(CYCLIC_4, "x", D)
    assert (xc * xc).is_zero()


def test_one_plus_x_times_one_plus_y():
    lhs = one_plus(ZERO_MOD_4, D, "x") * one_plus(ZERO_MOD_4, D, "y")
    assert lhs == one_plus(ZERO_MOD_4, D, "x", "y")


def test_invert_geometric_series():
    inv = poly_invert(one_plus(ODD, D, "a"))
    assert inv.terms == frozenset((i,) for i in range(D + 1))


def test_invert_cube():
    inv = poly_invert(one_plus(ODD, D, "a") ** 3)
    degrees = {t[0] for t in inv.terms}
    assert degrees == {i for i in range(D + 1) if i % 4 in (0, 1)}
    assert inv == wbar(1, 5, D)


def test_invert_requires_unit():
    with pytest.raises(ValueError):
        poly_invert(generator(ODD, "a", D))
    with pytest.raises(ValueError):
        one_plus(ODD, D, "a") ** -1
    with pytest.raises(ValueError):
        GradedPoly(ODD, -1)


def test_product_with_inverse_is_one():
    rng = random.Random(13)
    for ring in (ODD, TWO_MOD_4, ZERO_MOD_4, CYCLIC_4):
        gens = {ODD: ("a",), TWO_MOD_4: ("a", "b"),
                ZERO_MOD_4: ("x", "y", "u"), CYCLIC_4: ("x", "u")}[ring]
        for _ in range(5):
            p = poly_one(ring, D)
            for g in gens:
                if rng.random() < 0.7:
                    p = p * (poly_one(ring, D) + generator(ring, g, D))
            inv = poly_invert(p)
            assert p * inv == poly_one(ring, D)


def test_total_sw_class_closed_forms():
    assert total_sw_class(3, 1, D) == one_plus(ODD, D, "a")
    # (2s, 4): (1+y)(1+x+y+u)(1+x+y)
    w = total_sw_class(2, 4, D)
    expect = one_plus(ZERO_MOD_4, D, "y") * \
        one_plus(ZERO_MOD_4, D, "x", "y", "u") * one_plus(ZERO_MOD_4, D, "x", "y")
    assert w == expect
    # odd n, k = 4: (1+a)(1+b)(1+a)(1+a+b)
    w = total_sw_class(3, 4, D)
    expect = one_plus(TWO_MOD_4, D, "a") * one_plus(TWO_MOD_4, D, "b") * \
        one_plus(TWO_MOD_4, D, "a") * one_plus(TWO_MOD_4, D, "a", "b")
    assert w == expect


def test_total_sw_class_equals_block_derivation():
    for k in range(0, 9):
        for n in range(1, 11):
            assert total_sw_class(n, k, D) == total_sw_class_from_blocks(n, k, D), (n, k)


def test_wbar_examples():
    assert wbar(4, 1, D).terms == frozenset((i,) for i in range(D + 1))
    wb5 = wbar(3, 5, D)
    assert wb5.component(2).is_zero() and wb5.component(3).is_zero()
    assert wb5.component(4) == mono(ODD, 4)
    # (2s,4): restriction of the dual class to the cyclic part is (1+x) sum u^i
    for s in (1, 2):
        got = restrict(wbar(2 * s, 4, D), "j")
        expect_terms = set()
        for i in range(0, (D // 2) + 1):
            expect_terms.add((0, i))
            if 1 + 2 * i <= D:
                expect_terms.add((1, i))
        assert got.terms == frozenset(expect_terms)


def test_restrict_examples():
    w = total_sw_class(2, 4, D)
    got = restrict(w, "j")
    expect = one_plus(CYCLIC_4, D, "x") * \
        (poly_one(CYCLIC_4, D) + generator(CYCLIC_4, "u", D))
    assert got == expect
    x = generator(ZERO_MOD_4, "x", D)
    y = generator(ZERO_MOD_4, "y", D)
    assert restrict(x, "phi_rho") == generator(ODD, "a", D)
    assert restrict(y, "phi_rho").is_zero()
    assert restrict(poly_one(ZERO_MOD_4, D), "phi_rho") == poly_one(ODD, D)
    assert restrict(generator(CYCLIC_4, "u", D), "phi_sigma_m2") == mono(ODD, 2)
    assert restrict(generator(ODD, "a", D), "p") == generator(CYCLIC_4, "x", D)
    with pytest.raises(ValueError):
        restrict(w, "phi_sigma_m2")


def test_restrictions_are_ring_homomorphisms():
    rng = random.Random(17)
    for ring in (ODD, TWO_MOD_4, ZERO_MOD_4, CYCLIC_4):
        gens = {ODD: ("a",), TWO_MOD_4: ("a", "b"),
                ZERO_MOD_4: ("x", "y", "u"), CYCLIC_4: ("x", "u")}[ring]

        def random_poly():
            p = poly_one(ring, D)
            for g in gens:
                if rng.random() < 0.6:
                    p = p * (poly_one(ring, D) + generator(ring, g, D))
            if rng.random() < 0.3:
                p = p + generator(ring, gens[0], D)
            return p

        for name in restriction_names(ring):
            for _ in range(5):
                p, q = random_poly(), random_poly()
                assert restrict(p * q, name) == restrict(p, name) * restrict(q, name)
                assert restrict(p + q, name) == restrict(p, name) + restrict(q, name)


def test_naturality_of_rho_restriction_for_odd_k():
    # restricting the odd-k total class along rho reproduces (1+a)^{r+1}
    for n, r in [(2, 0), (2, 1), (3, 2)]:
        k = 2 * r + 1
        w = total_sw_class(n, k, D)
        assert restrict(w, "phi_rho") == one_plus(ODD, D, "a") ** (r + 1)


def test_vanishing_window_examples():
    assert vanishing_windows(3, 5)[:1] == [(2, 4)]
    assert vanishing_windows(2, 3)[:1] == [(1, 2)]
    assert vanishing_windows(3, 6)[:1] == [(2, 4)]   # n odd, m = 0 mod 4 case
    assert vanishing_windows(4, 6)[:1] == [(2, 4)]   # n even, m = 2 mod 4 case
    assert vanishing_windows(3, 1)[:1] == []
    assert vanishing_windows(2, 4)[:1] == []   # r = 2 below the threshold
    assert vanishing_windows(1, 0)[:1] == []


def test_windows_match_series():
    for k in range(3, 65):
        for n in (3, 4):
            windows = vanishing_windows(n, k)
            if not windows:
                continue
            hi = max(w[1] for w in windows)
            wb = wbar(n, k, max(hi + 4, 16))
            for lo, hi_ in windows:
                for d in range(lo, hi_):
                    assert wb.component(d).is_zero(), (n, k, d)


def test_window_last_case_first_fires_at_k24():
    # r = 2s+4 with s = 4 gives the wide window (7, 16) on top of (7, 8)
    assert vanishing_windows(4, 24) == [(7, 8), (7, 16)]
    wb = wbar(4, 24, 20)
    assert all(wb.component(d).is_zero() for d in range(7, 16))
    assert not wb.component(16).is_zero()


def test_classify_verdicts():
    assert classify(5, 1).verdict == "TEST_GRAPH_CERTIFIED"
    assert classify(5, 2).verdict == "TEST_GRAPH_CERTIFIED"
    assert classify(4, 4).verdict == "TEST_GRAPH_CERTIFIED"
    assert classify(4, 4).certificate == "j"
    assert classify(3, 5).verdict == "NON_TEST_FOR_LARGE_N"
    assert classify(2, 3).verdict == "NON_TEST_FOR_LARGE_N"
    assert classify(3, 4).verdict == "TEST_GRAPH_UP_TO_DEGREE"
    report = classify(3, 5)
    assert 2 in report.wbar_vanishing_degrees
    assert report.windows == [(2, 4)]


def test_classify_k8_parity_split():
    # odd n refuted by an even vanishing degree; even n stays inconclusive
    odd = classify(3, 8)
    even = classify(4, 8)
    assert odd.verdict == "NON_TEST_FOR_LARGE_N"
    assert even.verdict == "TEST_GRAPH_UP_TO_DEGREE"
    assert all(d % 2 == 1 for d in even.wbar_vanishing_degrees)


def test_classify_report_json():
    doc = classify(2, 4).to_json_dict()
    assert doc["verdict"] == "TEST_GRAPH_CERTIFIED"
    assert doc["ring_case"] == ZERO_MOD_4
    assert isinstance(doc["w"], str) and doc["w"].startswith("1 + ")


@pytest.mark.parametrize("n, k", [(1, 1), (2, 3), (1, 0), (2, 2), (2, 0), (1, 2)])
@pytest.mark.parametrize("top", [0, 1, 2])
def test_degree_bound_below_a_generator_is_refused_up_front(monkeypatch, n, k, top):
    ring = ring_for(n, k)
    least = 2 if ring == ZERO_MOD_4 else 1
    if top >= least:
        w = total_sw_class(n, k, top)
        assert w * wbar(n, k, top) == poly_one(ring, top)
        assert classify(n, k, top).w == w
        return
    monkeypatch.setattr(charclasses_module, "one_plus",
                        lambda *args: pytest.fail("series work before the check"))
    message = ("(n, k) = (%d, %d): the total class in ring %s needs max_degree >= %d, "
               "got %d" % (n, k, ring, least, top))
    for fn in (total_sw_class, wbar, classify):
        with pytest.raises(ValueError) as exc:
            fn(n, k, top)
        assert str(exc.value) == message


def test_w_times_wbar_is_one_on_a_grid():
    for k in range(0, 9):
        for n in range(1, 7):
            w = total_sw_class(n, k, 32)
            assert w * poly_invert(w) == poly_one(w.ring, 32), (n, k)


def test_poly_str_sorted_monomial_form():
    w = total_sw_class(2, 4, 4)
    assert str(poly_one(ZERO_MOD_4, 4)) == "1"
    assert "·" in str(w)
    assert str(generator(ZERO_MOD_4, "u", 4) * generator(ZERO_MOD_4, "y", 4)) == "y·u"


def test_kummer_closed_form_for_odd_k():
    # odd k: wbar = (1+a)^-(r+1), so wbar_d = C(r+d, d) mod 2 = [r & d == 0]
    for k in range(1, 64, 2):
        r = (k - 1) // 2
        want = [d for d in range(1, 1025) if r & d]
        for n in (1, 2):
            assert wbar(n, k, 1024).vanishing_degrees() == want, (n, k)


# ---------------------------------------------------------------------------
# the packed arithmetic against the term-set oracle, on random polynomials

RINGS = (ODD, TWO_MOD_4, ZERO_MOD_4, CYCLIC_4)


@st.composite
def term_sets(draw, count, unit=False):
    """A ring, a degree bound <= 12 and `count` valid term sets."""
    ring = draw(st.sampled_from(RINGS))
    top = draw(st.integers(0, 12))
    monos = term_monomials(ring, top)
    one = monos[0]
    sets = []
    for _ in range(count):
        s = draw(st.frozensets(st.sampled_from(monos), max_size=12))
        sets.append(s | {one} if unit else s)
    return (ring, top, *sets)


@settings(deadline=None)
@given(term_sets(2))
def test_packed_add_mul_terms_match_oracle(case):
    ring, top, s, t = case
    p, q = GradedPoly(ring, top, s), GradedPoly(ring, top, t)
    assert p.terms == s
    assert (p + q).terms == s ^ t
    assert (p * q).terms == terms_mul(ring, top, s, t)


@settings(deadline=None)
@given(term_sets(1), st.integers(0, 5))
def test_packed_pow_matches_oracle(case, e):
    ring, top, s = case
    assert (GradedPoly(ring, top, s) ** e).terms == terms_pow(ring, top, s, e)


@settings(deadline=None)
@given(term_sets(1, unit=True))
def test_packed_invert_matches_oracle(case):
    ring, top, s = case
    p = GradedPoly(ring, top, s)
    inv = poly_invert(p)
    assert inv.terms == terms_invert(ring, top, s)
    assert p * inv == poly_one(ring, top)


@settings(deadline=None)
@given(term_sets(1))
def test_packed_restrict_and_str_match_oracle(case):
    ring, top, s = case
    p = GradedPoly(ring, top, s)
    assert str(p) == terms_str(ring, s)
    for name in restriction_names(ring):
        assert restrict(p, name).terms == terms_restrict(ring, top, s, name)


@settings(deadline=None)
@given(term_sets(3))
def test_packed_ring_axioms(case):
    ring, top, s, t, v = case
    p, q, r = (GradedPoly(ring, top, x) for x in (s, t, v))
    one, zero = poly_one(ring, top), poly_zero(ring, top)
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p + q) + r == p + (q + r)
    assert p * one == p and p + zero == p
    assert (p * zero).is_zero() and (p + p).is_zero()


@settings(deadline=None)
@given(st.sampled_from(RINGS), st.integers(0, 12), st.data())
def test_constructor_rejects_exactly_the_invalid_monomials(ring, top, data):
    width = len(TERM_GENS[ring])
    mono = tuple(data.draw(st.lists(st.integers(0, top + 3),
                                    min_size=width, max_size=width)))
    if term_ok(ring, mono) and term_degree(ring, mono) <= top:
        assert GradedPoly(ring, top, {mono}).terms == {mono}
    else:
        with pytest.raises(ValueError):
            GradedPoly(ring, top, {mono})
