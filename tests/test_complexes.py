import functools
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from stablekneser.complexes import (FinitePoset, SimplicialComplex,
                                    check_equivariance_combinatorial,
                                    covector_cells, covector_to_hom,
                                    gf2_rank_dense,
                                    gf2_rank_sparse, hom_betti,
                                    hom_cells, hom_poset,
                                    neighbourhood_complex, order_complex,
                                    verify_nerve, z2_betti)
from stablekneser.graphs import (CircularSet, DihedralElement, complete_graph,
                                 graph_from_edges, k2, permute_mask,
                                 stable_kneser_graph, vertex_permutation)
from stablekneser.matroid import (count_covectors, covector_leq,
                                  dihedral_act_sign, enumerate_cocircuits,
                                  enumerate_covectors, parse_sign_vector,
                                  side_masks)
from oracles import (boundary_squared_is_zero, cycle_graph,
                     dihedral_sign_reference, equivariance_reference,
                     euler_characteristic_consistent,
                     hom_cells_by_product_filter, homomorphisms, negate,
                     one_vertex_looped, z2_betti_by_frozensets)

P = parse_sign_vector


def contained(a, b):
    """Componentwise mask containment, the order on Hom cells."""
    return all(x & ~y == 0 for x, y in zip(a, b))


def member_tuples(cell):
    return tuple(tuple(t for t in range(a.bit_length()) if a >> t & 1) for a in cell)


def test_hom_poset_k2_k3():
    p = hom_poset(k2(), complete_graph(3))
    assert p.n == 12
    assert len(p.atoms()) == 6


def test_hom_poset_k2_k2():
    p = hom_poset(k2(), k2())
    assert p.n == 2
    assert len(p.atoms()) == 2


def test_hom_atoms_are_homomorphisms():
    for h in (complete_graph(3), cycle_graph(5), stable_kneser_graph(2, 1)):
        atoms = hom_cells(k2(), h)[0]
        homs = homomorphisms(k2(), h)
        assert len(atoms) == len(homs)
        assert all(a.bit_count() == 1 for cell in atoms for a in cell)
        got = {tuple(a.bit_length() - 1 for a in cell) for cell in atoms}
        assert got == set(homs)


def test_hom_poset_sg21_has_10_atoms():
    target = stable_kneser_graph(2, 1)
    assert len(hom_cells(k2(), target)[0]) == 10
    assert len(hom_poset(k2(), target).atoms()) == 10


def test_hom_poset_of_looped_source_is_clique_poset():
    # Hom(1, H) = nonempty cliques of looped vertices
    h = graph_from_edges(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)])
    p = hom_poset(one_vertex_looped(), h)
    assert p.n == 7
    h2 = graph_from_edges(3, [(0, 0), (1, 1), (0, 1), (1, 2)])
    p2 = hom_poset(one_vertex_looped(), h2)
    assert p2.n == 3  # {0}, {1}, {0,1}


def test_hom_poset_size_refusal():
    cells = hom_cells(complete_graph(4), complete_graph(6), max_cells=10 ** 4)
    assert sum(map(len, cells.values())) == 3360
    with pytest.raises(ValueError, match="more than 3000 cells"):
        hom_cells(complete_graph(4), complete_graph(6), max_cells=3000)
    with pytest.raises(ValueError, match="more than 1000 cells"):
        hom_cells(k2(), stable_kneser_graph(2, 3), max_cells=1000)


def test_hom_poset_against_brute_force():
    import random
    rng = random.Random(23)
    for _ in range(12):
        gn, hn = rng.randint(1, 3), rng.randint(1, 4)
        g = graph_from_edges(gn, [(i, j) for i in range(gn) for j in range(i, gn)
                                  if rng.random() < 0.6])
        h = graph_from_edges(hn, [(i, j) for i in range(hn) for j in range(i, hn)
                                  if rng.random() < 0.6])
        brute = set()
        subsets = [frozenset(s) for s in
                   itertools.chain.from_iterable(
                       itertools.combinations(range(hn), r)
                       for r in range(1, hn + 1))]
        for cell in itertools.product(subsets, repeat=gn):
            ok = all(h.has_edge(a, b)
                     for u in range(gn) for v in range(gn) if g.has_edge(u, v)
                     for a in cell[u] for b in cell[v])
            if ok:
                brute.add(tuple(tuple(sorted(c)) for c in cell))
        got = {member_tuples(c) for c in hom_poset(g, h).elements}
        assert got == brute


def test_hom_cell_counts_and_dimensions():
    for n, k, count in [(1, 4, 602), (2, 3, 4984), (3, 3, 60888)]:
        cells = hom_cells(k2(), stable_kneser_graph(n, k))
        assert sum(len(cs) for cs in cells.values()) == count, (n, k)
        for d, cs in cells.items():
            assert all(a.bit_count() + b.bit_count() - 2 == d for a, b in cs)
    # Hom(1, H): nonempty looped cliques, one simplex per clique
    h = graph_from_edges(4, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2), (2, 3)])
    cells = hom_cells(one_vertex_looped(), h)
    assert {d: sorted(cs) for d, cs in cells.items()} == \
        {0: [(1,), (2,), (4,)], 1: [(3,), (5,), (6,)], 2: [(7,)]}


def test_hom_betti_spheres_beyond_the_order_complex():
    assert hom_betti(k2(), stable_kneser_graph(2, 3)) == (1, 0, 0, 1)
    assert hom_betti(k2(), stable_kneser_graph(3, 3)) == (1, 0, 0, 1)
    for s in range(2, 7):
        # Hom(K_2, K_s) is a (s - 2)-sphere
        assert hom_betti(k2(), complete_graph(s)) == \
            ((2,) if s == 2 else (1,) + (0,) * (s - 3) + (1,))
    assert hom_betti(k2(), graph_from_edges(3, [])) == ()


@st.composite
def small_graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [p for p, b in zip(pairs, keep) if b])


@settings(deadline=None, max_examples=80)
@given(small_graphs(3), small_graphs(5))
def test_hom_betti_matches_order_complex(g, h):
    cells = hom_cells(g, h)
    got = {member_tuples(c): d for d, cs in cells.items() for c in cs}
    assert sum(map(len, cells.values())) == len(got)
    assert got == hom_cells_by_product_filter(g.adjacency, h.adjacency)
    assume(sum(len(cs) for cs in cells.values()) <= 150 and max(cells, default=0) <= 4)
    p = hom_poset(g, h)
    assert p.above == FinitePoset(p.elements, contained).above
    assert hom_betti(g, h) == z2_betti(order_complex(p))


def test_neighbourhood_complexes():
    nc5 = neighbourhood_complex(cycle_graph(5))
    assert nc5.f_vector() == (5, 5)
    assert z2_betti(nc5) == (1, 1)
    nk2 = neighbourhood_complex(k2())
    assert z2_betti(nk2) == (2,)
    assert z2_betti(neighbourhood_complex(stable_kneser_graph(2, 2))) == (1, 0, 1)


def test_order_complex_examples():
    antichain = FinitePoset(["p", "q"], lambda a, b: a == b)
    oc = order_complex(antichain)
    assert z2_betti(oc) == (2,)
    # face poset of the triangle boundary: barycentric circle
    elements = [frozenset({i}) for i in range(3)] + \
        [frozenset({i, (i + 1) % 3}) for i in range(3)]
    fp = FinitePoset(elements, lambda a, b: a <= b)
    oc = order_complex(fp)
    assert oc.f_vector() == (6, 6)
    assert z2_betti(oc) == (1, 1)
    assert z2_betti(order_complex(hom_poset(k2(), complete_graph(3)))) == (1, 1)


def test_from_faces_keeps_distinct_maximal_faces_in_order():
    faces = [frozenset({2, 3}), frozenset(), frozenset({1, 2, 3}), frozenset({3}),
             frozenset({4, 5}), [5, 4], frozenset({1, 2}), frozenset({6}),
             frozenset({0, 4}), frozenset({1, 2, 3})]
    x = SimplicialComplex.from_faces(faces)
    assert x.facets == (frozenset({6}), frozenset({0, 4}), frozenset({4, 5}),
                        frozenset({1, 2, 3}))
    assert x.vertices == (0, 1, 2, 3, 4, 5, 6)
    assert SimplicialComplex.from_faces([frozenset()]).facets == ()
    rng = random.Random(3)
    for _ in range(50):
        faces = [frozenset(rng.sample(range(6), rng.randint(0, 4)))
                 for _ in range(rng.randint(0, 12))]
        nonempty = {f for f in faces if f}
        maximal = {f for f in nonempty if not any(f < g for g in nonempty)}
        facets = SimplicialComplex.from_faces(faces).facets
        assert len(facets) == len(maximal) and set(facets) == maximal
        keys = [(len(f), sorted(map(repr, f))) for f in facets]
        assert keys == sorted(keys)


def test_z2_betti_basics():
    hexagon = SimplicialComplex.from_faces(
        [frozenset({i, (i + 1) % 6}) for i in range(6)])
    assert z2_betti(hexagon) == (1, 1)
    simplex = SimplicialComplex.from_faces([frozenset({0, 1, 2})])
    assert z2_betti(simplex) == (1,)
    assert z2_betti(order_complex(hom_poset(k2(), stable_kneser_graph(2, 2)))) \
        == (1, 0, 1)


def test_z2_betti_euler_and_boundary_consistency():
    complexes = [
        neighbourhood_complex(stable_kneser_graph(2, 2)),
        order_complex(hom_poset(k2(), complete_graph(4))),
        SimplicialComplex.from_faces([frozenset({0, 1, 2}), frozenset({2, 3}),
                                      frozenset({3, 4, 5, 6})]),
    ]
    for x in complexes:
        assert boundary_squared_is_zero(x)
        assert euler_characteristic_consistent(x.f_vector(), z2_betti(x))


# Vertex labels of several types: z2_betti must not rely on integer vertices.
LABELS = ["a", "b", ("c", 0), ("c", 1), "d", 2.5, frozenset({"e"})]


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sets(st.sampled_from(LABELS), min_size=1), max_size=8))
def test_z2_betti_matches_frozenset_boundary_oracle(faces):
    x = SimplicialComplex.from_faces([frozenset(f) for f in faces])
    assert z2_betti(x) == z2_betti_by_frozensets(faces)


def test_z2_betti_of_a_sphere_past_8192_columns():
    # the boundary of the 15-simplex: 16 facets of 15 vertices each, and
    # C(16, 8) = 12,870 faces in dimension 7
    x = SimplicialComplex.from_faces(
        [frozenset(range(16)) - {v} for v in range(16)])
    assert z2_betti(x) == (1,) + (0,) * 13 + (1,)


def test_gf2_rank():
    # rows 011, 110, 101 have rank 2 over GF(2)
    assert gf2_rank_dense([0b011, 0b110, 0b101]) == 2
    assert gf2_rank_dense([0, 0]) == 0
    assert gf2_rank_sparse([{0, 1}, {1, 2}, {0, 2}]) == 2
    assert gf2_rank_dense([0b1, 0b10, 0b11, 0b100]) == 3


def test_gf2_rank_against_sympy():
    import random
    from sympy import GF, Matrix
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(31)
    for _ in range(20):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        entries = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        expected = DomainMatrix.from_Matrix(Matrix(entries)).convert_to(GF(2)).rank()
        packed = [sum(1 << j for j, v in enumerate(r) if v) for r in entries]
        assert gf2_rank_dense(packed) == expected
        assert gf2_rank_sparse([{j for j, v in enumerate(r) if v}
                                for r in entries]) == expected


def test_sphere_homology_instances():
    expect = {0: (2,), 1: (1, 1), 2: (1, 0, 1), 3: (1, 0, 0, 1)}
    for n, k in [(1, 1), (1, 2), (2, 1), (3, 1), (2, 2)]:
        g = stable_kneser_graph(n, k)
        betti = z2_betti(order_complex(hom_poset(k2(), g)))
        assert betti == expect[k], (n, k)
        assert z2_betti(neighbourhood_complex(g)) == expect[k], (n, k)


def test_side_sets():
    s0, s1 = (CircularSet(5, side) for side in side_masks(P("++++0")))
    assert s0.members() == (0, 2)
    assert s1.members() == (1, 3)


def test_covector_to_hom_cocircuit_example():
    target = stable_kneser_graph(2, 1)
    cell = covector_to_hom(P("++++0"), 2, 1, target)
    names = [{target.labels[i].members() for i in side} for side in member_tuples(cell)]
    assert names == [{(0, 2)}, {(1, 3)}]
    assert all(a.bit_count() == 1 for a in cell)


def test_covector_to_hom_rejects_non_covector():
    with pytest.raises(ValueError):
        covector_to_hom(P("+-+-0"), 2, 1)


def test_covector_to_hom_monotone_on_C52():
    target = stable_kneser_graph(2, 1)
    covs = enumerate_covectors(5, 1)
    images = {s: covector_to_hom(s, 2, 1, target) for s in covs}
    for s in covs:
        for t in covs:
            if covector_leq(s, t):
                assert contained(images[s], images[t])


def test_covector_to_hom_cocircuits_are_interleaved_atoms():
    # the cocircuit image is exactly the interleaved-pair atoms
    for n, k in [(2, 1), (2, 2), (1, 3)]:
        m = 2 * n + k
        target = stable_kneser_graph(n, k)
        interleaved = set()
        for cell in hom_cells(k2(), target)[0]:
            a = target.labels[cell[0].bit_length() - 1].members()
            b = target.labels[cell[1].bit_length() - 1].members()
            if sorted(a + b)[::2] in (list(a), list(b)):
                interleaved.add(cell)
        image = set()
        for s in enumerate_cocircuits(m, k):
            cell = covector_to_hom(s, n, k, target)
            assert all(a.bit_count() == 1 for a in cell)
            image.add(cell)
        assert image == interleaved
        assert len(image) == len(enumerate_cocircuits(m, k))


def test_covector_to_hom_is_isomorphism_for_n_1():
    for k in (1, 2, 3):
        m = k + 2
        target = stable_kneser_graph(1, k)
        covs = enumerate_covectors(m, k)
        poset = hom_poset(k2(), target)
        images = [covector_to_hom(s, 1, k, target) for s in covs]
        assert len(set(images)) == len(covs) == poset.n
        assert set(images) == set(poset.elements)
        for s, si in zip(covs, images):
            for t, ti in zip(covs, images):
                assert covector_leq(s, t) == contained(si, ti)


def test_check_equivariance_combinatorial():
    # the bitmask check against the frozenset reference, report for report
    for m in range(3, 10):
        for n in range(1, m // 2 + 1):
            k = m - 2 * n
            report = check_equivariance_combinatorial(n, k)
            assert report["violations"] == [], (n, k)
            assert report == equivariance_reference(n, k, enumerate_covectors(m, k)), (n, k)


def test_check_equivariance_builds_each_permutation_once(monkeypatch):
    import stablekneser.graphs as graphs_module
    real = graphs_module.vertex_permutation
    calls = []

    def counting(g, elem):
        calls.append(elem)
        return real(g, elem)

    monkeypatch.setattr(graphs_module, "vertex_permutation", counting)
    report = check_equivariance_combinatorial(2, 2)
    assert report["violations"] == []
    assert len(calls) == 2


def test_check_equivariance_reports_a_wrong_action(monkeypatch):
    import stablekneser.complexes as complexes_module
    real = complexes_module.dihedral_act_sign

    def ignores_flip(s, g, k=None):
        return real(s, DihedralElement.sigma(g.m, g.shift), k)

    monkeypatch.setattr(complexes_module, "dihedral_act_sign", ignores_flip)
    report = check_equivariance_combinatorial(2, 1)
    assert report["violations"]
    assert {name for _, name in report["violations"]} == {"rho"}
    # the reference under the same flip-blind action lists the same
    # violations in the same order
    for n, k in [(2, 1), (1, 3), (3, 1), (2, 3)]:
        expect = equivariance_reference(
            n, k, enumerate_covectors(2 * n + k, k),
            lambda s, shift, flip: dihedral_sign_reference(s, shift, False))
        assert check_equivariance_combinatorial(n, k) == expect, (n, k)

    # an image outside the enumerated covectors is a violation, not a crash
    monkeypatch.setattr(complexes_module, "dihedral_act_sign",
                        lambda s, g, k=None: (0,) * len(s))
    report = check_equivariance_combinatorial(2, 1)
    sigma_rho = [v for v in report["violations"] if v[1] != "negation"]
    assert len(sigma_rho) == 2 * report["covectors_checked"]
    assert not [v for v in report["violations"] if v[1] == "negation"]


def test_check_equivariance_reports_a_wrong_vertex_permutation(monkeypatch):
    # the Hom side must go through vertex labels: swapping two vertices in
    # the permutation breaks the square
    import stablekneser.graphs as graphs_module
    real = graphs_module.vertex_permutation

    def swapped(g, elem):
        perm = real(g, elem)
        perm[0], perm[1] = perm[1], perm[0]
        return perm

    monkeypatch.setattr(graphs_module, "vertex_permutation", swapped)
    for n, k in [(2, 1), (1, 3), (2, 2)]:
        report = check_equivariance_combinatorial(n, k)
        assert {name for _, name in report["violations"]} == {"sigma", "rho"}, (n, k)


def test_covector_cells_are_all_hom_cells_for_n_1():
    # C^{k+2,k+1} -> Hom(K_2, SG_{1,k}) is a bijection onto the cells
    for k in range(6):
        cells = covector_cells(1, k)
        assert len(cells) == count_covectors(k + 2, k)
        hom = {c for cs in hom_cells(k2(), stable_kneser_graph(1, k)).values()
               for c in cs}
        assert set(cells.values()) == hom, k
        assert len(hom) == len(cells), k


def test_negation_matches_swap():
    for s in enumerate_covectors(5, 1):
        a, b = covector_to_hom(s, 2, 1)
        assert covector_to_hom(negate(s), 2, 1) == (b, a)


def _act_on_cell(cell, target, elem):
    perm = vertex_permutation(target, elem)
    return tuple(permute_mask(mask, perm) for mask in cell)


def test_multihom_dihedral_act_is_action():
    # acting by sigma, then by rho, is acting by sigma * rho
    target = stable_kneser_graph(2, 1)
    sigma = DihedralElement.sigma(5)
    rho = DihedralElement.rho(5)
    cell = covector_to_hom(P("++++0"), 2, 1)
    via_sr = _act_on_cell(_act_on_cell(cell, target, sigma), target, rho)
    assert via_sr == _act_on_cell(cell, target, sigma * rho)
    assert via_sr != cell


@functools.lru_cache(maxsize=None)
def _covectors(m, k):
    return enumerate_covectors(m, k)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_covector_to_hom_is_equivariant_on_side_sets(data):
    # sign vectors and Hom cells under one dihedral element and under negation
    m = data.draw(st.integers(2, 10), label="m")
    n = data.draw(st.integers(1, m // 2), label="n")
    k = m - 2 * n
    s = data.draw(st.sampled_from(_covectors(m, k)), label="s")
    g = DihedralElement(m, data.draw(st.integers(0, m - 1)), data.draw(st.booleans()))
    perm = vertex_permutation(stable_kneser_graph(n, k), g)
    a, b = covector_to_hom(s, n, k)
    assert covector_to_hom(dihedral_act_sign(s, g), n, k) == \
        (permute_mask(a, perm), permute_mask(b, perm))
    assert covector_to_hom(negate(s), n, k) == (b, a)


def test_verify_nerve():
    assert verify_nerve(2, 1)
    assert verify_nerve(2, 2)
    with pytest.raises(ValueError):
        verify_nerve(4, 2)  # 25 vertices; needs max_set_size
    assert verify_nerve(4, 2, max_set_size=1)


def test_poset_rejects_bad_order():
    with pytest.raises(ValueError):
        FinitePoset([0, 1], lambda a, b: True)  # not antisymmetric
