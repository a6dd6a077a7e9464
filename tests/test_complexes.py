import functools
import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stablekneser.complexes import (FinitePoset, SimplicialComplex, _cell_faces, _in_sorted,
                                    check_equivariance_combinatorial,
                                    covector_cells, covector_to_hom,
                                    gf2_pivots,
                                    gf2_rank_sparse, hom_betti,
                                    hom_cells, hom_poset,
                                    neighbourhood_complex, order_complex,
                                    verify_nerve, z2_betti)
from stablekneser.graphs import (DihedralElement, Graph, complete_graph,
                                 graph_from_edges, k2, permute_mask,
                                 stable_kneser_graph, vertex_permutation)
from stablekneser.matroid import (count_covectors, covector_leq,
                                  dihedral_act_sign, enumerate_cocircuits,
                                  enumerate_covectors, parse_sign_vector,
                                  side_masks)
from oracles import (boundary_squared_is_zero, cellular_betti_without_clearing,
                     cycle_graph, dihedral_sign_reference, equivariance_reference,
                     euler_characteristic_consistent, hom_cells_by_growing,
                     hom_cells_by_product_filter, homomorphisms, mask_of,
                     members, negate,
                     one_vertex_looped, poset_covers_and_minima,
                     tuple_cell_faces, up_sets_by_predicate,
                     z2_betti_by_frozensets)

P = parse_sign_vector


def contained(a, b):
    """The order on packed Hom cells."""
    return a & ~b == 0


def pack(masks, width):
    """The packed cell with masks[u] in the width-bit field of source vertex u."""
    return sum(a << u * width for u, a in enumerate(masks))


def unpack(cell, width, fields):
    """The target masks of a packed cell, one per source vertex."""
    return tuple(cell >> u * width & (1 << width) - 1 for u in range(fields))


def member_tuples(cell, width, fields):
    return tuple(tuple(t for t in range(width) if a >> t & 1)
                 for a in unpack(cell, width, fields))


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_packed_faces_and_order_match_the_tuple_cells(data):
    fields = data.draw(st.integers(1, 4), label="fields")
    width = data.draw(st.integers(1, 8), label="width")
    masks = st.lists(st.integers(0, (1 << width) - 1), min_size=fields, max_size=fields)
    a = [x or 1 for x in data.draw(masks, label="a")]
    add, drop = data.draw(masks, label="add"), data.draw(masks, label="drop")
    b = [(x | y) & ~z or x for x, y, z in zip(a, add, drop)]
    assert sorted(_cell_faces(pack(a, width), width)) == \
        sorted(pack(f, width) for f in tuple_cell_faces(tuple(a)))
    assert contained(pack(a, width), pack(b, width)) == \
        all(x & ~y == 0 for x, y in zip(a, b))


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
        atoms = [unpack(c, h.n, 2) for c in hom_cells(k2(), h)[0]]
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
    # the empty map is the one cell of Hom from and to the empty graph
    empty = graph_from_edges(0, [])
    assert hom_poset(empty, empty).elements == [0]
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
        got = {member_tuples(c, hn, gn) for c in hom_poset(g, h).elements}
        assert got == brute


def test_hom_cell_counts_and_dimensions():
    for n, k, count in [(1, 4, 602), (2, 3, 4984), (3, 3, 60888), (2, 4, 129666)]:
        h = stable_kneser_graph(n, k)
        cells = hom_cells(k2(), h)
        assert sum(len(cs) for cs in cells.values()) == count, (n, k)
        for d, cs in cells.items():
            for c in cs:
                a, b = unpack(c, h.n, 2)
                # two nonempty fields and no bit past them
                assert a and b and c >> 2 * h.n == 0, (n, k, c)
                assert a.bit_count() + b.bit_count() - 2 == d
    # Hom(1, H): nonempty looped cliques, one simplex per clique
    h = graph_from_edges(4, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2), (2, 3)])
    cells = hom_cells(one_vertex_looped(), h)
    assert {d: sorted(cs) for d, cs in cells.items()} == \
        {0: [1, 2, 4], 1: [3, 5, 6], 2: [7]}


def test_hom_betti_spheres_beyond_the_order_complex():
    assert hom_betti(k2(), stable_kneser_graph(2, 3)) == (1, 0, 0, 1)
    assert hom_betti(k2(), stable_kneser_graph(3, 3)) == (1, 0, 0, 1)
    for s in range(2, 7):
        # Hom(K_2, K_s) is a (s - 2)-sphere
        assert hom_betti(k2(), complete_graph(s)) == \
            ((2,) if s == 2 else (1,) + (0,) * (s - 3) + (1,))
    assert hom_betti(k2(), graph_from_edges(3, [])) == ()


@st.composite
def small_graphs(draw, max_n, loops=True):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i if loops else i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [p for p, b in zip(pairs, keep) if b])


@settings(deadline=None, max_examples=80)
@given(small_graphs(3), small_graphs(5))
def test_hom_betti_matches_order_complex(g, h):
    cells = hom_cells(g, h)
    got = {c: d for d, cs in cells.items() for c in cs}
    assert sum(map(len, cells.values())) == len(got)
    assert got == {pack([sum(1 << t for t in s) for s in cell], h.n): d for cell, d
                   in hom_cells_by_product_filter(g.adjacency, h.adjacency).items()}
    assume(sum(len(cs) for cs in cells.values()) <= 150 and max(cells, default=0) <= 4)
    p = hom_poset(g, h)
    assert p.above == up_sets_by_predicate(p.elements, contained)
    assert (p.covers(), p.atoms()) == poset_covers_and_minima(p.n, p.leq)
    assert hom_betti(g, h) == z2_betti(order_complex(p))


EMPTY = graph_from_edges(0, [])
LOOPED_LAST = graph_from_edges(3, [(0, 1), (1, 2), (2, 2)])


def by_dimension_as_sets(cells):
    return {d: set(cs) for d, cs in cells.items()}


@settings(deadline=None, max_examples=150)
@given(small_graphs(4), small_graphs(4))
@example(EMPTY, complete_graph(3))
@example(EMPTY, EMPTY)
@example(LOOPED_LAST, graph_from_edges(3, [(0, 0), (1, 1), (0, 1), (1, 2)]))
@example(graph_from_edges(2, [(1, 1)]), graph_from_edges(3, [(0, 0), (1, 1), (0, 1)]))
def test_hom_cells_match_the_growing_enumeration(g, h):
    try:
        want = hom_cells_by_growing(g, h, max_cells=20000)
    except ValueError:
        assume(False)
    got = hom_cells(g, h)
    assert all(len(cs) == len(set(cs)) for cs in got.values())
    assert by_dimension_as_sets(got) == by_dimension_as_sets(want)


@pytest.mark.parametrize("g, h", [(k2(), stable_kneser_graph(2, 2)),
                                  (k2(), stable_kneser_graph(1, 4)),
                                  (complete_graph(4), complete_graph(6))],
                         ids=["K2-SG22", "K2-SG14", "K4-K6"])
def test_hom_cells_refuse_exactly_past_max_cells(g, h):
    total = sum(map(len, hom_cells_by_growing(g, h).values()))
    assert sum(map(len, hom_cells(g, h, max_cells=total).values())) == total
    with pytest.raises(ValueError, match=r"^refusing: more than %d cells$" % (total - 1)):
        hom_cells(g, h, max_cells=total - 1)


@settings(deadline=None, max_examples=150)
@given(st.lists(st.integers(1, (1 << 10) - 1), min_size=1, max_size=8))
def test_clearing_keeps_the_betti_numbers_of_vertex_mask_complexes(faces):
    x = SimplicialComplex.from_faces(faces)
    width = max(map(int.bit_length, x.facets))
    assert z2_betti(x) == cellular_betti_without_clearing(x.all_faces(), width)


@settings(deadline=None, max_examples=100)
@given(st.one_of(small_graphs(7).map(lambda g: (k2(), g)),
                 small_graphs(7, loops=False).map(lambda g: (g, complete_graph(3)))))
def test_clearing_keeps_the_betti_numbers_of_hom_complexes(pair):
    g, h = pair
    try:
        cells = hom_cells_by_growing(g, h, max_cells=5000)
    except ValueError:
        assume(False)
    assert hom_betti(g, h) == cellular_betti_without_clearing(cells, h.n)


def test_neighbourhood_complexes():
    nc5 = neighbourhood_complex(cycle_graph(5))
    assert nc5.f_vector() == (5, 5)
    assert z2_betti(nc5) == (1, 1)
    nk2 = neighbourhood_complex(k2())
    assert z2_betti(nk2) == (2,)
    assert z2_betti(neighbourhood_complex(stable_kneser_graph(2, 2))) == (1, 0, 1)


def test_neighbourhood_complex_facets_are_the_maximal_adjacency_rows():
    graphs = [cycle_graph(6), k2(), stable_kneser_graph(2, 2), stable_kneser_graph(3, 1),
              graph_from_edges(4, [(0, 0), (0, 1), (1, 2), (0, 3), (3, 3)]),
              graph_from_edges(3, [])]
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 7)
        graphs.append(graph_from_edges(n, [(i, j) for i in range(n) for j in range(i, n)
                                           if rng.random() < 0.4]))
    for g in graphs:
        rows = {r for r in g.adjacency if r}
        maximal = sorted((r for r in rows if not any(r != s and r & ~s == 0 for s in rows)),
                         key=lambda r: (r.bit_count(), r))
        assert neighbourhood_complex(g).facets == tuple(maximal)


def test_order_complex_examples():
    antichain = FinitePoset(["p", "q"], up_sets_by_predicate(["p", "q"], lambda a, b: a == b))
    assert (antichain.covers(), antichain.atoms()) == \
        poset_covers_and_minima(2, lambda i, j: i == j)
    oc = order_complex(antichain)
    assert oc.facets == (0b01, 0b10)
    assert z2_betti(oc) == (2,)
    # face poset of the triangle boundary: barycentric circle
    elements = [frozenset({i}) for i in range(3)] + \
        [frozenset({i, (i + 1) % 3}) for i in range(3)]
    fp = FinitePoset(elements, up_sets_by_predicate(elements, lambda a, b: a <= b))
    assert (fp.covers(), fp.atoms()) == \
        poset_covers_and_minima(6, lambda i, j: elements[i] <= elements[j])
    oc = order_complex(fp)
    assert oc.facets == (0b001001, 0b001010, 0b010010, 0b010100, 0b100001, 0b100100)
    assert oc.f_vector() == (6, 6)
    assert z2_betti(oc) == (1, 1)
    # divisibility: the covers skip the composite steps
    divisors = [1, 2, 3, 4, 6, 12]
    div = FinitePoset(divisors, up_sets_by_predicate(divisors, lambda a, b: b % a == 0))
    assert (div.covers(), div.atoms()) == \
        poset_covers_and_minima(6, lambda i, j: divisors[j] % divisors[i] == 0)
    assert div.covers() == [[1, 2], [3, 4], [4], [5], [5], []]
    assert z2_betti(order_complex(div)) == (1,)
    assert z2_betti(order_complex(hom_poset(k2(), complete_graph(3)))) == (1, 1)


def mask(vertices):
    return sum(1 << v for v in set(vertices))


def test_from_faces_keeps_distinct_maximal_faces_in_order():
    faces = [0b1100, 0, 0b1110, 0b1000, 0b110000, 0b110000, 0b110, 0b1000000,
             0b10001, 0b1110]
    x = SimplicialComplex.from_faces(faces)
    assert x.facets == (0b1000000, 0b10001, 0b110000, 0b1110)
    assert SimplicialComplex.from_faces([0]).facets == ()
    assert SimplicialComplex.from_faces([]).facets == ()
    rng = random.Random(3)
    for _ in range(50):
        faces = [mask(rng.sample(range(6), rng.randint(0, 4)))
                 for _ in range(rng.randint(0, 12))]
        nonzero = {f for f in faces if f}
        maximal = {f for f in nonzero if not any(f != g and f & ~g == 0 for g in nonzero)}
        facets = SimplicialComplex.from_faces(faces).facets
        assert len(facets) == len(maximal) and set(facets) == maximal
        keys = [(f.bit_count(), f) for f in facets]
        assert keys == sorted(keys)


def test_all_faces_lists_sorted_submasks_and_refuses_past_max_faces():
    x = SimplicialComplex.from_faces([0b0111, 0b1100])
    assert x.all_faces() == {0: [0b0001, 0b0010, 0b0100, 0b1000],
                             1: [0b0011, 0b0101, 0b0110, 0b1100],
                             2: [0b0111]}
    assert x.f_vector() == (4, 4, 1)
    assert SimplicialComplex(()).all_faces() == {}
    assert x.all_faces(max_faces=9) == x.all_faces()
    with pytest.raises(ValueError, match="exceeds 8 faces"):
        x.all_faces(max_faces=8)


def test_simplicial_complexes_are_equal_by_facets_and_immutable():
    x = SimplicialComplex.from_faces([0b0111, 0b1100, 0b0011])
    assert x == SimplicialComplex((0b1100, 0b0111)) != SimplicialComplex((0b0111,))
    assert x != (0b1100, 0b0111)
    assert hash(x) == hash(SimplicialComplex((0b1100, 0b0111)))
    assert len({x, SimplicialComplex((0b1100, 0b0111)), SimplicialComplex(())}) == 2
    with pytest.raises(AttributeError, match="immutable"):
        x.facets = ()
    with pytest.raises(AttributeError, match="immutable"):
        del x.facets
    assert x.facets == (0b1100, 0b0111)


def test_z2_betti_basics():
    hexagon = SimplicialComplex.from_faces([mask({i, (i + 1) % 6}) for i in range(6)])
    assert hexagon.facets == (0b11, 0b110, 0b1100, 0b11000, 0b100001, 0b110000)
    assert z2_betti(hexagon) == (1, 1)
    simplex = SimplicialComplex.from_faces([0b111])
    assert simplex.facets == (0b111,)
    assert z2_betti(simplex) == (1,)
    assert z2_betti(SimplicialComplex(())) == ()
    assert z2_betti(order_complex(hom_poset(k2(), stable_kneser_graph(2, 2)))) \
        == (1, 0, 1)


def test_z2_betti_euler_and_boundary_consistency():
    complexes = [
        neighbourhood_complex(stable_kneser_graph(2, 2)),
        order_complex(hom_poset(k2(), complete_graph(4))),
        SimplicialComplex.from_faces([0b111, 0b1100, 0b1111000]),
    ]
    assert complexes[-1].facets == (0b1100, 0b111, 0b1111000)
    for x in complexes:
        keys = [(f.bit_count(), f) for f in x.facets]
        assert keys == sorted(keys)
        assert boundary_squared_is_zero(x)
        assert euler_characteristic_consistent(x.f_vector(), z2_betti(x))
    # an edge listed without its vertex 0b10 is not a complex
    assert not boundary_squared_is_zero(SimpleNamespace(all_faces=lambda: {0: [1], 1: [3]}))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(1, (1 << 7) - 1), max_size=8))
def test_z2_betti_matches_frozenset_boundary_oracle(faces):
    x = SimplicialComplex.from_faces(faces)
    assert z2_betti(x) == z2_betti_by_frozensets(
        [frozenset(i for i in range(7) if f >> i & 1) for f in faces])


def test_z2_betti_of_a_sphere_past_8192_columns():
    # the boundary of the 15-simplex: 16 facets of 15 vertices each, and
    # C(16, 8) = 12,870 faces in dimension 7
    x = SimplicialComplex.from_faces([0xffff & ~(1 << v) for v in range(16)])
    assert x.facets == tuple(sorted(0xffff & ~(1 << v) for v in range(16)))
    assert z2_betti(x) == (1,) + (0,) * 13 + (1,)


def test_gf2_rank():
    # rows 011, 110, 101 have rank 2 over GF(2)
    assert len(gf2_pivots([0b011, 0b110, 0b101])) == 2
    assert gf2_pivots([0, 0]) == {}
    assert gf2_rank_sparse([{0, 1}, {1, 2}, {0, 2}]) == 2
    assert len(gf2_pivots([0b1, 0b10, 0b11, 0b100])) == 3
    # each reduced row is keyed by its highest bit, rows taken in list order
    assert gf2_pivots([0b011, 0b110, 0b101]) == {1: 0b011, 2: 0b110}


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
        pivots = gf2_pivots(packed)
        assert len(pivots) == expected
        assert all(r.bit_length() - 1 == p for p, r in pivots.items())
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
    s0, s1 = side_masks(P("++++0"))
    assert members(s0) == (0, 2)
    assert members(s1) == (1, 3)


def test_covector_to_hom_cocircuit_example():
    target = stable_kneser_graph(2, 1)
    cell = covector_to_hom(P("++++0"), 2, 1, target)
    names = [{members(target.labels[i]) for i in side}
             for side in member_tuples(cell, target.n, 2)]
    assert names == [{(0, 2)}, {(1, 3)}]
    assert all(a.bit_count() == 1 for a in unpack(cell, target.n, 2))


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
            a, b = (members(target.labels[f.bit_length() - 1])
                    for f in unpack(cell, target.n, 2))
            if sorted(a + b)[::2] in (list(a), list(b)):
                interleaved.add(cell)
        image = set()
        for s in map(tuple, enumerate_cocircuits(m, k).tolist()):
            cell = covector_to_hom(s, n, k, target)
            assert all(a.bit_count() == 1 for a in unpack(cell, target.n, 2))
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


def test_check_equivariance_on_object_masks():
    # m = 33: the covector keys need 66 bits, so the masks are Python ints
    report = check_equivariance_combinatorial(16, 1)
    assert report["violations"] == []
    assert report["covectors_checked"] == count_covectors(33, 1)


def test_check_equivariance_top_rung():
    # C^{13,10}, the largest equivariance instance with m = 13 and n = 2
    report = check_equivariance_combinatorial(2, 9)
    assert report["covectors_checked"] == 1258452 == count_covectors(13, 9)
    assert report["violations"] == []


def test_check_equivariance_refuses_before_the_work(monkeypatch):
    # C^{22,21} has about 3e10 covectors; the closed-form count refuses it
    # before the target graph is built or anything is listed
    import stablekneser.complexes as complexes_module

    def unreachable(n, k):
        raise AssertionError("built SG_{%d,%d} before refusing" % (n, k))

    monkeypatch.setattr(complexes_module, "stable_kneser_graph", unreachable)
    with pytest.raises(ValueError, match=r"\(m, k\) = \(22, 20\): %d covectors"
                       % count_covectors(22, 20)):
        check_equivariance_combinatorial(1, 20)


def test_a_side_without_a_stable_set_names_the_instance(monkeypatch):
    # a target whose one vertex is the 3-set {0,1,2} of Z_5 fits inside no
    # side of a covector of C^{5,2}
    import stablekneser.complexes as complexes_module
    target = Graph((0,), (mask_of((0, 1, 2)),))
    with pytest.raises(ValueError,
                       match=r"\(n, k\) = \(2, 1\): side \{0,2\} carries no stable 2-set"):
        covector_to_hom(P("++++0"), 2, 1, target)
    monkeypatch.setattr(complexes_module, "stable_kneser_graph", lambda n, k: target)
    with pytest.raises(ValueError, match=r"\(n, k\) = \(2, 1\): side .* no stable 2-set"):
        check_equivariance_combinatorial(2, 1)


@settings(deadline=None, max_examples=60)
@given(st.sets(st.integers(-40, 40), min_size=1), st.lists(st.integers(-45, 45)),
       st.booleans(), st.booleans())
def test_in_sorted_is_membership(keys, queries, permuted, wide):
    # the key lookup of the equivariance check: its fast path (the queries
    # permute the keys), the missing values looked up again, and Python ints
    keys = sorted(keys)
    if permuted:
        queries = random.Random(len(queries)).sample(keys, len(keys))
    dtype = object if wide else np.int64
    shift = 1 << 70 if wide else 0
    got = _in_sorted(np.array([x + shift for x in keys], dtype),
                     np.array([x + shift for x in queries], dtype))
    assert got.tolist() == [x in set(keys) for x in queries]


def test_check_equivariance_on_covectors_missing_from_the_list(monkeypatch):
    # with every fifth covector dropped, some images and negations fall
    # outside the list: the check lists what the reference lists
    import stablekneser.complexes as complexes_module
    real = complexes_module.covector_sides

    def every_fifth_dropped(m, k):
        s0, s1 = real(m, k)
        kept = np.arange(len(s0)) % 5 != 0
        return s0[kept], s1[kept]

    monkeypatch.setattr(complexes_module, "covector_sides", every_fifth_dropped)
    for n, k in [(2, 1), (1, 3), (2, 2)]:
        kept = [s for i, s in enumerate(enumerate_covectors(2 * n + k, k)) if i % 5]
        report = check_equivariance_combinatorial(n, k)
        assert {name for _, name in report["violations"]} == {"sigma", "rho", "negation"}
        assert report == equivariance_reference(n, k, kept), (n, k)


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
    width = stable_kneser_graph(2, 1).n
    for s in enumerate_covectors(5, 1):
        a, b = unpack(covector_to_hom(s, 2, 1), width, 2)
        assert covector_to_hom(negate(s), 2, 1) == pack((b, a), width)


def _act_on_cell(cell, target, elem):
    perm = vertex_permutation(target, elem)
    return pack([permute_mask(mask, perm) for mask in unpack(cell, target.n, 2)], target.n)


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
    target = stable_kneser_graph(n, k)
    perm = vertex_permutation(target, g)
    a, b = unpack(covector_to_hom(s, n, k), target.n, 2)
    assert covector_to_hom(dihedral_act_sign(s, g), n, k) == \
        pack((permute_mask(a, perm), permute_mask(b, perm)), target.n)
    assert covector_to_hom(negate(s), n, k) == pack((b, a), target.n)


def test_verify_nerve():
    assert verify_nerve(2, 1)
    assert verify_nerve(2, 2)
    with pytest.raises(ValueError):
        verify_nerve(4, 2)  # 25 vertices; needs max_set_size
    assert verify_nerve(4, 2, max_set_size=1)
    for size in (0, -1):
        # an empty range of family sizes would check nothing and pass
        with pytest.raises(ValueError, match=r"\(n, k\) = \(2, 1\)"):
            verify_nerve(2, 1, max_set_size=size)
