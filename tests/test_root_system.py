from collections import Counter
from fractions import Fraction

import pytest

from canstrip.hilbert import hilbert_gp
from canstrip.root_system import (
    RootSystem,
    SimpleType,
    all_simple_types,
    build_root_system,
    canonicalize,
    extremal_roots,
    index_formulas,
    mark,
    marked,
    rho_pair,
)

from oracles import (
    fraction_inverse_column,
    fraction_marked_lengths,
    fraction_rho_pair,
    reflection_closure,
)

# closure-generated G2 roots against the textbook table
G2_POSITIVE_ROOTS = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


class TestGeneration:
    def test_closure_is_the_weyl_orbit_of_the_simple_roots(self):
        """Every type up to rank 10: the string closure gives the reflection
        orbit in the stored (height, lex) order, and each cached rho numerator,
        over a mark's denominator, is (rho, a) for that mark."""
        for t in all_simple_types(10):
            rs = build_root_system(t)
            assert list(rs.positive_roots) == reflection_closure(rs.cartan), t.name
            for i in range(t.rank):
                d = fraction_marked_lengths(rs.cartan, i)
                den = mark(rs, i + 1).d_den
                for a, key in zip(rs.positive_roots, rs.rho_numerators):
                    assert Fraction(key, den) == fraction_rho_pair(d, a), (t.name, i, a)

    def test_a2_by_hand(self):
        rs = build_root_system(SimpleType("A", 2))
        assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}

    def test_e6_count(self):
        assert len(build_root_system(SimpleType("E", 6)).positive_roots) == 36

    def test_g2_table(self):
        rs = build_root_system(SimpleType("G", 2))
        assert set(rs.positive_roots) == G2_POSITIVE_ROOTS
        assert rs.symmetrizer == (Fraction(1), Fraction(3))

    def test_counts_all_types(self):
        expected = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
                    "C": lambda n: n * n, "D": lambda n: n * (n - 1),
                    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
                    "F": lambda n: 24, "G": lambda n: 6}
        for t in all_simple_types(8):
            rs = build_root_system(t)
            assert len(rs.positive_roots) == expected[t.series](t.rank), t.name

    def test_symmetrizer_symmetrizes(self):
        for t in all_simple_types(6):
            rs = build_root_system(t)
            n = t.rank
            for i in range(n):
                for j in range(n):
                    assert rs.symmetrizer[i] * rs.cartan[i][j] == rs.symmetrizer[j] * rs.cartan[j][i]

    def test_invalid_types(self):
        for series, rank in [("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9),
                             ("F", 3), ("G", 3), ("A", 0), ("H", 2)]:
            with pytest.raises(ValueError):
                SimpleType(*canonicalize(series, rank)[:2])


class TestAliases:
    def test_c2_is_b2_with_swapped_nodes(self):
        for node in (1, 2):
            a = marked("C", 2, node)
            b = marked("B", 2, 3 - node)
            assert (a.index, a.lmax, a.dim) == (b.index, b.lmax, b.dim)
            assert a.rs.simple_type.name == "B2"

    def test_d3_is_a3(self):
        pairs = {1: 2, 2: 1, 3: 3}
        for node, image in pairs.items():
            a = marked("D", 3, node)
            b = marked("A", 3, image)
            assert (a.index, a.lmax, a.dim) == (b.index, b.lmax, b.dim)

    def test_alias_node_out_of_range(self):
        with pytest.raises(ValueError):
            canonicalize("C", 2, 3)


class TestMark:
    def test_projective_3_space(self):
        ms = marked("A", 3, 1)
        assert (ms.index, ms.lmax, ms.dim) == (4, 1, 3)

    def test_e6_triple_node(self):
        ms = marked("E", 6, 4)
        assert (ms.index, ms.lmax, ms.dim) == (7, 3, 29)

    def test_b3_node2_frozen(self):
        # brute-forced from the generated B3 roots and rescaled symmetrizer
        ms = marked("B", 3, 2)
        assert (ms.index, ms.lmax, ms.dim) == (4, 2, 7)
        assert ms.d == (Fraction(1), Fraction(1), Fraction(1, 2))
        level1 = sorted(rho_pair(ms, a) for a in ms.levels[1])
        assert level1 == [1, Fraction(3, 2), 2, 2, Fraction(5, 2), 3]

    def test_cache_hit_hashes_the_type_not_the_root_system(self, monkeypatch):
        # a hit hashes (SimpleType, node); hashing E8's whole RootSystem by
        # value cost more than the rest of the hit
        ms = marked("E", 8, 4)
        hashed = []
        by_value = RootSystem.__hash__
        monkeypatch.setattr(RootSystem, "__hash__", lambda rs: hashed.append(rs) or by_value(rs))
        hits = mark.cache_info().hits
        assert marked("E", 8, 4) is ms and mark(ms.rs, 4) is ms
        assert hashed == [] and mark.cache_info().hits == hits + 2
        assert hash(ms.rs) == by_value(ms.rs) and hashed == [ms.rs]

    def test_node_out_of_range(self):
        with pytest.raises(ValueError):
            marked("E", 6, 9)
        with pytest.raises(ValueError):
            mark(build_root_system(SimpleType("A", 3)), 0)

    def test_omega0_pairs_as_delta(self):
        for t in all_simple_types(5):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                ms = mark(rs, node)
                for j in range(t.rank):
                    pairing = sum(
                        Fraction(rs.cartan[j][k]) * ms.omega0[k] for k in range(t.rank)
                    )
                    assert pairing == (1 if j == node - 1 else 0)

    def test_levels_partition_dim(self):
        for t in all_simple_types(6):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                ms = mark(rs, node)
                assert sorted(ms.levels) == list(range(1, ms.lmax + 1))
                assert sum(len(v) for v in ms.levels.values()) == ms.dim
                assert ms.lmax == rs.highest_root[node - 1]


class TestRhoPair:
    def test_e6_highest_root(self):
        ms = marked("E", 6, 4)
        assert rho_pair(ms, ms.rs.highest_root) == 11

    def test_marked_root_is_one(self):
        for name, rank, node in [("A", 5, 3), ("B", 4, 2), ("G", 2, 1), ("F", 4, 4)]:
            ms = marked(name, rank, node)
            alpha0 = tuple(int(i == node - 1) for i in range(rank))
            assert rho_pair(ms, alpha0) == 1

    def test_g2_markings(self):
        short = marked("G", 2, 1)
        assert short.d == (Fraction(1), Fraction(3))
        assert rho_pair(short, (0, 1)) == 3
        long = marked("G", 2, 2)
        assert long.d == (Fraction(1, 3), Fraction(1))
        assert rho_pair(long, (1, 0)) == Fraction(1, 3)

    def test_simply_laced_height(self):
        ms = marked("D", 5, 2)
        for a in ms.rs.positive_roots:
            assert rho_pair(ms, a) == sum(a)

    def test_not_a_root(self):
        ms = marked("A", 2, 1)
        with pytest.raises(ValueError):
            rho_pair(ms, (2, 0))


class TestExtremalRoots:
    def test_e6_levels(self):
        ms = marked("E", 6, 4)
        for level, (blo, bhi) in {1: (1, 6), 2: (5, 9), 3: (10, 11)}.items():
            beta, gamma = extremal_roots(ms, level)
            assert rho_pair(ms, beta) == blo
            assert rho_pair(ms, gamma) == bhi

    def test_projective_space_chain(self):
        for n in range(1, 7):
            ms = marked("A", n, 1)
            beta, gamma = extremal_roots(ms, 1)
            assert rho_pair(ms, beta) == 1 and beta == tuple(int(i == 0) for i in range(n))
            assert rho_pair(ms, gamma) == n and gamma == (1,) * n

    def test_sum_rule_everywhere(self):
        for t in all_simple_types(5):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                ms = mark(rs, node)
                for level in range(1, ms.lmax + 1):
                    beta, gamma = extremal_roots(ms, level)
                    assert rho_pair(ms, beta) + rho_pair(ms, gamma) == ms.index * level

    def test_empty_level_rejected(self):
        ms = marked("A", 3, 1)
        with pytest.raises(ValueError):
            extremal_roots(ms, 2)


class TestIndex:
    def test_projective_spaces(self):
        for n in range(1, 9):
            assert marked("A", n, 1).index == n + 1

    def test_e6_node4(self):
        assert marked("E", 6, 4).index == 7

    def test_spinor_variety_both_formulas(self):
        # recomputed from raw root data, independently of mark()
        ms = marked("D", 5, 5)
        assert ms.index == 8
        i = ms.node - 1
        total = sum(a[i] for a in ms.rs.positive_roots)
        assert Fraction(total) / ms.omega0[i] == 8
        two_rho_x = [sum(a[j] for a in ms.rs.positive_roots if a[i] > 0) for j in range(5)]
        assert all(Fraction(two_rho_x[j]) == 8 * ms.omega0[j] for j in range(5))

    def test_non_proportional_level_sum_rejected(self):
        ms = marked("A", 3, 2)
        broken = ms._replace(levels={1: tuple(a for a in ms.levels[1] if a != (1, 1, 0))})
        with pytest.raises(AssertionError, match="not proportional"):
            index_formulas(broken)

    def test_formulas_agree_everywhere(self):
        for t in all_simple_types(6):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                ms = mark(rs, node)
                a, b = index_formulas(ms)
                assert a == b == ms.index


class TestCominuscule:
    def test_dimension_relation(self):
        seen = 0
        for t in all_simple_types(8):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                ms = mark(rs, node)
                if ms.cominuscule:
                    seen += 1
                    assert ms.dim == ms.omega0_norm * ms.index, ms.description
        assert seen > 20

    def test_index_vs_coxeter_number(self):
        # the marked-root-plus-highest-root mechanism gives iota = 1 + (rho, theta),
        # which equals the Coxeter number exactly in the simply-laced case
        for t in all_simple_types(8):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                ms = mark(rs, node)
                if not ms.cominuscule:
                    continue
                assert ms.index == 1 + rho_pair(ms, rs.highest_root)
                if all(d == 1 for d in ms.d):
                    assert ms.index == ms.coxeter_number, ms.description


class TestIntegerMarking:
    def test_cartan_inverse_is_adjugate_over_determinant(self):
        for t in all_simple_types(10):
            rs = build_root_system(t)
            det, adj = rs.cartan_inverse
            e = {6: 3, 7: 2, 8: 1}.get(t.rank)
            want = {"A": t.rank + 1, "B": 2, "C": 2, "D": 4, "E": e, "F": 1, "G": 1}[t.series]
            assert det == want, t.name
            for i in range(t.rank):
                for j in range(t.rank):
                    entry = sum(rs.cartan[i][k] * adj[k][j] for k in range(t.rank))
                    assert entry == (det if i == j else 0), t.name

    def test_every_mark_against_the_fraction_oracles(self):
        """d, omega_0, (omega_0, omega_0), the index, the level order and the
        G/P level tables of every mark of rank <= 8, recomputed over Fraction."""
        count = 0
        for t in all_simple_types(8):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                ms = mark(rs, node)
                i = node - 1
                d = fraction_marked_lengths(rs.cartan, i)
                omega0 = fraction_inverse_column(rs.cartan, i)
                assert ms.d == tuple(d) and all(isinstance(v, Fraction) for v in ms.d)
                assert ms.omega0 == tuple(omega0) and ms.omega0_norm == omega0[i]
                index = Fraction(sum(a[i] for a in rs.positive_roots)) / omega0[i]
                assert ms.index == index, ms.description
                tables = {t.level: t.exponents for t in hilbert_gp(ms).levels}
                assert sorted(tables) == sorted(ms.levels)
                for level, roots in ms.levels.items():
                    at_level = [a for a in rs.positive_roots if a[i] == level]
                    pairs = {a: fraction_rho_pair(d, a) for a in at_level}
                    assert roots == tuple(sorted(at_level, key=lambda a: (pairs[a], a)))
                    assert all(rho_pair(ms, a) == pairs[a] for a in roots)
                    assert tables[level] == Counter(pairs.values()), ms.description
                count += 1
        assert count == 161
