from collections import Counter
from fractions import Fraction

import pytest

import canstrip.root_system
from canstrip.cli import main
from canstrip.hilbert import hilbert_gp
from canstrip.ratpoly import ConsistencyError
from canstrip.root_system import (
    MarkedSystem,
    RootSystem,
    SimpleType,
    _symmetrizer,
    all_simple_types,
    build_root_system,
    canonicalize,
    extremal_roots,
    mark,
    marked,
)

from oracles import (
    fraction_index,
    fraction_inverse_column,
    fraction_marked_lengths,
    fraction_rho_pair,
    fraction_symmetrizer,
    reflection_closure,
    string_closure,
)


def rho(ms, a):
    """(rho, a) as the pipeline reads it, a's rho-numerator over the mark's
    denominator, checked against the Fraction oracle on the way."""
    value = Fraction(ms.rs.rho_numerators[ms.rs.positive_roots.index(a)], ms.d_den)
    assert value == fraction_rho_pair(fraction_marked_lengths(ms.rs.cartan, ms.node - 1), a)
    return value


def omega0(ms):
    """omega_0 over the simple roots, by the Fraction oracle."""
    return fraction_inverse_column(ms.rs.cartan, ms.node - 1)


# closure-generated G2 roots against the textbook table
G2_POSITIVE_ROOTS = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


class TestGeneration:
    def test_closure_is_the_weyl_orbit_of_the_simple_roots(self):
        """Every type up to rank 10, and A20, B20, C20 and D20: the raising
        closure gives the root-string closure and the reflection orbit, in the
        stored (height, lex) order; and up to rank 10 each cached rho
        numerator, over a mark's denominator, is (rho, a) for that mark."""
        for t in all_simple_types(10) + [SimpleType(s, 20) for s in "ABCD"]:
            rs = build_root_system(t)
            assert list(rs.positive_roots) == string_closure(rs.cartan), t.name
            assert list(rs.positive_roots) == reflection_closure(rs.cartan), t.name
            if t.rank > 10:
                continue
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
        assert rs.d_num == (1, 3)

    def test_counts_all_types(self):
        expected = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
                    "C": lambda n: n * n, "D": lambda n: n * (n - 1),
                    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
                    "F": lambda n: 24, "G": lambda n: 6}
        for t in all_simple_types(8):
            rs = build_root_system(t)
            assert len(rs.positive_roots) == expected[t.series](t.rank), t.name

    def test_counts_are_rank_times_coxeter_number_over_two(self):
        # h = 1 + height of the highest root
        for t in all_simple_types(10):
            rs = build_root_system(t)
            h = sum(rs.highest_root) + 1
            assert len(rs.positive_roots) == t.rank * h // 2, t.name

    @pytest.mark.parametrize("name, cartan", [
        ("A3", ((2, -1, 0), (-1, 2, -1), (0, -1, 2))),
        ("B3", ((2, -1, 0), (-1, 2, -1), (0, -2, 2))),
        ("C3", ((2, -1, 0), (-1, 2, -2), (0, -1, 2))),
        ("D5", ((2, -1, 0, 0, 0), (-1, 2, -1, 0, 0), (0, -1, 2, -1, -1),
                (0, 0, -1, 2, 0), (0, 0, -1, 0, 2))),
        ("E6", ((2, 0, -1, 0, 0, 0), (0, 2, 0, -1, 0, 0), (-1, 0, 2, -1, 0, 0),
                (0, -1, -1, 2, -1, 0), (0, 0, 0, -1, 2, -1), (0, 0, 0, 0, -1, 2))),
        ("F4", ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))),
        ("G2", ((2, -3), (-1, 2))),
    ])
    def test_cartan_matrix_by_hand(self, name, cartan):
        # C[i][j] = 2(a_i, a_j)/(a_i, a_i) in Bourbaki numbering, written out
        # from the root lengths: a_n short in B, long in C, a_3 and a_4 short
        # in F4, a_1 short in G2
        assert build_root_system(SimpleType(name[0], int(name[1:]))).cartan == cartan

    def test_symmetrizer_symmetrizes(self):
        for t in all_simple_types(6):
            rs = build_root_system(t)
            n = t.rank
            for i in range(n):
                for j in range(n):
                    assert rs.d_num[i] * rs.cartan[i][j] == rs.d_num[j] * rs.cartan[j][i]
        # A1 x A1: the spread from node 1 never reaches node 2
        with pytest.raises(ConsistencyError, match="not connected"):
            _symmetrizer(((2, 0), (0, 2)))

    def test_invalid_types(self):
        # each message names the ranks its series allows, and C1 and D2 the
        # alias below that range; every classical series stops at rank 128
        for series, rank, allowed in [("B", 1, "2 to 128"), ("C", 1, "3 to 128 (C2 is read as B2)"),
                                      ("D", 2, "4 to 128 (D3 is read as A3)"),
                                      ("E", 5, "6 to 8"), ("E", 9, "6 to 8"), ("F", 3, "4"),
                                      ("F", 5, "4"), ("G", 3, "2"), ("A", 0, "1 to 128"),
                                      ("A", 129, "1 to 128"), ("B", 129, "2 to 128"),
                                      ("C", 129, "3 to 128 (C2 is read as B2)"),
                                      ("D", 129, "4 to 128 (D3 is read as A3)")]:
            message = f"invalid type {series}{rank}: rank must be {allowed}"
            with pytest.raises(ValueError) as exc:
                SimpleType(*canonicalize(series, rank)[:2])
            assert str(exc.value) == message
        with pytest.raises(ValueError, match="unknown series 'H'"):
            SimpleType(*canonicalize("H", 2)[:2])
        for series in "ABCD":
            assert SimpleType(series, 128).name == f"{series}128"

    def test_a_huge_rank_is_refused_before_any_matrix(self, monkeypatch, capsys):
        # at rank 30000 the Cartan matrix alone would take gigabytes: the
        # type is refused first, in the library and by every G/P command
        def no_matrix(t):
            raise AssertionError(f"built the Cartan matrix of {t.name}")

        monkeypatch.setattr(canstrip.root_system, "_cartan_matrix", no_matrix)
        message = "invalid type A30000: rank must be 1 to 128"
        with pytest.raises(ValueError) as exc:
            marked("A", 30000, 1)
        assert str(exc.value) == message
        for command in (("gp",), ("ci", "--degrees", "1"), ("cover", "--degree", "1")):
            code = main([command[0], "--type", "A30000", "--node", "1", *command[1:]])
            assert (code, capsys.readouterr()) == (2, ("", f"error: {message}\n"))


class TestAliases:
    def test_c2_is_b2_with_swapped_nodes(self):
        for node in (1, 2):
            a = marked("C", 2, node)
            b = marked("B", 2, 3 - node)
            assert (a.index, max(a.levels), a.dim) == (b.index, max(b.levels), b.dim)
            assert a.rs.simple_type.name == "B2"

    def test_d3_is_a3(self):
        pairs = {1: 2, 2: 1, 3: 3}
        for node, image in pairs.items():
            a = marked("D", 3, node)
            b = marked("A", 3, image)
            assert (a.index, max(a.levels), a.dim) == (b.index, max(b.levels), b.dim)

    def test_alias_node_out_of_range(self):
        with pytest.raises(ValueError):
            canonicalize("C", 2, 3)


class TestMark:
    def test_projective_3_space(self):
        ms = marked("A", 3, 1)
        assert (ms.index, max(ms.levels), ms.dim) == (4, 1, 3)

    def test_e6_triple_node(self):
        ms = marked("E", 6, 4)
        assert (ms.index, max(ms.levels), ms.dim) == (7, 3, 29)

    def test_b3_node2_frozen(self):
        # brute-forced from the generated B3 roots and rescaled symmetrizer
        ms = marked("B", 3, 2)
        assert (ms.index, max(ms.levels), ms.dim) == (4, 2, 7)
        assert (ms.d_num, ms.d_den) == ((2, 2, 1), 2)
        level1 = sorted(rho(ms, a) for a in ms.levels[1])
        assert level1 == [Fraction(k, ms.d_den) for k in ms.pairings[1]]
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
                column = omega0(mark(rs, node))
                for j in range(t.rank):
                    pairing = sum(Fraction(rs.cartan[j][k]) * column[k] for k in range(t.rank))
                    assert pairing == (1 if j == node - 1 else 0)

    def test_levels_partition_dim(self):
        for t in all_simple_types(6):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                ms = mark(rs, node)
                assert sorted(ms.levels) == list(range(1, max(ms.levels) + 1))
                assert sum(len(v) for v in ms.levels.values()) == ms.dim
                assert max(ms.levels) == rs.highest_root[node - 1]


class TestRhoPair:
    def test_e6_highest_root(self):
        ms = marked("E", 6, 4)
        assert rho(ms, ms.rs.highest_root) == 11

    def test_marked_root_is_one(self):
        for name, rank, node in [("A", 5, 3), ("B", 4, 2), ("G", 2, 1), ("F", 4, 4)]:
            ms = marked(name, rank, node)
            alpha0 = tuple(int(i == node - 1) for i in range(rank))
            assert rho(ms, alpha0) == 1

    def test_g2_markings(self):
        short = marked("G", 2, 1)
        assert (short.d_num, short.d_den) == ((1, 3), 1)
        assert rho(short, (0, 1)) == 3
        long = marked("G", 2, 2)
        assert (long.d_num, long.d_den) == ((1, 3), 3)
        assert rho(long, (1, 0)) == Fraction(1, 3)

    def test_simply_laced_height(self):
        ms = marked("D", 5, 2)
        for a in ms.rs.positive_roots:
            assert rho(ms, a) == sum(a)


class TestExtremalRoots:
    def test_e6_levels(self):
        ms = marked("E", 6, 4)
        for level, (blo, bhi) in {1: (1, 6), 2: (5, 9), 3: (10, 11)}.items():
            beta, gamma = extremal_roots(ms, level)
            assert rho(ms, beta) == blo
            assert rho(ms, gamma) == bhi

    def test_projective_space_chain(self):
        for n in range(1, 7):
            ms = marked("A", n, 1)
            beta, gamma = extremal_roots(ms, 1)
            assert rho(ms, beta) == 1 and beta == tuple(int(i == 0) for i in range(n))
            assert rho(ms, gamma) == n and gamma == (1,) * n

    def test_sum_rule_everywhere(self):
        for t in all_simple_types(5):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                ms = mark(rs, node)
                for level in range(1, max(ms.levels) + 1):
                    beta, gamma = extremal_roots(ms, level)
                    assert rho(ms, beta) + rho(ms, gamma) == ms.index * level

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
        total, column = sum(a[i] for a in ms.rs.positive_roots), omega0(ms)
        assert Fraction(total) / column[i] == 8
        two_rho_x = [sum(a[j] for a in ms.rs.positive_roots if a[i] > 0) for j in range(5)]
        assert all(Fraction(two_rho_x[j]) == 8 * column[j] for j in range(5))

    def test_non_proportional_level_sum_rejected(self, monkeypatch):
        # A3 without the root (1, 1, 0): node 2 keeps its one level, but the
        # level's roots no longer sum to a multiple of omega_0
        rs = build_root_system(SimpleType("A", 3))
        broken = RootSystem(rs.simple_type, rs.cartan, rs.d_num,
                            tuple(a for a in rs.positive_roots if a != (1, 1, 0)))
        monkeypatch.setattr(canstrip.root_system, "build_root_system", lambda t: broken)
        mark.cache_clear()
        try:
            with pytest.raises(ConsistencyError, match="A3/P2: the sum of positive-level roots is not "
                                                       "proportional to omega_0"):
                mark(rs, 2)
        finally:
            mark.cache_clear()

    def test_non_positive_index_rejected(self, monkeypatch):
        # A1 with its Cartan entry negated: the one level sums to omega_0's
        # multiple -2, which no G/P has as its index
        rs = build_root_system(SimpleType("A", 1))
        broken = RootSystem(rs.simple_type, ((-2,),), rs.d_num, rs.positive_roots)
        monkeypatch.setattr(canstrip.root_system, "build_root_system", lambda t: broken)
        mark.cache_clear()
        try:
            with pytest.raises(ConsistencyError, match="A1/P1: the index -2 is not positive"):
                mark(rs, 1)
        finally:
            mark.cache_clear()

    def test_formulas_agree_everywhere(self):
        """The marked entry of C 2 rho_X against the Remark's
        (2 rho, omega_0) / (omega_0, omega_0) over Fraction, and the integer
        symmetrizer against the Fraction spread, on every mark of rank <= 10."""
        count = 0
        for t in all_simple_types(10):
            rs = build_root_system(t)
            assert rs.d_num == fraction_symmetrizer(rs.cartan), t.name
            for node in range(1, t.rank + 1):
                ms = mark(rs, node)
                assert ms.index == fraction_index(rs.cartan, rs.positive_roots, node - 1), ms.description
                count += 1
        assert count == 237

    def test_marking_builds_no_fraction(self, monkeypatch):
        """Every mark of rank <= 10, from cleared caches, with `Fraction` a
        stub that raises: the success path runs on integers only."""
        def no_fraction(*args):
            raise AssertionError(f"Fraction{args} built while marking")

        build_root_system.cache_clear()
        mark.cache_clear()
        monkeypatch.setattr(canstrip.root_system, "Fraction", no_fraction)
        try:
            for t in all_simple_types(10):
                rs = build_root_system(t)
                for node in range(1, t.rank + 1):
                    assert isinstance(mark(rs, node), MarkedSystem)
        finally:
            build_root_system.cache_clear()
            mark.cache_clear()


class TestCominuscule:
    def test_dimension_relation(self):
        seen = 0
        for t in all_simple_types(8):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                ms = mark(rs, node)
                if max(ms.levels) == 1:
                    seen += 1
                    assert ms.dim == omega0(ms)[node - 1] * ms.index, ms.description
        assert seen > 20

    def test_index_vs_coxeter_number(self):
        # the marked-root-plus-highest-root mechanism gives iota = 1 + (rho, theta),
        # which equals the Coxeter number exactly in the simply-laced case
        for t in all_simple_types(8):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                ms = mark(rs, node)
                if max(ms.levels) != 1:
                    continue
                assert ms.index == 1 + rho(ms, rs.highest_root)
                if set(ms.d_num) == {ms.d_den}:  # every d_j is 1
                    assert ms.index == sum(rs.highest_root) + 1, ms.description


class TestIntegerMarking:
    def test_every_mark_against_the_fraction_oracles(self):
        """d, omega_0, (omega_0, omega_0), the index, the level order, the
        pairings and the G/P level tables of every mark of rank <= 8,
        recomputed over Fraction and compared with the integer fields."""
        count = 0
        for t in all_simple_types(8):
            rs = build_root_system(t)
            for node in range(1, t.rank + 1):
                ms = mark(rs, node)
                i = node - 1
                d = fraction_marked_lengths(rs.cartan, i)
                assert [Fraction(v, ms.d_den) for v in ms.d_num] == d and ms.d_num[i] == ms.d_den
                column = omega0(ms)  # its marked entry is (omega_0, omega_0)
                index = Fraction(sum(a[i] for a in rs.positive_roots)) / column[i]
                assert ms.index == index, ms.description
                tables = {t.level: t.exponents for t in hilbert_gp(ms).levels}
                assert sorted(tables) == sorted(ms.levels)
                for level, roots in ms.levels.items():
                    at_level = [a for a in rs.positive_roots if a[i] == level]
                    pairs = {a: fraction_rho_pair(d, a) for a in at_level}
                    assert roots == tuple(sorted(at_level, key=lambda a: (pairs[a], a)))
                    keys = [Fraction(k, ms.d_den) for k in ms.pairings[level]]
                    assert keys == [pairs[a] for a in roots]
                    assert tables[level] == Counter(pairs.values()), ms.description
                count += 1
        assert count == 161
