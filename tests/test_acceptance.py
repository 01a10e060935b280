"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact arithmetic; the only tolerances that appear are the
float display thresholds of the advisory root approximations, which decide
nothing.  Run with plain `pytest`; the per-criterion lines bypass capture.
"""

import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from canstrip.cli import main as cli_main
from canstrip.hilbert import degree_of, expand, hilbert_gp
from canstrip.ratpoly import RatPoly
from canstrip.root_system import (
    all_simple_types,
    build_root_system,
    extremal_roots,
    mark,
    marked,
    rho_pair,
)
from canstrip.varieties import (
    AbelianSpec,
    abelian_ci,
    complete_intersection,
    double_cover,
    pell,
    section_step,
)
from canstrip.verify import check_line, strip_report

from oracles import binom_poly, cover_sum, iterated_difference


@contextmanager
def criterion(capsys, num, summary, notes):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {num:2d} FAIL: {summary}")
        raise
    tail = ("; " + "; ".join(notes)) if notes else ""
    with capsys.disabled():
        print(f"\ncriterion {num:2d} PASS: {summary}{tail}")


def enumerate_marked(max_rank):
    for t in all_simple_types(max_rank):
        rs = build_root_system(t)
        for node in range(1, t.rank + 1):
            yield mark(rs, node)


def test_criterion_01_e6_p4_golden(capsys):
    notes = []
    with criterion(capsys, 1, "E6/P4 golden values", notes):
        ms = marked("E", 6, 4)
        hd = hilbert_gp(ms)
        assert (hd.dim, hd.index, max(t.level for t in hd.levels)) == (29, 7, 3)
        tables = {t.level: {int(k): h for k, h in t.exponents.items()} for t in hd.levels}
        assert tables == {
            1: {1: 1, 2: 3, 3: 5, 4: 5, 5: 3, 6: 1},
            2: {5: 1, 6: 2, 7: 3, 8: 2, 9: 1},
            3: {10: 1, 11: 1},
        }
        # the degree these tables force, cross-checked by hand above the
        # factored form: 29! * prod (l/k)^h
        lead = Fraction(1)
        for level, exps in tables.items():
            for k, h in exps.items():
                lead *= Fraction(level, k) ** h
        degree = degree_of(hd)
        assert degree == factorial(29) * lead == 6976089058498560
        assert degree == hd.index * 996584151214080
        notes.append(
            "FINDING: degree_L computed exactly as 6976089058498560, which is "
            "index times the commonly stated 996584151214080; the stated value "
            "is inconsistent with the exponent tables it accompanies"
        )


def test_criterion_02_symmetry_unimodality_extremals(capsys):
    notes = []
    with criterion(capsys, 2, "level tables (S)/(U) and extremal sums, rank <= 8", notes):
        systems = 0
        mixed_violations = []
        for ms in enumerate_marked(8):
            hd = hilbert_gp(ms)  # construction already asserts (S)
            for table in hd.levels:
                table.check_symmetric(hd.index, hd.description)
                bad = table.unimodality_violations(hd.index)
                if hd.simply_laced:
                    assert not bad, (ms.description, table.level)
                elif bad:
                    mixed_violations.append((ms.description, table.level))
            for level in range(1, ms.lmax + 1):
                beta, gamma = extremal_roots(ms, level)
                assert rho_pair(ms, beta) + rho_pair(ms, gamma) == ms.index * level
            systems += 1
        assert systems == 161
        notes.append(f"{systems} marked systems; symmetry exact everywhere")
        notes.append("unimodality exact for every equal-root-length mark")
        if mixed_violations:
            sample = ", ".join(f"{d} level {l}" for d, l in mixed_violations[:3])
            notes.append(
                f"FINDING: {len(mixed_violations)} mixed-root-length tables are "
                f"not unimodal under the weighted pairing (first: {sample}); "
                "recorded, since the downstream certification never assumes it"
            )


def test_criterion_03_tight_strip_for_homogeneous_spaces(capsys):
    notes = []
    with criterion(capsys, 3, "all anticanonical roots in the closed tight segment", notes):
        checked = 0
        for ms in enumerate_marked(8):
            hd = hilbert_gp(ms)
            rep = strip_report(hd)
            assert hd.residual == RatPoly((1,))
            lo, hi = Fraction(-1) + Fraction(1, ms.index), Fraction(-1, ms.index)
            total = 0
            for root, mult in rep.rational_roots:
                assert lo <= root <= hi, (ms.description, root)
                total += mult
            assert total == ms.dim  # every root accounted for, exactly rational
            assert rep.verdicts["TCS"] == "holds"
            checked += 1
        notes.append(f"{checked} spaces, zero tolerance")


def test_criterion_04_complete_intersection_dichotomy(capsys):
    notes = []
    with criterion(capsys, 4, "line-or-segment dichotomy for rank <= 5 intersections", notes):
        stats = {"Fano": 0, "Calabi-Yau": 0, "general type": 0}
        segment_findings = 0

        def explore(hd, last, budget, codim_left):
            nonlocal segment_findings
            if codim_left == 0 or hd.dim < 1 or budget < last:
                return
            for d in range(last, budget + 1):
                cut = section_step(hd, d, "intersection")
                rep = strip_report(cut)
                stats[rep.variety_class] += 1
                key = "TCS" if rep.index > 0 else "CL"
                assert rep.verdicts[key] == "holds", (cut.description, rep.verdicts)
                if rep.index > 0 and rep.residual_on_line == "violated":
                    segment_findings += 1
                explore(cut, d, budget - d, codim_left - 1)

        for ms in enumerate_marked(5):
            explore(hilbert_gp(ms), 1, ms.index + 2, min(3, ms.dim))
        total = sum(stats.values())
        notes.append(
            f"{total} cases ({stats['Fano']} Fano, {stats['Calabi-Yau']} Calabi-Yau, "
            f"{stats['general type']} general type), Sturm-certified, zero failures"
        )
        notes.append(
            f"{segment_findings} Fano cases have residual roots off the line but "
            "real inside the closed segment (all from mixed root lengths)"
        )


def test_criterion_05_projective_space_oracle(capsys):
    notes = []
    with criterion(capsys, 5, "iterated binomial-difference oracle for P^n", notes):
        rng = random.Random(2024)
        cases = 0
        for n in range(1, 9):
            ms = marked("A", n, 1)
            batteries = [[d] for d in range(1, n + 3)]
            batteries += [[1] * k for k in range(2, min(n, 4) + 1)]
            for _ in range(6):
                k = rng.randint(1, min(3, n))
                batteries.append(sorted(rng.randint(1, 7) for _ in range(k)))
            for degrees in batteries:
                if len(degrees) > n:
                    continue
                got = expand(complete_intersection(ms, degrees))
                want = iterated_difference(binom_poly(n), degrees)
                assert list(got.coeffs) == want, (n, degrees)
                cases += 1
        notes.append(f"{cases} multidegrees, coefficient-for-coefficient")


def test_criterion_06_weyl_product_cross_check(capsys):
    notes = []
    with criterion(capsys, 6, "factored form equals the unfactored product at k=0..5", notes):
        for ms in enumerate_marked(8):
            H = expand(hilbert_gp(ms))
            assert H(0) == 1
            i = ms.node - 1
            for k in range(6):
                direct = Fraction(1)
                for a in ms.rs.positive_roots:
                    if a[i] > 0:
                        rho = rho_pair(ms, a)
                        direct *= (k * a[i] + rho) / rho
                assert H(k) == direct, (ms.description, k)
        notes.append("161 marked systems, six integer points each, exact")


def test_criterion_07_double_covers(capsys):
    notes = []
    with criterion(capsys, 7, "double covers of projective spaces and quadrics", notes):
        cases = 0
        for series, rank, node in [
            ("A", 1, 1), ("A", 2, 1), ("A", 3, 1),
            ("B", 2, 1), ("B", 3, 1), ("D", 4, 1), ("D", 5, 1),
        ]:
            ms = marked(series, rank, node)
            for d in range(1, ms.index + 1):
                rep = strip_report(double_cover(ms, d))
                key = "TCS" if rep.index > 0 else "CL"
                assert rep.verdicts[key] == "holds", (ms.description, d)
                cases += 1
        # worked examples against the direct-sum oracle
        assert expand(double_cover(marked("A", 1, 1), 1)) == RatPoly((1, 2))
        assert expand(double_cover(marked("A", 2, 1), 1)) == RatPoly((1, 2, 1))
        assert expand(double_cover(marked("A", 1, 1), 2)) == RatPoly((0, 2))
        for n, d in [(1, 1), (2, 1), (1, 2)]:
            got = expand(double_cover(marked("A", n, 1), d))
            assert list(got.coeffs) == cover_sum(binom_poly(n), d)
        notes.append(f"{cases} covers verified plus the three worked examples")


def test_criterion_08_abelian_intersections(capsys):
    notes = []
    with criterion(capsys, 8, "abelian complete intersections on the center line", notes):
        for l in range(1, 51):
            shifted = pell(l).compose_affine(1, Fraction(1, 2))
            assert all(c >= 0 for c in shifted.coeffs)
            assert shifted.compose_affine(-1, 0) == shifted * ((-1) ** (l + 1))
            if l >= 2:
                line = check_line(pell(l))
                assert line.status == "certified" and line.center == Fraction(1, 2)

        rng = random.Random(42)
        findings = []
        for _ in range(20):
            c = rng.randint(1, 3)
            n = rng.randint(1, 8 - c)
            tuples = []

            def fill(prefix, remaining):
                if len(prefix) == c - 1:
                    tuples.append(tuple(prefix) + (remaining,))
                    return
                for v in range(remaining + 1):
                    fill(prefix + [v], remaining - v)

            fill([], n + c)
            numbers = tuple((t, rng.randint(1, 9)) for t in tuples)
            spec = AbelianSpec(n, c, numbers)
            poly = abelian_ci(spec)
            try:
                line = check_line(poly)
                ok = line.status == "certified"
            except ValueError:
                ok = False
            if not ok:
                findings.append(spec)
        assert abelian_ci(AbelianSpec(1, 1, (((2,), 2),))) == RatPoly((-1, 2))
        assert abelian_ci(AbelianSpec(2, 1, (((3,), 6),))) == RatPoly((1, -3, 3))
        notes.append("difference polynomials 1..50: non-negative shifted "
                     "coefficients, parity, roots on Re(z)=1/2")
        if findings:
            notes.append(
                f"FINDING for human review: {len(findings)} of 20 random positive "
                "specs failed the line certification even though coefficient "
                "positivity held; positivity alone does not force the line"
            )
        else:
            notes.append("20 random positive specs all certified on the line")


def test_criterion_09_sweep_determinism(capsys, tmp_path):
    notes = []
    with criterion(capsys, 9, "sweep output byte-identical for 1, 4, 8 workers", notes):
        blobs = []
        for jobs in (1, 4, 8):
            out = tmp_path / f"sweep{jobs}.json"
            code = cli_main([
                "sweep", "--series", "A,B,G", "--max-rank", "3",
                "--max-total-degree", "3", "--max-codim", "2",
                "--format", "json", "--jobs", str(jobs), "--out", str(out),
            ])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        records = json.loads(blobs[0])["summary"]["cases"]
        notes.append(f"{records} records per run")


def test_criterion_10_exit_code_contract(capsys):
    notes = []
    with criterion(capsys, 10, "exit codes 0/1/2 from scripted invocations", notes):
        def invoke(*args):
            # the child imports canstrip from the same path as this process
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
            proc = subprocess.run(
                [sys.executable, "-m", "canstrip", *args],
                capture_output=True, text=True, timeout=120, env=env,
            )
            return proc.returncode

        assert invoke("gp", "--type", "E6", "--node", "4", "--format", "json") == 0
        assert invoke("check", "--coeffs", "2,3,1") == 1
        assert invoke("gp", "--type", "E6", "--node", "9") == 2
        notes.append("verified / violating-synthetic / invalid input")
