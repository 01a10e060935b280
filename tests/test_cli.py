import concurrent.futures.process
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest

from canstrip.cli import CSV_COLUMNS, canonical_json, main


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which RFC 8259 has no room for."""

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_child(*argv):
    """`python -m canstrip argv` in a fresh process, given at most 10 s."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-m", "canstrip", *argv],
                          env=env, capture_output=True, text=True, timeout=10)


def assert_past_the_digit_limit(done, start="error: "):
    """Exit 2 with nothing on stdout and one short `error:` line on stderr
    that names the 4300-digit limit in the program's words, not Python's."""
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(start) and len(done.stderr) <= 200
    assert done.stderr.count("\n") == 1 and done.stderr.count("error:") == 1
    assert "4300 digits" in done.stderr and "set_int_max_str_digits" not in done.stderr


class TestGp:
    def test_e6_p4_json(self, capsys):
        code, out, _ = run(capsys, "gp", "--type", "E6", "--node", "4", "--format", "json")
        assert code == 0
        assert canonical_json(json.loads(out)) == out  # byte-exact round trip
        report = json.loads(out)
        assert report["dim"] == 29
        assert report["index"] == 7
        assert report["degree_L"] == 6976089058498560
        assert report["class"] == "Fano"
        level1 = report["factored"][0]
        assert level1["level"] == 1
        assert level1["exponents"][0] == {"k": "1", "h": 1}
        assert report["verdicts"]["TCS"] == "holds"

    def test_p3_text(self, capsys):
        code, out, _ = run(capsys, "gp", "--type", "A", "--rank", "3", "--node", "1")
        assert code == 0
        assert "-1/4" in out and "-1/2" in out and "-3/4" in out
        assert "TCS holds" in out

    def test_node_out_of_range(self, capsys):
        code, _, err = run(capsys, "gp", "--type", "E6", "--node", "9")
        assert code == 2
        assert "out of range" in err

    def test_type_needs_rank(self, capsys):
        code, _, err = run(capsys, "gp", "--type", "A", "--node", "1")
        assert code == 2

    def test_bad_type(self, capsys):
        code, _, err = run(capsys, "gp", "--type", "Q5", "--node", "1")
        assert code == 2

    def test_csv_single(self, capsys):
        code, out, _ = run(capsys, "gp", "--type", "B2", "--node", "1", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == ",".join(CSV_COLUMNS)
        assert row.startswith("B,2,1,,3,3,Fano,holds,")

    def test_digits_adds_advisory_roots(self, capsys):
        code, out, _ = run(
            capsys, "gp", "--type", "A", "--rank", "2", "--node", "1",
            "--format", "json", "--digits", "8",
        )
        report = json.loads(out)
        assert report["approx_roots"]["advisory"] is True
        assert report["approx_roots"]["converged"] is True
        assert len(report["approx_roots"]["values"]) == 2

    def test_unsettled_approximation_keeps_the_verdict(self, capsys):
        # the float iteration cannot settle E8/P4's clustered rational roots
        # to 12 digits; that is recorded in the advisory block, and the
        # exit code still comes from the exact verdicts
        code, out, err = run(
            capsys, "gp", "--type", "E8", "--node", "4", "--format", "json", "--digits", "12"
        )
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["verdicts"]["TCS"] == "holds"
        assert report["approx_roots"]["converged"] is False
        assert sum(v["mult"] for v in report["approx_roots"]["values"]) == report["dim"]
        code, out, _ = run(capsys, "gp", "--type", "E8", "--node", "4", "--digits", "12")
        assert code == 0
        assert "approx roots (advisory, iteration did not converge):" in out


    def test_large_residuals_get_finite_advisory_roots(self, capsys):
        # the degree-88 square-free factor of E8/P4 cut by a cubic has
        # coefficients past the doubles; its roots are proposed on a scaled
        # variable, so every root is a number, settled or not
        code, out, err = run(
            capsys, "ci", "--type", "E8", "--node", "4", "--degrees", "3",
            "--digits", "6", "--format", "json",
        )
        assert code == 0 and err == ""
        report = strict_json(out)
        values = report["approx_roots"]["values"]
        assert sum(v["mult"] for v in values) == report["dim"] == 105
        assert all(v["re"] is not None and v["im"] is not None for v in values)
        assert all(v["residual"] is not None for v in values)


class TestErrors:
    def test_unwritable_out_path(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "x"
        code, out, err = run(
            capsys, "gp", "--type", "A", "--rank", "2", "--node", "1", "--out", str(target)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_broken_pool_falls_back_to_serial(self, capsys, monkeypatch):
        argv = ["sweep", "--series", "A", "--max-rank", "2", "--max-total-degree", "2",
                "--format", "csv"]
        code, serial, _ = run(capsys, *argv)
        assert code == 0

        class BrokenPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                raise BrokenProcessPool("a worker died")

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", BrokenPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers even on one CPU
        code, pooled, err = run(capsys, *argv, "--jobs", "2")
        assert code == 0 and err == ""
        assert pooled == serial


class TestGolden:
    def test_e8_p4_cubic_section_bytes(self, capsys):
        code, out, _ = run(
            capsys, "ci", "--type", "E8", "--node", "4", "--degrees", "3", "--format", "json"
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "0f75620c7aff692a992af58df2429f827cfe1a6c2e63b18f59d1095b93e536d0"
        )

    @pytest.mark.parametrize("argv, sha256", [
        (("sweep", "--max-rank", "6", "--max-total-degree", "3", "--format", "csv", "--jobs", "1"),
         "bdcd8785ac98ac37a7cc79687e96d4eb0923628ec5110a33f59d6c4f9e4550fc"),
        (("cover", "--type", "E8", "--node", "4", "--degree", "9", "--format", "json"),
         "4e4b776d922821c519d56b25c3ea642d2d63b4be8406170ffe05b9bd4c1ffee8"),
        (("ci", "--type", "E8", "--node", "4", "--degrees", "1,1", "--format", "json"),
         "a2d2c893b7a3212426756d4bc88192590fd8b7eace2af68aea9a21118e2f466b"),
        (("sweep", "--max-rank", "10", "--max-total-degree", "0", "--format", "json"),
         "5a16d30d168ff1b6d23c1454a5a9e5cc5f198bbb30c65751f6645d06e0e5304c"),
        (("sweep", "--max-rank", "8", "--max-total-degree", "3", "--format", "csv", "--jobs", "1"),
         "394ddcc345b53be60ae87b97213a9047c770f52842d8b2545f5e4c61d6c3c239"),
        (("ci", "--type", "E8", "--node", "4", "--degrees", "2,8", "--format", "json"),
         "6324d17246b27a6a974ff1724a8345726c751826d62cd49c073570cb2d79ebe4"),
        (("gp", "--type", "E6", "--node", "4", "--digits", "8", "--format", "json"),
         "d0faeb9291abb8bd7dd44679d4ec8f9d9fe324c83f4aa6ec3adbc291a34be701"),
        (("cover", "--type", "E7", "--node", "7", "--degree", "2", "--digits", "12",
          "--format", "json"),
         "33c63eb3ccbd689e78a042e26d66c1ac19da93cd75411cb2207e16336f5bcf62"),
        (("ci", "--type", "A", "--rank", "2", "--node", "1", "--degrees", "3", "--digits", "3",
          "--format", "json"),
         "ef58075292c07dfc0f0dd1d932f4ca73ef247fb292cd92f40a50ca0ea069595a"),
        (("gp", "--type", "E8", "--node", "4", "--digits", "6", "--format", "json"),
         "8b2df83cfaa2461d2db5c171e9031faeb5190e41b6a43d7d32ff6e23c76efcfa"),
    ])
    def test_benchmark_output_bytes(self, capsys, argv, sha256):
        # the rank <= 6 sweep's CSV rows, the Calabi-Yau double cover of E8/P4,
        # its codimension-two linear section and every mark's level tables
        # (the rank <= 10 catalogue of G/P), byte for byte; then the rank <= 8
        # sweep, whose 1122 cases hold 42 even parts of degree 13 to 44 (past
        # the sign-alternation cutoff), and E8/P4 cut by (2, 8), whose even
        # part has degree 52 and 394-bit coefficients; then the advisory
        # roots of two Fano varieties (in the anticanonical variable) and of
        # a plane cubic curve (index 0, in the ample-generator variable); last,
        # those of E8/P4, whose multiplicities come from 32 exact divisions
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


class TestCi:
    def test_del_pezzo(self, capsys):
        code, out, _ = run(
            capsys, "ci", "--type", "A", "--rank", "4", "--node", "1",
            "--degrees", "2,2", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["index"] == 1
        assert report["class"] == "Fano"
        assert report["verdicts"]["TCS"] == "holds"

    def test_bad_degrees(self, capsys):
        code, _, err = run(
            capsys, "ci", "--type", "A", "--rank", "4", "--node", "1", "--degrees", "2,x"
        )
        assert code == 2


class TestCover:
    def test_p2_branched_quadric(self, capsys):
        code, out, _ = run(
            capsys, "cover", "--type", "A", "--rank", "2", "--node", "1",
            "--degree", "1", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["dim"] == 2 and report["index"] == 2
        assert report["degree_L"] == 2
        # (z+1)^2 split as the kept level factor (z+1) times residual z+1
        assert report["factored"] == [{"level": 1, "exponents": [{"k": "1", "h": 1}]}]
        assert report["residual"] == ["1", "1"]

    def test_bad_degree(self, capsys):
        code, _, _ = run(
            capsys, "cover", "--type", "A", "--rank", "2", "--node", "1", "--degree", "0"
        )
        assert code == 2


class TestAbelian:
    def test_genus_two_curve(self, capsys, tmp_path):
        spec = tmp_path / "curve.json"
        spec.write_text(json.dumps({"n": 1, "c": 1, "numbers": [{"tuple": [2], "value": 2}]}))
        code, out, _ = run(capsys, "abelian", "--spec", str(spec), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["polynomial"] == ["-1", "2"]
        assert report["center"] == "1/2"
        assert report["verdicts"]["CL"] == "holds"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "abelian", "--spec", str(tmp_path / "nope.json"))
        assert code == 2

    def test_non_integer_entries_rejected(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        for item in ({"tuple": [2], "value": 2.7}, {"tuple": [2.0], "value": 2},
                     {"tuple": [2], "value": "2"}, {"tuple": [2], "value": True}):
            spec.write_text(json.dumps({"n": 1, "c": 1, "numbers": [item]}))
            code, out, err = run(capsys, "abelian", "--spec", str(spec))
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "must be an integer" in err


class TestCheck:
    def test_on_line(self, capsys):
        code, _, _ = run(capsys, "check", "--coeffs", "1,1,1")
        assert code == 0

    def test_violating_synthetic(self, capsys):
        code, out, _ = run(capsys, "check", "--coeffs", "2,3,1")
        assert code == 1
        assert "CL fails" in out

    def test_asymmetric(self, capsys):
        code, _, _ = run(capsys, "check", "--coeffs", "1,0,0,1")
        assert code == 1

    def test_rational_coeffs(self, capsys):
        code, _, _ = run(capsys, "check", "--coeffs", "1/4,1,1")
        assert code == 0

    def test_bad_coeffs(self, capsys):
        code, _, _ = run(capsys, "check", "--coeffs", "1,zz")
        assert code == 2

    @pytest.mark.parametrize("coeffs", ["1e99999999,1", "1e5000,0,1", "1" * 4300 + "e1,1",
                                        "1" * 4301 + ",1", "1/" + "1" * 4301 + ",1"],
                             ids=["huge exponent", "long value", "long mantissa",
                                  "long integer", "long denominator"])
    def test_unprintable_coefficient_is_refused_at_once(self, coeffs):
        # Fraction alone would spend seconds on 10^99999999, 10^5000 and a
        # 4300-digit mantissa times 10 have more digits than Python converts
        # to a string, and int() refuses to read a 4301-digit string
        done = run_child("check", "--coeffs", coeffs)
        assert_past_the_digit_limit(done, "error: bad coefficient list: ")

    def test_long_coefficient_is_named_by_position_and_digit_count(self):
        done = run_child("check", "--coeffs", "1," + "1" * 4301)
        assert_past_the_digit_limit(
            done, "error: bad coefficient list: coefficient 2: '1111111111'… (4301 digits) has"
        )

    def test_long_invalid_coefficient_is_named_briefly(self, capsys):
        code, out, err = run(capsys, "check", "--coeffs", "1," + "z" * 5000)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad coefficient list: coefficient 2: ")
        assert "'zzzzzzzzzz'… (5000 characters)" in err and len(err) < 200
        assert "0 digits" not in err
        assert err.count("\n") == 1 and err.count("error:") == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unprintable_center_is_refused(self, fmt):
        # both coefficients print, but the symmetry center -a_0/a_1 = -10^8598
        # has more digits than Python converts to a string
        done = run_child("check", "--coeffs", "1e4299,1e-4299", "--format", fmt)
        assert_past_the_digit_limit(done, "error: the symmetry center of ")

    def test_abelian_spec_integer_past_the_digit_limit(self, tmp_path):
        spec = tmp_path / "long.json"
        value = "1" + "0" * 4400
        spec.write_text(f'{{"n": 1, "c": 1, "numbers": [{{"tuple": [2], "value": {value}}}]}}')
        done = run_child("abelian", "--spec", str(spec))
        assert_past_the_digit_limit(done, "error: '1000000000'… (4401 digits) has")

    @pytest.mark.parametrize("coeff", ["1e400", "-1e-400", "1e300", "3e-320"])
    def test_large_printable_coefficients_are_accepted(self, capsys, coeff):
        code, _, err = run(capsys, "check", "--coeffs", f"1,{coeff}")
        assert (code, err) == (0, "")

    def test_digits_beyond_a_double_are_capped(self, capsys):
        code, out, err = run(
            capsys, "check", "--coeffs", "1,0,1", "--digits", "400", "--format", "json"
        )
        assert code == 0 and err == ""
        block = json.loads(out)["approx_roots"]
        assert block["digits"] == 15 and block["converged"] is True
        assert sorted(v["im"] for v in block["values"]) == pytest.approx([-1.0, 1.0])

    def test_one_certificate_per_residual(self, capsys):
        # z^4 (z^2 + 1): its even part u^2 (u + 1) has a double root at the
        # endpoint 0, and one Sturm sequence counts both distinct roots
        code, out, _ = run(capsys, "check", "--coeffs", "0,0,0,0,1,0,1", "--format", "json")
        report = json.loads(out)
        assert code == 0 and report["verdicts"] == {"CL": "holds"}
        assert [(c["count"], c["chain_length"]) for c in report["certificates"]] == [(2, 3)]
        # z^4 (z^2 - 1): the same double root, with the real pair +-1 off the line
        code, out, _ = run(capsys, "check", "--coeffs", "0,0,0,0,-1,0,1", "--format", "json")
        report = json.loads(out)
        assert code == 1 and report["verdicts"] == {"CL": "fails"}
        assert [c["count"] for c in report["certificates"]] == [1]

    @pytest.mark.parametrize("coeffs", ["1e400,0,1", "1,0,1e-400", "1e300,0,1"])
    def test_digits_beyond_the_doubles_keep_the_exit_code(self, capsys, coeffs):
        # z^2 + 10^400 has no double coefficients and z^2 + 10^300 squares
        # past the doubles; the proposer runs on y = z / 2^s with balanced
        # coefficients, so both settle on +-root*i, and a residual that
        # does not fit a double is written as null
        plain, _, _ = run(capsys, "check", "--coeffs", coeffs)
        code, out, err = run(capsys, "check", "--coeffs", coeffs, "--digits", "3", "--format", "json")
        assert code == plain == 0 and err == ""
        block = strict_json(out)["approx_roots"]
        assert block["converged"] is True
        assert [v["mult"] for v in block["values"]] == [1, 1]
        root = 1e150 if coeffs == "1e300,0,1" else 1e200
        assert sorted(v["im"] for v in block["values"]) == pytest.approx([-root, root], rel=1e-3)
        assert all(abs(v["re"]) < 1e-3 * root for v in block["values"])


ABELIAN_SPECS = {
    "curve": {"n": 1, "c": 1, "numbers": [{"tuple": [2], "value": 2}]},
    "surface": {"n": 2, "c": 1, "numbers": [{"tuple": [3], "value": 6}]},
    "pair": {"n": 1, "c": 2, "numbers": [{"tuple": [2, 1], "value": 2}, {"tuple": [1, 2], "value": 4}]},
    "threefold": {
        "n": 3,
        "c": 2,
        "numbers": [
            {"tuple": [3, 2], "value": 2},
            {"tuple": [1, 4], "value": 4},
            {"tuple": [5, 0], "value": 2},
        ],
    },
}

# sha256 of the exact output bytes and the exit code, for the two commands
# that certify a bare polynomial
BARE_GOLDENS = [
    (("check", "--coeffs", "1,1,1", "--format", "text"), 0,
     "3016b4387780549ab729b0bc99c389e214d1203d2371fce8ff602803d41d5d36"),
    (("check", "--coeffs", "1,1,1", "--format", "json"), 0,
     "782e4ef2e24451e194be70e445c965b43eee4e43e99536c7667a109eae54502e"),
    (("check", "--coeffs", "2,3,1", "--format", "text"), 1,
     "6c391a012360e2420c7d3c3fd5b3143fdc471fe6f87cc90c6039e74ba92df1c0"),
    (("check", "--coeffs", "2,3,1", "--format", "json"), 1,
     "81eb3d13b9dfa3d3277f6629497fdd54f9f2ebf62f73c4f74310ce177f8a1334"),
    (("check", "--coeffs", "1,0,0,1", "--format", "text"), 1,
     "5f7241244d6692c8b3a167ce4a9c2bd65b0cd409740fd72367d48498ee1fa1c2"),
    (("check", "--coeffs", "1,0,0,1", "--format", "json"), 1,
     "378928cbd0faaeb4a1d802a4a71b6c5003c90d07a6c6acf55c005115a632e91f"),
    (("check", "--coeffs", "1/4,1,1", "--format", "text"), 0,
     "dfaa18fac41c3d1a46b0d968f6c55a90bb85e196448f66907f015d284061e711"),
    (("check", "--coeffs", "1/4,1,1", "--format", "json"), 0,
     "1f2f413c9421c752f0d34043cf8883629522b6057b59fecb6e3a1164d265173d"),
    (("check", "--coeffs", "6,11,6,1", "--format", "text"), 1,
     "40c370bcb9c8bebc9f2c85ffeeed2ce32d932edad58b67f34fddb14b426e3b6b"),
    (("check", "--coeffs", "6,11,6,1", "--format", "json"), 1,
     "6b70560db0e0417495b61d3f70fd86ee149021b66d8de340f039fba89ad501ec"),
    (("check", "--coeffs", "1,0,1", "--digits", "6", "--format", "json"), 0,
     "a8dcb27a316205cfb988e7b79e1433137adf0e7f0a821e7fbf5a11ed1009aa34"),
    (("abelian", "curve", "--format", "text"), 0,
     "749d125c1ba197b54e261e46885f41290ddc444fd20e143fcf646f9a1077e3c7"),
    (("abelian", "curve", "--format", "json"), 0,
     "83840521a763742c2631e8495e5bf1a24eab1e20c3870c396cad54b961ad822d"),
    (("abelian", "surface", "--format", "text"), 0,
     "a1608b8fd699fd67303ff11a1dd68cb4aae139fce936f371d6fe7c2a08d6916f"),
    (("abelian", "surface", "--format", "json"), 0,
     "f4353d3cd1833fbfb0e718f305b4764cfe7786c9ae3a736ca7a5b211b459eb98"),
    (("abelian", "pair", "--format", "text"), 0,
     "148de4a3b2adc641d945517ddb17361b1b6c5f221642e354d765e4d76f63f8c5"),
    (("abelian", "pair", "--format", "json"), 0,
     "aee4016fa2bd22b1b1b0299993b3d8df6d44700db44780477a605552a31c9cb8"),
    (("abelian", "threefold", "--format", "text"), 0,
     "e070a674fd972e2604bf699c4e79cc804e9d0bec4c023b1809a56fc0ae451fdc"),
    (("abelian", "threefold", "--format", "json"), 0,
     "b4b04578a0be5ba2774255ac31321eebb1c9632d82d800ffca9e4b1f96172229"),
    (("abelian", "surface", "--digits", "6", "--format", "json"), 0,
     "8618cc59ee14fe6202fb8c8d3956f4ac5df93e1446fa2d03b63516282518c5d7"),
    # (1 + z + z^2 + z^3)^2: its advisory multiplicities come from exact divisions
    (("check", "--coeffs", "1,2,3,4,3,2,1", "--digits", "6", "--format", "json"), 1,
     "4dcf2e330e471cb39d77fcfe55444b5139f24263de3e0d261a10f86f2b57e830"),
]


@pytest.mark.parametrize("argv, exit_code, sha256", BARE_GOLDENS)
def test_bare_polynomial_report_bytes(capsys, tmp_path, argv, exit_code, sha256):
    argv = list(argv)
    if argv[0] == "abelian":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(ABELIAN_SPECS[argv[1]]))
        argv[1:2] = ["--spec", str(spec)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (exit_code, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


class TestSweep:
    def test_text_summary(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--series", "A,G", "--max-rank", "2",
            "--max-total-degree", "2", "--max-codim", "2",
        )
        assert code == 0
        assert "failures: 0" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--series", "A", "--max-rank", "3",
            "--max-total-degree", "2", "--format", "json",
        )
        assert code == 0
        assert canonical_json(json.loads(out)) == out
        payload = json.loads(out)
        assert payload["summary"]["failures"] == 0
        assert payload["summary"]["cases"] == len(payload["records"])

    def test_csv_columns(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--series", "B", "--max-rank", "2",
            "--max-total-degree", "2", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert any(",2+," not in line for line in lines)

    def test_digits_is_not_a_sweep_option(self, capsys):
        # a sweep prints no roots, so it takes no --digits
        code, out, err = run(capsys, "sweep", "--max-rank", "2", "--digits", "3")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --digits 3" in err

    def test_rank_cap(self, capsys):
        code, _, err = run(capsys, "sweep", "--max-rank", "11")
        assert code == 2
        assert "hard cap" in err

    @pytest.mark.parametrize("node", ["0", "-2"])
    def test_node_below_one_is_rejected(self, capsys, node):
        code, out, err = run(capsys, "sweep", "--max-rank", "2", "--node", node)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "out of range" in err and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [("--node", "5"), ("--series", "E"), ("--series", "F", "--node", "4")])
    def test_filter_selecting_no_case_is_rejected(self, capsys, flags):
        code, out, err = run(capsys, "sweep", "--max-rank", "2", *flags)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "no case" in err and err.count("\n") == 1

    def test_whole_catalog_bytes(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--max-rank", "10", "--max-total-degree", "0", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["summary"]["cases"] == 237
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "5a16d30d168ff1b6d23c1454a5a9e5cc5f198bbb30c65751f6645d06e0e5304c"
        )

    def test_determinism_across_jobs(self, tmp_path, capsys):
        outputs = []
        for jobs in (1, 4):
            path = tmp_path / f"sweep-{jobs}.json"
            code, _, _ = run(
                capsys, "sweep", "--series", "A,B", "--max-rank", "3",
                "--max-total-degree", "3", "--max-codim", "2",
                "--format", "json", "--jobs", str(jobs), "--out", str(path),
            )
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_jobs_are_bounded_by_the_cases_and_the_cpus(self, capsys, monkeypatch):
        # an in-process pool records the worker count it is asked for and
        # maps serially, so no worker process is started
        argv = ["sweep", "--max-rank", "2", "--max-total-degree", "1", "--format", "json"]
        code, serial, _ = run(capsys, *argv, "--jobs", "1")
        assert code == 0
        cases = strict_json(serial)["summary"]["cases"]
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", SerialPool)
        for cpus in (os.cpu_count(), 3, 1, None, 1000):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            asked.clear()
            code, pooled, _ = run(capsys, *argv, "--jobs", "64")
            assert code == 0 and pooled == serial
            workers = min(64, cases, cpus or 1)
            assert asked == ([] if workers == 1 else [workers])
        assert workers == cases < 64

    def test_out_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CANSTRIP_OUT_DIR", str(tmp_path))
        code, _, _ = run(
            capsys, "sweep", "--series", "G", "--max-rank", "2", "--out", "g2.csv",
            "--format", "csv",
        )
        assert code == 0
        assert (tmp_path / "g2.csv").exists()


class TestParser:
    def test_import_leaves_the_process_pool_out(self):
        # only `sweep --jobs N` with N > 1 needs the pool, so a plain start
        # must not pay for importing it
        code = "import sys, canstrip.cli; print('concurrent.futures' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_import_leaves_dataclasses_out(self):
        # the records are plain classes and NamedTuples: no start pays for
        # `dataclasses` and the `inspect` it imports; only CSV output imports `csv`
        code = "import sys, canstrip.cli; print({'dataclasses', 'inspect', 'csv'} & set(sys.modules))"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "set()\n"

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_help_documents_numbering(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "Bourbaki" in out
