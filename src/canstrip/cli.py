"""Command-line front end: single-variety queries, batch sweeps, reports.

Exit codes: 0 all applicable hypotheses verified, 1 at least one violated,
2 invalid input.  Rationals are serialized as exact "p/q" strings; floats
appear only in the advisory approx_roots block.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from fractions import Fraction
from typing import Optional

from .hilbert import HilbertData, degree_of, expand, hilbert_gp
from .ratpoly import RatPoly
from .root_system import MarkedSystem, all_simple_types, marked
from .varieties import abelian_ci, abelian_spec_from_json, complete_intersection, double_cover
from .verify import StripReport, approx_roots, check_line, strip_report

HARD_RANK_CAP = 10

_DIAGRAMS = """\
Bourbaki node numbering (arrows point from long to short roots):

  A n   1 - 2 - ... - n
  B n   1 - 2 - ... - (n-1) => n            (C2 accepted as alias of B2, nodes swapped)
  C n   1 - 2 - ... - (n-1) <= n
  D n   1 - 2 - ... - (n-2) - {n-1, n}      fork at n-2 (D3 accepted as alias of A3,
                                            nodes 1 and 2 swapped)
  E n   1 - 3 - 4 - 5 - 6 [- 7 [- 8]]       with 2 attached below 4
  F 4   1 - 2 => 3 - 4
  G 2   1 <= 2                              (alpha_1 is the short root)
"""

CSV_COLUMNS = [
    "series",
    "rank",
    "node",
    "degrees",
    "dim",
    "index",
    "class",
    "tcs",
    "cl",
    "boundary_contact",
    "degree_L",
]


def _parse_type(type_str: str, rank: Optional[int]) -> tuple[str, int]:
    m = re.fullmatch(r"([A-Ga-g])(\d*)", type_str.strip())
    if not m:
        raise ValueError(f"cannot parse type {type_str!r}")
    series = m.group(1).upper()
    if m.group(2):
        if rank is not None and rank != int(m.group(2)):
            raise ValueError(f"--rank {rank} contradicts --type {type_str}")
        return series, int(m.group(2))
    if rank is None:
        raise ValueError(f"--type {series} needs --rank")
    return series, rank


def _parse_degrees(text: str) -> list[int]:
    try:
        degrees = [int(part) for part in text.split(",")]  # int("") refuses an empty entry
    except ValueError as exc:
        raise ValueError(f"bad degree list {text!r}") from exc
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive integers")
    return degrees


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def variety_report(hd: HilbertData, rep: StripReport, digits: Optional[int]) -> dict:
    residual = hd.residual  # rebuilt by one substitution on each read
    report = {
        "description": hd.description,
        "dim": hd.dim,
        "index": hd.index,
        "degree_L": degree_of(hd),
        "class": rep.variety_class,
        "factored": [
            {
                "level": t.level,
                "exponents": [{"k": str(k), "h": h} for k, h in t.exponents.items()],
            }
            for t in hd.levels
        ],
        "residual": [str(c) for c in residual.coeffs],
        "rational_roots": [{"root": str(r), "mult": m} for r, m in rep.rational_roots],
        "verdicts": rep.verdicts,
        "witnesses": rep.witnesses,
        "boundary_contact": rep.boundary_contact,
        "residual_variable": rep.residual_variable,
        "residual_line": None if rep.residual_line is None else str(rep.residual_line),
        "residual_on_line": rep.residual_on_line,
        "certificates": [c.as_dict() for c in rep.certificates],
    }
    if digits is not None and hd.dim >= 1:
        res = residual.compose_affine(hd.index, 0) if hd.index > 0 else expand(hd)
        report["approx_roots"] = approx_roots(res, digits, rep.rational_roots)
    return report


def _factor_text(level: int, k: Fraction, h: int) -> str:
    lz = "z" if level == 1 else f"{level}z"
    base = f"({lz}+{k})/{k}"
    return f"({base})^{h}" if h > 1 else base


def render_text(report: dict) -> str:
    lines = [
        f"{report['description']}: dim {report['dim']}, index {report['index']}, "
        f"degree {report['degree_L']}, class {report['class']}"
    ]
    if report["factored"]:
        lines.append("H_L(z) factored:")
        for t in report["factored"]:
            factors = " ".join(
                _factor_text(t["level"], Fraction(e["k"]), e["h"]) for e in t["exponents"]
            )
            lines.append(f"  level {t['level']}: {factors}")
    residual = " + ".join(
        f"{c}*z^{i}" if i else str(c) for i, c in enumerate(report["residual"])
    )
    lines.append(f"residual (L-variable): {residual}")
    if report["rational_roots"]:
        roots = ", ".join(f"{r['root']} (x{r['mult']})" for r in report["rational_roots"])
        lines.append(f"rational anticanonical roots: {roots}")
    lines.append(
        f"residual on line: {report['residual_on_line']}"
        + (
            f" (Re(z) = {report['residual_line']} in {report['residual_variable']} variable)"
            if report["residual_line"] is not None
            else ""
        )
    )
    verdict_bits = []
    for name in ("CS", "NCS", "TCS", "CL"):
        v = report["verdicts"][name]
        bit = f"{name} {v}"
        if name in report["witnesses"]:
            bit += f" (witness {report['witnesses'][name]})"
        if name == "TCS" and v == "holds":
            bit += " with boundary contact" if report["boundary_contact"] else " strictly"
        verdict_bits.append(bit)
    lines.append("verdicts: " + "; ".join(verdict_bits))
    if "approx_roots" in report:
        lines.append(_approx_text(report["approx_roots"]))
    return "\n".join(lines) + "\n"


def _approx_text(block: dict) -> str:
    """The text line of an advisory `approx_roots` block."""
    vals = ", ".join(f"{_signed(v['re'])}{_signed(v['im'])}i (x{v['mult']})" for v in block["values"])
    note = "" if block["converged"] else ", iteration did not converge"
    return f"approx roots (advisory{note}): {vals}"


def _signed(x: Optional[float]) -> str:
    return "+nan" if x is None else f"{x:+.6f}"


def _csv_text(rows: list[dict]) -> str:
    # imported here: only CSV output needs the module, so other runs skip its import
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({col: row[col] for col in CSV_COLUMNS})
    return buf.getvalue()


Case = tuple[str, int, int, tuple[int, ...]]  # series, rank, node, degrees


def _case(ms: MarkedSystem, degrees) -> Case:
    return ms.rs.simple_type.series, ms.rs.simple_type.rank, ms.node, tuple(degrees)


def _csv_row(case: Case, hd: HilbertData, rep: StripReport) -> dict:
    series, rank, node, degrees = case
    return {
        "series": series,
        "rank": rank,
        "node": node,
        "degrees": "+".join(str(d) for d in degrees),
        "dim": hd.dim,
        "index": hd.index,
        "class": rep.variety_class,
        "tcs": rep.verdicts["TCS"],
        "cl": rep.verdicts["CL"],
        "boundary_contact": rep.boundary_contact,
        "degree_L": degree_of(hd),
    }


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    if not os.path.isabs(out):
        base = os.environ.get("CANSTRIP_OUT_DIR")
        if base:
            out = os.path.join(base, out)
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _single_command(args, hd: HilbertData, case: Case) -> int:
    rep = strip_report(hd)
    if args.format == "csv":
        text = _csv_text([_csv_row(case, hd, rep)])
    else:
        report = variety_report(hd, rep, args.digits)
        text = canonical_json(report) if args.format == "json" else render_text(report)
    _emit(text, args.out)
    return 0 if rep.all_applicable_hold else 1


def cmd_gp(args) -> int:
    series, rank = _parse_type(args.type, args.rank)
    ms = marked(series, rank, args.node)
    return _single_command(args, hilbert_gp(ms), _case(ms, ()))


def cmd_ci(args) -> int:
    series, rank = _parse_type(args.type, args.rank)
    degrees = _parse_degrees(args.degrees)
    ms = marked(series, rank, args.node)
    return _single_command(args, complete_intersection(ms, degrees), _case(ms, degrees))


def cmd_cover(args) -> int:
    if args.degree < 1:
        raise ValueError("--degree must be a positive integer")
    series, rank = _parse_type(args.type, args.rank)
    ms = marked(series, rank, args.node)
    code = _single_command(args, double_cover(ms, args.degree), _case(ms, (args.degree,)))
    if args.degree > ms.index and args.format == "text" and args.out is None:
        sys.stdout.write("note: d exceeds the index; verdicts are case-by-case, no general guarantee\n")
    return code


def _bare_command(args, poly: RatPoly, fields: dict, heading: str, note: Optional[str] = None) -> int:
    """Certify the line hypothesis for a bare polynomial and emit its report:
    `fields` are the command's own keys, `heading` starts the text line of H(z),
    and `note` is reported when H has no symmetry center."""
    line = check_line(poly)
    if line.center is not None:  # printed below, and built from several coefficients
        _printable(line.center, f"the symmetry center of the {fields['description']}")
    verdict = "fails" if line.status == "violated" else "holds"
    report = dict(
        fields,
        polynomial=[str(c) for c in poly.coeffs],
        center=None if line.center is None else str(line.center),
        verdicts={"CL": verdict},
        certificates=[c.as_dict() for c in line.certificates],
    )
    if note and line.center is None:
        report["note"] = note
    if args.digits is not None and poly.degree >= 1:
        report["approx_roots"] = approx_roots(poly, args.digits)
    if args.format == "json":
        _emit(canonical_json(report), args.out)
    else:
        lines = [f"{heading}H(z) = {poly}", f"symmetry center: {report['center']}", f"CL {verdict}"]
        if "note" in report:
            lines.append(note)
        if "approx_roots" in report:
            lines.append(_approx_text(report["approx_roots"]))
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if verdict == "holds" else 1


def cmd_abelian(args) -> int:
    try:
        with open(args.spec, encoding="utf-8") as fh:
            # int() alone would refuse a long integer with Python's own message
            spec = abelian_spec_from_json(json.load(fh, parse_int=lambda t: int(_coefficient(t))))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read spec file: {exc}") from exc
    poly = abelian_ci(spec)
    if not poly:
        raise ValueError("the spec produced the zero polynomial")
    plural = "s" if spec.c > 1 else ""
    description = (
        f"complete intersection of {spec.c} ample divisor{plural} "
        f"in an abelian {spec.n + spec.c}-fold"
    )
    fields = {"description": description, "dim": spec.n, "codim": spec.c, "class": "general type"}
    return _bare_command(args, poly, fields, f"{description}: ")


def _printable(c: Fraction, name: str) -> Fraction:
    """c, refused unless its numerator and denominator are within Python's
    digit limit for int-str conversion, so that the report can print it."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and max(abs(c.numerator), c.denominator) >= 10**limit:
        raise ValueError(f"{name} has more than {limit} digits")
    return c


def _coefficient(text: str) -> Fraction:
    """A rational coefficient the report can print.  Its digit strings and its
    exponent are checked first: int() refuses a string past the limit, and
    Fraction would spend seconds and more building 10^e for a large e.  A long
    text is named by its first ten characters and its digit count, or its
    character count when it is not a number."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    runs = [len(r.replace("_", "")) for r in re.findall(r"\d+(?:_\d+)*", text)]
    exponent = re.search(r"e([-+]?\d+(?:_\d+)*)$", text, re.IGNORECASE)

    def shown(count: int, unit: str = "digits") -> str:
        return repr(text) if len(text) <= 20 else f"{text[:10]!r}… ({count} {unit})"
    if limit and (any(r > limit for r in runs) or exponent and abs(int(exponent[1])) > limit):
        raise ValueError(f"{shown(sum(runs))} has more than {limit} digits")
    try:
        value = Fraction(text)
    except ValueError:
        raise ValueError(f"Invalid literal for Fraction: {shown(len(text), 'characters')}") from None
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {shown(sum(runs))}") from None
    return _printable(value, shown(sum(runs)))


def cmd_check(args) -> int:
    coeffs = []
    for i, part in enumerate(args.coeffs.split(","), 1):
        try:
            coeffs.append(_coefficient(part.strip()))
        except ValueError as exc:
            raise ValueError(f"bad coefficient list: coefficient {i}: {exc}") from exc
    poly = RatPoly(tuple(coeffs))
    if poly.degree < 1:
        raise ValueError("need a non-constant polynomial")
    fields = {"description": "user polynomial", "degree": poly.degree}
    note = "no symmetry center, so the roots cannot all lie on one vertical line"
    return _bare_command(args, poly, fields, "", note)


def _iter_multidegrees(max_total: int, max_len: int):
    """Non-decreasing positive tuples with bounded length and sum."""

    def rec(prefix: tuple[int, ...], lo: int, budget: int):
        yield prefix
        if len(prefix) == max_len:
            return
        for d in range(lo, budget + 1):
            yield from rec(prefix + (d,), d, budget - d)

    yield from rec((), 1, max_total)


def _sweep_cases(cfg: dict) -> list[Case]:
    cases = []
    series_filter = cfg["series"]
    for t in all_simple_types(cfg["max_rank"]):
        if series_filter and t.series not in series_filter:
            continue
        for node in range(1, t.rank + 1):
            if cfg["node"] is not None and node != cfg["node"]:
                continue
            ms = marked(t.series, t.rank, node)
            max_len = min(cfg["max_codim"], ms.dim)
            for degrees in _iter_multidegrees(cfg["max_total_degree"], max_len):
                cases.append((t.series, t.rank, node, degrees))
    return cases


def _sweep_case(case: Case) -> dict:
    series, rank, node, degrees = case
    hd = complete_intersection(marked(series, rank, node), list(degrees))
    rep = strip_report(hd)
    row = _csv_row(case, hd, rep)
    row["description"] = hd.description
    row["verdicts"] = rep.verdicts
    row["witnesses"] = rep.witnesses
    row["ok"] = rep.all_applicable_hold
    return row


def cmd_sweep(args) -> int:
    if args.max_rank > HARD_RANK_CAP:
        raise ValueError(f"--max-rank exceeds the hard cap {HARD_RANK_CAP}")
    if args.max_rank < 1 or args.max_codim < 0 or args.max_total_degree < 0:
        raise ValueError("sweep bounds must be non-negative (max rank >= 1)")
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    if args.node is not None and args.node < 1:
        raise ValueError(f"--node {args.node} is out of range (nodes start at 1)")
    series = None
    if args.series is not None:
        series = {s.strip().upper() for s in args.series.split(",")}
        if "" in series:
            raise ValueError(f"bad series list {args.series!r}")
        unknown = series - set("ABCDEFG")
        if unknown:
            raise ValueError(f"unknown series {sorted(unknown)}")
    cfg = {
        "series": series,
        "max_rank": args.max_rank,
        "node": args.node,
        "max_total_degree": args.max_total_degree,
        "max_codim": args.max_codim,
    }
    cases = _sweep_cases(cfg)
    if not cases:
        raise ValueError(f"--series and --node select no case up to rank {args.max_rank}")

    rows: list[dict]
    # a fork-started pool starts every worker at once: no more than cases and CPUs
    workers = min(args.jobs, len(cases), os.cpu_count() or 1)
    if workers == 1:
        rows = [_sweep_case(c) for c in cases]
    else:
        # imported here: the pool machinery costs every other run its start-up time
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_sweep_case, cases, chunksize=8))
        except (OSError, BrokenProcessPool):
            rows = [_sweep_case(c) for c in cases]

    failures = [r for r in rows if not r["ok"]]
    summary = {
        "cases": len(rows),
        "holds": len(rows) - len(failures),
        "failures": len(failures),
    }
    if args.format == "json":
        config_out = dict(cfg)
        config_out["series"] = sorted(series) if series else None
        payload = {
            "config": config_out,
            "records": [
                {k: v for k, v in row.items() if k not in ("ok",)} for row in rows
            ],
            "summary": summary,
        }
        _emit(canonical_json(payload), args.out)
    elif args.format == "csv":
        _emit(_csv_text(rows), args.out)
    else:
        lines = []
        for row in rows:
            deg = f" degrees {row['degrees']}" if row["degrees"] else ""
            lines.append(
                f"{row['description']}:{deg} dim {row['dim']} index {row['index']} "
                f"{row['class']} TCS {row['verdicts']['TCS']} CL {row['verdicts']['CL']}"
            )
        lines.append(
            f"cases: {summary['cases']}, holds: {summary['holds']}, "
            f"failures: {summary['failures']}"
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canstrip",
        description="Hilbert polynomials of homogeneous spaces and canonical-strip certification",
        epilog=_DIAGRAMS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        p: argparse.ArgumentParser, formats=("text", "json", "csv"), digits: bool = True
    ) -> None:
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None, help="output path (CANSTRIP_OUT_DIR for relative paths)")
        if digits:
            p.add_argument("--digits", type=int, default=None, help="include advisory approximate roots")

    def space_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--type", required=True, help="series letter or combined name, e.g. A or E6")
        p.add_argument("--rank", type=int, default=None)
        p.add_argument("--node", type=int, required=True, help="marked node, Bourbaki numbering")

    p = sub.add_parser("gp", help="a rational homogeneous space G/P")
    space_args(p)
    common(p)
    p.set_defaults(func=cmd_gp)

    p = sub.add_parser("ci", help="complete intersection in G/P")
    space_args(p)
    p.add_argument("--degrees", required=True, help="comma-separated positive degrees, e.g. 2,3")
    common(p)
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser("cover", help="double cover of G/P branched in |2dL|")
    space_args(p)
    p.add_argument("--degree", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("abelian", help="complete intersection in an abelian variety")
    p.add_argument("--spec", required=True, help="JSON file with n, c and intersection numbers")
    common(p, formats=("text", "json"))
    p.set_defaults(func=cmd_abelian)

    p = sub.add_parser("check", help="certify the line hypothesis for a bare polynomial")
    p.add_argument("--coeffs", required=True, help="comma-separated rationals, lowest degree first")
    common(p, formats=("text", "json"))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="batch verification over types, nodes and multidegrees")
    p.add_argument("--series", default=None, help="comma-separated series filter, e.g. A,B")
    p.add_argument("--max-rank", type=int, default=8, help=f"default 8, hard cap {HARD_RANK_CAP}")
    p.add_argument("--node", type=int, default=None, help="restrict to one node index")
    p.add_argument("--max-total-degree", type=int, default=0)
    p.add_argument("--max-codim", type=int, default=3)
    p.add_argument("--jobs", type=int, default=1)
    common(p, digits=False)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "digits", None) is not None and args.digits < 1:  # sweep has none
            raise ValueError("need digits >= 1")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

