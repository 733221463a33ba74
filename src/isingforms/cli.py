"""Command line front end.

Every subcommand prints one deterministic report: no timestamps, no
environment echoes, stable ordering everywhere, so identical invocations
produce byte-identical output. Exit codes: 0 all checks pass, 1 a
mathematical check failed, 2 a bad request. main maps exceptions to exit
codes in one place: a RequestError (unparsable or out-of-range input, a size
limit) or an OSError writing --out exits 2, any other ValueError exits 1.

Both entry points, python -m isingforms and the isingforms command, exit
through run: it flushes stdout and stderr and ends the process with
os._exit, skipping interpreter teardown, which no answer needs. A failed
write to stdout exits 2, like an unwritable --out.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import codes as codes_mod
from . import virasoro
from .codes import RequestError
from .intertwining import TripleSpec, build_correlation, check_well_defined, integrality_verdict
from .lattices import (
    admissible_weights,
    compare,
    contains,
    eigenvalue_table,
    graded_dual,
    lattice_at_level,
    saturate_generated_form,
)
from .tensor import (
    HVector,
    omega_component,
    omega_total,
    weight1_count_e8,
)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise RequestError(f"cannot parse rational {text!r}") from None


def _max_level(text: str) -> int:
    """argparse type for --max-level and --level: levels start at 0."""
    level = int(text)
    if level < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {level}")
    return level


def _positive_int(text: str) -> int:
    """argparse type for --mode-budget and --rounds."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _flatten(value, prefix="", out=None) -> list[tuple[str, str]]:
    """The (dotted key, text) rows of a dict or list report, appended to out
    in order."""
    if out is None:
        out = []
    for k, v in value.items() if isinstance(value, dict) else enumerate(value):
        key = f"{prefix}{k}"
        if isinstance(v, (dict, list, tuple)):
            _flatten(v, key + ".", out)
        elif v is None:
            out.append((key, "-"))
        elif isinstance(v, bool):
            out.append((key, "true" if v else "false"))
        else:
            out.append((key, str(v)))
    return out


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        import json  # only json reports need it

        return json.dumps(report, sort_keys=True, indent=2,
                          default=lambda x: {"n": x.numerator, "d": x.denominator}) + "\n"
    rows = _flatten(report)
    if fmt == "tsv":
        return "".join(f"{k}\t{v}\n" for k, v in rows)
    width = max((len(k) for k, _ in rows), default=0)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_codes_check(args) -> tuple[dict, bool]:
    code = codes_mod.resolve_code(args.code)
    report = codes_mod.goodform_conditions(code)
    dist = sorted(code.weight_distribution().items())
    out = {
        "code": {
            "source": args.code,
            "length": code.n,
            "dimension": code.dimension,
            "words": len(code),
        },
        "conditions": {
            "length_multiple_of_4": report.n_multiple_of_4,
            "inside_even_code": report.inside_even_code,
            "contains_full_set": report.contains_full_set,
            "separating": report.separating,
            "passed": report.passed,
        },
        "missing_pairs": [f"{i},{j}" for i, j in report.missing_pairs],
        "type_ii": code.is_type_ii(),
        "self_dual": code.is_self_dual(),
        "weight_distribution": [{"weight": w, "count": c} for w, c in dist],
    }
    return out, report.passed


def _cmd_codes_build(args) -> tuple[str, bool]:
    code = codes_mod.resolve_code(args.code)
    return codes_mod.format_code_file(code, full=args.full), True


def _cmd_vir_dims(args) -> tuple[dict, bool]:
    h = _parse_fraction(args.h)
    dims = virasoro.graded_dimensions(virasoro.ising_params(h), args.max_level)
    return {
        "central": virasoro.ISING_ELL,
        "h": h,
        "max_level": args.max_level,
        "dims": list(dims),
    }, True


def _level_row(entry) -> dict:
    return {
        "level": entry.level,
        "conformal_weight": entry.weights.total + entry.level,
        "ambient": entry.ambient_dim,
        "rank": entry.rank,
        "full_rank": entry.full_rank,
        "denominator": entry.denominator,
    }


def _code_and_weights(args):
    """--code resolved and --H parsed, with --power checked against the weights."""
    code = codes_mod.resolve_code(args.code)
    weights = HVector.parse(args.H)
    if args.power is not None and args.power != weights.n:
        raise RequestError(f"--power {args.power} against {weights.n} weights")
    return code, weights


def _cmd_form_verify(args) -> tuple[dict, bool]:
    code, weights = _code_and_weights(args)
    if weights.n != code.n:
        raise RequestError(f"weight vector length {weights.n} against code length {code.n}")
    ok, reason = admissible_weights(code, weights)
    goodform = codes_mod.goodform_conditions(code).passed
    out: dict = {
        "code": args.code,
        "weights": str(weights),
        "goodform": goodform,
        "admissible": ok,
    }
    if not ok or not goodform:
        out["reason"] = reason or "code fails the form conditions"
        return out, False
    entries = [lattice_at_level(code, weights, level) for level in range(args.max_level + 1)]
    out["levels"] = [_level_row(entry) for entry in entries]
    passed = all(entry.full_rank for entry in entries)
    vacuum = weights.total == 0
    if vacuum and args.max_level >= 2:
        entry = entries[2]
        omega_in = contains(entry, omega_total(weights.n))
        scale = len(code) // 2
        comps = []
        for i in range(1, weights.n + 1):
            comps.append({
                "component": i,
                "factor": scale,
                "contained": contains(entry, scale * omega_component(weights.n, i)),
            })
        out["omega_contained"] = omega_in
        out["scaled_components"] = comps
        passed = passed and omega_in and all(c["contained"] for c in comps)
    if not vacuum:
        eigs = []
        integral = True
        for t, value in eigenvalue_table(code, weights):
            eigs.append({
                "word": t.to_string(),
                "value": value,
                "integral": value.denominator == 1,
            })
            integral = integral and value.denominator == 1
        out["eigenvalues"] = eigs
        passed = passed and integral
    return out, passed


def _cmd_form_generated(args) -> tuple[dict, bool]:
    text = args.gen.strip()
    if not text.endswith("omega"):
        raise RequestError(f"generator spec {text!r} not understood; use e.g. 2omega")
    head = text[: -len("omega")]
    try:
        scale = int(head) if head else 1
    except ValueError:
        raise RequestError(f"generator spec {text!r} not understood") from None
    if scale == 0:
        raise RequestError("the generator must be nonzero")
    if args.max_level < 2 or args.mode_budget < 2:
        raise RequestError("the generator sits at level 2 and enters by mode -2: "
                           "--max-level and --mode-budget must be at least 2")
    gen = scale * omega_total(args.power)
    report = saturate_generated_form(
        [gen], args.max_level, args.mode_budget, max_rounds=args.rounds)
    rows = [
        {
            "level": level,
            "rank": entry.rank,
            "ambient": entry.ambient_dim,
            "denominator": entry.denominator,
        }
        for level, entry in sorted(report.per_level.items())
    ]
    out = {
        "generator": f"{scale}omega",
        "power": args.power,
        "max_level": args.max_level,
        "mode_budget": args.mode_budget,
        "rounds": report.rounds,
        "stabilized": report.stabilized,
        "message": report.message,
        "levels": rows,
    }
    out["omega_at_level_2"] = contains(report.per_level[2], omega_total(args.power))
    return out, report.stabilized


def _cmd_dual(args) -> tuple[dict, bool]:
    code, weights = _code_and_weights(args)
    entry = lattice_at_level(code, weights, args.level)
    if not entry.ambient_dim:
        raise RequestError(f"level {args.level} of {weights} has no states")
    rep = graded_dual(entry)
    zero = Fraction(0)
    out = {
        "code": args.code,
        "weights": str(weights),
        "level": args.level,
        "conformal_weight": weights.total + args.level,
        "rank": entry.rank,
        "denominator": entry.denominator,
        "gram": [list(row) for row in rep.gram],
        "index": rep.index,
        "dual_contains_lattice": rep.contains_lattice,
        "self_dual": rep.self_dual,
        "dual_basis": [
            [Fraction(row[j], rep.dual.denominator) if j in row else zero
             for j in range(entry.ambient_dim)]
            for row in rep.dual.basis
        ],
    }
    if args.compare:
        cmp_report = compare(entry, rep.dual)
        out["compare"] = {
            "lattice_in_dual": cmp_report.a_in_b,
            "dual_in_lattice": cmp_report.b_in_a,
            "equal": cmp_report.equal,
            "index": cmp_report.index,
        }
    return out, True


def _cmd_corr(args) -> tuple[dict, bool]:
    spec = TripleSpec(
        HVector.parse(args.H1),
        HVector.parse(args.H2),
        HVector.parse(args.H3),
        codes_mod.resolve_code(args.code),
        _parse_fraction(args.c),
    )
    corr = build_correlation(spec, args.max_level)
    wd = check_well_defined(corr)
    verdict = integrality_verdict(corr)
    levels = []
    for level in range(args.max_level + 1):
        entries = [
            {
                "monomial": mon.label(),
                "multiplier": corr.multiplier(mon),
                "value": corr.value(mon),
            }
            for mon in corr.monomials(level)
        ]
        levels.append({
            "level": level,
            "exponent": corr.exponent(level),
            "entries": entries,
        })
    out = {
        "h1": str(spec.h1),
        "h2": str(spec.h2),
        "h3": str(spec.h3),
        "code": args.code,
        "c": spec.lowest_coeff,
        "max_level": args.max_level,
        "base_exponent": corr.base_exponent,
        "levels": levels,
        "well_defined": {
            "passed": wd.well_defined,
            "order_checks": wd.order_checks,
            "relation_checks": wd.relation_checks,
        },
        "verdict": {
            "integral": verdict.integral,
            "witness": verdict.witness.label() if verdict.witness else None,
            "witness_value": verdict.witness_value,
        },
    }
    return out, wd.well_defined and verdict.integral


def _cmd_e8(args) -> tuple[dict, bool]:
    report = weight1_count_e8()
    out = {
        "total": report.total,
        "expected": 248,
        "vacuum_dimension": report.vacuum_dimension,
        "two_half_count": report.two_half_count,
        "two_half_dimension": report.two_half_dimension,
        "sixteenth_copies": report.sixteenth_copies,
        "sixteenth_dimension": report.sixteenth_dimension,
    }
    return out, report.total == 248


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("json", "tsv", "pretty"),
                        default="pretty", help="report format")
    shared.add_argument("--out", metavar="PATH",
                        help="write the report to a file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="isingforms",
        description="Exact integral-form checks for code tensor modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_codes = sub.add_parser("codes", help="binary code inspection")
    codes_sub = p_codes.add_subparsers(dest="subcommand", required=True)
    p_check = codes_sub.add_parser("check", parents=[shared],
                                   help="form conditions and code facts")
    p_check.add_argument("--code", required=True)
    p_check.set_defaults(func=_cmd_codes_check)
    p_build = codes_sub.add_parser("build", parents=[shared],
                                   help="print the code in file format")
    p_build.add_argument("--code", required=True)
    p_build.add_argument("--full", action="store_true",
                         help="list every word, not only generators")
    p_build.set_defaults(func=_cmd_codes_build, raw=True)

    p_vir = sub.add_parser("vir", help="single factor diagnostics")
    vir_sub = p_vir.add_subparsers(dest="subcommand", required=True)
    p_dims = vir_sub.add_parser("dims", parents=[shared],
                                help="graded dimensions of one factor")
    p_dims.add_argument("--h", required=True, help="0, 1/2 or 1/16")
    p_dims.add_argument("--max-level", type=_max_level, default=4)
    p_dims.set_defaults(func=_cmd_vir_dims)

    p_form = sub.add_parser("form", help="lattice verification")
    form_sub = p_form.add_subparsers(dest="subcommand", required=True)
    p_verify = form_sub.add_parser("verify", parents=[shared],
                                   help="per-level rank and membership checks")
    p_verify.add_argument("--code", required=True)
    p_verify.add_argument("--H", required=True, help="comma separated weights")
    p_verify.add_argument("--power", type=int)
    p_verify.add_argument("--max-level", type=_max_level, default=4)
    p_verify.set_defaults(func=_cmd_form_verify)
    p_gen = form_sub.add_parser("generated", parents=[shared],
                                help="saturate a generated form")
    p_gen.add_argument("--gen", required=True, help="generator, e.g. 2omega")
    p_gen.add_argument("--power", type=int, default=1)
    p_gen.add_argument("--max-level", type=_max_level, default=4)
    p_gen.add_argument("--mode-budget", type=_positive_int, default=6)
    p_gen.add_argument("--rounds", type=_positive_int, default=8)
    p_gen.set_defaults(func=_cmd_form_generated)

    p_dual = sub.add_parser("dual", parents=[shared],
                            help="Gram matrix and graded dual at one level")
    p_dual.add_argument("--code", required=True)
    p_dual.add_argument("--H", required=True)
    p_dual.add_argument("--power", type=int)
    p_dual.add_argument("--level", type=_max_level, required=True)
    p_dual.add_argument("--compare", action="store_true",
                        help="also compare the lattice with its dual")
    p_dual.set_defaults(func=_cmd_dual)

    p_corr = sub.add_parser("corr", parents=[shared],
                            help="coefficient recursion and integrality verdict")
    p_corr.add_argument("--H1", required=True)
    p_corr.add_argument("--H2", required=True)
    p_corr.add_argument("--H3", required=True)
    p_corr.add_argument("--code", required=True)
    p_corr.add_argument("--c", required=True, help="lowest coefficient")
    p_corr.add_argument("--max-level", type=_max_level, default=4)
    p_corr.set_defaults(func=_cmd_corr)

    p_e8 = sub.add_parser("e8", help="dimension counts")
    e8_sub = p_e8.add_subparsers(dest="subcommand", required=True)
    p_w1 = e8_sub.add_parser("weight1", parents=[shared],
                             help="weight one dimension of the sixteen factor sum")
    p_w1.set_defaults(func=_cmd_e8)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result, passed = args.func(args)
    except RequestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(result if getattr(args, "raw", False) else _render(result, args.format),
              args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


def run():
    """Run main and end the process with its status, without interpreter
    teardown: atexit callbacks that other code registers do not run.

    argparse's SystemExit (--help, usage errors) gives the status too. A
    failed stdout flush, such as a closed pipe, prints one error line and
    exits 2. An uncaught exception propagates with its traceback and the
    interpreter's own exit.
    """
    try:
        status = main()
    except SystemExit as exc:
        status = exc.code or 0
    # A stream is None when the process started with its descriptor closed.
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(status)


if __name__ == "__main__":
    run()
