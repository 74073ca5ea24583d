"""Command-line surface over every module.

Results are emitted as JSON (rationals always as "num/den"), CSV for the
convergence experiment, or plain text for distributions.  Exit codes: 0 on
success or all-pass, 1 when a check fails or the scan finds a violation, 2 on
usage or validation errors.  A fixed --seed yields byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import gaps, gauss, verify
from .dist import IntDist, as_fraction, format_fraction
from .domination import dominates
from .extremal import AlphaSeq, nu, t_oracle, t_oracle_curve, tse_report_json_obj, tsebal
from .gaps import SymGAP, connected_decomposition, gap_cover, gap_fit_rank1, gap_is_proper, gap_sumset
from .gauss import GaussSpec, LatticeDist
from .rearrange import dominating_coupling, minus_rearrange, plus_rearrange, sym_rearrange
from .verify import ScanConfig, conjecture_scan, scan_mode

USAGE_ERROR = 2
CHECK_FAILED = 1


class CliError(Exception):
    pass


def require(args, name: str):
    """Fetch an option that the chosen action needs; exit 2 when absent."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise CliError(f"--{name} is required for this action")
    return value


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad rational {text!r}: {exc}") from exc


def parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise CliError(f"bad window {text!r}; expected a..b") from exc


def parse_alphas(text: str) -> AlphaSeq:
    return AlphaSeq(parse_fraction(part) for part in text.split(","))


def load_dist(path: str) -> IntDist:
    raw = Path(path).read_text()
    try:
        if raw.lstrip().startswith("{"):
            try:
                return IntDist.from_json(raw)
            except json.JSONDecodeError as exc:
                raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        return IntDist.from_text(raw)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def load_lattice(path: str) -> LatticeDist:
    raw = Path(path).read_text()
    try:
        return LatticeDist.from_json_obj(json.loads(raw))
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def emit(args, payload, text: str | None = None) -> None:
    """Write the result to stdout and to --out when given."""
    if getattr(args, "seed", None) is not None and isinstance(payload, dict):
        payload.setdefault("seed", args.seed)
    if getattr(args, "format", "json") == "text" and text is not None:
        rendered = text
    else:
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(rendered)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(rendered)


# -- dist ------------------------------------------------------------------


def cmd_dist(args) -> int:
    if args.action == "conv":
        from .dist import convolve_all

        result = convolve_all([load_dist(p) for p in args.inputs])
        emit(args, result.to_json_obj(), result.to_text())
    elif args.action == "stats":
        from .dist import is_log_concave, is_unimodal, max_span, mean, modes, q_max, variance

        mu = load_dist(args.inputs[0])
        span = max_span(mu)
        emit(
            args,
            {
                "mean": format_fraction(mean(mu)),
                "variance": format_fraction(variance(mu)),
                "q_max": format_fraction(q_max(mu)),
                "max_span": "INFINITE" if span.is_infinite else span.value,
                "log_concave": is_log_concave(mu),
                "unimodal": is_unimodal(mu),
                "modes": modes(mu),
                "atoms": len(mu),
            },
        )
    elif args.action == "rearrange":
        mu = load_dist(args.inputs[0])
        if args.kind == "plus":
            result = plus_rearrange(mu)
        elif args.kind == "minus":
            result = minus_rearrange(mu)
        else:
            sym = sym_rearrange(mu)
            if sym is None:
                emit(args, {"exists": False})
                return 0
            result = sym
        emit(args, result.to_json_obj(), result.to_text())
    elif args.action == "squeeze":
        from .dist import squeeze

        result = squeeze(load_dist(args.inputs[0]))
        emit(args, result.to_json_obj(), result.to_text())
    elif args.action == "span":
        from .dist import max_span

        span = max_span(load_dist(args.inputs[0]))
        emit(args, {"max_span": "INFINITE" if span.is_infinite else span.value})
    return 0


# -- extremal ----------------------------------------------------------------


def cmd_extremal(args) -> int:
    if args.action == "nu":
        result = nu(parse_fraction(require(args, "alpha")))
        emit(args, result.to_json_obj(), result.to_text())
    elif args.action == "tse":
        emit(args, tse_report_json_obj(parse_alphas(require(args, "alphas"))))
    elif args.action == "tsebal":
        alphas = parse_alphas(require(args, "alphas"))
        try:
            value = tsebal(alphas)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        emit(args, {"alphas": [format_fraction(a) for a in alphas], "tsebal": format_fraction(value)})
    elif args.action == "oracle":
        alphas = parse_alphas(require(args, "alphas"))
        if args.windows:
            windows = [parse_window(part) for part in args.windows.split(",")]
            try:
                curve = t_oracle_curve(alphas, windows)
            except ValueError as exc:
                raise CliError(str(exc)) from exc
            emit(args, {"alphas": [format_fraction(a) for a in alphas], "curve": curve})
            return 0
        window = parse_window(require(args, "window"))
        try:
            value, witness = t_oracle(alphas, window)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        emit(
            args,
            {
                "alphas": [format_fraction(a) for a in alphas],
                "window": list(window),
                "value": format_fraction(value),
                "witness": [d.to_json_obj() for d in witness],
            },
        )
    return 0


# -- relations ----------------------------------------------------------------


def cmd_dominate(args) -> int:
    report = dominates(load_dist(args.mu1), load_dist(args.mu2), parse_fraction(args.eps))
    emit(args, report.to_json_obj())
    return 0 if report.holds else CHECK_FAILED


def cmd_couple(args) -> int:
    try:
        coupling = dominating_coupling(load_dist(args.mu), load_dist(args.mu_prime), parse_fraction(args.eps))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    payload = json.loads(coupling.to_json())
    payload["prob_A"] = format_fraction(coupling.prob_a())
    emit(args, payload)
    return 0


def cmd_decompose(args) -> int:
    try:
        decomposition = connected_decomposition(load_dist(args.mu))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    payload = decomposition.to_json_obj()
    payload["connected"] = decomposition.is_connected()
    emit(args, payload)
    return 0


# -- gaps ----------------------------------------------------------------------


def _load_gap(path: str) -> SymGAP:
    try:
        return SymGAP.from_json_obj(load_json(path))
    except (ValueError, KeyError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def cmd_gap(args) -> int:
    if args.action == "sumset":
        if len(args.inputs) != 2:
            raise CliError("sumset needs two progression files")
        result = gap_sumset(_load_gap(args.inputs[0]), _load_gap(args.inputs[1]))
        emit(args, result.to_json_obj())
    elif args.action == "proper":
        if not args.inputs:
            raise CliError("proper needs a progression file")
        gap = _load_gap(args.inputs[0])
        try:
            proper = gap_is_proper(gap, budget=args.budget)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        emit(args, {"proper": proper, "volume": gap.volume(), "distinct": len(gap.elements(args.budget))})
    elif args.action == "fit":
        values = [int(v) for v in require(args, "values").split(",")]
        gap = gap_fit_rank1(values, parse_fraction(args.eps))
        emit(args, None if gap is None else gap.to_json_obj())
    elif args.action == "cover":
        if len(args.inputs) < 2:
            raise CliError("cover needs a progression file and distributions")
        gap = _load_gap(args.inputs[0])
        dists = [load_dist(p) for p in args.inputs[1:]]
        try:
            fraction_covered = gap_cover(gap, dists, budget=args.budget)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        emit(args, {"cover": format_fraction(fraction_covered)})
    return 0


def cmd_lattice_basis(args) -> int:
    if args.vectors_file:
        vectors = load_json(args.vectors_file)
    else:
        vectors = [
            [int(v) for v in part.split(",")] for part in require(args, "vectors").split(";")
        ]
    try:
        basis = gaps.integer_span_basis(vectors)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    emit(
        args,
        {
            "rank": basis.rank,
            "matrix": [list(row) for row in basis.matrix],
            "coords": {",".join(map(str, v)): list(c) for v, c in sorted(basis.coords.items())},
            "coord_bound_ok": basis.coord_bound_ok,
        },
    )
    return 0


# -- gauss -----------------------------------------------------------------------


def _load_spec(path: str) -> GaussSpec:
    obj = load_json(path)
    try:
        return GaussSpec(tuple(float(x) for x in obj["mean"]), tuple(tuple(float(v) for v in row) for row in obj["cov"]))
    except (ValueError, KeyError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def cmd_gauss(args) -> int:
    if args.action == "cells":
        spec = _load_spec(require(args, "spec"))
        box = [parse_window(part) for part in require(args, "box").split(",")]
        try:
            table = gauss.discretized_gaussian(spec, box, tol=args.tol, seed=args.seed or 0)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        emit(
            args,
            {
                "cells": [[list(site), p, err] for site, (p, err) in sorted(table.cells.items())],
                "tail_bound": table.tail_bound,
            },
        )
    elif args.action == "tv":
        if not args.inputs:
            raise CliError("tv needs a lattice distribution file")
        s = load_lattice(args.inputs[0])
        if args.pow:
            ms = [int(m) for m in args.pow.split(",")]
            rows = gauss.tv_convergence_curve(s, ms, tol=args.tol)
            if args.format == "csv":
                buf = io.StringIO()
                writer = csv.DictWriter(buf, fieldnames=["m", "tv", "tv_err", "L", "chi", "s_tilde"])
                writer.writeheader()
                writer.writerows(rows)
                sys.stdout.write(buf.getvalue())
                if args.out:
                    Path(args.out).write_text(buf.getvalue())
            else:
                emit(args, {"curve": rows})
        else:
            try:
                result = gauss.tv_to_discretized_gaussian(s, tol=args.tol)
            except ValueError as exc:
                raise CliError(str(exc)) from exc
            emit(args, {"tv": result.value, "err": result.err, "cells": result.cells, "tail_bound": result.tail_bound})
    elif args.action == "terms":
        if not args.inputs:
            raise CliError("terms needs at least one lattice distribution file")
        ys = [load_lattice(p) for p in args.inputs]
        try:
            terms = gauss.llt_terms(ys)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        emit(
            args,
            {
                "L": terms.L,
                "chi": terms.chi,
                "s_tilde": terms.s_tilde,
                "u": list(terms.u),
                "applicable": terms.applicable,
            },
        )
    elif args.action == "tail":
        cov = load_json(require(args, "cov"))
        t_value = require(args, "t")
        if args.samples:
            report = gauss.gaussian_tail_check(cov, t_value, args.samples, seed=args.seed or 0)
            emit(
                args,
                {
                    "bound": report.bound,
                    "empirical": report.empirical,
                    "std_err": report.std_err,
                    "holds": report.holds,
                    "samples": report.samples,
                },
            )
            return 0 if report.holds else CHECK_FAILED
        try:
            bound = gauss.gaussian_tail_bound(cov, t_value)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        emit(args, {"bound": bound})
    return 0


def cmd_be_gap(args) -> int:
    mus = [load_dist(p) for p in args.inputs]
    if args.repeat > 1:
        mus = mus * args.repeat
    try:
        report = gauss.berry_esseen_gap(mus)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    emit(
        args,
        {
            "max_cdf_gap": report.max_cdf_gap,
            "bound": report.bound,
            "third_moment": format_fraction(report.third_moment),
            "variance": format_fraction(report.variance),
            "c_be": args.c_be,
            "holds": report.max_cdf_gap <= args.c_be * report.bound,
        },
    )
    return 0 if report.max_cdf_gap <= args.c_be * report.bound else CHECK_FAILED


# -- verify ------------------------------------------------------------------------


def _json_int(value) -> int:
    """An integer field of a JSON instance: floats and booleans are rejected,
    never truncated."""
    if type(value) is not int:
        raise ValueError(f"expected a JSON integer, got {value!r}")
    return value


# instance field -> parser of its JSON value
_FIELD_PARSERS = {
    "alphas": AlphaSeq,
    "alphas_prime": AlphaSeq,
    "alpha": as_fraction,
    "alpha_prime": as_fraction,
    "delta": as_fraction,
    "eps": as_fraction,
    "gamma": as_fraction,
    "window": tuple,
    "signs": lambda value: value,
    "i": _json_int,
    "k": _json_int,
    "K": _json_int,
    "n": _json_int,
    "ks": lambda value: [_json_int(k) for k in value],
    **dict.fromkeys(("mu", "p", "x", "y", "z", "x_prime", "y_prime"), IntDist.from_json_obj),
    "ys": lambda value: [IntDist.from_json_obj(y) for y in value],
}

# lemma -> (checker in conclab.verify, instance fields in argument order).
# The README's "Checker instance files" table lists the same fields; a
# field in _OPTIONAL_FIELDS passes None when the instance omits it.
_LEMMAS = {
    "thm_tse": ("thm_tse_check", ("alphas", "delta", "window")),
    "logconcmode": ("logconcmode_check", ("mu", "i", "gamma")),
    "logconcdomination": ("logconcdomination_check", ("x", "y", "eps")),
    "few_dropped": ("few_dropped_check", ("alphas", "k", "K", "delta", "signs")),
    "balanced_continuous": ("balanced_continuous_check", ("alphas", "alpha", "alpha_prime")),
    "midsize_alpha_continuity": ("midsize_continuity_check", ("K", "alphas", "alphas_prime", "y")),
    "balanced_continuity_large": ("large_continuity_check", ("K", "ks", "y")),
    "peakednessl1": ("peakedness1_check", ("x", "ys", "z", "eps")),
    "peakednessl2": ("peakedness2_check", ("x", "y", "x_prime", "y_prime", "eps")),
    "odlyzko_richmond": ("odlyzko_richmond_check", ("p", "n", "delta")),
}
_OPTIONAL_FIELDS = {"signs"}


def _check_from_instance(name: str, inst: dict) -> verify.CheckReport:
    if name not in _LEMMAS:
        raise CliError(f"unknown lemma {name!r}")
    checker, fields = _LEMMAS[name]
    args = [
        None if field in _OPTIONAL_FIELDS and field not in inst else _FIELD_PARSERS[field](inst[field])
        for field in fields
    ]
    # looked up at call time, so a wrapper installed on the verify module applies
    return getattr(verify, checker)(*args)


def cmd_check(args) -> int:
    inst = load_json(args.instance)
    try:
        report = _check_from_instance(args.lemma, inst)
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"bad instance: {exc}") from exc
    emit(args, report.to_json_obj())
    return 0 if report.outcome != verify.FAIL else CHECK_FAILED


def cmd_scan(args) -> int:
    cfg = ScanConfig(
        denominator=args.denominator,
        window=parse_window(args.window),
        n=args.n,
        seed=args.seed or 0,
        budget=args.budget,
    )
    lines = []
    violations = 0
    count = 0
    for record in conjecture_scan(cfg):
        count += 1
        if record.violation:
            violations += 1
            sys.stderr.write(f"VIOLATION: {json.dumps(record.to_json_obj(), sort_keys=True)}\n")
        if record.violation or not args.violations_only:
            lines.append(json.dumps(record.to_json_obj(), sort_keys=True))
    summary = {
        "config": {
            "denominator": cfg.denominator,
            "window": list(cfg.window),
            "n": cfg.n,
            "seed": cfg.seed,
            "budget": cfg.budget,
        },
        "mode": scan_mode(cfg),
        "instances": count,
        "violations": violations,
    }
    body = "\n".join(lines) + ("\n" if lines else "") + json.dumps(summary, sort_keys=True) + "\n"
    sys.stdout.write(body)
    if args.out:
        Path(args.out).write_text(body)
    return CHECK_FAILED if violations else 0


def _report_results(path: str):
    """(name, outcome) of every report record in a JSON-lines stream."""
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise CliError(f"{path}:{lineno}: a report line must be a JSON object")
        if "outcome" in obj and "name" in obj:
            if not isinstance(obj["name"], str):
                raise CliError(f"{path}:{lineno}: the lemma name must be a string")
            yield obj["name"], obj["outcome"]


def cmd_report(args) -> int:
    try:
        counts = verify.summarize(_report_results(args.input))
    except ValueError as exc:
        raise CliError(f"{args.input}: {exc}") from exc
    emit(args, counts)
    failed = any(bucket[verify.FAIL] for bucket in counts.values())
    return CHECK_FAILED if failed else 0


# -- parser ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="also write the result to this path")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distribution operations")
    p.add_argument("action", choices=("conv", "stats", "rearrange", "squeeze", "span"))
    p.add_argument("inputs", nargs="+")
    p.add_argument("--kind", choices=("plus", "minus", "sym"), default="plus")
    _add_common(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("extremal", help="extremal measures and optima")
    p.add_argument("action", choices=("nu", "tse", "tsebal", "oracle"))
    p.add_argument("--alpha")
    p.add_argument("--alphas")
    p.add_argument("--window")
    p.add_argument("--windows", help="comma list of windows for the oracle curve")
    _add_common(p)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("dominate", help="profile domination check")
    p.add_argument("mu1")
    p.add_argument("mu2")
    p.add_argument("--eps", default="0")
    _add_common(p)
    p.set_defaults(func=cmd_dominate)

    p = sub.add_parser("couple", help="build the dominating coupling")
    p.add_argument("mu")
    p.add_argument("mu_prime")
    p.add_argument("--eps", default="0")
    _add_common(p)
    p.set_defaults(func=cmd_couple)

    p = sub.add_parser("decompose", help="connected two-point decomposition")
    p.add_argument("mu")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("gap", help="symmetric progression algebra")
    p.add_argument("action", choices=("sumset", "proper", "fit", "cover"))
    p.add_argument("inputs", nargs="*")
    p.add_argument("--values")
    p.add_argument("--eps", default="0")
    p.add_argument("--budget", type=int, default=gaps.DEFAULT_ENUM_BUDGET)
    _add_common(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("lattice-basis", help="integer span basis")
    p.add_argument("--vectors", help="semicolon-separated vectors, e.g. 0,0;2,0;0,2")
    p.add_argument("--vectors-file")
    _add_common(p)
    p.set_defaults(func=cmd_lattice_basis)

    p = sub.add_parser("gauss", help="discretized Gaussian bridge")
    p.add_argument("action", choices=("cells", "tv", "terms", "tail"))
    p.add_argument("inputs", nargs="*")
    p.add_argument("--spec")
    p.add_argument("--box")
    p.add_argument("--pow")
    p.add_argument("--cov")
    p.add_argument("--t", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser("be-gap", help="exact CDF gap against the normal")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--c-be", type=float, default=0.56)
    _add_common(p)
    p.set_defaults(func=cmd_be_gap)

    p = sub.add_parser("check", help="run one lemma checker on an instance file")
    p.add_argument("lemma")
    p.add_argument("--instance", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("scan-conjecture", help="brute-force conjecture scan")
    p.add_argument("--denominator", type=int, required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--violations-only", action="store_true", help="emit only violating records")
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("report", help="summarize a JSON-lines report stream")
    p.add_argument("input")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
