"""Command-line surface over every module.

Results are emitted as JSON (rationals always as "num/den"), CSV for the
convergence experiment, or plain text for distributions.  Exit codes: 0 on
success or all-pass, 1 when a check fails or the scan finds a violation, 2 on
usage or validation errors.  A fixed --seed yields byte-identical output.

Each command imports the layers it uses when it runs, and ``import
conclab.cli`` imports none, so a command compiles only its own layers.  Only
the gauss and be-gap commands import the Gaussian layer, and with it numpy;
no command imports scipy.  The gauss commands label their error
terms with err_kind: "certified" for bounds that are not statistical (the
d <= 2 cells and TV, the tail bound), "3-sigma" for Monte Carlo half-widths
(the d = 3 cells, the tail check).  The parser is built once per process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import re
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .dist import IntDist
    from .gaps import SymGAP
    from .gauss import GaussSpec, LatticeDist

USAGE_ERROR = 2
CHECK_FAILED = 1
CLOSED_PIPE = 141  # 128 + SIGPIPE


def finite_float(text: str) -> float:
    """A float flag; nan and +-inf are rejected, so argparse exits 2."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def positive_int(text: str) -> int:
    """A count flag; zero and negative counts are rejected, so argparse exits 2."""
    value = int(text)
    if value < 1:
        raise ValueError(f"not a positive integer: {text!r}")
    return value


def parse_window(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"\s*([+-]?\d+)\s*\.\.\s*([+-]?\d+)\s*", text)
    if match is None:
        raise ValueError(f"bad window {text!r}; expected a..b")
    return int(match[1]), int(match[2])


def _load(path: str, parse):
    """parse(text of the file); a ValueError names the file, and a JSON
    syntax error also its line and column."""
    try:
        return parse(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_dist(path: str) -> IntDist:
    from .dist import IntDist

    return _load(
        path, lambda raw: IntDist.from_json(raw) if raw.lstrip().startswith("{") else IntDist.from_text(raw)
    )


def load_lattice(path: str) -> LatticeDist:
    from .gauss import LatticeDist

    return _load(path, lambda raw: LatticeDist.from_json_obj(json.loads(raw)))


def load_json(path: str):
    return _load(path, json.loads)


def emit(args, payload, text: str | None = None) -> None:
    """Render the result as JSON, or as text under --format text, and write it."""
    if getattr(args, "seed", None) is not None and isinstance(payload, dict):
        payload.setdefault("seed", args.seed)
    if getattr(args, "format", "json") == "text" and text is not None:
        rendered = text
    else:
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write(args, [rendered])


def _write(args, chunks: Iterable[str]) -> None:
    """Write each chunk to stdout and to --out when given.  The file is
    opened before the first chunk is drawn, so an unwritable path fails
    before anything is written, and each chunk is written as it comes."""
    with open(args.out, "w") if args.out else contextlib.nullcontext() as out:
        for chunk in chunks:
            sys.stdout.write(chunk)
            if out is not None:
                out.write(chunk)


# -- dist ------------------------------------------------------------------


def cmd_dist(args) -> int:
    from .dist import (
        convolve_all,
        format_fraction,
        is_log_concave,
        is_unimodal,
        max_span,
        mean,
        modes,
        q_max,
        squeeze,
        variance,
    )

    if args.action == "conv":
        result = convolve_all([load_dist(p) for p in args.inputs])
        emit(args, result.to_json_obj(), result.to_text())
    elif args.action == "stats":
        mu = load_dist(args.input)
        span = max_span(mu)
        emit(
            args,
            {
                "mean": format_fraction(mean(mu)),
                "variance": format_fraction(variance(mu)),
                "q_max": format_fraction(q_max(mu)),
                "max_span": "INFINITE" if span is None else span,
                "log_concave": is_log_concave(mu),
                "unimodal": is_unimodal(mu),
                "modes": modes(mu),
                "atoms": len(mu),
            },
        )
    elif args.action == "rearrange":
        from .rearrange import minus_rearrange, plus_rearrange, sym_rearrange

        mu = load_dist(args.input)
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
        result = squeeze(load_dist(args.input))
        emit(args, result.to_json_obj(), result.to_text())
    elif args.action == "span":
        span = max_span(load_dist(args.input))
        emit(args, {"max_span": "INFINITE" if span is None else span})
    return 0


# -- extremal ----------------------------------------------------------------


def cmd_extremal(args) -> int:
    from .dist import format_fraction
    from .extremal import AlphaSeq, nu, t_oracle, t_oracle_curve, tse_report_json_obj, tsebal

    if args.action == "nu":
        result = nu(args.alpha)
        emit(args, result.to_json_obj(), result.to_text())
        return 0
    alphas = AlphaSeq(args.alphas.split(","))
    caps = [format_fraction(a) for a in alphas]
    if args.action == "tse":
        emit(args, tse_report_json_obj(alphas))
    elif args.action == "tsebal":
        emit(args, {"alphas": caps, "tsebal": format_fraction(tsebal(alphas))})
    elif args.windows is not None:
        windows = [parse_window(part) for part in args.windows.split(",")]
        emit(args, {"alphas": caps, "curve": t_oracle_curve(alphas, windows)})
    else:
        window = parse_window(args.window)
        value, witness = t_oracle(alphas, window)
        emit(
            args,
            {
                "alphas": caps,
                "window": list(window),
                "value": format_fraction(value),
                "witness": [d.to_json_obj() for d in witness],
            },
        )
    return 0


# -- relations ----------------------------------------------------------------


def cmd_dominate(args) -> int:
    from .domination import dominates

    report = dominates(load_dist(args.mu1), load_dist(args.mu2), args.eps)
    emit(args, report.to_json_obj())
    return 0 if report.holds else CHECK_FAILED


def cmd_couple(args) -> int:
    from .dist import format_fraction
    from .rearrange import dominating_coupling

    coupling = dominating_coupling(load_dist(args.mu), load_dist(args.mu_prime), args.eps)
    payload = coupling.to_json_obj()
    payload["prob_A"] = format_fraction(coupling.prob_a())
    emit(args, payload)
    return 0


def cmd_decompose(args) -> int:
    from .gaps import connected_decomposition

    decomposition = connected_decomposition(load_dist(args.mu))
    payload = decomposition.to_json_obj()
    payload["connected"] = decomposition.is_connected()
    emit(args, payload)
    return 0


# -- gaps ----------------------------------------------------------------------


def _load_gap(path: str) -> SymGAP:
    from .gaps import SymGAP

    return _load(path, lambda raw: SymGAP.from_json_obj(json.loads(raw)))


def cmd_gap(args) -> int:
    from .dist import format_fraction
    from .gaps import gap_cover, gap_fit_rank1, gap_is_proper, gap_sumset

    if args.action == "sumset":
        emit(args, gap_sumset(*map(_load_gap, args.inputs)).to_json_obj())
    elif args.action == "proper":
        gap = _load_gap(args.input)
        emit(args, {"proper": gap_is_proper(gap), "volume": gap.volume(), "distinct": len(gap.elements())})
    elif args.action == "fit":
        values = [int(v) for v in args.values.split(",")]
        gap = gap_fit_rank1(values, args.eps)
        emit(args, None if gap is None else gap.to_json_obj())
    elif args.action == "cover":
        gap = _load_gap(args.gap)
        dists = [load_dist(p) for p in args.inputs]
        emit(args, {"cover": format_fraction(gap_cover(gap, dists))})
    return 0


def _int_vectors(obj) -> list:
    """A JSON list of lists of integers, else a ValueError."""
    if not isinstance(obj, list) or not all(isinstance(v, list) and all(type(x) is int for x in v) for v in obj):
        raise ValueError("vectors must be a list of lists of integers")
    return obj


def cmd_lattice_basis(args) -> int:
    from .gaps import integer_span_basis

    if args.vectors_file is not None:
        vectors = _int_vectors(load_json(args.vectors_file))
    else:
        vectors = [[int(v) for v in part.split(",")] for part in args.vectors.split(";")]
    basis = integer_span_basis(vectors)
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
    from .gauss import GaussSpec

    return _load(path, lambda raw: GaussSpec.from_json_obj(json.loads(raw)))


def cmd_gauss(args) -> int:
    from . import gauss

    if args.action == "cells":
        spec = _load_spec(args.spec)
        box = [parse_window(part) for part in args.box.split(",")]
        table = gauss.discretized_gaussian(spec, box, tol=args.tol, seed=args.seed or 0)
        emit(
            args,
            {
                "cells": [[list(site), p, err] for site, (p, err) in table.cells.items()],
                "tail_bound": table.tail_bound,
                "err_kind": table.err_kind,
            },
        )
    elif args.action == "tv":
        if args.format == "csv" and args.pow is None:
            raise ValueError("--format csv needs --pow")
        s = load_lattice(args.input)
        if args.pow is not None:
            rows = gauss.tv_convergence_curve(s, [int(m) for m in args.pow.split(",")], tol=args.tol)
            if args.format == "csv":
                import csv

                buf = io.StringIO()
                writer = csv.DictWriter(buf, fieldnames=["m", "tv", "tv_err", "L", "chi", "s_tilde"])
                writer.writeheader()
                writer.writerows(rows)
                _write(args, [buf.getvalue()])
            else:
                emit(args, {"curve": rows})
        else:
            emit(args, gauss.tv_to_discretized_gaussian(s, tol=args.tol))
    elif args.action == "terms":
        emit(args, gauss.llt_terms([load_lattice(p) for p in args.inputs]))
    elif args.action == "tail":
        cov = load_json(args.cov)
        if args.samples is not None:
            report = gauss.gaussian_tail_check(cov, args.t, args.samples, seed=args.seed or 0)
            emit(args, report)
            return 0 if report["holds"] else CHECK_FAILED
        emit(args, {"bound": gauss.gaussian_tail_bound(cov, args.t), "err_kind": "certified"})
    return 0


def cmd_be_gap(args) -> int:
    from . import gauss
    from .dist import format_fraction

    if args.c_be <= 0:
        raise ValueError(f"--c-be must be positive, got {args.c_be}")
    counts = Counter(map(load_dist, args.inputs))
    report = gauss.berry_esseen_gap({mu: c * args.repeat for mu, c in counts.items()})
    holds = report["max_cdf_gap"] <= args.c_be * report["bound"]
    emit(
        args,
        {
            **report,
            "third_moment": format_fraction(report["third_moment"]),
            "variance": format_fraction(report["variance"]),
            "c_be": args.c_be,
            "holds": holds,
        },
    )
    return 0 if holds else CHECK_FAILED


# -- verify ------------------------------------------------------------------------


def _json_list(value, length: int | None = None) -> list:
    """value, a JSON list of length items (any number when None), not a string or an object."""
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "" if length is None else f" of {length} items"
        raise TypeError(f"expected a JSON list{size}, got {value!r}")
    return value


def _json_ints(value, length: int | None = None) -> list[int]:
    from .dist import json_int

    return [json_int(v) for v in _json_list(value, length)]


def _json_int(value) -> int:
    from .dist import json_int

    return json_int(value)


def _fraction(value):
    from .dist import as_fraction

    return as_fraction(value)


def _alphas(value):
    from .extremal import AlphaSeq

    return AlphaSeq(_json_list(value))


def _law(value) -> IntDist:
    from .dist import IntDist

    return IntDist.from_json_obj(value)


# instance field -> parser of its JSON value; a value of the wrong JSON type is
# a TypeError, which cmd_check reports as a bad instance.  Each parser imports
# its layer when called, so importing this module imports none.
_FIELD_PARSERS = {
    **dict.fromkeys(("alphas", "alphas_prime"), _alphas),
    **dict.fromkeys(("alpha", "alpha_prime", "delta", "eps", "gamma"), _fraction),
    "window": lambda value: tuple(_json_ints(value, 2)),
    **dict.fromkeys(("signs", "ks"), _json_ints),
    **dict.fromkeys(("i", "k", "K", "n"), _json_int),
    **dict.fromkeys(("mu", "p", "x", "y", "z", "x_prime", "y_prime"), _law),
    "ys": lambda value: [_law(y) for y in _json_list(value)],
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


def cmd_check(args) -> int:
    from . import verify

    inst = load_json(args.instance)
    checker, fields = _LEMMAS[args.lemma]
    if not isinstance(inst, dict):
        raise ValueError("bad instance: an instance must be a JSON object")
    unknown = sorted(inst.keys() - fields)
    if unknown:
        raise ValueError(f"bad instance: unknown field {unknown[0]!r}")
    try:
        values = [
            None if field in _OPTIONAL_FIELDS and field not in inst else _FIELD_PARSERS[field](inst[field])
            for field in fields
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad instance: {exc}") from exc
    # looked up at call time, so a wrapper installed on the verify module applies
    report = getattr(verify, checker)(*values)
    emit(args, report.to_json_obj())
    return 0 if report.outcome != verify.FAIL else CHECK_FAILED


def cmd_scan(args) -> int:
    from dataclasses import asdict

    from .conjecture import ScanConfig, conjecture_scan, scan_mode

    cfg = ScanConfig(
        denominator=args.denominator,
        window=parse_window(args.window),
        n=args.n,
        seed=args.seed or 0,
        budget=args.budget,
    )
    violations = 0

    def lines():
        nonlocal violations
        count = 0
        for record in conjecture_scan(cfg):
            count += 1
            if record.violation or not args.violations_only:
                line = record.to_json_line()
                yield line + "\n"
            if record.violation:
                violations += 1
                sys.stderr.write(f"VIOLATION: {line}\n")
        summary = {
            "config": asdict(cfg),
            "mode": scan_mode(cfg),
            "instances": count,
            "violations": violations,
        }
        yield json.dumps(summary, sort_keys=True) + "\n"

    _write(args, lines())
    return CHECK_FAILED if violations else 0


def _report_results(path: str):
    """(name, outcome) of every report record in a JSON-lines stream."""
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}:{exc.colno}: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise ValueError(f"{path}:{lineno}: a report line must be a JSON object")
        if "outcome" in obj and "name" in obj:
            if not isinstance(obj["name"], str):
                raise ValueError(f"{path}:{lineno}: the lemma name must be a string")
            yield obj["name"], obj["outcome"]


def cmd_report(args) -> int:
    from . import verify

    counts = verify.summarize(_report_results(args.input))
    emit(args, counts)
    failed = any(bucket[verify.FAIL] for bucket in counts.values())
    return CHECK_FAILED if failed else 0


# -- parser ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Rejects unknown arguments with its own usage, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error("unrecognized arguments: " + " ".join(extra))
        return namespace, extra


def _leaf(sub, name: str, *formats: str, seed: bool = False, func=None, **kwargs) -> argparse.ArgumentParser:
    """The parser of one command or action, with --out; --format only where it
    renders more than JSON (formats besides json), --seed only where it samples."""
    p = sub.add_parser(name, **kwargs)
    if func is not None:
        p.set_defaults(func=func)
    p.add_argument("--out", help="also write the result to this path")
    if formats:
        p.add_argument("--format", choices=("json", *formats), default="json")
    if seed:
        p.add_argument("--seed", type=int, default=None)
    return p


def _actions(sub, name: str, help_text: str, func):
    """A command whose first positional picks an action with a parser of its own."""
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(func=func)
    return p.add_subparsers(dest="action", required=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once: parse_args makes a fresh Namespace on
    every call and every default in the tree is immutable, so one parser
    serves every run in the process.  Each action declares what it reads."""
    # --help shows the module docstring's first two paragraphs (none under
    # -OO); the third is about the code, not its use
    description = __doc__ and "\n\n".join(__doc__.split("\n\n")[:2])
    parser = _Parser(prog="conclab", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    act = _actions(sub, "dist", "distribution operations", cmd_dist)
    _leaf(act, "conv", "text").add_argument("inputs", nargs="+")
    _leaf(act, "stats").add_argument("input")
    p = _leaf(act, "rearrange", "text")
    p.add_argument("input")
    p.add_argument("--kind", choices=("plus", "minus", "sym"), default="plus")
    _leaf(act, "squeeze", "text").add_argument("input")
    _leaf(act, "span").add_argument("input")

    act = _actions(sub, "extremal", "extremal measures and optima", cmd_extremal)
    _leaf(act, "nu", "text").add_argument("--alpha", required=True)
    _leaf(act, "tse").add_argument("--alphas", required=True)
    _leaf(act, "tsebal").add_argument("--alphas", required=True)
    p = _leaf(act, "oracle")
    p.add_argument("--alphas", required=True)
    window = p.add_mutually_exclusive_group(required=True)
    window.add_argument("--window")
    window.add_argument("--windows", help="comma list of windows for the oracle curve")

    p = _leaf(sub, "dominate", help="profile domination check", func=cmd_dominate)
    p.add_argument("mu1")
    p.add_argument("mu2")
    p.add_argument("--eps", default="0")

    p = _leaf(sub, "couple", help="build the dominating coupling", func=cmd_couple)
    p.add_argument("mu")
    p.add_argument("mu_prime")
    p.add_argument("--eps", default="0")

    p = _leaf(sub, "decompose", help="connected two-point decomposition", func=cmd_decompose)
    p.add_argument("mu")

    act = _actions(sub, "gap", "symmetric progression algebra", cmd_gap)
    _leaf(act, "sumset").add_argument("inputs", nargs=2, metavar="gap")
    _leaf(act, "proper").add_argument("input")
    p = _leaf(act, "fit")
    p.add_argument("--values", required=True)
    p.add_argument("--eps", default="0")
    p = _leaf(act, "cover")
    p.add_argument("gap")
    p.add_argument("inputs", nargs="+")

    p = _leaf(sub, "lattice-basis", help="integer span basis", func=cmd_lattice_basis)
    vectors = p.add_mutually_exclusive_group(required=True)
    vectors.add_argument("--vectors", help="semicolon-separated vectors, e.g. 0,0;2,0;0,2")
    vectors.add_argument("--vectors-file")

    act = _actions(sub, "gauss", "discretized Gaussian bridge", cmd_gauss)
    p = _leaf(act, "cells", seed=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--box", required=True)
    p.add_argument("--tol", type=finite_float, default=1e-6)
    p = _leaf(act, "tv", "csv")
    p.add_argument("input")
    p.add_argument("--pow")
    p.add_argument("--tol", type=finite_float, default=1e-6)
    _leaf(act, "terms").add_argument("inputs", nargs="+")
    p = _leaf(act, "tail", seed=True)
    p.add_argument("--cov", required=True)
    p.add_argument("--t", type=finite_float, required=True)
    p.add_argument("--samples", type=positive_int)

    p = _leaf(sub, "be-gap", help="exact CDF gap against the normal", func=cmd_be_gap)
    p.add_argument("inputs", nargs="+")
    p.add_argument("--repeat", type=positive_int, default=1)
    p.add_argument("--c-be", type=finite_float, default=0.56)

    p = _leaf(sub, "check", help="run one lemma checker on an instance file", func=cmd_check)
    p.add_argument("lemma", choices=sorted(_LEMMAS))
    p.add_argument("--instance", required=True)

    p = _leaf(sub, "scan-conjecture", seed=True, help="brute-force conjecture scan", func=cmd_scan)
    p.add_argument("--denominator", type=int, required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--violations-only", action="store_true", help="emit only violating records")

    p = _leaf(sub, "report", help="summarize a JSON-lines report stream", func=cmd_report)
    p.add_argument("input")

    return parser


def run(argv=None) -> int:
    """Run one command.  Bad input (a ValueError, or an OSError for a file
    that cannot be read) exits 2 with "error: ..." on stderr, here and only
    here.  A reader that closes stdout early, as ``head`` does, is not bad
    input: the command stops and exits 141 with nothing on stderr, as a
    shell reports a writer that SIGPIPE ended.  Any other exception is a
    program fault and stays a traceback.  Exact integers of any length are
    read and printed: Python 3.11 refuses int/str conversions of more than
    4,300 digits by default."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit; send that write to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_PIPE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
