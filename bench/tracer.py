"""Timing wrappers around conclab's public functions, for the traced run.

The tracer patches every ``conclab`` module namespace that binds a wrapped
function (``cli`` and ``verify`` import names with ``from .dist import ...``),
and the methods of ``IntDist`` and ``LatticeDist`` on their classes.  Each
call becomes a span (name, start, end, parent span, job id) kept in flat
arrays in memory; ``write_spans`` dumps them after the run.  Problem sizes
(atoms, denominator bits, leaves, cells) are computed from arguments and
return values inside the wrapper, so only the traced run pays for them.

Self time is a span's duration minus the durations of its direct children;
spans nest because the program is single-threaded.  ``total_s`` sums the
durations of spans that are not nested in a span of the same name.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter


def _den_bits(masses) -> int:
    d = 1
    for m in masses:
        d = d * m.denominator // math.gcd(d, m.denominator)
    return d.bit_length()


def _extremal_count(alpha: Fraction, width: int) -> int:
    """Number of extremal laws for alpha supported in a window of `width`
    sites (0 when they do not fit)."""
    k = math.floor(1 / alpha)
    residue = 1 - k * alpha
    return math.comb(width, k) * (width - k if residue > 0 else 1)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.job_id = -1
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.minima: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def note_size(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)
        self.minima[key] = min(self.minima.get(key, value), value)

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn, name, after=None):
        """Span around fn.  `name` is a string or a function of the call's
        arguments; `after(args, result, span_index)` records sizes."""
        fixed = self.span_id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(fixed if fixed is not None else self.span_id(name(args)))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(args, result, i)
            return result

        return wrapper

    def wrap_generator(self, fn, name):
        """One span per resumption of the generator, so the consumer's work
        between items stays outside it."""
        sid = self.span_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = self._open(sid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(i)
                self.counts[name + ".records"] += 1
                yield item

        return wrapper

    def _open(self, sid: int) -> int:
        i = len(self.start)
        self.name.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def spans_since(self, i: int, name: str) -> int:
        """Spans of `name` opened inside span i (its descendants)."""
        return self.name[i + 1:].count(self.span_id(name))

    def has_ancestor(self, i: int, name: str) -> bool:
        sid = self.span_id(name)
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == sid:
                return True
            p = self.parent[p]
        return False

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace owner.attr, and every conclab module binding of the same
        object, with the wrapper."""
        orig = getattr(owner, attr)
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "conclab" or mod_name.startswith("conclab."):
                    targets += [(mod, k) for k, v in vars(mod).items() if v is orig and (mod, k) != (owner, attr)]
        for obj, key in targets:
            self._undo.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def install(self) -> None:
        """Wrap the public functions of every conclab layer."""
        from conclab import cli, dist, domination, extremal, gaps, gauss, rearrange, roots, verify

        def fn(module, attr, name, after=None):
            self.patch(module, attr, self.wrap(getattr(module, attr), name, after))

        def dist_sizes(prefix):
            def after(args, result, i):
                self.note_size(prefix + ".atoms_out", len(result))
                self.note_size(prefix + ".den_bits", _den_bits(m for _, m in result.atoms))
            return after

        def tse_after(args, result, i):
            alphas = [a for a in args[0] if (1 / a).denominator != 1]
            self.counts["extremal.tse.leaves"] += 2 ** len(alphas)
            self.counts["extremal.tse.tied"] += len(set(alphas)) < len(alphas)
            self.counts["extremal.tse.convolve_calls"] += self.spans_since(i, "dist.convolve")
            self.counts["verify.scan.tse_calls"] += self.has_ancestor(i, "verify.conjecture_scan")

        def oracle_after(args, result, i):
            lo, hi = args[1]
            self.counts["extremal.t_oracle.leaves"] += math.prod(_extremal_count(a, hi - lo + 1) for a in args[0])
            self.counts["extremal.t_oracle.convolve_calls"] += self.spans_since(i, "dist.convolve")

        def outcome_after(args, result, i):
            self.counts["verify.outcome." + result.outcome] += 1

        def coupling_after(args, result, i):
            self.counts["rearrange.dominating_coupling.cells"] += len(result.cells)

        def cells_after(args, result, i):
            self.counts["gauss.discretized_gaussian.cells"] += len(result.cells)

        fn(cli, "run", "cli.run")
        fn(cli, "build_parser", "cli.build_parser")
        fn(cli, "emit", "cli.emit")
        for loader in ("load_dist", "load_lattice", "load_json", "_load_gap", "_load_spec"):
            fn(cli, loader, "cli.load")

        fn(dist, "convolve", "dist.convolve", dist_sizes("dist.convolve"))
        fn(dist, "convolve_power", "dist.convolve_power")
        fn(dist, "q_max", "dist.q_max")
        fn(dist.IntDist, "__init__", "dist.IntDist.init")
        fn(dist.IntDist, "mass", "dist.IntDist.mass")

        fn(extremal, "tse", "extremal.tse", tse_after)
        fn(extremal, "t_oracle", "extremal.t_oracle", oracle_after)
        fn(extremal, "tsebal", "extremal.tsebal")

        self.patch(verify, "conjecture_scan", self.wrap_generator(verify.conjecture_scan, "verify.conjecture_scan"))
        fn(verify, "quantized_extremal_measures", "verify.quantized_extremal_measures")
        fn(verify, "instance_digest", "verify.instance_digest")
        for lemma, checker in CHECKERS.items():
            fn(verify, checker, "verify." + lemma, outcome_after)

        fn(rearrange, "dominating_coupling", "rearrange.dominating_coupling", coupling_after)
        fn(rearrange, "plus_rearrange", "rearrange.plus_rearrange")
        fn(domination, "dominates", "domination.dominates")
        fn(domination, "q_profile", "domination.q_profile")
        fn(gaps, "connected_decomposition", "gaps.connected_decomposition")
        fn(gaps, "integer_span_basis", "gaps.integer_span_basis")
        fn(roots, "power_interval", "roots.power_interval")

        fn(gauss, "lconv", "gauss.lconv", dist_sizes("gauss.lconv"))
        fn(gauss, "pow_conv", "gauss.pow_conv")
        fn(gauss.LatticeDist, "__init__", "gauss.LatticeDist.init")
        fn(gauss.LatticeDist, "mass", "gauss.LatticeDist.mass")
        fn(gauss, "tv_exact", "gauss.tv_exact")
        fn(gauss, "llt_terms", "gauss.llt_terms")
        fn(gauss, "discretized_gaussian", lambda args: f"gauss.discretized_gaussian.d{args[0].dim}", cells_after)
        fn(gauss, "berry_esseen_gap", "gauss.berry_esseen_gap")

    # -- reporting --------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, self_s and total_s per span name."""
        n = len(self.start)
        child = [0.0] * n
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[names[i]]]
            dur = ends[i] - starts[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            p = parents[i]
            if p < 0 or names[p] != names[i]:
                row["total_s"] += dur
        return out

    def write_spans(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.job[i]}\n")


# CLI lemma name -> checker function in conclab.verify.
CHECKERS = {
    "thm_tse": "thm_tse_check",
    "logconcmode": "logconcmode_check",
    "logconcdomination": "logconcdomination_check",
    "few_dropped": "few_dropped_check",
    "balanced_continuous": "balanced_continuous_check",
    "midsize_alpha_continuity": "midsize_continuity_check",
    "balanced_continuity_large": "large_continuity_check",
    "peakednessl1": "peakedness1_check",
    "peakednessl2": "peakedness2_check",
    "odlyzko_richmond": "odlyzko_richmond_check",
}
