"""The brute-force conjecture scan: q_max of sums of quantized extremal
tuples against the sign-search optimum of their caps, exhaustive or on a
seeded sample."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, gcd
from typing import Iterator

from .dist import IntDist, _convolve_numerators, format_fraction, q_max
from .extremal import AlphaSeq, _walk, check_tse_classes, quantized_extremal_measures, tse


@dataclass(frozen=True)
class ScanConfig:
    """Configuration of a conjecture scan over quantized extremal tuples."""

    denominator: int
    window: tuple[int, int]
    n: int
    seed: int = 0
    budget: int = 200_000

    def __post_init__(self):
        if self.denominator < 2:
            raise ValueError("denominator must be >= 2")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        lo, hi = self.window
        if hi < lo:
            raise ValueError("empty window")
        # the cap (D-1)/D has a law on any two sites, so only a one-site window
        # holds nothing but the point masses the scan excludes
        if hi == lo:
            raise ValueError(
                f"window {lo}..{hi} with denominator {self.denominator} holds no law but point masses, "
                "which the scan excludes; nothing to scan"
            )
        if self.budget < 1:
            raise ValueError("budget must be positive")

    @cached_property
    def measures(self) -> list[IntDist]:
        """``quantized_extremal_measures(denominator, window)``, built on
        first use and kept for the config's scan and mode.  Not a field, so
        it takes no part in ==, ``asdict`` or the repr."""
        return quantized_extremal_measures(self.denominator, self.window)


@dataclass(frozen=True)
class ScanRecord:
    """One tuple of a conjecture scan.  ``json_text`` holds the JSON texts
    of ``alphas`` and of the instance, joined from texts the scan renders
    once per cap class and once per law; it takes no part in ==."""

    index: int
    alphas: tuple[Fraction, ...]
    lhs: Fraction
    rhs: Fraction
    violation: bool
    instance: tuple[IntDist, ...]
    json_text: tuple[str, str] = field(compare=False, repr=False)

    def to_json_obj(self) -> dict:
        return {
            "index": self.index,
            "alphas": [format_fraction(a) for a in self.alphas],
            "lhs": format_fraction(self.lhs),
            "rhs": format_fraction(self.rhs),
            "margin": format_fraction(self.rhs - self.lhs),
            "violation": self.violation,
            "instance": [d.to_json_obj() for d in self.instance],
        }

    def to_json_line(self) -> str:
        """``json.dumps(self.to_json_obj(), sort_keys=True)``, written from
        ``json_text``, with lhs, rhs and margin formatted from their
        integers."""
        alphas, instance = self.json_text
        ln, ld, rn, rd = self.lhs.numerator, self.lhs.denominator, self.rhs.numerator, self.rhs.denominator
        mn, md = rn * ld - ln * rd, rd * ld
        g = gcd(mn, md)
        return (
            f'{{"alphas": {alphas}, "index": {self.index}, "instance": {instance}, "lhs": "{ln}/{ld}", '
            f'"margin": "{mn // g}/{md // g}", "rhs": "{rn}/{rd}", "violation": {"true" if self.violation else "false"}}}'
        )


def conjecture_scan(cfg: ScanConfig) -> Iterator[ScanRecord]:
    """Compare q_max of extremal-tuple sums against the sign-search optimum.

    Exhaustive over unordered tuples when their count fits the budget,
    otherwise a deterministic seeded sample of budget tuples (`scan_mode`
    decides).  Exhaustively, the walker of tse and t_oracle runs over n copies
    of the measures, which ties every level after the first (nondecreasing
    index tuples, lexicographically, each prefix convolved once); sampled,
    each draw is one kernel call.  Records stream in instance-index order.
    Any violation is a counterexample candidate and must fail the build loudly.
    Before the first record, ``check_tse_classes`` raises ValueError unless
    the sign search fits its budget on every class of n caps the measures
    can give, so a scan is refused whole or never on the way.

    The measures are ``cfg.measures``.  Tuples are drawn as indices into
    them (``rng.choice(range(m))`` consumes the same draws as
    ``rng.choice(measures)``), each measure's cap and JSON text are
    computed once, and the sign-search optimum and the JSON text of the
    caps are cached per sorted tuple of cap classes, so a record's
    ``to_json_line`` only joins texts and formats three fractions.
    """
    measures = cfg.measures
    n = cfg.n
    caps = [q_max(mu) for mu in measures]
    laws_text = [json.dumps(mu.to_json_obj(), sort_keys=True) for mu in measures]
    # class 0 is the largest cap, so sorted class indices list the caps nonincreasing
    classes = sorted(set(caps), reverse=True)
    check_tse_classes(classes, n)  # before the first record, so a refused scan prints none
    index = {a: i for i, a in enumerate(classes)}
    class_of = [index[a] for a in caps]
    class_text = [json.dumps(format_fraction(a)) for a in classes]
    # sorted class indices -> (caps, sign-search optimum, JSON text of the caps)
    tse_cache: dict[tuple[int, ...], tuple[tuple[Fraction, ...], Fraction, str]] = {}
    if scan_mode(cfg) == "exhaustive":
        leaves = _walk([measures] * n)
    else:
        rng = random.Random(cfg.seed)
        choices = range(len(measures))
        draws = (tuple(rng.choice(choices) for _ in range(n)) for _ in range(cfg.budget))
        sums = ((picks, _convolve_numerators([measures[i] for i in picks])) for picks in draws)
        leaves = ((picks, max(out.values()), den) for picks, (out, den) in sums)
    for idx, (picks, num, den) in enumerate(leaves):
        key = tuple(sorted(class_of[i] for i in picks))
        cached = tse_cache.get(key)
        if cached is None:
            alphas = tuple(classes[c] for c in key)
            text = "[" + ", ".join(class_text[c] for c in key) + "]"
            cached = tse_cache[key] = (alphas, tse(AlphaSeq(alphas))[0], text)
        alphas, rhs, alphas_text = cached
        instance_text = "[" + ", ".join(laws_text[i] for i in picks) + "]"
        yield ScanRecord(
            idx,
            alphas,
            Fraction(num, den),
            rhs,
            num * rhs.denominator > rhs.numerator * den,
            tuple(measures[i] for i in picks),
            (alphas_text, instance_text),
        )


def scan_mode(cfg: ScanConfig) -> str:
    """'exhaustive', or 'sampled(budget of total)' when the unordered tuples
    of ``cfg.measures`` outnumber the budget."""
    total = comb(len(cfg.measures) + cfg.n - 1, cfg.n)
    return "exhaustive" if total <= cfg.budget else f"sampled({cfg.budget} of {total})"
