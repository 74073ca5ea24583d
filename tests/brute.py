"""Brute-force searches for the tests, built on the benchmark's references.

``reference`` is ``bench/reference.py``, loaded from its file: the naive
exact functions on ``{site: Fraction}`` dicts that the benchmark checks
``conclab``'s output against.  This module adds what the search tests need
beyond them: the sign search and the window search with their first
maximisers, the anchored laws a scan draws from, the scan's records, and
the interval concentration.  Like ``reference``, it imports only the
standard library, so a fault in ``conclab`` cannot move the values the
tests expect.  Laws cross into here as dicts, ``dict(law.atoms)``.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_reference", Path(__file__).resolve().parents[1] / "bench" / "reference.py"
)
reference = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference)


@functools.cache
def tse(caps: tuple[Fraction, ...]) -> tuple[Fraction, tuple[int, ...]]:
    """(value, signs) of the sign search over the caps in nonincreasing
    order: every sign pattern, -1 before +1 per cap, with a cap of integer
    inverse (a uniform law, whose reflection is a translate) held at +1.
    The first strict maximum of q_max wins."""
    caps = sorted(caps, reverse=True)
    free = [i for i, a in enumerate(caps) if a.numerator != 1]
    best = None
    for pattern in itertools.product((-1, 1), repeat=len(free)):
        signs = [1] * len(caps)
        for i, s in zip(free, pattern):
            signs[i] = s
        value = reference.tse_at_signs(caps, signs)
        if best is None or value > best[0]:
            best = value, tuple(signs)
    return best


def t_oracle(caps, window: tuple[int, int]) -> tuple[Fraction, list[dict]]:
    """(value, witness) of the window search over the caps in nonincreasing
    order: every tuple of window-supported extremal laws, one per cap, in
    itertools.product order.  The first strict maximum of q_max wins."""
    choices = [reference.extremal_in_window(a, *window) for a in sorted(caps, reverse=True)]
    best, witness = None, []
    for combo in itertools.product(*choices):
        value = reference.q_max(reference.convolve_all(combo))
        if best is None or value > best:
            best, witness = value, list(combo)
    return best, witness


def anchored_laws(denominator: int, window: tuple[int, int]) -> list[dict]:
    """The extremal laws of each cap j/D, 0 < j < D, on the window whose
    first site is the window's start: one per translation class."""
    return [
        law
        for j in range(1, denominator)
        for law in reference.extremal_in_window(Fraction(j, denominator), *window)
        if min(law) == window[0]
    ]


def scan(denominator: int, window: tuple[int, int], n: int, seed: int, budget: int) -> list[tuple]:
    """(index, caps, lhs, rhs, violation, instance) per tuple of n anchored
    laws: every unordered tuple when their count fits the budget, otherwise
    budget tuples drawn with random.Random(seed).  lhs is q_max of the
    tuple's sum, rhs the sign search over its caps."""
    laws = anchored_laws(denominator, window)
    if math.comb(len(laws) + n - 1, n) <= budget:
        tuples = itertools.combinations_with_replacement(laws, n)
    else:
        rng = random.Random(seed)
        tuples = (tuple(rng.choice(laws) for _ in range(n)) for _ in range(budget))
    records = []
    for index, instance in enumerate(tuples):
        caps = tuple(sorted(map(reference.q_max, instance), reverse=True))
        lhs, rhs = reference.q_max(reference.convolve_all(instance)), tse(caps)[0]
        records.append((index, caps, lhs, rhs, lhs > rhs, list(instance)))
    return records


def q_interval(law: dict, t: int) -> Fraction:
    """The most mass on t consecutive integers; some best window starts at a
    site of the law."""
    return max(sum(m for s, m in law.items() if start <= s < start + t) for start in law)
