"""Minimum-variance extremal measures and the optimal concentration
functionals.

For a concentration cap alpha in (0, 1], the benchmark distribution nu(alpha)
puts mass alpha on 0..floor(1/alpha)-1 and the residue on the next site; it
has minimum variance among integer distributions whose largest atom is at
most alpha.  This module provides nu, its closed-form variance, the
extremal/standard-extremal predicates, the balanced-sequence machinery, and
the exact sign-search and windowed optima over these families.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import ceil, comb
from typing import Iterable, Iterator, Sequence

from .dist import (
    IntDist,
    _operand,
    _product,
    _same_container,
    as_fraction,
    convolve_all,
    format_fraction,
    negate,
    shift,
)
from .gaps import ENUM_BUDGET


class AlphaSeq:
    """A sequence of concentration caps in (0, 1], stored nonincreasing.

    The constructor sorts the values, tied ones in input order, and records
    the permutation from the input order to the canonical order.
    """

    __slots__ = ("_alphas", "_perm")

    def __init__(self, alphas: Iterable[object]):
        raw = [_validate_alpha(as_fraction(a)) for a in alphas]
        if not raw:
            raise ValueError("empty alpha sequence")
        order = sorted(range(len(raw)), key=raw.__getitem__, reverse=True)
        object.__setattr__(self, "_alphas", tuple(raw[i] for i in order))
        object.__setattr__(self, "_perm", tuple(order))

    @property
    def alphas(self) -> tuple[Fraction, ...]:
        return self._alphas

    @property
    def permutation(self) -> tuple[int, ...]:
        return self._perm

    def __len__(self) -> int:
        return len(self._alphas)

    def __iter__(self):
        return iter(self._alphas)

    def __eq__(self, other) -> bool:
        return isinstance(other, AlphaSeq) and self._alphas == other._alphas

    def __hash__(self) -> int:
        return hash(self._alphas)

    def __repr__(self) -> str:
        return "AlphaSeq(" + ", ".join(format_fraction(a) for a in self._alphas) + ")"

    def __setattr__(self, name, value):
        raise AttributeError("AlphaSeq is immutable")


def _validate_alpha(alpha: Fraction) -> Fraction:
    if not (0 < alpha.numerator <= alpha.denominator):
        raise ValueError(f"alpha {alpha} outside (0, 1]")
    return alpha


def inverse_floor(alpha: Fraction) -> int:
    """floor(1/alpha) for a positive alpha."""
    return alpha.denominator // alpha.numerator


def _extremal_law(alpha: Fraction, support: Sequence[int], residue_site: int | None = None) -> IntDist:
    """Mass alpha at each site of support and the residue 1 - |support|*alpha
    at residue_site (None when there is no residue atom), as integer
    numerators over alpha.denominator.

    The laws of the searches are built here, past the validating
    constructor, so the numerators are checked as integers: they must sum to
    the denominator, which also rules out a repeated site; ``_from_integers``
    rejects a non-positive residue.
    """
    p, q = alpha.numerator, alpha.denominator
    nums = dict.fromkeys(support, p)
    if residue_site is not None:
        nums[residue_site] = q - len(support) * p
    if sum(nums.values()) != q:
        raise RuntimeError(f"extremal numerators over {q} do not sum to {q}")
    return IntDist._from_integers(nums, q)


def _layouts(alpha: Fraction, sites: Sequence[int]) -> Iterator[tuple[tuple[int, ...], int | None]]:
    """(support, residue_site) of every extremal law for alpha on the sites,
    supports in combinations order and residue sites in site order; the
    residue site is None when floor(1/alpha) * alpha = 1."""
    k = inverse_floor(alpha)
    has_residue = k * alpha.numerator < alpha.denominator
    for support in itertools.combinations(sites, k):
        if not has_residue:
            yield support, None
            continue
        for b in sites:
            if b not in support:
                yield support, b


def _check_layout_count(alphas: Iterable[Fraction], width: int) -> None:
    """ValueError, before any law is built, when ``_layouts`` of the caps on width sites yield more than
    ENUM_BUDGET laws, translates included: C(width, k) per cap, k = floor(1/alpha), times width - k with a residue."""
    count = 0
    for alpha in alphas:
        k = inverse_floor(alpha)
        count += comb(width, k) * (width - k if k * alpha.numerator < alpha.denominator else 1)
        if count > ENUM_BUDGET:
            raise ValueError(f"more than {ENUM_BUDGET} extremal laws on {width} sites: over the enumeration budget")


def nu(alpha) -> IntDist:
    """Mass alpha on 0..k-1 plus the residue 1 - k*alpha at k (when positive),
    k = floor(1/alpha): the first layout on the sites 0..k."""
    alpha = _validate_alpha(as_fraction(alpha))
    return _extremal_law(alpha, *next(_layouts(alpha, range(inverse_floor(alpha) + 1))))


def nu_centered(alpha) -> IntDist:
    """nu(alpha) for alpha = 1/k with k odd, translated to be symmetric."""
    alpha = as_fraction(alpha)
    if not _has_odd_integer_inverse(alpha):
        raise ValueError("centered form needs alpha = 1/k with k odd")
    return shift(nu(alpha), -(inverse_floor(alpha) - 1) // 2)


def variance_nu(alpha) -> Fraction:
    """Closed-form variance of nu(alpha):
    (-3 a^2 k^2 (k+1)^2 + 2 a k (k+1) (2k+1)) / 12 with k = floor(1/a)."""
    alpha = _validate_alpha(as_fraction(alpha))
    k = inverse_floor(alpha)
    return Fraction(-3 * alpha**2 * k**2 * (k + 1) ** 2 + 2 * alpha * k * (k + 1) * (2 * k + 1), 12)


def variance_slope_bracket(k: int) -> tuple[Fraction, Fraction]:
    """Bounds on the derivative of alpha -> variance_nu(alpha) on
    (1/(k+1), 1/k): [-k(k+1)(k+2)/6, -k(k^2-1)/6]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return (Fraction(-k * (k + 1) * (k + 2), 6), Fraction(-k * (k**2 - 1), 6))


def is_extremal(mu: IntDist, alpha) -> bool:
    """Exactly floor(1/alpha) atoms of mass alpha, plus one residual atom when
    1 - alpha*floor(1/alpha) > 0; sites anywhere on Z.  These are the masses
    of nu(alpha)."""
    alpha = as_fraction(alpha)
    return 0 < alpha <= 1 and sorted(mu.masses) == sorted(nu(alpha).masses)


def is_standard_extremal(mu: IntDist, alpha) -> bool:
    """A translate of nu(alpha) or of its reflection."""
    alpha = as_fraction(alpha)
    if not (0 < alpha <= 1):
        return False
    base = nu(alpha)
    lo = mu.sites[0]
    return mu == shift(base, lo) or mu == shift(negate(base), lo - negate(base).sites[0])


def _has_odd_integer_inverse(alpha: Fraction) -> bool:
    inv = 1 / alpha
    return inv.denominator == 1 and inv.numerator % 2 == 1


def is_balanced(alphas: AlphaSeq) -> bool:
    """Each value either has an odd-integer inverse or occurs an even number
    of times."""
    return all(
        count % 2 == 0 or _has_odd_integer_inverse(a)
        for a, count in Counter(alphas.alphas).items()
    )


def is_strongly_balanced(alphas: AlphaSeq) -> bool:
    """Every value occurs an even number of times."""
    return all(count % 2 == 0 for count in Counter(alphas.alphas).values())


def balanced_sequence(alphas: AlphaSeq, flip: bool = False) -> list[IntDist]:
    """A balanced standard extremal sequence for a balanced cap sequence.

    Equal caps are paired as (nu, -nu); a leftover cap with odd-integer
    inverse contributes its centered uniform, which is its own reflection.
    With flip=True the roles inside each pair are swapped and even groups of
    odd-inverse caps use centered uniforms — a genuinely different balanced
    sequence used to cross-check pairing independence.
    """
    if not is_balanced(alphas):
        raise ValueError("alpha sequence is not balanced")
    out: list[IntDist] = []
    for a, count in sorted(Counter(alphas.alphas).items(), reverse=True):
        pairs, leftover = divmod(count, 2)
        if flip and _has_odd_integer_inverse(a):
            out.extend(nu_centered(a) for _ in range(count))
            continue
        for _ in range(pairs):
            first, second = (negate(nu(a)), nu(a)) if flip else (nu(a), negate(nu(a)))
            out.extend((first, second))
        if leftover:
            out.append(nu_centered(a))
    return out


def tsebal(alphas: AlphaSeq) -> Fraction:
    """Mass at 0 of the convolution of a balanced standard extremal sequence.

    The value does not depend on which balanced sequence is chosen; this is
    checked by evaluating a second, differently paired sequence, and a
    disagreement raises RuntimeError.
    """
    seq = balanced_sequence(alphas)
    value = convolve_all(seq).mass(0)
    alt = convolve_all(balanced_sequence(alphas, flip=True)).mass(0)
    if alt != value:
        raise RuntimeError(f"balanced value is not pairing-independent: {value} != {alt}")
    return value


def _walk(levels: Sequence[Sequence[IntDist]], keep=None) -> Iterator[tuple]:
    """(path, num, den) for each sum of one option law per level: the option
    indices and the sum's q_max as an unreduced pair.  A level whose option
    list equals the previous level's is tied to it: its summands commute
    with the previous ones, so its index starts at the previous level's.
    Paths come depth first in itertools.product order, skipping those whose
    index decreases into a tied level; each prefix is multiplied out once,
    for everything below it.  A fixed summand is a level with one option.

    Every sum is a kernel operand (``dist._operand``): its (site, numerator)
    pairs in site order, its denominator and its numerator sum.  A prefix
    is the kernel's product proper (``dist._product``) of the prefix above
    it and one option, never a law, so no prefix pays for the reduction and
    re-sort of a law; the product of reduced probability laws is reduced
    (Gauss's lemma), so the pairs are those of the law.  A leaf is the
    product of the last prefix and a last-level option.  The ties and the
    container are checked once per walk, and each option's operand is
    extracted once per walk.  The operands go to ``_product`` as they are,
    so the laws must have integer sites: lattice laws raise ValueError.

    ``keep(level, prefix)``, when given, is asked about each prefix, the
    operand of the sum of the options chosen on the levels above ``level``;
    a false answer skips it and every path below it."""
    if not all(levels):
        return  # a level without options: no sums
    last = len(levels) - 1
    laws = [law for options in levels for law in options]
    _same_container(laws)
    if isinstance(laws[0].sites[0], tuple):
        raise ValueError(f"the walker takes laws with integer sites, not {type(laws[0]).__name__}")
    tied = [k > 0 and list(levels[k]) == list(levels[k - 1]) for k in range(len(levels))]
    operands = [[_operand(law) for law in options] for options in levels]
    # the stack: path[i] is the option at level i, sums[i] the operand of the laws chosen above level i
    path, sums = [0] * len(levels), [None] * len(levels)
    level = 0
    while level >= 0:
        options, j, prefix = operands[level], path[level], sums[level]
        if level < last and j < len(options):
            node = options[j]
            if prefix is not None:
                (ppairs, pden, ptotal), (pairs, den, total) = prefix, node
                total *= ptotal
                node = sorted(_product((ppairs, pairs), 1, total, 0).items()), pden * den, total
            if keep is None or keep(level + 1, node):
                level += 1
                sums[level] = node
                path[level] = j if tied[level] else 0
            else:
                path[level] += 1
            continue
        if level == last and prefix is None:
            for j in range(j, len(options)):
                path[last] = j
                pairs, den, _ = options[j]
                yield tuple(path), max(c for _, c in pairs), den
        elif level == last:
            ppairs, pden, ptotal = prefix
            for j in range(j, len(options)):
                path[last] = j
                other, den, total = options[j]
                yield tuple(path), max(_product((ppairs, other), 1, ptotal * total, 0).values()), pden * den
        level -= 1
        if level >= 0:
            path[level] += 1


def _max_q_search(levels: Sequence[Sequence[IntDist]]) -> tuple[Fraction, tuple[int, ...]]:
    """Largest q_max among the sums `_walk` visits, with its path.  Only a
    strictly larger n/d replaces the best pair (n * best_den > best_num * d),
    so the first maximiser in visiting order wins.  Needs at least one level,
    and probability laws on every level.

    The walk skips every prefix P that cannot beat the best pair so far, by
    the fill bound.  The sum R of the options still to choose has
    q_max(R) <= rho, the smallest over the levels left of the largest q_max
    of an option there, since adding a summand never raises q_max.  An atom
    of P + R is the sum over y of R(y) P(x - y), with every R(y) <= rho and
    R's masses summing to 1, so it is at most

        fill(P, rho) = rho q_m(P) + (1 - m rho) p_(m+1),  m = floor(1/rho),

    where q_m(P) is the sum of the m largest atoms of P and p_(m+1) the next
    one (0 when P has no more).  A prefix with fill(P, rho) <= best is
    skipped, the test cross-multiplied in integers.  Every leaf below it is
    at most best, so none could have replaced best: the value and the first
    maximiser are those of the full walk."""
    if not type(levels[0][0])._normalized:
        raise ValueError("the pruned search takes probability laws")
    # fill[k]: (a, b, m, b - m a) for rho = a / b over the levels k.. left to choose
    fill, rho = [None] * len(levels), None
    for k in range(len(levels) - 1, 0, -1):
        cap = max(Fraction(max(law.numerators), law.denominator()) for law in levels[k])
        rho = cap if rho is None else min(rho, cap)
        a, b = rho.numerator, rho.denominator
        fill[k] = (a, b, *divmod(b, a))
    best_num, best_den, best_path = -1, 1, ()

    def keep(level: int, prefix: tuple) -> bool:
        a, b, m, rest = fill[level]
        pairs, den, _ = prefix
        top = sorted([c for _, c in pairs], reverse=True)
        bound = a * sum(top[:m]) + (rest * top[m] if m < len(top) else 0)
        return bound * best_den > best_num * b * den

    for path, num, den in _walk(levels, keep):
        if num * best_den > best_num * den:
            best_num, best_den, best_path = num, den, path
    return Fraction(best_num, best_den), best_path


@functools.lru_cache(maxsize=256)
def _signed_nu(alpha: Fraction) -> tuple[IntDist, IntDist]:
    """(negate(nu(alpha)), nu(alpha)) for a validated cap: the sign options of
    one cap in ``tse``.  The laws are immutable, so a bounded per-process
    memo keyed by the reduced cap lets the scan's many ``tse`` calls over
    the same few caps build each pair once."""
    law = nu(alpha)
    return negate(law), law


def tse(alphas: AlphaSeq) -> tuple[Fraction, tuple[int, ...]]:
    """Exact maximum of q_max over sign assignments of the nu measures.

    Indices whose cap has an integer inverse are pruned from the sign search
    (the reflection of a uniform distribution is one of its translates, and
    translating any summand does not change the concentration of the sum);
    their sum is convolved once and enters the search as a one-option first
    level.  Summands with equal caps commute, so in a run of c equal free
    caps only the number of minus signs matters: each free cap chooses
    between its reflected and its plain nu, and equal caps have equal option
    lists, which the walker ties.  So the search ranges over prod(c + 1)
    sign patterns over the runs, not 2**free, and ``_max_q_search`` skips
    every partial pattern whose fill bound cannot beat the best pattern so
    far.  Ties resolve to the lexicographically smallest sign vector.  That
    vector has its minus signs first within each run, the tied search
    visits exactly these representatives in lexicographic order, and the
    prune drops only patterns that could not strictly beat an earlier one,
    so the first maximiser is kept and returned, one -1 or +1 per cap.
    """
    caps = alphas.alphas
    # a cap in (0, 1] in lowest terms has an integer inverse iff its numerator is 1
    uniforms = [_signed_nu(a)[1] for a in caps if a.numerator == 1]
    free = [i for i, a in enumerate(caps) if a.numerator != 1]
    levels = ([[convolve_all(uniforms)]] if uniforms else []) + [_signed_nu(caps[i]) for i in free]
    best, path = _max_q_search(levels)
    signs = [1] * len(caps)
    for i, j in zip(free, path[len(levels) - len(free) :]):
        signs[i] = -1 if j == 0 else 1
    return best, tuple(signs)


# -- windowed oracle -----------------------------------------------------------


def _window_sites(alpha: Fraction, window: tuple[int, int]) -> range:
    """The window's sites; ValueError when it is empty, holds fewer sites
    than alpha's laws have atoms, or more than ENUM_BUDGET of its laws."""
    sites = range(window[0], window[1] + 1)
    if not sites:
        raise ValueError("empty window")
    needed = ceil(1 / alpha)  # atoms
    if len(sites) < needed:
        raise ValueError(f"window holds {len(sites)} sites; {needed} needed for alpha={alpha}")
    _check_layout_count([alpha], len(sites))
    return sites


def extremal_enumerate(alpha, window: tuple[int, int]) -> list[IntDist]:
    """All extremal measures for alpha supported inside the window, in
    ``_layouts`` order, once ``_window_sites`` has checked the window."""
    alpha = _validate_alpha(as_fraction(alpha))
    return [_extremal_law(alpha, support, b) for support, b in _layouts(alpha, _window_sites(alpha, window))]


def _anchored_laws(alpha: Fraction, sites: range) -> list[IntDist]:
    """The extremal laws for alpha on the sites whose first site is sites[0],
    in ``_layouts`` order: one per translation class, as the other laws on
    the sites are their translates up.  Empty when the sites are too few."""
    return [_extremal_law(alpha, support, b) for support, b in _layouts(alpha, sites) if sites[0] in (support[0], b)]


def quantized_extremal_measures(denominator: int, window: tuple[int, int]) -> list[IntDist]:
    """``_anchored_laws`` of each cap j/D, 0 < j < D, on the window.  Point
    masses (cap 1) are left out: they only translate a sum.  More than
    ENUM_BUDGET laws on the window in all, translates included, is a
    ValueError."""
    sites = range(window[0], window[1] + 1)
    caps = [Fraction(j, denominator) for j in range(1, denominator)]
    _check_layout_count(caps, len(sites))
    return [law for alpha in caps for law in _anchored_laws(alpha, sites)]


def t_oracle(alphas: AlphaSeq, window: tuple[int, int]) -> tuple[Fraction, list[IntDist]]:
    """Exact maximum of q_max over tuples of window-supported extremal
    measures, one per cap, with the first maximiser as witness.

    Each cap chooses among its ``_anchored_laws``, one per translation
    class.  q_max of a sum is translation invariant, so the value is that of
    the walk over all of ``extremal_enumerate``, and so is the witness: the
    full lists are in combinations order, where a law's translate down comes
    earlier, and the walker ties runs of equal caps to nondecreasing indices.
    Replacing a law of the full walk's first maximiser by its anchored
    translate and re-sorting its run would give a maximiser visited earlier,
    so that maximiser is anchored, and the anchored lists keep their order.
    ``_max_q_search``'s fill prune keeps the first maximiser.  The checks and
    the budget, which counts translates, are ``extremal_enumerate``'s.  Exact
    only relative to the window class; callers report the window with it.
    """
    choices = [_anchored_laws(a, _window_sites(a, window)) for a in alphas]
    best, path = _max_q_search(choices)
    return best, [options[j] for options, j in zip(choices, path)]


def t_oracle_curve(alphas: AlphaSeq, windows: Sequence[tuple[int, int]]) -> list[dict]:
    """Windowed optimum across a family of windows.

    There is no finite-support reduction for the unrestricted supremum, so
    instead of claiming convergence the oracle reports how the value moves as
    the window grows; each row carries its window.
    """
    return [{"window": list(w), "value": format_fraction(t_oracle(alphas, w)[0])} for w in windows]


def tse_report_json_obj(alphas: AlphaSeq) -> dict:
    """CLI-facing report: alphas, tse value and signs, tsebal when balanced."""
    value, signs = tse(alphas)
    balanced = is_balanced(alphas)
    return {
        "alphas": [format_fraction(a) for a in alphas],
        "tse": format_fraction(value),
        "signs": list(signs),
        "tsebal": format_fraction(tsebal(alphas)) if balanced else None,
    }
