"""Crossover table of the three branches of the exact convolution kernel.

For each case, times ``dist._convolve_pairwise``, ``dist._convolve_packed``
and, for the power of one law, ``dist._convolve_recurrence`` on the same
integer numerators, best of --repeat runs, and prints the microseconds per
call next to the branch that ``dist._branch`` picks and its ratio to the
fastest branch.  The cases are the table behind the constants of
``dist._branch``.  Every branch's result is checked against the pairwise one.
Lattice cases enter as the kernel sees them: numbered by ``dist._encode``,
and ``dist._branch`` gets the dimension that ``_encode`` reports.

    python3 tools/kernel_crossover.py                 # every case
    python3 tools/kernel_crossover.py 3x3 "sq^4"      # the named cases only
    python3 tools/kernel_crossover.py --repeat 1 --list

Standard library only: lattice laws are built as (tuple site, numerator)
pairs, the operand form of ``gauss.LatticeDist``.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conclab import dist  # noqa: E402


def _law(sites, rng: random.Random, bits: int = 8) -> list:
    """(site, numerator) pairs in site order with random positive weights."""
    return [(s, rng.randrange(1, 2**bits)) for s in sorted(sites)]


def _line(weights) -> list:
    return list(enumerate(weights))


def cases() -> list[tuple[str, list, int]]:
    """(name, parts, n): the product of the laws ``parts`` to the n-th power."""
    rng = random.Random(5)
    dense = lambda k, bits=8: _law(range(k), rng, bits)  # noqa: E731
    spread = lambda k, width: _law(rng.sample(range(width), k), rng)  # noqa: E731
    square = [((x, y), w) for (x, y), w in zip(itertools.product((0, 1), repeat=2), (3, 5, 4, 5))]
    cube = [(s, w) for s, w in zip(itertools.product((0, 1), repeat=3), (3, 5, 4, 5, 2, 7, 6, 1))]
    box6 = _law(rng.sample(list(itertools.product(range(6), repeat=2)), 20), rng)
    out = [
        ("3x3", [dense(3), dense(3)], 1),
        ("10x10", [dense(10), dense(10)], 1),
        ("16x3", [dense(16), dense(3)], 1),
        ("20x20", [dense(20), dense(20)], 1),
        ("200x3", [dense(200), dense(3)], 1),
        ("60x10", [dense(60), dense(10)], 1),
        ("100x5", [dense(100), dense(5)], 1),
        ("200x200", [dense(200), dense(200)], 1),
        ("641x641", [dense(641), dense(641)], 1),
        ("60x10 200-bit", [dense(60, 200), dense(10, 200)], 1),
        ("20x20 in 0..59", [spread(20, 60), spread(20, 60)], 1),
        ("40x10 in 0..199", [spread(40, 200), spread(10, 200)], 1),
        ("40x40 in 0..399", [spread(40, 400), spread(40, 400)], 1),
        ("100x100 in 0..299", [spread(100, 300), spread(100, 300)], 1),
        ("100x100 in 0..999", [spread(100, 1000), spread(100, 1000)], 1),
        ("100x100 in 0..1999", [spread(100, 2000), spread(100, 2000)], 1),
        ("2-D 20x20 in 6x6", [box6, _law(rng.sample(list(itertools.product(range(6), repeat=2)), 20), rng)], 1),
    ]
    out += [(f"all of {k} 3-atom", [dense(3) for _ in range(k)], 1) for k in (4, 8, 16, 64)]
    # one draw of the sampled conjecture scan: extremal laws of caps j/6 on 0..5
    out.append(("scan draw of 3", [[(0, 2), (1, 2), (3, 2)], [(1, 4), (4, 2)], [(s, 1) for s in range(6)]], 1))
    line3 = _line((3, 6, 4))
    out += [(f"line3^{n}", [line3], n) for n in (4, 8, 32, 128, 192, 320)]
    odlyzko = [(0, 4), (1, 5), (3, 4)]
    out += [(f"{{0,1,3}}/13^{n}", [odlyzko], n) for n in (8, 64, 192, 256, 320)]
    out += [
        ("line4^192", [_line((3, 5, 4, 5))], 192),
        ("line5^160", [_line((3, 5, 4, 2, 5))], 160),
        ("line100^4", [dense(100)], 4),
        ("{0,7,20}^64", [[(0, 2), (7, 3), (20, 5)]], 64),
        ("{0,10**12}^64", [[(0, 1), (10**12, 1)]], 64),
        ("{0,1}^1000", [[(0, 1), (1, 1)]], 1000),
    ]
    out += [(f"sq^{n}", [square], n) for n in (2, 4, 8, 16, 24, 32)]
    out += [
        ("2-D 20 in 6x6 ^4", [box6], 4),
        ("2-D {(0,1),(1,0)}^64", [[((0, 1), 2), ((1, 0), 3)]], 64),
        ("cube^4", [cube], 4),
        ("cube^8", [cube], 8),
    ]
    return out


def _best_us(fn, repeat: int) -> float:
    """Best time of one call in microseconds; a fast call is timed in loops
    of at least 2 ms."""
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    number = max(1, int(0.002 / max(once, 1e-9)))
    best = once
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best * 1e6


# the packed and recurrence branches are not timed on longer spans, whose
# slots would not fit in memory
MAX_SLOTS = 10**6


def measure(parts: list, n: int, repeat: int) -> dict[str, float]:
    """Microseconds per call of each branch that applies, on integer sites."""
    runs = {"pairwise": lambda: dist._convolve_pairwise(parts, n)}
    if dist._span(parts, n) < MAX_SLOTS:
        runs["packed"] = lambda: dist._convolve_packed(parts, n)
        if len(parts) == 1 and n > 1:
            runs["recurrence"] = lambda: dist._convolve_recurrence(parts[0], n)
    expected = runs["pairwise"]()
    for name, run in runs.items():
        if run() != expected:
            raise RuntimeError(f"the {name} branch disagrees with the pairwise one")
    return {name: _best_us(run, repeat) for name, run in runs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="cases to run (default: all)")
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per branch (default 5)")
    parser.add_argument("--list", action="store_true", help="print the case names and exit")
    args = parser.parse_args(argv)
    table = cases()
    if args.list:
        print("\n".join(name for name, _, _ in table))
        return 0
    unknown = set(args.names) - {name for name, _, _ in table}
    if unknown:
        parser.error(f"unknown cases: {', '.join(sorted(unknown))}")
    print(f"{'case':<22} {'atoms':>6} {'slots':>9} {'w':>4} {'pairwise':>10} {'packed':>10} {'recurrence':>10}  pick       x fastest")
    for name, parts, n in table:
        if args.names and name not in args.names:
            continue
        parts, dim, _ = dist._encode(parts, n)
        us = measure(parts, n, args.repeat)
        pick = dist._branch(parts, n, dim)
        slots = dist._span(parts, n) + 1
        cols = " ".join(f"{us[b]:>10.1f}" if b in us else f"{'-':>10}" for b in ("pairwise", "packed", "recurrence"))
        atoms = sum(map(len, parts))
        print(f"{name:<22} {atoms:>6} {slots:>9.3g} {dist._slot_bytes(parts, n):>4} {cols}  {pick:<10} {us[pick] / min(us.values()):>5.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
