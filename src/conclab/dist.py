"""Exact finite probability distributions on the integers.

:class:`FiniteMeasure` is the one atom container of the package: validation,
storage, lookup, serialization and the convolution kernel live here, and
``rearrange.IntMeasure`` and ``gauss.LatticeDist`` are thin subclasses of it.
The central type is :class:`IntDist`: strictly increasing integer sites with
positive rational masses summing to exactly one, stored as one integer
numerator per site over one common denominator.  Every probabilistic quantity
in this package (concentration functionals, moments, rearrangements,
structural predicates) is computed exactly on these integers, and Fractions
are built only where masses leave the container; floating point never enters.

Convolution has one kernel with two entry points.  ``_convolve_numerators``,
behind ``convolve``, ``convolve_all``, ``convolve_power`` and ``_q_max_pair``,
checks that its laws share one container type, extracts each law's operand
(``_operand``: its (site, numerator) pairs, denominator and numerator sum)
and calls ``_product``, the product proper: ``_branch``, one of three
branches, and the exact check that the numerators sum to the product of the
operands' sums.  The tuple walker of ``extremal`` calls ``_product`` itself
on operands it extracted once, after one container check per walk.  A
result enters the container through ``_from_integers``, reduced by one gcd.
JSON, text and ``repr`` are formatted from the integers too: each mass is its
numerator and the denominator divided by their gcd, so no Fraction is built
on the way out.
Large dense supports use Kronecker substitution: each law is packed into one
Python int with a fixed-width slot per point of the result's bounding box,
CPython's big-int multiply (or ``pow``) does the convolution, and one pass
over the slots unpacks the result, already in site order.  The power of one
dense law can instead use the same slot numbers as exponents of a polynomial
and J. C. P. Miller's recurrence, one small multiply-add per result slot and
input atom, where the big-int ``pow`` grows like Karatsuba in slots times slot
width.  Small or sparse supports use a pairwise loop over dicts.
``_branch`` chooses from atom counts, box slot counts and the slot width
alone; ``tools/kernel_crossover.py`` prints the table behind its constants.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, inf, lcm
from typing import Iterable, Iterator, Sequence


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'num/den' strings to Fraction."""
    if isinstance(value, float):
        raise TypeError("floating-point masses are not accepted; use exact rationals")
    if isinstance(value, bool):
        raise TypeError("boolean masses are not accepted; use exact rationals")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {value!r}") from exc


def json_int(value) -> int:
    """An integer field of a JSON input; a float or a boolean is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def int_site(value) -> int:
    """An integer site or lattice coordinate; a boolean is a TypeError."""
    if isinstance(value, bool):
        raise TypeError("boolean sites are not accepted; use integers")
    return operator.index(value)


def format_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class SpanResult:
    """Maximum span of a distribution: a positive integer, or infinite for a
    single atom."""

    value: int | None

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __repr__(self) -> str:
        return "SpanResult(INFINITE)" if self.is_infinite else f"SpanResult({self.value})"


INFINITE_SPAN = SpanResult(None)


class FiniteMeasure:
    """Finite measure with exact positive rational masses: the one atom
    container of the package.

    Immutable value type: a dict of positive integer numerators in increasing
    site order over one denominator, the least common one of the masses.
    ``sites``, ``numerators``, ``numerator()`` and ``denominator()`` are the
    read-only integer view; ``atoms``, ``masses`` and ``mass()`` build
    Fractions from it, and JSON, text and ``repr`` format each mass from its
    numerator with one gcd.  A subclass sets what differs: ``_site``
    converts one input site, rejecting floats and booleans, ``_add_sites``
    adds two sites in the convolution kernel, and ``_normalized`` requires
    the masses to sum to exactly 1.  The integer site type is the default.
    """

    __slots__ = ("_nums", "_den")

    _site = staticmethod(int_site)
    _add_sites = operator.add
    _normalized = True

    def __init__(self, atoms: Iterable[tuple[object, object]]):
        site_of = self._site
        merged: dict = {}
        for site, mass in atoms:
            site = site_of(site)
            mass = as_fraction(mass)
            if mass < 0:
                raise ValueError(f"negative mass {mass} at site {site}")
            if site in merged:
                raise ValueError(f"duplicate site {site}")
            if mass > 0:
                merged[site] = mass
        if not merged:
            raise ValueError("empty distribution")
        den = lcm(*(m.denominator for m in merged.values()))
        nums = {s: m.numerator * (den // m.denominator) for s, m in merged.items()}
        if self._normalized and sum(nums.values()) != den:
            raise ValueError(f"masses sum to {Fraction(sum(nums.values()), den)}, expected 1")
        self._store(nums, den)

    @classmethod
    def _from_integers(cls, out: dict, den: int):
        """The law with mass out[s] / den at each site s: the way in for exact
        results (the kernel's, negate's, squeeze's), which skips the per-atom
        checks and reduces once, by the gcd of den and every numerator."""
        if den <= 0 or min(out.values()) <= 0:
            raise RuntimeError("an exact result has a non-positive numerator or denominator")
        g = gcd(den, *out.values())
        mu = object.__new__(cls)
        mu._store(out if g == 1 else {s: n // g for s, n in out.items()}, den // g)
        return mu

    def _store(self, nums: dict, den: int) -> None:
        object.__setattr__(self, "_nums", {s: nums[s] for s in sorted(nums)})
        object.__setattr__(self, "_den", den)

    # -- the integer view and the Fraction edges --------------------------

    @property
    def sites(self) -> tuple:
        return tuple(self._nums)

    @property
    def numerators(self) -> tuple[int, ...]:
        """Mass numerators over ``denominator()``, in site order."""
        return tuple(self._nums.values())

    def numerator(self, site) -> int:
        """Numerator of the mass at site; 0 off the support."""
        return self._nums.get(site, 0)

    def denominator(self) -> int:
        """Least common denominator of all masses."""
        return self._den

    @property
    def atoms(self) -> tuple[tuple[object, Fraction], ...]:
        den = self._den
        return tuple((s, Fraction(n, den)) for s, n in self._nums.items())

    @property
    def masses(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(n, den) for n in self._nums.values())

    def mass(self, site) -> Fraction:
        return Fraction(self.numerator(site), self._den)

    def __len__(self) -> int:
        return len(self._nums)

    def __eq__(self, other) -> bool:
        # both dicts are in site order, so equal dicts are equal sequences
        return type(other) is type(self) and self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._den, *self._nums.items()))

    def _formatted(self) -> Iterator[tuple[object, str]]:
        """(site, 'num/den') per atom in site order, each mass reduced by one
        gcd: the text that format_fraction gives for the mass."""
        den = self._den
        for s, n in self._nums.items():
            g = gcd(n, den)
            yield s, f"{n // g}/{den // g}"

    def __repr__(self) -> str:
        inner = ", ".join(f"{s}: {m}" for s, m in self._formatted())
        return f"{type(self).__name__}({{{inner}}})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _compatible(self, other) -> bool:
        """Whether the sites of self and other can be added."""
        return type(other) is type(self)

    # -- serialization ---------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"atoms": [[s, m] for s, m in self._formatted()]}

    @classmethod
    def from_json_obj(cls, obj):
        if not isinstance(obj, dict) or "atoms" not in obj:
            raise ValueError("distribution JSON must be an object with an 'atoms' key")
        try:
            return cls(obj["atoms"])
        except TypeError as exc:
            raise ValueError(str(exc)) from exc


class IntDist(FiniteMeasure):
    """Finite probability distribution on Z with exact rational masses
    summing to exactly 1."""

    __slots__ = ()

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    def to_text(self) -> str:
        return "\n".join(f"{s}: {m}" for s, m in self._formatted()) + "\n"

    @staticmethod
    def from_json(text: str) -> "IntDist":
        return IntDist.from_json_obj(json.loads(text))

    @staticmethod
    def from_text(text: str) -> "IntDist":
        atoms = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                site_s, mass_s = line.split(":")
                atoms.append((int(site_s.strip()), Fraction(mass_s.strip())))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"line {lineno}: cannot parse {line!r}") from exc
        return IntDist(atoms)


# -- constructors ---------------------------------------------------------


def delta(site: int) -> IntDist:
    return IntDist([(site, Fraction(1))])


def uniform(sites: Sequence[int]) -> IntDist:
    sites = list(sites)
    if not sites:
        raise ValueError("uniform distribution needs at least one site")
    p = Fraction(1, len(sites))
    return IntDist((s, p) for s in sites)


def uniform_interval(lo: int, hi: int) -> IntDist:
    if hi < lo:
        raise ValueError("empty interval")
    return uniform(range(lo, hi + 1))


# -- operations ------------------------------------------------------------


def _box(pairs: list) -> list[tuple[int, int]]:
    """Bounding box of the sites of (site, numerator) pairs in site order:
    one (lo, hi) per coordinate; an integer site has one coordinate."""
    if not isinstance(pairs[0][0], tuple):
        return [(pairs[0][0], pairs[-1][0])]
    return [(min(col), max(col)) for col in zip(*(s for s, _ in pairs))]


def _slots(extents: Iterable[int]) -> int:
    """Number of lattice points in a box with the given coordinate extents."""
    n = 1
    for e in extents:
        n *= e + 1
    return n


def _layout(boxes: list, n: int) -> tuple[list[int], list[int], list[int]]:
    """(lo, ext, strides) of the result box of the product of laws with the
    given boxes, all of it n times over: its lowest corner, its extent per
    coordinate and the row-major strides that number its points 0, 1, ...,
    so the first coordinate varies slowest and coordinates never carry into
    each other."""
    lo = [n * sum(b[j][0] for b in boxes) for j in range(len(boxes[0]))]
    ext = [n * sum(b[j][1] - b[j][0] for b in boxes) for j in range(len(boxes[0]))]
    strides = [1] * len(ext)
    for j in range(len(ext) - 1, 0, -1):
        strides[j - 1] = strides[j] * (ext[j] + 1)
    return lo, ext, strides


def _offsets(p: list, box: list, strides: list[int]) -> list[int]:
    """The point number of each site of (site, numerator) pairs p relative to
    the corner of box; increasing, as p is in site order."""
    if not isinstance(p[0][0], tuple):
        return [s - box[0][0] for s, _ in p]
    return [sum((x - l) * st for x, (l, _), st in zip(s, box, strides)) for s, _ in p]


def _box_sites(lo: list[int], ext: list[int], vector: bool) -> Iterable:
    """The points of a box in row-major order, the order of their numbers."""
    if vector:
        return itertools.product(*(range(l, l + e + 1) for l, e in zip(lo, ext)))
    return range(lo[0], lo[0] + ext[0] + 1)


def _slot_bytes(parts: Sequence[list], n: int) -> int:
    """Bytes per slot of the packed kernel: enough for the product of the
    input numerator sums to the n-th power, which bounds every result
    numerator."""
    total = 1
    for p in parts:
        total *= sum(c for _, c in p)
    return ((total**n).bit_length() + 7) // 8


# Cost estimates in units of one pairwise numerator product of integer sites.
# A product of lattice sites adds them coordinate by coordinate and costs
# _PAIR_VECTOR units.  The packed kernel costs a fixed part, each input atom
# packed and each result slot unpacked, plus the big-int product of slots * w
# bytes, which CPython multiplies by Karatsuba.  The recurrence costs a fixed
# part plus, per exponent of the result, one division and one multiply-add
# per input atom after the first, each longer by w bytes.  The crossover
# table behind the constants is in CHANGES.md (tools/kernel_crossover.py).
_PAIR_VECTOR = 5
_PACK_FIXED = 128
_PACK_PER_ATOM = 2
_PACK_PER_SLOT = 3
_PACK_KARATSUBA = 300  # (slots * w) ** 1.585 / _PACK_KARATSUBA
_REC_FIXED = 128
_REC_PER_SLOT = 1
_REC_PER_TERM = 1.5
_REC_BYTES = 80  # a slot or a term costs (1 + w / _REC_BYTES) times its base
# a Kronecker branch must cost at most _GUARD times the least pairwise work
_GUARD = 3


def _affine_dim(sites: Sequence[tuple[int, ...]]) -> int:
    """Dimension of the affine hull of lattice sites: the rank of their
    differences from the first, by fraction-free elimination."""
    rows: list[tuple[int, list[int]]] = []  # (pivot, row); each row is zero at the earlier pivots
    base = sites[0]
    for s in sites[1:]:
        v = [x - b for x, b in zip(s, base)]
        for p, r in rows:
            if v[p]:
                v = [r[p] * x - v[p] * y for x, y in zip(v, r)]
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is not None:
            rows.append((pivot, v))
            if len(rows) == len(base):
                break
    return len(rows)


def _dense_costs(parts: Sequence[list], boxes: list, n: int) -> tuple[float, float]:
    """(packed, recurrence) cost estimates of the product of the laws
    ``parts`` raised to the n-th power; the recurrence's is infinite unless
    that is the power (n > 1) of one law."""
    ext, strides = _layout(boxes, n)[1:]
    slots, w = _slots(ext), _slot_bytes(parts, n)
    atoms = sum(map(len, parts))
    packed = _PACK_FIXED + _PACK_PER_ATOM * atoms + _PACK_PER_SLOT * slots + (slots * w) ** 1.585 / _PACK_KARATSUBA
    if n == 1 or len(parts) > 1:
        return packed, inf
    (p,) = parts
    first, last = _offsets([p[0], p[-1]], boxes[0], strides)
    steps = n * (last - first) * (_REC_PER_SLOT + _REC_PER_TERM * (len(p) - 1))
    return packed, _REC_FIXED + steps * (1 + w / _REC_BYTES)


def _branch(parts: Sequence[list], n: int) -> str:
    """The kernel branch for the product of the laws ``parts`` raised to the
    n-th power: 'pairwise', or the cheaper Kronecker branch, 'packed' or, for
    the power of one law, 'recurrence'.

    Only atom counts, box slot counts, the slot width and, for a lattice
    power, the dimension of its law enter.  The pairwise work is estimated
    as a left fold over the factors (a power as n equal factors), each step
    costing the product of its operands' atom counts.  A partial sum's atom
    count lies between a lower bound and an upper bound (the product of the
    counts, at most the slots of its box).  The lower bound is
    |A + B| >= |A| + |B| - 1; for i copies of one lattice law whose sites
    span an affine space of dimension d it is also C(i + d, d), the distinct
    sums of i of d + 1 affinely independent sites: quadratic in i for a 2-D
    law, cubic for a 3-D one.  The cheaper Kronecker branch must cost less
    than the upper estimate and at most _GUARD times the lower one, so a
    sparse support (sites {0, 10**12}) never packs, and a wrong guess costs
    at most a constant factor over the pairwise loop.
    """
    unit = _PAIR_VECTOR if isinstance(parts[0][0][0], tuple) else 1
    if n == 1 and len(parts) == 2:
        na, nb = len(parts[0]), len(parts[1])
        if unit * na * nb <= _PACK_FIXED + _PACK_PER_ATOM * (na + nb):
            return "pairwise"  # cheaper than the packed cost without its slot terms
    boxes = [_box(p) for p in parts]
    packed, recurrence = _dense_costs(parts, boxes, n)
    cost = min(packed, recurrence)
    dim = _affine_dim([s for s, _ in parts[0]]) if unit > 1 and len(parts) == 1 else 0
    ext = [hi - lo for lo, hi in boxes[0]]
    size_hi = size_lo = len(parts[0])
    work_hi = work_lo = 0
    for i in range(1, len(parts) * n):
        count, box = len(parts[i % len(parts)]), boxes[i % len(parts)]
        work_hi += unit * size_hi * count
        work_lo += unit * size_lo * count
        if work_hi > cost and _GUARD * work_lo >= cost:
            return "recurrence" if recurrence < packed else "packed"
        ext = [e + hi - lo for e, (lo, hi) in zip(ext, box)]
        size_hi = min(size_hi * count, _slots(ext))
        size_lo = max(size_lo + count - 1, comb(i + 1 + dim, dim))
    return "pairwise"


def _times(x: Iterable, y: Iterable, add) -> dict:
    """Site -> numerator of the product of two (site, numerator) iterables:
    the pairwise loop."""
    out: dict = {}
    for sa, wa in x:
        for sb, wb in y:
            key = add(sa, sb)
            out[key] = out.get(key, 0) + wa * wb
    return out


def _convolve_pairwise(parts: Sequence[list], n: int, add) -> dict:
    """Site -> numerator of the product of the laws ``parts`` raised to the
    n-th power: the pairwise loop folded left, then binary exponentiation.
    The branch for small or sparse supports."""
    acc, out = parts[0], None
    for p in parts[1:]:
        out = _times(acc, p, add)
        acc = out.items()
    base = dict(acc) if out is None else out
    if n == 1:
        return base
    result = None
    while n:
        if n & 1:
            result = base if result is None else _times(result.items(), base.items(), add)
        n >>= 1
        if n:
            base = _times(base.items(), base.items(), add)
    return result


def _convolve_packed(parts: Sequence[list], n: int) -> dict:
    """Site -> numerator, in site order, of the product of the laws
    ``parts`` raised to the n-th power, by Kronecker substitution.

    Each law becomes one integer with a slot of w bytes per point of the
    result's bounding box, its numerator at the slot of its site.  Lattice
    sites use row-major strides of the summed box, so coordinates never carry
    into each other.  A result numerator is at most the product of the input
    numerator sums, which fits in w bytes, so the big-int product holds every
    result numerator in its own slot.
    """
    boxes = [_box(p) for p in parts]
    lo, ext, strides = _layout(boxes, n)
    w = _slot_bytes(parts, n)
    values = []
    for p, box in zip(parts, boxes):
        buf = bytearray(w * (1 + sum((hi - l) * st for (l, hi), st in zip(box, strides))))
        for k, (_, c) in zip(_offsets(p, box, strides), p):
            buf[k * w : k * w + w] = c.to_bytes(w, "little")
        values.append(int.from_bytes(buf, "little"))
    while len(values) > 1:  # a balanced product tree keeps the operands even
        values = [values[i] * values[i + 1] if i + 1 < len(values) else values[i] for i in range(0, len(values), 2)]
    value = pow(values[0], n)

    slots = _slots(ext)
    data = value.to_bytes(slots * w, "little")
    from_bytes = int.from_bytes
    coefficients = [from_bytes(data[k : k + w], "little") for k in range(0, slots * w, w)]
    sites = _box_sites(lo, ext, isinstance(parts[0][0][0], tuple))
    return {s: c for s, c in zip(sites, coefficients) if c}


def _convolve_recurrence(p: list, n: int) -> dict:
    """Site -> numerator, in site order, of the law with (site, numerator)
    pairs p raised to the n-th power, by J. C. P. Miller's recurrence
    (Knuth, TAOCP vol. 2, section 4.7).

    Sites become exponents by the row-major strides of ``_convolve_packed``,
    so the law is a polynomial P whose n-th power is the result.  The
    exponents are shifted so that the first site, the smallest in site order
    and so in exponent, is exponent 0: its numerator p_0 is positive even
    when the box corner carries no mass.  From P (P^n)' = n P' P^n the
    coefficients a_k of P^n satisfy

        p_0 k a_k = sum_{j >= 1} ((n + 1) j - k) p_j a_{k-j},

    one small-by-big multiply-add per (result slot, input atom) and one exact
    division per slot.  A remainder means a fault and raises RuntimeError.
    """
    box = _box(p)
    lo, ext, strides = _layout([box], n)
    offsets = _offsets(p, box, strides)
    e0, p0 = offsets[0], p[0][1]
    # (j, (n + 1) j p_j, p_j) in increasing j, so a slot stops at the first j > k
    terms = [(e - e0, (n + 1) * (e - e0) * c, c) for e, (_, c) in zip(offsets[1:], p[1:])]
    top = n * (offsets[-1] - e0)
    a = [p0**n]
    for k in range(1, top + 1):
        acc = 0
        for j, cj, pj in terms:
            if j > k:
                break
            x = a[k - j]
            if x:
                acc += (cj - k * pj) * x
        q, r = divmod(acc, k * p0)
        if r:
            raise RuntimeError("Miller's recurrence left a remainder")
        a.append(q)
    sites = itertools.islice(_box_sites(lo, ext, isinstance(p[0][0], tuple)), n * e0, None)
    return {s: c for s, c in zip(sites, a) if c}


def _same_container(laws: Iterable[FiniteMeasure]) -> None:
    """Raise ValueError unless the sites of all laws can be added: one
    container type and, for lattice laws, one dimension."""
    laws = iter(laws)
    first = next(laws)
    for mu in laws:
        if not first._compatible(mu):
            raise ValueError(
                f"cannot convolve {type(first).__name__} and {type(mu).__name__}: site types or dimensions differ"
            )


def _operand(mu: FiniteMeasure) -> tuple[list, int, int]:
    """(pairs, den, total) of one kernel operand: its (site, numerator)
    pairs in site order, its common denominator and its numerator sum (the
    denominator for a normalized law)."""
    return list(mu._nums.items()), mu._den, mu._den if mu._normalized else sum(mu._nums.values())


def _product(parts: Sequence[list], n: int, total: int, add) -> dict:
    """Site -> numerator of the product of the operands ``parts`` raised to
    the n-th power, not necessarily in site order: the product proper of the
    kernel.  ``_branch`` picks the branch: the pairwise loop (adding sites
    with ``add``), the packed big-int product, or, for the power of one law,
    Miller's recurrence.  The numerators must sum to ``total``, the product
    of the operands' numerator sums to the n-th power; anything else is a
    broken input or a kernel fault and raises RuntimeError."""
    branch = _branch(parts, n)
    if branch == "recurrence":
        out = _convolve_recurrence(parts[0], n)
    elif branch == "packed":
        out = _convolve_packed(parts, n)
    else:
        out = _convolve_pairwise(parts, n, add)
    if sum(out.values()) != total:
        raise RuntimeError("convolution numerators do not sum to the product of the input sums")
    return out


def _convolve_numerators(laws: Sequence[FiniteMeasure], n: int = 1):
    """Integer numerators of the law of the sum of one draw from each of
    ``laws``, all of it n times over, and their common denominator: the one
    convolution kernel of the package, for integer and lattice sites alike.

    Returns (out, den): a site -> numerator dict, not necessarily in site
    order, over den, the product of the inputs' common denominators to the
    n-th power.  The operands are extracted here (``_operand``, after the
    container check) and multiplied by ``_product``; a caller that reuses
    operands, the tuple walker of ``extremal``, extracts them once and calls
    ``_product`` itself.
    """
    _same_container(laws)
    parts, den, total = [], 1, 1
    for mu in laws:
        pairs, d, t = _operand(mu)
        parts.append(pairs)
        den *= d
        total *= t
    if n > 1:
        den, total = den**n, total**n
    return _product(parts, n, total, laws[0]._add_sites), den


def convolve(a: FiniteMeasure, b: FiniteMeasure) -> FiniteMeasure:
    """Exact law of the sum of independent draws from a and b, of the same
    container type as a.

    Masses are accumulated as integer numerators over the product of the two
    common denominators, and the result is reduced by one gcd.  Large dense
    supports go through the Kronecker-substitution kernel (one big-int
    product), small or sparse ones through the pairwise loop; see ``_branch``.
    """
    out, den = _convolve_numerators((a, b))
    return type(a)._from_integers(out, den)


def _q_max_pair(a: IntDist, b: IntDist) -> tuple[int, int]:
    """q_max(convolve(a, b)) as (numerator, denominator), not reduced: the
    kernel's largest numerator over the product of the input denominators.
    Searches compare these pairs by cross-multiplication.

    The mass check stays exact: the input numerators must sum to their
    denominators and the output numerators to the product of those sums.
    """
    out, den = _convolve_numerators((a, b))
    return max(out.values()), den


def convolve_all(dists: Sequence[FiniteMeasure]) -> FiniteMeasure:
    """Exact law of the sum of independent draws from each of dists, of the
    container type of dists[0].

    The whole product is one kernel call: packed, the laws are multiplied as
    big integers and unpacked once; pairwise, the numerator dicts are folded
    left.  No intermediate law is built.
    """
    if not dists:
        raise ValueError("empty convolution")
    if len(dists) == 1:
        return dists[0]
    out, den = _convolve_numerators(dists)
    return type(dists[0])._from_integers(out, den)


def convolve_power(mu: FiniteMeasure, n: int) -> FiniteMeasure:
    """n-fold self-convolution.

    By recurrence, one pass over the result's exponents; packed, ``pow`` of
    one big integer and one unpack; pairwise, binary exponentiation of the
    numerator dict.  Either way no intermediate law is built and only the
    result is reduced, by one gcd.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return mu
    out, den = _convolve_numerators((mu,), n)
    return type(mu)._from_integers(out, den)


def q_max(mu: IntDist) -> Fraction:
    """Largest single atom mass."""
    return Fraction(max(mu.numerators), mu.denominator())


def q_k(mu: IntDist, k: int) -> Fraction:
    """Sum of the k largest masses (1 once k reaches the atom count)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Fraction(sum(sorted(mu.numerators, reverse=True)[:k]), mu.denominator())


def q_interval(mu: IntDist, t: int) -> Fraction:
    """Maximum total mass on any window of t consecutive integers.

    An open real interval of length t contains at most t integers and that
    count is attained, so the sliding-window maximum realizes the open-interval
    concentration at scale t; q_interval(mu, 1) == q_max(mu).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    sites, nums = mu.sites, mu.numerators
    best = window = j = 0
    for i in range(len(sites)):
        window += nums[i]
        while sites[i] - sites[j] >= t:
            window -= nums[j]
            j += 1
        best = max(best, window)
    return Fraction(best, mu.denominator())


def mean(mu: IntDist) -> Fraction:
    return Fraction(sum(map(operator.mul, mu.sites, mu.numerators)), mu.denominator())


def variance(mu: IntDist) -> Fraction:
    mu1 = mean(mu)
    return Fraction(sum(n * s * s for s, n in zip(mu.sites, mu.numerators)), mu.denominator()) - mu1 * mu1


def third_abs_moment(mu: IntDist) -> Fraction:
    """E|X - EX|**3, exact (used by the normal-approximation bound)."""
    # sum n |den s - sum n s|**3 / den**4
    den, first = mu.denominator(), sum(map(operator.mul, mu.sites, mu.numerators))
    return Fraction(sum(n * abs(den * s - first) ** 3 for s, n in zip(mu.sites, mu.numerators)), den**4)


def shift(mu: FiniteMeasure, c) -> FiniteMeasure:
    """mu moved by the site c: the convolution with the point mass at c, so
    the container validates c and the kernel checks that it fits mu."""
    return convolve(mu, type(mu)([(c, 1)]))


def negate(mu: IntDist) -> IntDist:
    return type(mu)._from_integers({-s: n for s, n in zip(mu.sites, mu.numerators)}, mu.denominator())


def has_contiguous_support(mu: IntDist) -> bool:
    sites = mu.sites
    return sites[-1] - sites[0] + 1 == len(sites)


def is_log_concave(mu: IntDist) -> bool:
    """Squared-mass inequality on a contiguous support.

    The inequality m(i)**2 >= m(i-1)*m(i+1) is required at every integer i, so
    a zero between two positive masses fails it; hence contiguous support is
    part of the predicate.
    """
    if not has_contiguous_support(mu):
        return False
    ns = mu.numerators
    return all(ns[i] ** 2 >= ns[i - 1] * ns[i + 1] for i in range(1, len(ns) - 1))


def is_unimodal(mu: IntDist) -> bool:
    """Masses nondecreasing up to some site, nonincreasing after."""
    if len(mu) == 1:
        return True
    if not has_contiguous_support(mu):
        return False
    ns = mu.numerators
    i = 0
    while i + 1 < len(ns) and ns[i + 1] >= ns[i]:
        i += 1
    while i + 1 < len(ns) and ns[i + 1] <= ns[i]:
        i += 1
    return i == len(ns) - 1


def modes(mu: IntDist) -> list[int]:
    """All sites carrying the maximal mass."""
    peak = max(mu.numerators)
    return [s for s, n in zip(mu.sites, mu.numerators) if n == peak]


def max_span(mu: IntDist) -> SpanResult:
    """gcd of pairwise site differences; infinite for a single atom."""
    sites = mu.sites
    if len(sites) == 1:
        return INFINITE_SPAN
    base = sites[0]
    g = 0
    for s in sites[1:]:
        g = gcd(g, s - base)
    return SpanResult(g)


def squeeze(mu: IntDist) -> IntDist:
    """Remap the sites, in order, onto the maximally centered interval.

    The mass multiset is preserved: the j-th smallest site keeps its mass and
    moves to position j - 1 - floor((N-1)/2), so an N-atom distribution lands
    on {-floor((N-1)/2), ..., ceil((N-1)/2)}.
    """
    start = -((len(mu) - 1) // 2)
    return type(mu)._from_integers({start + j: n for j, n in enumerate(mu.numerators)}, mu.denominator())


def is_sharp_log_concave(mu: IntDist) -> bool:
    return is_log_concave(squeeze(mu))
