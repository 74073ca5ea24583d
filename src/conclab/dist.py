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
behind ``convolve``, ``convolve_all`` and ``convolve_power``, checks that
its laws share one container type, extracts each law's operand
(``_operand``: its (site, numerator) pairs, denominator and numerator sum)
and calls ``_product``, the product proper: ``_branch``, one of three
branches, and the exact check that the numerators sum to the product of the
operands' sums.  Inside ``_product`` every site is an integer.  Lattice laws
are numbered on the way in: ``_encode`` gives each lattice site its
row-major number in the result's bounding box, a linear numbering, so the
number of a sum is the sum of the numbers, and ``_decode`` reads the
result's sites back; these two are the only kernel code that sees a tuple
site.  The tuple walker of ``extremal`` calls ``_product`` itself, after
one container check per walk, on integer operands: each option's extracted
once, and each prefix the product of the prefix above it and an option.  A
result enters the container through ``_from_integers``, reduced by one gcd;
the Kronecker branches and ``_decode`` keep site order, so only the pairwise
loop's output is sorted on the way in.  JSON, text and ``repr`` are
formatted from the integers too: each mass is its numerator and the
denominator divided by their gcd, so no Fraction is built on the way out.
Large dense supports use Kronecker substitution: each law is packed into one
Python int with a fixed-width slot per site from its first to its last,
CPython's big-int multiply (or ``pow``) does the convolution, and one pass
over the slots unpacks the result, already in site order.  The power of one
dense law can instead use the sites as exponents of a polynomial and J. C. P.
Miller's recurrence, one small multiply-add per result slot and input atom,
where the big-int ``pow`` grows like Karatsuba in slots times slot width.
Small or sparse supports use a pairwise loop over dicts.  ``_branch``
chooses from atom counts, slot counts, the slot width and a lone lattice
law's dimension alone; ``tools/kernel_crossover.py`` prints the table behind
its constants.
"""

from __future__ import annotations

import json
import operator
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


class FiniteMeasure:
    """Finite measure with exact positive rational masses: the one atom
    container of the package.

    Immutable value type: a dict of positive integer numerators in increasing
    site order over one denominator, the least common one of the masses.
    ``sites``, ``numerators``, ``numerator()`` and ``denominator()`` are the
    read-only integer view; ``atoms``, ``masses`` and ``mass()`` build
    Fractions from it, and JSON, text and ``repr`` format each mass from its
    numerator with one gcd.  A subclass sets what differs: ``_site``
    converts one input site, rejecting floats and booleans, and
    ``_normalized`` requires the masses to sum to exactly 1.  The integer
    site type is the default.
    """

    __slots__ = ("_nums", "_den", "_hash")

    _site = staticmethod(int_site)
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
    def _from_integers(cls, out: dict, den: int, ordered: bool = False):
        """The law with mass out[s] / den at each site s: the way in for exact
        results (the kernel's, negate's, squeeze's), which skips the per-atom
        checks and reduces once, by the gcd of den and every numerator.
        ``ordered`` says that out is already in site order."""
        if den <= 0 or min(out.values()) <= 0:
            raise RuntimeError("an exact result has a non-positive numerator or denominator")
        g = gcd(den, *out.values())
        mu = object.__new__(cls)
        mu._store(out if g == 1 else {s: n // g for s, n in out.items()}, den // g, ordered)
        return mu

    def _store(self, nums: dict, den: int, ordered: bool = False) -> None:
        """Keep nums, sorted by site unless ``ordered`` says it is, over den."""
        object.__setattr__(self, "_nums", nums if ordered else {s: nums[s] for s in sorted(nums)})
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
        # worked out on first use and kept: grouping summands hashes one law many times
        try:
            return self._hash
        except AttributeError:
            h = hash((self._den, *self._nums.items()))
            object.__setattr__(self, "_hash", h)
            return h

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


def _encode(parts: list[list], n: int) -> tuple[list[list], int, tuple | None]:
    """(parts, dim, frame): the operands ``parts`` of a product raised to the
    n-th power in the kernel's one site type, the integers.

    Integer sites pass through, with dim 0 and frame None.  A lattice site x
    becomes its row-major number sum_j x_j * strides[j], by the strides that
    number the points of the result's bounding box 0, 1, ... (the first
    coordinate varies slowest).  The numbering is linear, so the number of a
    sum is the sum of the numbers, and it is one to one and keeps site order
    on every box whose extents fit those of the result box: each operand's
    and each partial sum's.  dim is the affine dimension of a lone law's
    sites, which bounds ``_branch``'s atom counts from below; frame is what
    ``_decode`` needs to read the result's sites back.
    """
    if not isinstance(parts[0][0][0], tuple):
        return parts, 0, None
    boxes = [[(min(col), max(col)) for col in zip(*(s for s, _ in p))] for p in parts]
    lo = [n * sum(b[j][0] for b in boxes) for j in range(len(boxes[0]))]
    ext = [n * sum(b[j][1] - b[j][0] for b in boxes) for j in range(len(boxes[0]))]
    strides = [1] * len(ext)
    for j in range(len(ext) - 1, 0, -1):
        strides[j - 1] = strides[j] * (ext[j] + 1)
    coded = [[(sum(map(operator.mul, s, strides)), c) for s, c in p] for p in parts]
    dim = _affine_dim([s for s, _ in parts[0]]) if len(parts) == 1 else 0
    return coded, dim, (lo, ext, strides)


def _decode(out: dict, frame: tuple | None) -> dict:
    """The kernel's result ``out`` (number -> numerator) with the sites that
    ``_encode`` numbered, in the same order: each number's mixed-radix digits
    above the result box's corner, one coordinate at a time."""
    if frame is None:
        return out
    lo, ext, strides = frame
    corner = sum(map(operator.mul, lo, strides))
    offsets = [k - corner for k in out]
    cols = [[l + r // st % (e + 1) for r in offsets] for l, e, st in zip(lo, ext, strides)]
    return dict(zip(zip(*cols), out.values()))


def _slot_bytes(parts: Sequence[list], n: int) -> int:
    """Bytes per slot of the packed kernel: enough for the product of the
    input numerator sums to the n-th power, which bounds every result
    numerator."""
    total = 1
    for p in parts:
        total *= sum(c for _, c in p)
    return ((total**n).bit_length() + 7) // 8


# Cost estimates in units of one pairwise numerator product.  The packed
# kernel costs a fixed part, each input atom packed and each result slot
# unpacked, plus the big-int product of slots * w bytes, which CPython
# multiplies by Karatsuba.  The recurrence costs a fixed part plus, per
# exponent of the result, one division and one multiply-add per input atom
# after the first, each longer by w bytes.  The crossover table behind the
# constants is in CHANGES.md (tools/kernel_crossover.py).
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


def _span(parts: Sequence[list], n: int) -> int:
    """Last minus first site of the product of the laws ``parts`` raised to
    the n-th power: one less than its slots in the Kronecker branches."""
    return n * sum(p[-1][0] - p[0][0] for p in parts)


def _dense_costs(parts: Sequence[list], n: int) -> tuple[float, float]:
    """(packed, recurrence) cost estimates of the product of the laws
    ``parts`` raised to the n-th power; the recurrence's is infinite unless
    that is the power (n > 1) of one law."""
    slots, w = _span(parts, n) + 1, _slot_bytes(parts, n)
    atoms = sum(map(len, parts))
    packed = _PACK_FIXED + _PACK_PER_ATOM * atoms + _PACK_PER_SLOT * slots + (slots * w) ** 1.585 / _PACK_KARATSUBA
    if n == 1 or len(parts) > 1:
        return packed, inf
    steps = (slots - 1) * (_REC_PER_SLOT + _REC_PER_TERM * (len(parts[0]) - 1))
    return packed, _REC_FIXED + steps * (1 + w / _REC_BYTES)


def _branch(parts: Sequence[list], n: int, dim: int) -> str:
    """The kernel branch for the product of the laws ``parts`` raised to the
    n-th power: 'pairwise', or the cheaper Kronecker branch, 'packed' or, for
    the power of one law, 'recurrence'.

    Only atom counts, slot counts, the slot width and the affine dimension
    dim of a lone law's sites before ``_encode`` numbered them enter.  The
    pairwise work is estimated as a left fold over the factors (a power as n
    equal factors), each step costing the product of its operands' atom
    counts.  A partial sum's atom count lies between a lower bound and an
    upper bound (the product of the counts, at most the slots of its span).
    The lower bound is |A + B| >= |A| + |B| - 1; for i copies of one law
    whose sites span an affine space of dimension dim it is also
    C(i + dim, dim), the distinct sums of i of dim + 1 affinely independent
    sites: quadratic in i for a 2-D lattice law, cubic for a 3-D one.  The
    cheaper Kronecker branch must cost less than the upper estimate and at
    most _GUARD times the lower one, so a sparse support (sites {0, 10**12})
    never packs, and a wrong guess costs at most a constant factor over the
    pairwise loop.
    """
    if n == 1:
        size, work = len(parts[0]), 0
        for p in parts[1:]:
            work += size * len(p)
            size *= len(p)
        if work <= _PACK_FIXED + _PACK_PER_ATOM * sum(map(len, parts)):
            # the fold's work with uncapped atom counts bounds the loop's
            # work_hi, and this limit is the packed cost without its slot
            # terms, so the loop would stay pairwise too
            return "pairwise"
    packed, recurrence = _dense_costs(parts, n)
    cost = min(packed, recurrence)
    span = parts[0][-1][0] - parts[0][0][0]
    size_hi = size_lo = len(parts[0])
    work_hi = work_lo = 0
    for i in range(1, len(parts) * n):
        p = parts[i % len(parts)]
        work_hi += size_hi * len(p)
        work_lo += size_lo * len(p)
        if work_hi > cost and _GUARD * work_lo >= cost:
            return "recurrence" if recurrence < packed else "packed"
        span += p[-1][0] - p[0][0]
        size_hi = min(size_hi * len(p), span + 1)
        size_lo = max(size_lo + len(p) - 1, comb(i + 1 + dim, dim))
    return "pairwise"


def _times(x: Iterable, y: Iterable) -> dict:
    """Site -> numerator of the product of two (site, numerator) iterables:
    the pairwise loop."""
    out: dict = {}
    for sa, wa in x:
        for sb, wb in y:
            key = sa + sb
            out[key] = out.get(key, 0) + wa * wb
    return out


def _convolve_pairwise(parts: Sequence[list], n: int) -> dict:
    """Site -> numerator of the product of the laws ``parts`` raised to the
    n-th power: the pairwise loop folded left, then binary exponentiation.
    The branch for small or sparse supports."""
    acc, out = parts[0], None
    for p in parts[1:]:
        out = _times(acc, p)
        acc = out.items()
    base = dict(acc) if out is None else out
    if n == 1:
        return base
    result = None
    while n:
        if n & 1:
            result = base if result is None else _times(result.items(), base.items())
        n >>= 1
        if n:
            base = _times(base.items(), base.items())
    return result


def _convolve_packed(parts: Sequence[list], n: int) -> dict:
    """Site -> numerator, in site order, of the product of the laws
    ``parts`` raised to the n-th power, by Kronecker substitution.

    Each law becomes one integer with a slot of w bytes per site from its
    first to its last, its numerator at the slot of its site.  A result
    numerator is at most the product of the input numerator sums, which fits
    in w bytes, so the big-int product holds every result numerator in its
    own slot, that of its site above the sum of the first sites.
    """
    w = _slot_bytes(parts, n)
    values = []
    for p in parts:
        first = p[0][0]
        buf = bytearray(w * (p[-1][0] - first + 1))
        for s, c in p:
            k = (s - first) * w
            buf[k : k + w] = c.to_bytes(w, "little")
        values.append(int.from_bytes(buf, "little"))
    while len(values) > 1:  # a balanced product tree keeps the operands even
        values = [values[i] * values[i + 1] if i + 1 < len(values) else values[i] for i in range(0, len(values), 2)]
    value = pow(values[0], n)

    slots = _span(parts, n) + 1
    data = value.to_bytes(slots * w, "little")
    from_bytes = int.from_bytes
    coefficients = [from_bytes(data[k : k + w], "little") for k in range(0, slots * w, w)]
    lo = n * sum(p[0][0] for p in parts)
    return {s: c for s, c in zip(range(lo, lo + slots), coefficients) if c}


def _convolve_recurrence(p: list, n: int) -> dict:
    """Site -> numerator, in site order, of the law with (site, numerator)
    pairs p raised to the n-th power, by J. C. P. Miller's recurrence
    (Knuth, TAOCP vol. 2, section 4.7).

    Sites become exponents of a polynomial P whose n-th power is the
    result, shifted so that the first site, the smallest, is exponent 0: its
    numerator p_0 is positive.  From P (P^n)' = n P' P^n the coefficients
    a_k of P^n satisfy

        p_0 k a_k = sum_{j >= 1} ((n + 1) j - k) p_j a_{k-j},

    one small-by-big multiply-add per (result slot, input atom) and one exact
    division per slot.  A remainder means a fault and raises RuntimeError.
    """
    e0, p0 = p[0]
    # (j, (n + 1) j p_j, p_j) in increasing j, so a slot stops at the first j > k
    terms = [(s - e0, (n + 1) * (s - e0) * c, c) for s, c in p[1:]]
    top = _span([p], n)
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
    return {s: c for s, c in zip(range(n * e0, n * e0 + top + 1), a) if c}


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


def _product(parts: Sequence[list], n: int, total: int, dim: int, ordered: bool = False) -> dict:
    """Site -> numerator of the product of the operands ``parts``, with
    integer sites, raised to the n-th power: the product proper of the
    kernel.  ``_branch`` picks the branch from the operands and dim, the
    affine dimension that ``_encode`` reports: the pairwise loop, the packed
    big-int product, or, for the power of one law, Miller's recurrence.  The
    Kronecker branches return sites in order; the pairwise loop's output is
    sorted only when ``ordered`` asks for site order.  The numerators must
    sum to ``total``, the product of the operands' numerator sums to the
    n-th power; anything else is a broken input or a kernel fault and raises
    RuntimeError."""
    branch = _branch(parts, n, dim)
    if branch == "recurrence":
        out = _convolve_recurrence(parts[0], n)
    elif branch == "packed":
        out = _convolve_packed(parts, n)
    else:
        out = _convolve_pairwise(parts, n)
        if ordered:
            out = {s: out[s] for s in sorted(out)}
    if sum(out.values()) != total:
        raise RuntimeError("convolution numerators do not sum to the product of the input sums")
    return out


def _convolve_numerators(laws: Sequence[FiniteMeasure], n: int = 1, ordered: bool = False):
    """Integer numerators of the law of the sum of one draw from each of
    ``laws``, all of it n times over, and their common denominator: the one
    convolution kernel of the package, for integer and lattice sites alike.

    Returns (out, den): a site -> numerator dict over den, the product of
    the inputs' common denominators to the n-th power.  out is in site order
    when ``ordered`` is set (``_decode`` keeps the order of the numbers),
    else in no set order.  The operands are extracted here (``_operand``,
    after the container check), numbered by ``_encode``, multiplied by
    ``_product`` and given their sites back by ``_decode``; a caller that
    reuses integer operands, the tuple walker of ``extremal``, extracts them
    once and calls ``_product`` itself.
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
    parts, dim, frame = _encode(parts, n)
    return _decode(_product(parts, n, total, dim, ordered), frame), den


def convolve(a: FiniteMeasure, b: FiniteMeasure) -> FiniteMeasure:
    """Exact law of the sum of independent draws from a and b, of the same
    container type as a.

    Masses are accumulated as integer numerators over the product of the two
    common denominators, and the result is reduced by one gcd.  Large dense
    supports go through the Kronecker-substitution kernel (one big-int
    product), small or sparse ones through the pairwise loop; see ``_branch``.
    """
    out, den = _convolve_numerators((a, b), ordered=True)
    return type(a)._from_integers(out, den, ordered=True)


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
    out, den = _convolve_numerators(dists, ordered=True)
    return type(dists[0])._from_integers(out, den, ordered=True)


# The largest power convolve_power computes, by a size bound: the n-th power
# of k atoms over den has at least n * (k - 1) + 1 atoms, and C(n + d, d) if
# its sites span d dimensions, over den**n of n * bit_length(den) bits; the
# bound is the larger count times the bits.  The largest use is 3.2e7 in the
# tests (three atoms over 13, n = 2000), 2.0e6 in tools/kernel_crossover.py
# and 8.2e5 in the benchmark; at 1e9 that law takes 0.7 s and 170 MB (2-core
# VM, Python 3.11).
POWER_BUDGET = 10**9

# The most elements an enumeration may visit: a GAP's coefficient box, the
# trial divisions of gaps.gap_fit_rank1, and the extremal laws on a window
# (extremal._check_layout_count).
ENUM_BUDGET = 10**6


def convolve_power(mu: FiniteMeasure, n: int) -> FiniteMeasure:
    """n-fold self-convolution.

    By recurrence, one pass over the result's exponents; packed, ``pow`` of
    one big integer and one unpack; pairwise, binary exponentiation of the
    numerator dict.  Either way no intermediate law is built and only the
    result is reduced, by one gcd.  A power whose size bound exceeds
    POWER_BUDGET is a ValueError, raised before any power is computed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return mu
    sites = mu.sites
    d = _affine_dim(sites) if isinstance(sites[0], tuple) else 0  # the linear count covers d = 1
    size = max(n * (len(mu) - 1) + 1, comb(n + d, d)) * n * mu.denominator().bit_length()
    if size > POWER_BUDGET:
        raise ValueError(f"the {n}-fold power has size bound {size}, over the power budget {POWER_BUDGET}")
    out, den = _convolve_numerators((mu,), n, ordered=True)
    return type(mu)._from_integers(out, den, ordered=True)


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


def max_span(mu: IntDist) -> int | None:
    """gcd of pairwise site differences; None (infinite) for a single atom."""
    sites = mu.sites
    if len(sites) == 1:
        return None
    base = sites[0]
    g = 0
    for s in sites[1:]:
        g = gcd(g, s - base)
    return g


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
