"""Numerical semigroups and the trace of their canonical ideal.

A numerical semigroup is handled through an explicit membership table: the
largest gap is below min(gens) * max(gens), so a table of twice that size
always pins down the conductor.  Fractional ideals are integer sets closed
under adding semigroup elements; each is stored as its minimum plus a
membership window of conductor length, beyond which everything belongs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import FormatError, ParameterError, SizeGuardError

# Entries of the membership table, 2 * min(gens) * max(gens) + 1.  Past
# this a table takes seconds and tens of megabytes to fill; family(60, 40)
# needs about 3 * 10**5.
TABLE_LIMIT = 2_000_000


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple[int, ...]
    members_below_conductor: frozenset[int]
    gaps: tuple[int, ...]
    frobenius: int
    conductor: int

    def contains(self, x: int) -> bool:
        if x < 0:
            return False
        if x >= self.conductor:
            return True
        return x in self.members_below_conductor

    def members_upto(self, bound: int) -> list[int]:
        small = [m for m in sorted(self.members_below_conductor) if m < bound]
        return small + list(range(self.conductor, max(self.conductor, bound)))


def _table_size(lo: int, hi: int) -> int:
    """Entries of the membership table for smallest generator `lo` and
    largest `hi`; past TABLE_LIMIT a SizeGuardError."""
    size = 2 * lo * hi + 1
    if size > TABLE_LIMIT:
        raise SizeGuardError(
            f"membership table for generators {lo}..{hi} needs "
            f"{size} entries, limit {TABLE_LIMIT}")
    return size


def semigroup(generators) -> NumericalSemigroup:
    gens = tuple(sorted(set(int(g) for g in generators)))
    if not gens or any(g <= 0 for g in gens):
        raise FormatError("generators must be positive integers")
    g = 0
    for x in gens:
        g = gcd(g, x)
    if g != 1:
        raise FormatError(f"gcd of generators is {g}, complement would be infinite")
    size = _table_size(gens[0], gens[-1])
    member = [False] * size
    member[0] = True
    for x in range(1, size):
        member[x] = any(x >= gen and member[x - gen] for gen in gens)
    gaps = [x for x in range(1, size) if not member[x]]
    frobenius = gaps[-1] if gaps else -1
    conductor = frobenius + 1
    below = frozenset(x for x in range(conductor) if member[x])
    return NumericalSemigroup(gens, below, tuple(gaps), frobenius, conductor)


def pseudo_frobenius(h: NumericalSemigroup) -> tuple[int, ...]:
    """Integers x outside the semigroup with x + m inside it for every
    nonzero member m.

    Checking the generators suffices: any nonzero element is a generator
    plus an element, and membership is closed under addition.  Only the
    positive gaps can qualify, except that -1 does when there are no gaps
    at all.
    """
    candidates = h.gaps if h.gaps else (-1,)
    return tuple(x for x in candidates
                 if all(h.contains(x + g) for g in h.generators))


def cm_type(h: NumericalSemigroup) -> int:
    """Cohen-Macaulay type: the number of pseudo-Frobenius elements."""
    return len(pseudo_frobenius(h))


@dataclass(frozen=True)
class IntegerIdeal:
    """A fractional-ideal exponent set: closed under adding semigroup
    elements, bounded below, containing everything from min + conductor on.

    `window` lists the members m with min <= m < min + conductor.
    """

    semigroup: NumericalSemigroup
    min: int
    window: frozenset[int]

    def __post_init__(self):
        c = self.semigroup.conductor
        if c > 0 and self.min not in self.window:
            raise FormatError("minimum must belong to the ideal")
        for z in self.window:
            if not self.min <= z < self.min + c:
                raise FormatError("window element out of range")
            for g in self.semigroup.generators:
                if not self.contains(z + g):
                    raise FormatError("ideal not closed under semigroup addition")

    def contains(self, z: int) -> bool:
        if z < self.min:
            return False
        if z >= self.min + self.semigroup.conductor:
            return True
        return z in self.window

    def members_upto(self, bound: int) -> list[int]:
        top = self.min + self.semigroup.conductor
        small = [z for z in sorted(self.window) if z < bound]
        return small + list(range(top, max(top, bound)))


def _ideal_from_test(h: NumericalSemigroup, test, lo: int, hi: int) -> IntegerIdeal:
    """Materialize {z : test(z)} as an IntegerIdeal; its minimum is known to
    lie in [lo, hi]."""
    mn = None
    for z in range(lo, hi + 1):
        if test(z):
            mn = z
            break
    if mn is None:
        raise RuntimeError("ideal unexpectedly empty on the scan range")
    window = frozenset(z for z in range(mn, mn + h.conductor) if test(z))
    return IntegerIdeal(h, mn, window)


def semigroup_as_ideal(h: NumericalSemigroup) -> IntegerIdeal:
    return _ideal_from_test(h, h.contains, 0, 0)


def canonical_ideal(h: NumericalSemigroup) -> IntegerIdeal:
    """K = {z : frobenius - z is not in the semigroup}; its minimum is 0."""
    return _ideal_from_test(h, lambda z: not h.contains(h.frobenius - z), 0, 0)


def ideal_quotient(target: IntegerIdeal, ideal: IntegerIdeal) -> IntegerIdeal:
    """{z : z + ideal inside target}.

    Only ideal members below target.min + conductor - z need checking;
    beyond that the sum is past the target's guaranteed tail anyway.
    """
    h = target.semigroup
    top = target.min + h.conductor

    def test(z: int) -> bool:
        return all(target.contains(z + e)
                   for e in ideal.members_upto(max(ideal.min, top - z)))

    # z = target.min + conductor - ideal.min always works
    return _ideal_from_test(h, test, target.min - ideal.min, top - ideal.min)


def ideal_dual(h: NumericalSemigroup, ideal: IntegerIdeal) -> IntegerIdeal:
    """{z : z + ideal inside the semigroup}."""
    return ideal_quotient(semigroup_as_ideal(h), ideal)


def ideal_sum(a: IntegerIdeal, b: IntegerIdeal) -> IntegerIdeal:
    """Elementwise sums {x + y}."""
    h = a.semigroup

    def test(z: int) -> bool:
        return any(b.contains(z - x) for x in a.members_upto(z - b.min + 1))

    return _ideal_from_test(h, test, a.min + b.min, a.min + b.min)


def trace_ideal(h: NumericalSemigroup) -> IntegerIdeal:
    """Canonical ideal times its dual, as an exponent set."""
    k = canonical_ideal(h)
    return ideal_sum(k, ideal_dual(h, k))


def residue(h: NumericalSemigroup) -> int:
    """Number of semigroup elements missing from the trace.

    Always computed from the sets themselves, never from a formula.
    """
    tr = trace_ideal(h)
    bound = max(h.conductor, tr.min + h.conductor)
    return sum(1 for x in h.members_upto(bound) if not tr.contains(x))


def family(a: int, b: int) -> NumericalSemigroup:
    """The semigroup generated by a+1 together with b(a+1)+1 .. b(a+1)+a.

    Its elements below the conductor b(a+1) are exactly the multiples
    i(a+1) with 0 <= i < b.
    """
    if a < 2 or b < 1:
        raise ParameterError(f"need a >= 2 and b >= 1, got a={a}, b={b}")
    step = a + 1
    # the guard of `semigroup`, checked before the a + 1 generators exist
    _table_size(step, b * step + a)
    gens = (step,) + tuple(b * step + k for k in range(1, a + 1))
    return semigroup(gens)
