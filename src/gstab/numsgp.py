"""Numerical semigroups and the trace of their canonical ideal.

Fractional ideals are integer sets closed under adding semigroup elements,
stored as their minimum plus a membership window of conductor length,
beyond which everything belongs.  All arithmetic runs on Apery vectors
with respect to m = min(gens): ap[r] is the least member in residue class
r mod m, and a set closed under adding m holds x iff x >= ap[x % m].  The
semigroup's vector comes from the round-robin algorithm (Boecker and
Liptak, Algorithmica 2007); ideal sums and quotients take O(m^2) steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf

from .errors import FormatError, ParameterError, SizeGuardError

# Bound on 2 * min(gens) * max(gens) + 1.  The conductor is at most
# (min(gens) - 1) * (max(gens) - 1), so this caps the gaps and every
# conductor-length window; family(60, 40) needs about 3 * 10**5.
TABLE_LIMIT = 2_000_000


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple[int, ...]
    members_below_conductor: frozenset[int]
    gaps: tuple[int, ...]
    frobenius: int
    conductor: int

    def contains(self, x: int) -> bool:
        return x >= self.conductor or x in self.members_below_conductor


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
    g = gcd(*gens)
    if g != 1:
        raise FormatError(f"gcd of generators is {g}, complement would be infinite")
    _table_size(gens[0], gens[-1])
    # round robin: generator a goes once round each cycle r, r + a, ... of
    # residues mod m, from the cycle's least entry, which a cannot lower
    m = gens[0]
    ap = [0] + [inf] * (m - 1)
    for a in gens[1:]:
        d = gcd(a, m)
        for p in range(d):
            n = min(ap[p::d])
            if n < inf:
                for _ in range(m // d - 1):
                    n = min(n + a, ap[(n + a) % m])
                    ap[n % m] = n
    conductor = max(ap) - m + 1
    gaps = tuple(x for x in range(1, conductor) if x < ap[x % m])
    below = frozenset(x for x in range(conductor) if x >= ap[x % m])
    return NumericalSemigroup(gens, below, gaps, conductor - 1, conductor)


def _vector(h: NumericalSemigroup, least: int, window) -> list[int]:
    """Apery vector of the ideal with minimum `least` and window `window`."""
    m, top = h.generators[0], least + h.conductor
    ap = [top + (r - top) % m for r in range(m)]
    for z in window:
        ap[z % m] = min(ap[z % m], z)
    return ap


def _ideal(h: NumericalSemigroup, ap: list[int]) -> IntegerIdeal:
    m, least = len(ap), min(ap)
    window = frozenset(z for z in range(least, least + h.conductor) if z >= ap[z % m])
    return IntegerIdeal(h, least, window)


def pseudo_frobenius(h: NumericalSemigroup) -> tuple[int, ...]:
    """Integers x outside the semigroup with x + m inside it for every
    nonzero member m.

    Checking the generators suffices, as every nonzero member is a generator
    plus a member.  Each such x is a nonzero Apery element minus min(gens);
    with no gaps at all, only -1 qualifies.
    """
    m = h.generators[0]
    candidates = sorted(w - m for w in _vector(h, 0, h.members_below_conductor)[1:])
    return tuple(x for x in candidates or (-1,)
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
        return z >= self.min + self.semigroup.conductor or z in self.window


def semigroup_as_ideal(h: NumericalSemigroup) -> IntegerIdeal:
    return _ideal(h, _vector(h, 0, h.members_below_conductor))


def canonical_ideal(h: NumericalSemigroup) -> IntegerIdeal:
    """K = {z : frobenius - z is not in the semigroup}; its minimum is 0.

    Class r of K starts at F + m - ap[(F - r) % m], one step of m above
    the largest z in the class with F - z in the semigroup."""
    ap, f = _vector(h, 0, h.members_below_conductor), h.frobenius
    m = len(ap)
    return _ideal(h, [f + m - ap[(f - r) % m] for r in range(m)])


def ideal_quotient(target: IntegerIdeal, ideal: IntegerIdeal) -> IntegerIdeal:
    """{z : z + ideal inside target}.

    For z in class r mod m and each class start e of the ideal, z + e is
    in the target iff z >= t[(r + e) % m] - e, a bound itself in class r."""
    h = target.semigroup
    t, es = _vector(h, target.min, target.window), _vector(h, ideal.min, ideal.window)
    m = len(t)
    return _ideal(h, [max(t[(r + e) % m] - e for e in es) for r in range(m)])


def ideal_dual(h: NumericalSemigroup, ideal: IntegerIdeal) -> IntegerIdeal:
    """{z : z + ideal inside the semigroup}."""
    return ideal_quotient(semigroup_as_ideal(h), ideal)


def ideal_sum(a: IntegerIdeal, b: IntegerIdeal) -> IntegerIdeal:
    """Elementwise sums {x + y}: the least in class r adds a class start x
    of a to b's start in class r - x."""
    h = a.semigroup
    xs, ys = _vector(h, a.min, a.window), _vector(h, b.min, b.window)
    m = len(xs)
    return _ideal(h, [min(x + ys[(r - x) % m] for x in xs) for r in range(m)])


def trace_ideal(h: NumericalSemigroup) -> IntegerIdeal:
    """Canonical ideal times its dual, as an exponent set."""
    k = canonical_ideal(h)
    return ideal_sum(k, ideal_dual(h, k))


def residue(h: NumericalSemigroup) -> int:
    """Number of semigroup elements missing from the trace.

    Counted class by class: the trace lies inside the semigroup, so in
    class r it misses the (tr[r] - ap[r]) / m members from ap[r] up.
    """
    tr = trace_ideal(h)
    ap = _vector(h, 0, h.members_below_conductor)
    return sum(t - a for t, a in zip(_vector(h, tr.min, tr.window), ap)) // len(ap)


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
