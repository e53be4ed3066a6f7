"""Numerical semigroups and the trace of their canonical ideal.

A semigroup is the value of its generators.  The constructor derives its
Apery vector with respect to m = min(gens), ap[r] the least member in
residue class r mod m, by the round-robin algorithm (Boecker and Liptak,
Algorithmica 2007), and the conductor and Frobenius number from it, once.
A set closed under adding m holds x iff x >= ap[x % m], so membership is
one comparison.

Fractional ideals are integer sets closed under adding semigroup elements,
stored as their minimum plus a membership window of conductor length,
beyond which everything belongs, with the Apery vector read off that
window.  All arithmetic runs on Apery vectors; ideal sums and quotients
of two ideals of one semigroup take O(m^2) steps.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from math import gcd, inf

from .errors import FormatError, ParameterError, SizeGuardError, _ints

# Bound on 2 * min(gens) * max(gens) + 1.  The conductor is at most
# (min(gens) - 1) * (max(gens) - 1), so this caps the gaps and every
# conductor-length window; family(60, 40) needs about 3 * 10**5.
TABLE_LIMIT = 2_000_000


def _check_table_size(lo: int, hi: int) -> None:
    """A SizeGuardError if the membership table for smallest generator `lo`
    and largest `hi`, 2 * lo * hi + 1 entries, passes TABLE_LIMIT."""
    if 2 * lo * hi + 1 > TABLE_LIMIT:
        raise SizeGuardError(f"membership table for generators {lo}..{hi} needs "
                             f"{2 * lo * hi + 1} entries, limit {TABLE_LIMIT}")


@dataclass(frozen=True)
class NumericalSemigroup:
    """The semigroup generated by `generators`: positive integer-like values
    (`operator.index`) with gcd 1, stored sorted and without repeats.

    The generators are the whole value: equality, hashing, repr, copying
    and pickling see them alone.  The Apery vector `apery`, the conductor
    and the Frobenius number are derived from them at construction and
    cannot be passed in; the gaps are listed on each read.
    """

    generators: tuple[int, ...]
    apery: tuple[int, ...] = field(init=False, repr=False, compare=False)
    conductor: int = field(init=False, repr=False, compare=False)
    frobenius: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = tuple(sorted(set(_ints(self.generators, FormatError, "generators"))))
        if not gens or gens[0] <= 0:
            raise FormatError("generators must be positive integers")
        if gcd(*gens) != 1:
            raise FormatError(f"gcd of generators is {gcd(*gens)}, complement would be infinite")
        _check_table_size(gens[0], gens[-1])
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
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "apery", tuple(ap))
        object.__setattr__(self, "conductor", max(ap) - m + 1)
        object.__setattr__(self, "frobenius", self.conductor - 1)

    def __reduce__(self):
        # the generators alone: the constructor derives the rest again
        return NumericalSemigroup, (self.generators,)

    @property
    def gaps(self) -> tuple[int, ...]:
        return tuple(x for x in range(1, self.conductor) if not self.contains(x))

    def contains(self, x: int) -> bool:
        return x >= self.apery[x % self.generators[0]]


# the constructor under the name the command line and older callers use
semigroup = NumericalSemigroup


def _ideal(h: NumericalSemigroup, ap: list[int]) -> IntegerIdeal:
    m, least = len(ap), min(ap)
    # the constructor collects the window into its frozenset, in one pass
    return IntegerIdeal(h, least, (z for z in range(least, least + h.conductor) if z >= ap[z % m]))


def pseudo_frobenius(h: NumericalSemigroup) -> tuple[int, ...]:
    """Integers x outside the semigroup with x + m inside it for every
    nonzero member m.

    Checking the generators suffices, as every nonzero member is a generator
    plus a member.  Each such x is a nonzero Apery element minus min(gens);
    with no gaps at all, only -1 qualifies.
    """
    candidates = sorted(w - h.generators[0] for w in h.apery[1:])
    return tuple(x for x in candidates or (-1,) if all(h.contains(x + g) for g in h.generators))


def cm_type(h: NumericalSemigroup) -> int:
    """Cohen-Macaulay type: the number of pseudo-Frobenius elements."""
    return len(pseudo_frobenius(h))


@dataclass(frozen=True)
class IntegerIdeal:
    """A fractional-ideal exponent set: closed under adding semigroup
    elements, bounded below, containing everything from min + conductor on.

    `window` lists the members m with min <= m < min + conductor.  The
    minimum and the members may be any integer-like values
    (`operator.index`), the members in any iterable; they are stored as
    an int and a frozenset of ints.  Their Apery vector `ap` is derived
    at construction and is no part of the value.
    """

    semigroup: NumericalSemigroup
    min: int
    window: frozenset[int]
    ap: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = operator.index
        try:
            least = index(self.min)
            window = frozenset(map(index, self.window))
        except TypeError:
            raise FormatError("ideal minimum and window members must be integers") from None
        object.__setattr__(self, "min", least)
        object.__setattr__(self, "window", window)
        c = self.semigroup.conductor
        if c > 0 and least not in window:
            raise FormatError("minimum must belong to the ideal")
        top = least + c
        gens, contains = self.semigroup.generators, self.contains
        m = gens[0]
        # every class starts at min + conductor at the latest
        ap = [top + (r - top) % m for r in range(m)]
        for z in window:
            if not least <= z < top:
                raise FormatError("window element out of range")
            for g in gens:
                if not contains(z + g):
                    raise FormatError("ideal not closed under semigroup addition")
            if z < ap[z % m]:
                ap[z % m] = z
        object.__setattr__(self, "ap", tuple(ap))

    def contains(self, z: int) -> bool:
        return z >= self.min + self.semigroup.conductor or z in self.window


def semigroup_as_ideal(h: NumericalSemigroup) -> IntegerIdeal:
    return _ideal(h, h.apery)


def canonical_ideal(h: NumericalSemigroup) -> IntegerIdeal:
    """K = {z : frobenius - z is not in the semigroup}; its minimum is 0.

    Class r of K starts at F + m - ap[(F - r) % m], one step of m above
    the largest z in the class with F - z in the semigroup."""
    ap, f, m = h.apery, h.frobenius, h.generators[0]
    return _ideal(h, [f + m - ap[(f - r) % m] for r in range(m)])


def _vectors(a: IntegerIdeal, b: IntegerIdeal):
    """Both ideals' semigroup and Apery vectors; two semigroups are a ParameterError."""
    if a.semigroup != b.semigroup:
        raise ParameterError(f"ideals over different semigroups {a.semigroup.generators} "
                             f"and {b.semigroup.generators}")
    return a.semigroup, a.ap, b.ap


def ideal_quotient(target: IntegerIdeal, ideal: IntegerIdeal) -> IntegerIdeal:
    """{z : z + ideal inside target}, for two ideals of one semigroup.

    For z in class r mod m and each class start e of the ideal, z + e is
    in the target iff z >= t[(r + e) % m] - e, a bound itself in class r."""
    h, t, es = _vectors(target, ideal)
    m = len(t)
    return _ideal(h, [max(t[(r + e) % m] - e for e in es) for r in range(m)])


def ideal_dual(h: NumericalSemigroup, ideal: IntegerIdeal) -> IntegerIdeal:
    """{z : z + ideal inside the semigroup}, for an ideal of `h`."""
    return ideal_quotient(semigroup_as_ideal(h), ideal)


def ideal_sum(a: IntegerIdeal, b: IntegerIdeal) -> IntegerIdeal:
    """Elementwise sums {x + y} of two ideals of one semigroup: the least
    in class r adds a class start x of a to b's start in class r - x."""
    h, xs, ys = _vectors(a, b)
    m = len(xs)
    return _ideal(h, [min(x + ys[(r - x) % m] for x in xs) for r in range(m)])


def trace_ideal(h: NumericalSemigroup) -> IntegerIdeal:
    """Canonical ideal times its dual, as an exponent set."""
    k = canonical_ideal(h)
    return ideal_sum(k, ideal_dual(h, k))


def residue(h: NumericalSemigroup) -> int:
    """Number of semigroup elements missing from the trace."""
    return _residue(h, trace_ideal(h))


def _residue(h: NumericalSemigroup, tr: IntegerIdeal) -> int:
    """`residue` of `h`, given its trace ideal `tr`.

    Counted class by class: the trace lies inside the semigroup, so in
    class r it misses the (tr[r] - ap[r]) / m members from ap[r] up.
    """
    return sum(map(operator.sub, tr.ap, h.apery)) // h.generators[0]


def family(a: int, b: int) -> NumericalSemigroup:
    """The semigroup generated by a+1 together with b(a+1)+1 .. b(a+1)+a.

    Its elements below the conductor b(a+1) are exactly the multiples
    i(a+1) with 0 <= i < b.
    """
    a, b = _ints((a, b), ParameterError, "a and b")
    if a < 2 or b < 1:
        raise ParameterError(f"need a >= 2 and b >= 1, got a={a}, b={b}")
    step = a + 1
    # the guard of `NumericalSemigroup`, checked before the a + 1 generators exist
    _check_table_size(step, b * step + a)
    return NumericalSemigroup((step, *range(b * step + 1, b * step + a + 1)))
