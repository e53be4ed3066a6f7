"""Finite posets and their comparability graphs.

A poset is stored by its strict-order relation, transitively closed:
`poset_from_covers` closes generating relations in one Warshall pass, and
`ordinal_sum` combines closed relations directly.  Cover relations are
read back only for reports, as the transitive reduction.  Positions in
the element list fix the vertex numbering of the comparability graph.
The chain polytope of a poset is the stable set polytope of its
comparability graph (Stanley, "Two poset polytopes", 1986): its maximal
chains are the graph's maximal cliques and its antichains the graph's
stable sets, so both are read off the graph.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations

from .errors import FormatError, ParameterError, _decode_json, _ints, _read_text
from .graphs import Graph, stable_sets


@dataclass(frozen=True)
class Poset:
    """elements: label list; lt: lt[i] is the frozenset of indices j with
    element i strictly below element j (already transitively closed), one
    row per element.  The labels must be hashable, and the indices may be
    any integer-like values (`operator.index`); they are stored as ints."""

    elements: tuple
    lt: tuple[frozenset[int], ...]

    def __post_init__(self):
        try:
            elements = tuple(self.elements)
            distinct = len(set(elements))
        except TypeError:
            raise FormatError(f"poset labels must be hashable, got {self.elements!r}") from None
        try:
            lt = tuple(frozenset(map(operator.index, ups)) for ups in self.lt)
        except TypeError:
            raise FormatError("relation rows must be sets of integer indices, "
                              f"got {self.lt!r}") from None
        if distinct != len(elements):
            raise FormatError("duplicate poset labels")
        n = len(elements)
        if len(lt) != n:
            raise FormatError(f"relation has {len(lt)} rows for {n} elements")
        for i, ups in enumerate(lt):
            if i in ups:
                raise FormatError("strict order cannot be reflexive")
            for j in ups:
                if not 0 <= j < n:
                    raise FormatError("relation index out of range")
                if i in lt[j]:
                    raise FormatError("antisymmetry violated")
                if not lt[j] <= ups:
                    raise FormatError("relation not transitively closed")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "lt", lt)

    def __len__(self):
        return len(self.elements)

    def index(self, label) -> int:
        return self.elements.index(label)

    def less(self, a, b) -> bool:
        return self.index(b) in self.lt[self.index(a)]

    def comparable(self, a, b) -> bool:
        return self.less(a, b) or self.less(b, a)

    def covers(self) -> list[tuple]:
        """Cover pairs (a, b) with a < b and nothing in between."""
        out = []
        for i, ups in enumerate(self.lt):
            for j in ups:
                if not any(j in self.lt[k] for k in ups):
                    out.append((self.elements[i], self.elements[j]))
        return sorted(out, key=lambda ab: (str(ab[0]), str(ab[1])))


def poset_from_covers(elements, covers) -> Poset:
    """Build a poset from cover (or any generating) relations, checking
    each label where it is hashed and each cover where it is unpacked."""
    elements = tuple(elements)
    try:
        index = {e: i for i, e in enumerate(elements)}
    except TypeError:
        raise FormatError(f"poset labels must be hashable, got {elements!r}") from None
    above = [set() for _ in elements]
    for cover in covers:
        try:
            a, b = cover
            above[index[a]].add(index[b])
        except (KeyError, TypeError, ValueError):
            raise FormatError(f"cover {cover!r} is not a pair of known labels") from None
    # Warshall: after pivot k, i reaches j whenever a path from i to j
    # passes only through pivots <= k
    for k, above_k in enumerate(above):
        for above_i in above:
            if k in above_i:
                above_i |= above_k
    if any(i in above_i for i, above_i in enumerate(above)):
        raise FormatError("cover relations contain a cycle")
    return Poset(elements, tuple(frozenset(s) for s in above))


def _decode_poset_json(text: str) -> tuple[list, list[tuple]]:
    """Elements and cover pairs of a poset file, checked for shape only."""
    data = _decode_json(text)
    if not isinstance(data, dict) or "elements" not in data or "covers" not in data:
        raise FormatError('poset file needs keys "elements" and "covers"')
    if not isinstance(data["elements"], list):
        raise FormatError('"elements" must be a list of labels')
    covers = data["covers"]
    if not isinstance(covers, list) or not all(
            isinstance(c, list) and len(c) == 2 for c in covers):
        raise FormatError('"covers" must be a list of pairs')
    return data["elements"], [tuple(c) for c in covers]


def parse_poset_json(text: str) -> Poset:
    """Parse {"elements": [...], "covers": [[a,b], ...]}."""
    return poset_from_covers(*_decode_poset_json(text))


def load_poset(path: str) -> Poset:
    return parse_poset_json(_read_text(path))


# ---------------------------------------------------------------------------
# constructors

def _labels(k, labels, prefix: str) -> tuple:
    """The k labels of a chain or antichain: `labels`, else prefix + 1..k.
    A size k that is negative or not integer-like, or a label count other
    than k, is a ParameterError."""
    k = _ints((k,), ParameterError, "sizes")[0]
    if k < 0:
        raise ParameterError(f"size must be nonnegative, got {k}")
    labels = tuple(labels) if labels is not None else tuple(f"{prefix}{i + 1}" for i in range(k))
    if len(labels) != k:
        raise ParameterError(f"label count {len(labels)} must match size {k}")
    return labels


def chain(k: int, labels=None) -> Poset:
    labels = _labels(k, labels, "c")
    return poset_from_covers(labels, list(zip(labels, labels[1:])))


def antichain(k: int, labels=None) -> Poset:
    return poset_from_covers(_labels(k, labels, "a"), [])


def ordinal_sum(p1: Poset, p2: Poset) -> Poset:
    """Every element of p1 below every element of p2.

    Colliding labels in p2 are freshened with trailing apostrophes.
    """
    used = set(p1.elements)
    fresh = []
    for e in p2.elements:
        while e in used:
            e = f"{e}'"
        fresh.append(e)
        used.add(e)
    n1 = len(p1)
    top = frozenset(range(n1, n1 + len(p2)))
    lt = tuple(ups | top for ups in p1.lt)
    lt += tuple(frozenset(j + n1 for j in ups) for ups in p2.lt)
    return Poset(p1.elements + tuple(fresh), lt)


def hmp_poset(a: int, b: int) -> Poset:
    """The two-block poset behind the prescribed height/dimension family.

    Bottom block: a chain with b-a-1 elements.  Top block: a singleton next
    to a chain with a-2 elements, with one new minimum adjoined below both.
    Total size is b-1.  Requires 4 <= a < b.
    """
    a, b = _ints((a, b), ParameterError, "a and b")
    if not (4 <= a < b):
        raise ParameterError(f"need 4 <= a < b, got a={a}, b={b}")
    # the chain b1 < ... < b{b-a-1} < m < c1 < ... < c{a-2}, and m < p
    bottom = [f"b{i + 1}" for i in range(b - a - 1)] + ["m"]
    top = [f"c{i + 1}" for i in range(a - 2)]
    line = bottom + top
    return poset_from_covers(bottom + ["p"] + top, [*zip(line, line[1:]), ("m", "p")])


# ---------------------------------------------------------------------------
# operations

def comparability_graph(p: Poset) -> Graph:
    """Graph on 1..|P| (element list order) with comparable pairs as edges.

    Comparability graphs are always perfect.
    """
    n = len(p)
    edges = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n)
             if j in p.lt[i] or i in p.lt[j]]
    return Graph.from_edges(n, edges)


def has_x_subposet(p: Poset) -> bool:
    """Five elements a,b < x < y,z with a,b incomparable and y,z incomparable?"""
    n = len(p)
    for x in range(n):
        down = [i for i in range(n) if x in p.lt[i]]
        up = sorted(p.lt[x])
        if len(down) < 2 or len(up) < 2:
            continue
        down_pair = any(b not in p.lt[a] and a not in p.lt[b]
                        for a, b in combinations(down, 2))
        up_pair = any(z not in p.lt[y] and y not in p.lt[z]
                      for y, z in combinations(up, 2))
        if down_pair and up_pair:
            return True
    return False


def antichains(p: Poset) -> tuple[tuple, ...]:
    """All antichains as label tuples, ordered by size then position: the
    stable sets of the comparability graph."""
    return tuple(tuple(p.elements[v - 1] for v in s)
                 for s in stable_sets(comparability_graph(p)))
