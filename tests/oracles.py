"""Reference oracles that exist only to check the library.

Each one takes a route the library does not: the trace ideal's minimal
generators by reducing the pairwise canonical-plus-anticanonical sums, the
faces of the cone as objects with their tight inequalities and points, the
anticanonical ideal by its defining property, and near-Gorensteinness by
testing every degree-one monomial for trace membership.
"""

from dataclasses import dataclass
from functools import lru_cache

from gstab.toric import (
    FacetSystem,
    Monomial,
    _face_lattice,
    _in_trace,
    _slice,
    _tables,
    anticanonical_generators,
    in_ring,
    omega_generators,
)


@lru_cache(maxsize=None)
def pairwise_trace_generators(g):
    """Minimal generators of the trace ideal by the quadratic reduction:
    walk the sorted canonical-plus-anticanonical sums and keep a candidate
    unless cand - k is in the ring for a kept k.

    Every trace monomial is a canonical generator plus an anticanonical
    generator plus a ring point, so the pairwise sums generate, and a sum
    is redundant iff it lies above a kept one.  Cached, because several
    tests reduce the same graphs."""
    fs = FacetSystem.from_graph(g)
    sums = sorted(
        {w + v for w in omega_generators(g) for v in anticanonical_generators(g)},
        key=lambda m: (m.degree, m.exponents))
    kept = []
    for cand in sums:
        assert in_ring(fs, cand)
        if not any(in_ring(fs, cand - k) for k in kept):
            kept.append(cand)
    return tuple(kept)


@dataclass(frozen=True)
class Face:
    """A face of the cone over the stable set polytope.

    `tight_nonneg` / `tight_cliques` record which inequalities hold with
    equality everywhere on the face (vertex labels, resp. indices into the
    facet system's clique list); `points` are the degree-one lattice points
    lying on the face, which span it.
    """

    tight_nonneg: frozenset[int]
    tight_cliques: frozenset[int]
    points: tuple[tuple[int, ...], ...]
    dim: int


def cone_faces(fs: FacetSystem) -> tuple[Face, ...]:
    """All faces of the cone over the stable set polytope, ordered by
    dimension and then by their points (see `_face_lattice`)."""
    t = _tables(fs)
    faces = []
    for face, dim in _face_lattice(fs).items():
        tight = [j for j, f in enumerate(t.masks) if face & f == face]
        bits = bin(face)[:1:-1]   # bit k of the face at index k
        faces.append(Face(frozenset(j + 1 for j in tight if j < fs.n),
                          frozenset(j - fs.n for j in tight if j >= fs.n),
                          tuple(t.points[k] for k, b in enumerate(bits) if b == "1"),
                          dim))
    faces.sort(key=lambda f: (f.dim, f.points))
    return tuple(faces)


def monomial_on_face(fs: FacetSystem, face: Face, m: Monomial) -> bool:
    """Does a ring monomial satisfy all of the face's tight equalities?"""
    exps = m.exponents
    if any(exps[i - 1] != 0 for i in face.tight_nonneg):
        return False
    return all(
        sum(exps[i - 1] for i in fs.cliques[ci]) == m.degree
        for ci in face.tight_cliques)


def in_anticanonical_definitional(g, m: Monomial, degree_bound: int | None = None) -> bool:
    """True iff m + w lands in the ring for every canonical-module generator w."""
    fs = FacetSystem.from_graph(g)
    return all(in_ring(fs, m + w) for w in omega_generators(g, degree_bound))


def trace_contains_maximal_ideal(g) -> bool:
    """Oracle for near-Gorensteinness: every degree-one monomial in the trace."""
    fs = FacetSystem.from_graph(g)
    return all(_in_trace(fs, a, 1) for a in _slice(fs, 0, 1))
