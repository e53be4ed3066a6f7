"""Shared corpus: every perfect graph on up to five vertices (one per
isomorphism class) plus all two-component disjoint unions drawn from
{K1, K2, K3, P3, paw}."""

from itertools import combinations_with_replacement

import pytest

from gstab import graphs
from gstab.graphs import (
    complete_graph,
    disjoint_union,
    graphs_up_to_iso,
    is_perfect,
    path_graph,
    paw_graph,
)

UNION_PIECES = {
    "K1": complete_graph(1),
    "K2": complete_graph(2),
    "K3": complete_graph(3),
    "P3": path_graph(3),
    "paw": paw_graph(),
}


def build_corpus():
    graphs = []
    for n in range(1, 6):
        for k, g in enumerate(graphs_up_to_iso(n)):
            if is_perfect(g):
                graphs.append((f"n{n}#{k}", g))
    for (na, a), (nb, b) in combinations_with_replacement(
            sorted(UNION_PIECES.items()), 2):
        graphs.append((f"{na}+{nb}", disjoint_union(a, b)))
    return graphs


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def union_corpus():
    return [(name, g) for name, g in build_corpus() if "+" in name]


@pytest.fixture
def no_layer_built(monkeypatch):
    """Replaces the enumeration's layer builder (`_canonical_masks`) by one
    that fails the test if called, so a size guard that fires late fails
    at once instead of building layers without end."""
    def refuse(n):
        raise AssertionError(f"enumeration layer {n} built")

    monkeypatch.setattr(graphs, "_canonical_masks", refuse)
