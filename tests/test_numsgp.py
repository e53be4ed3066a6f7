"""Numerical semigroup layer: gaps, pseudo-Frobenius set, type, canonical
ideal, duality, trace, residue, and the prescribed type/residue family."""

import copy
import dataclasses
import pickle
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    apery_of_window,
    members_upto,
    scan_canonical_ideal,
    scan_quotient,
    scan_residue,
    scan_sum,
    scan_trace_ideal,
    table_semigroup,
)

from gstab.errors import FormatError, ParameterError, SizeGuardError
from gstab.numsgp import (
    TABLE_LIMIT,
    IntegerIdeal,
    NumericalSemigroup,
    canonical_ideal,
    cm_type,
    family,
    ideal_dual,
    ideal_quotient,
    ideal_sum,
    pseudo_frobenius,
    residue,
    semigroup,
    semigroup_as_ideal,
    trace_ideal,
)

ASSORTED = [(2, 3), (3, 4, 5), (3, 7, 8), (5, 16, 17, 18, 19),
            (4, 6, 9), (3, 5), (5, 7, 9, 11, 13), (1,), (6, 10, 15)]


# -- independent oracle -------------------------------------------------------

def brute_pseudo_frobenius(h):
    """Definition checked against every nonzero member on a safe window and
    over every integer candidate down to -max(gens), not just the gaps."""
    bound = h.conductor + 2 * max(h.generators) + 1
    members = [m for m in members_upto(h, bound) if m != 0]
    out = []
    for x in range(-max(h.generators), h.conductor):
        if h.contains(x):
            continue
        # beyond the window x + m is at least the conductor
        if all(h.contains(x + m) for m in members):
            out.append(x)
    return tuple(out)


# -- construction ---------------------------------------------------------------

def test_semigroup_2_3():
    h = semigroup([2, 3])
    assert h.gaps == (1,)
    assert h.frobenius == 1
    assert h.conductor == 2


def test_semigroup_3_4_5():
    h = semigroup([3, 4, 5])
    assert h.gaps == (1, 2)
    assert h.frobenius == 2
    assert h.conductor == 3


def test_semigroup_3_7_8():
    h = semigroup([3, 7, 8])
    assert h.gaps == (1, 2, 4, 5)
    assert h.frobenius == 5
    assert h.conductor == 6
    assert members_upto(h, 10) == [0, 3, 6, 7, 8, 9]


def test_semigroup_whole_naturals():
    h = semigroup([1])
    assert h.gaps == ()
    assert h.frobenius == -1
    assert h.conductor == 0


def test_semigroup_rejects_bad_input():
    with pytest.raises(FormatError):
        semigroup([2, 4])
    with pytest.raises(FormatError, match="gcd of generators is 2"):
        NumericalSemigroup((4, 6))
    with pytest.raises(FormatError):
        semigroup([0, 3])
    with pytest.raises(FormatError):
        semigroup([])


def test_semigroup_is_its_generators():
    """The generators are the only constructor argument and the only
    compared field; derived values cannot be passed in, so a wrong type or
    residue cannot be smuggled in with them."""
    fields = dataclasses.fields(NumericalSemigroup)
    assert [f.name for f in fields if f.init] == ["generators"]
    assert [f.name for f in fields if f.compare or f.repr] == ["generators"]
    assert semigroup is NumericalSemigroup
    with pytest.raises(TypeError):
        NumericalSemigroup((3, 5), frozenset({0, 3, 5, 6}), (1, 2, 4), 4, 5)
    with pytest.raises(TypeError):
        NumericalSemigroup((3, 5), apery=(0, 10, 5))
    h = NumericalSemigroup([5, 3, 5])
    assert h.generators == (3, 5)
    assert (cm_type(h), residue(h)) == (1, 0)


def test_derived_values_are_no_part_of_the_semigroup_value():
    """The constructor derives the Apery vector, conductor and Frobenius
    number, but equality, hash and repr read the generators alone, and a
    pickled semigroup carries only them: an unpickled or copied semigroup
    derives its own values and answers the same."""
    derived = ("apery", "conductor", "frobenius", "gaps")
    for gens in ASSORTED:
        h = semigroup(gens)
        values = tuple(getattr(h, name) for name in derived)
        assert repr(h) == f"NumericalSemigroup(generators={h.generators!r})"
        assert hash(h) == hash(semigroup(reversed(gens)))
        assert h.__reduce__() == (NumericalSemigroup, (h.generators,))
        payload = pickle.dumps(h)
        assert not any(name.encode() in payload for name in derived)
        for other in (pickle.loads(payload), copy.copy(h), copy.deepcopy(h)):
            assert other == h and hash(other) == hash(h)
            assert tuple(getattr(other, name) for name in derived) == values
            assert pseudo_frobenius(other) == pseudo_frobenius(h)
            assert residue(other) == residue(h)


def test_semigroup_rejects_non_integer_generators():
    with pytest.raises(FormatError, match="generators must be integers"):
        semigroup([2.5, 3])
    with pytest.raises(FormatError, match="generators must be integers"):
        semigroup(["2", 3])


def test_integer_ideal_rejects_non_integers():
    """A float or string minimum or member is refused, never stored to
    fail later inside the ideal arithmetic."""
    h = semigroup([2, 3])
    with pytest.raises(FormatError, match="must be integers"):
        IntegerIdeal(h, 0.5, frozenset({0.5}))
    with pytest.raises(FormatError, match="must be integers"):
        IntegerIdeal(h, 0, frozenset({0, 1.0}))
    with pytest.raises(FormatError, match="must be integers"):
        IntegerIdeal(h, "0", frozenset({"0"}))


def test_integer_ideal_stores_integer_like_values_as_ints():
    h = semigroup([3, 5])
    k = canonical_ideal(h)
    ideal = IntegerIdeal(h, np.int64(k.min), frozenset(map(np.int16, k.window)))
    assert type(ideal.min) is int
    assert {type(z) for z in ideal.window} == {int}
    assert ideal == k
    assert ideal_sum(ideal, ideal) == ideal_sum(k, k)


def test_ideal_stores_the_apery_vector_of_its_window():
    """Every ideal keeps the Apery vector of its window, whether the
    arithmetic or a caller built it, and pickling and copying keep the
    ideal and its vector."""
    ideals = []
    for gens in ASSORTED:
        h = semigroup(gens)
        k, whole = canonical_ideal(h), semigroup_as_ideal(h)
        dual = ideal_dual(h, k)
        ideals += [k, whole, dual, ideal_quotient(whole, k), ideal_quotient(k, dual),
                   ideal_sum(k, dual), ideal_sum(k, k), trace_ideal(h)]
    naturals = semigroup([1])
    assert naturals.conductor == 0
    ideals += [IntegerIdeal(naturals, 0, frozenset()), IntegerIdeal(naturals, -4, ())]
    h = semigroup([3, 5])
    # -4 + <3, 5>: a negative minimum, and classes mod 3 that start at 6
    # (no window member; the first multiple of 3 from min + conductor = 4
    # on), 1 and -4
    low = IntegerIdeal(h, -4, {-4, -1, 1, 2})
    ideals += [low, IntegerIdeal(h, 0, {0, 2, 3, 5, 6, 7})]
    assert low.ap == (6, 1, -4) and ideals[-1].ap == (0, 7, 2)
    for ideal in ideals:
        assert ideal.ap == apery_of_window(ideal), ideal
        for other in (pickle.loads(pickle.dumps(ideal)), copy.copy(ideal), copy.deepcopy(ideal)):
            assert other == ideal and hash(other) == hash(ideal) and other.ap == ideal.ap
    assert repr(low) == f"IntegerIdeal(semigroup={h!r}, min=-4, window={low.window!r})"
    with pytest.raises(TypeError):
        IntegerIdeal(h, 0, {0, 3, 5, 6}, (0, 10, 5))


@pytest.mark.parametrize("other", [(3, 5, 7), (2, 3)])
def test_ideal_arithmetic_refuses_two_semigroups(other):
    """Ideals over <3, 4, 5> and a semigroup with the same m (3) or
    another m (2) are a ParameterError of the sum, the quotient and the
    dual, never an ideal over one of them or an IndexError."""
    h, o = semigroup([3, 4, 5]), semigroup(other)
    a, b = semigroup_as_ideal(h), semigroup_as_ideal(o)
    for call in (lambda: ideal_sum(a, b), lambda: ideal_sum(b, a),
                 lambda: ideal_quotient(a, b), lambda: ideal_quotient(b, a),
                 lambda: ideal_dual(o, a), lambda: ideal_dual(h, b)):
        with pytest.raises(ParameterError, match="different semigroups"):
            call()
    # an equal semigroup built anew is the same semigroup
    assert ideal_sum(a, semigroup_as_ideal(semigroup([5, 4, 3]))) == ideal_sum(a, a)


def test_integer_ideal_refuses_sets_that_are_no_ideal():
    """Each check of the constructor on its own.  Below the conductor 8
    of <3, 5> the members are 0, 3, 5 and 6."""
    h = semigroup([3, 5])
    assert h.conductor == 8
    assert IntegerIdeal(h, 0, frozenset({0, 3, 5, 6})) == semigroup_as_ideal(h)
    with pytest.raises(FormatError, match="minimum must belong"):
        IntegerIdeal(h, 0, frozenset({3, 5, 6}))
    with pytest.raises(FormatError, match="out of range"):
        IntegerIdeal(h, 0, frozenset({0, 3, 5, 6, 8}))
    # 0 + 3 is missing: not closed under adding m = 3
    with pytest.raises(FormatError, match="not closed"):
        IntegerIdeal(h, 0, frozenset({0, 5, 6}))
    # closed under adding 3, but 0 + 5 is missing
    with pytest.raises(FormatError, match="not closed"):
        IntegerIdeal(h, 0, frozenset({0, 3, 6}))


def test_family_rejects_non_integer_parameters():
    with pytest.raises(ParameterError, match="must be integers"):
        family(4, 1.5)
    with pytest.raises(ParameterError, match="must be integers"):
        family(4.0, 2)


def test_integer_like_generators_and_parameters_still_work():
    assert semigroup([np.int64(3), 4, np.int32(5)]) == semigroup([3, 4, 5])
    h = NumericalSemigroup((np.int64(5), np.int32(3), np.uint8(7)))
    assert h.generators == (3, 5, 7) and {type(g) for g in h.generators} == {int}
    assert family(np.int64(4), np.int64(2)) == family(4, 2)


def test_semigroup_table_size_guard():
    with pytest.raises(SizeGuardError):
        semigroup([1000, 1001])   # 2002001 entries
    assert 2 * 61 * 2500 + 1 <= TABLE_LIMIT   # family(60, 40)
    # the guard fires before any list of length min(gens) exists
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match="membership table"):
            semigroup([1000003, 1000004])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_family_size_guard_before_building_generators():
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match="membership table"):
            family(10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- pseudo-Frobenius and type ----------------------------------------------------

def test_pf_2_3():
    assert pseudo_frobenius(semigroup([2, 3])) == (1,)


def test_pf_3_4_5():
    assert pseudo_frobenius(semigroup([3, 4, 5])) == (1, 2)


def test_pf_3_7_8():
    assert pseudo_frobenius(semigroup([3, 7, 8])) == (4, 5)


def test_pf_generator_route_matches_full_definition():
    for gens in ASSORTED:
        h = semigroup(gens)
        assert pseudo_frobenius(h) == brute_pseudo_frobenius(h)


def test_cm_type():
    assert cm_type(semigroup([2, 3])) == 1
    assert cm_type(semigroup([3, 4, 5])) == 2
    assert cm_type(family(5, 3)) == 5


# -- canonical ideal ---------------------------------------------------------------

def test_canonical_symmetric_semigroup_is_itself():
    h = semigroup([2, 3])
    k = canonical_ideal(h)
    for z in range(-3, 12):
        assert k.contains(z) == h.contains(z)


def test_canonical_3_4_5():
    h = semigroup([3, 4, 5])
    k = canonical_ideal(h)
    assert k.min == 0
    assert [z for z in range(8) if k.contains(z)] == [0, 1, 3, 4, 5, 6, 7]


def test_canonical_3_7_8():
    # frobenius 5; K = {z : 5 - z not in H} = {0,1,3,4} then everything >= 6
    h = semigroup([3, 7, 8])
    k = canonical_ideal(h)
    assert [z for z in range(10) if k.contains(z)] == [0, 1, 3, 4, 6, 7, 8, 9]


def test_canonical_contains_semigroup_and_is_closed():
    for gens in ASSORTED:
        h = semigroup(gens)
        k = canonical_ideal(h)
        assert k.min == 0
        bound = h.conductor + 5
        for z in members_upto(h, bound):
            assert k.contains(z)
        for z in range(0, bound):
            if k.contains(z):
                for g in h.generators:
                    assert k.contains(z + g)


# -- duality -------------------------------------------------------------------------

def test_dual_of_semigroup_is_itself():
    for gens in [(2, 3), (3, 4, 5), (3, 7, 8)]:
        h = semigroup(gens)
        d = ideal_dual(h, semigroup_as_ideal(h))
        for z in range(-3, h.conductor + 6):
            assert d.contains(z) == h.contains(z)


def test_dual_of_canonical_3_4_5():
    h = semigroup([3, 4, 5])
    d = ideal_dual(h, canonical_ideal(h))
    assert d.min == 3
    assert all(d.contains(z) for z in range(3, 12))
    assert not d.contains(2)


def test_canonical_duality_reflexivity():
    # duality into the canonical ideal recovers any ideal: K - (K - E) = E
    for gens in ASSORTED:
        h = semigroup(gens)
        k = canonical_ideal(h)
        for e in [semigroup_as_ideal(h), k, ideal_dual(h, k), trace_ideal(h)]:
            back = ideal_quotient(k, ideal_quotient(k, e))
            for z in range(e.min - 2, e.min + h.conductor + 5):
                assert back.contains(z) == e.contains(z), gens


def test_h_double_dual_contains_canonical():
    # duality into the semigroup itself only gives an inclusion in general
    for gens in ASSORTED:
        h = semigroup(gens)
        k = canonical_ideal(h)
        dd = ideal_dual(h, ideal_dual(h, k))
        for z in range(0, h.conductor + 5):
            if k.contains(z):
                assert dd.contains(z), gens


# -- trace and residue -----------------------------------------------------------------

def test_trace_3_4_5():
    h = semigroup([3, 4, 5])
    tr = trace_ideal(h)
    assert tr.min == 3
    assert all(tr.contains(z) for z in range(3, 12))


def test_residue_values():
    assert residue(semigroup([2, 3])) == 0
    assert residue(semigroup([3, 4, 5])) == 1
    assert residue(semigroup([3, 7, 8])) == 2


def test_trace_inside_semigroup():
    for gens in ASSORTED:
        h = semigroup(gens)
        tr = trace_ideal(h)
        for z in range(0, h.conductor + max(h.generators) + 2):
            if tr.contains(z):
                assert h.contains(z)


def test_residue_zero_iff_type_one_iff_symmetric():
    for gens in ASSORTED:
        h = semigroup(gens)
        k = canonical_ideal(h)
        symmetric = all(k.contains(z) == h.contains(z)
                        for z in range(0, h.conductor + 3))
        assert (residue(h) == 0) == (cm_type(h) == 1) == symmetric, gens


def test_residue_one_means_only_zero_missing():
    for gens in ASSORTED:
        h = semigroup(gens)
        if residue(h) != 1:
            continue
        tr = trace_ideal(h)
        missing = [z for z in members_upto(h, h.conductor + tr.min + 1)
                   if not tr.contains(z)]
        assert missing == [0], gens


def test_ideal_sum_shifts():
    h = semigroup([3, 4, 5])
    hh = ideal_sum(semigroup_as_ideal(h), semigroup_as_ideal(h))
    for z in range(0, 12):
        assert hh.contains(z) == h.contains(z)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(st.lists(st.integers(2, 25), min_size=1, max_size=4), st.data())
def test_redundant_generator_changes_no_invariant(gens, data):
    assume(gcd(*gens) == 1)
    i = data.draw(st.integers(0, len(gens) - 1))
    j = data.draw(st.integers(0, len(gens) - 1))
    h = semigroup(gens)
    k = semigroup(gens + [gens[i] + gens[j]])
    assert k.gaps == h.gaps
    assert pseudo_frobenius(k) == pseudo_frobenius(h)
    assert cm_type(k) == cm_type(h)
    assert residue(k) == residue(h)


# -- the Apery route against the table and window-scan oracles -------------------------

def _window(ideal):
    return ideal.min, ideal.window


def assert_matches_scan_oracles(gens):
    h = semigroup(gens)
    ref = table_semigroup(gens)
    for name in ("generators", "gaps", "frobenius", "conductor", "apery"):
        assert getattr(h, name) == getattr(ref, name), (gens, name)
    assert {x for x in range(h.conductor) if h.contains(x)} == ref.members, gens
    k = canonical_ideal(h)
    assert _window(k) == _window(scan_canonical_ideal(h))
    whole = semigroup_as_ideal(h)
    dual = ideal_dual(h, k)
    assert _window(dual) == _window(scan_quotient(whole, k))
    # a shift below zero puts ideal minima in negative residue classes
    low = IntegerIdeal(h, k.min - 7, frozenset(z - 7 for z in k.window))
    for a, b in [(k, dual), (dual, k), (low, k), (k, low), (whole, low)]:
        assert _window(ideal_sum(a, b)) == _window(scan_sum(a, b)), gens
        assert _window(ideal_quotient(a, b)) == _window(scan_quotient(a, b)), gens
    assert _window(trace_ideal(h)) == _window(scan_trace_ideal(h))
    assert residue(h) == scan_residue(h)


def test_apery_route_matches_scan_oracles():
    for gens in ASSORTED:
        assert_matches_scan_oracles(gens)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(st.lists(st.integers(2, 40), min_size=1, max_size=4))
def test_apery_route_matches_scan_oracles_random(gens):
    assume(gcd(*gens) == 1)
    assert_matches_scan_oracles(gens)


# -- the prescribed type/residue family ---------------------------------------------------

def test_family_2_1_is_3_4_5():
    assert family(2, 1).generators == (3, 4, 5)


def test_family_2_2_is_3_7_8():
    assert family(2, 2).generators == (3, 7, 8)


def test_family_4_3():
    h = family(4, 3)
    assert h.generators == (5, 16, 17, 18, 19)
    assert h.conductor == 15


def test_family_membership_shape():
    for a in range(2, 7):
        for b in range(1, 7):
            h = family(a, b)
            step = a + 1
            expected = {i * step for i in range(b)}
            assert {x for x in range(h.conductor) if h.contains(x)} == expected
            assert h.conductor == b * step


def test_family_parameter_bounds():
    with pytest.raises(ParameterError):
        family(1, 1)
    with pytest.raises(ParameterError):
        family(3, 0)
