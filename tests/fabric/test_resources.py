"""Tests for resource vectors."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fabric import ResourceVector

small_ints = st.integers(min_value=0, max_value=10_000)
vectors = st.builds(
    ResourceVector,
    slices=small_ints,
    luts=small_ints,
    ffs=small_ints,
    tbufs=small_ints,
    brams=small_ints,
    mults=small_ints,
)


def test_construction_rejects_negative():
    with pytest.raises(ValueError):
        ResourceVector(luts=-1)


def test_construction_rejects_float():
    with pytest.raises(TypeError):
        ResourceVector(luts=1.5)  # type: ignore[arg-type]


def test_from_mapping_rejects_unknown_keys():
    with pytest.raises(KeyError):
        ResourceVector.from_mapping({"luts": 1, "gpus": 2})


def test_add_sub_roundtrip():
    a = ResourceVector(luts=10, ffs=5, brams=1)
    b = ResourceVector(luts=3, ffs=2)
    assert (a + b) - b == a


def test_sub_underflow_rejected():
    a = ResourceVector(luts=1)
    b = ResourceVector(luts=2)
    with pytest.raises(ValueError):
        _ = a - b


def test_fits_in():
    need = ResourceVector(luts=100, brams=2)
    cap = ResourceVector(slices=60, luts=120, ffs=120, brams=2)
    assert need.fits_in(cap)
    assert not cap.fits_in(need)


def test_utilization_and_dominant():
    need = ResourceVector(luts=50, brams=1)
    cap = ResourceVector(luts=100, ffs=100, brams=2)
    util = need.utilization(cap)
    assert util["luts"] == pytest.approx(0.5)
    assert util["brams"] == pytest.approx(0.5)
    assert util["slices"] == 0.0  # zero capacity -> 0, not NaN
    assert need.dominant_utilization(cap) == pytest.approx(0.5)


def test_scaled_rounds_up():
    v = ResourceVector(luts=10)
    assert v.scaled(1.01).luts == 11
    assert v.scaled(1.0).luts == 10


def test_headroom_signs():
    need = ResourceVector(luts=10)
    cap = ResourceVector(luts=8, ffs=5)
    head = need.headroom(cap)
    assert head["luts"] == -2
    assert head["ffs"] == 5


def test_sum_and_zero():
    vs = [ResourceVector(luts=i) for i in range(5)]
    assert ResourceVector.sum(vs).luts == 10
    assert ResourceVector().is_zero
    assert not ResourceVector(ffs=1).is_zero


@given(a=vectors, b=vectors)
def test_addition_commutative(a, b):
    assert a + b == b + a


@given(a=vectors, b=vectors)
def test_fits_monotone_under_addition(a, b):
    assert a.fits_in(a + b)


@given(v=vectors)
def test_scaled_identity(v):
    assert v.scaled(1.0) == v


@given(v=vectors, factor=st.floats(min_value=1.0, max_value=3.0))
def test_scaled_never_shrinks(v, factor):
    s = v.scaled(factor)
    assert v.fits_in(s)


# -- differential against a reference built on dataclasses.fields ------------

FIELD_NAMES = [f.name for f in dataclasses.fields(ResourceVector)]


def reference(v):
    return {name: getattr(v, name) for name in FIELD_NAMES}


@given(a=vectors, b=vectors, factor=st.floats(min_value=0.0, max_value=3.0))
def test_methods_match_a_fields_reference(a, b, factor):
    ra, rb = reference(a), reference(b)
    assert reference(a + b) == {n: ra[n] + rb[n] for n in FIELD_NAMES}
    if all(ra[n] >= rb[n] for n in FIELD_NAMES):
        assert reference(a - b) == {n: ra[n] - rb[n] for n in FIELD_NAMES}
    else:
        with pytest.raises(ValueError):
            _ = a - b
    assert reference(a.scaled(factor)) == {n: int(-(-ra[n] * factor // 1)) for n in FIELD_NAMES}
    assert a.fits_in(b) == all(ra[n] <= rb[n] for n in FIELD_NAMES)
    assert list(a.headroom(b).items()) == [(n, rb[n] - ra[n]) for n in FIELD_NAMES]
    assert list(a.utilization(b).items()) == [
        (n, ra[n] / rb[n] if rb[n] else 0.0) for n in FIELD_NAMES
    ]
    assert list(a.as_dict().items()) == list(ra.items())
    assert a.is_zero == all(ra[n] == 0 for n in FIELD_NAMES)


@given(counts=st.dictionaries(st.sampled_from(FIELD_NAMES), small_ints))
def test_from_mapping_matches_a_fields_reference(counts):
    assert reference(ResourceVector.from_mapping(counts)) == {n: counts.get(n, 0) for n in FIELD_NAMES}


@pytest.mark.parametrize("name", FIELD_NAMES)
def test_every_field_is_checked_by_name(name):
    with pytest.raises(TypeError, match=f"^{name} must be an int, got float$"):
        ResourceVector(**{name: 1.0})
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1$"):
        ResourceVector(**{name: -1})
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1$"):
        ResourceVector() - ResourceVector(**{name: 1})
