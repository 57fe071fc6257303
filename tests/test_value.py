"""The immutable value types: equality, hashing, repr, immutability, copying
and pickling by field, and keyword construction.

The repr strings are those the frozen dataclasses these types replaced
printed for the same values."""

import copy
import pickle

import pytest

from fusionexp import (
    DlogInstance,
    ElGamalCiphertext,
    FdlogInstance,
    FieldElement,
    FieldParams,
    FusionBase,
    FusionKeyPair,
    GroupElement,
    GroupParams,
    VssShare,
)
from fusionexp.value import Value

G = "GroupParams(modulus=23, q=11, generator=2)"
F = "FieldParams(q=11, n=2, f_low=(1, 0))"
B = (f"FusionBase(group={G}, field={F}, components=(GroupElement(params={G}, residue=2), "
     f"GroupElement(params={G}, residue=4)))")
X = f"FieldElement(params={F}, coeffs=(3, 5))"


def fields(value):
    return tuple(getattr(value, name) for name in value.__slots__)


def build():
    """name -> (factory of one value, the dataclass repr of that value)."""
    g = GroupParams(modulus=23, q=11, generator=2)
    f = FieldParams(11, 2, (1, 0))
    a, b = GroupElement(g, 2), GroupElement(g, 4)
    base = FusionBase(g, f, (a, b))
    x = FieldElement(f, (3, 5))
    return {
        "GroupParams": (lambda: GroupParams(23, 11, 2), G),
        "GroupElement": (lambda: GroupElement(g, 2), f"GroupElement(params={G}, residue=2)"),
        "FieldParams": (lambda: FieldParams(11, 2, (1, 0)), F),
        "FieldElement": (lambda: FieldElement(f, (3, 5)), X),
        "FusionBase": (lambda: FusionBase(g, f, (a, b)), B),
        "DlogInstance": (lambda: DlogInstance(a, b, 2),
                         f"DlogInstance(g=GroupElement(params={G}, residue=2), "
                         f"y=GroupElement(params={G}, residue=4), batch=2)"),
        "FdlogInstance": (lambda: FdlogInstance(base, base),
                          f"FdlogInstance(base={B}, target={B})"),
        "FusionKeyPair": (lambda: FusionKeyPair(x, base),
                          f"FusionKeyPair(secret={X}, public={B})"),
        "ElGamalCiphertext": (lambda: ElGamalCiphertext(base, base),
                              f"ElGamalCiphertext(c1={B}, c2={B})"),
        "VssShare": (lambda: VssShare(1, x), f"VssShare(index=1, value={X})"),
    }


VALUES = build()


@pytest.fixture(params=sorted(VALUES))
def case(request):
    make, text = VALUES[request.param]
    return make, text


def test_every_value_type_is_covered():
    import fusionexp

    types = {name for name in dir(fusionexp)
             if isinstance(getattr(fusionexp, name), type)
             and issubclass(getattr(fusionexp, name), Value)}
    assert types == set(VALUES)


def test_equal_and_hashed_by_value(case):
    make, _ = case
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_fields_differ_means_unequal():
    g = GroupParams(23, 11, 2)
    assert GroupElement(g, 2) != GroupElement(g, 4)
    assert GroupParams(7, 3, 2) != g
    f = FieldParams(11, 2, (1, 0))
    assert FieldElement(f, (3, 5)) != FieldElement(f, (5, 3))


def test_unequal_to_another_type(case):
    make, _ = case
    a = make()
    assert a != fields(a)
    assert a != object() and a != None  # noqa: E711


def test_unequal_to_another_value_type_with_the_same_fields():
    share = VssShare(1, 2)
    pair = FusionKeyPair(1, 2)
    assert fields(share) == fields(pair)
    assert share != pair and pair != share


def test_repr_matches_the_dataclass_repr(case):
    make, text = case
    assert repr(make()) == text


def test_fields_cannot_be_assigned_or_deleted(case):
    make, _ = case
    a = make()
    for name in a.__slots__:
        before = getattr(a, name)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(a, name, before)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(a, name)
        assert getattr(a, name) is before
    with pytest.raises(AttributeError):
        a.extra = 1
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_to_an_equal_value(case, clone):
    make, text = case
    a = make()
    b = clone(a)
    assert b == a and hash(b) == hash(a) and repr(b) == text
    assert type(b) is type(a)
    with pytest.raises(AttributeError):
        setattr(b, b.__slots__[0], None)


def test_keyword_construction():
    g = GroupParams(modulus=23, q=11, generator=2)
    f = FieldParams(q=11, n=2, f_low=(1, 0))
    a = GroupElement(params=g, residue=2)
    base = FusionBase(group=g, field=f, components=[a, a])
    assert base.components == (a, a)  # normalised to a tuple
    x = FieldElement(params=f, coeffs=(3, 5))
    assert VssShare(index=1, value=x) == VssShare(1, x)
    assert FusionKeyPair(secret=x, public=base) == FusionKeyPair(x, base)
    assert ElGamalCiphertext(c1=base, c2=base) == ElGamalCiphertext(base, base)
    assert FdlogInstance(base=base, target=base) == FdlogInstance(base, base)
    inst = DlogInstance(g=a, y=GroupElement(g, 4))
    assert inst.batch == 1
    assert inst == DlogInstance(a, GroupElement(g, 4), 1)


def test_a_value_type_needs_two_fields():
    with pytest.raises(TypeError):
        class One(Value):
            __slots__ = ("only",)
