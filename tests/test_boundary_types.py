"""etacm's result and boundary types are named tuples: no field or new
attribute can be set, each value is equal to (and hashes as) the plain tuple
of its fields, the repr names the fields, and defaults hold.  Their checks at
construction are tested beside the functions that build them."""

import pytest

from etacm.apcomplex import ApComplex, UpperHalfPoint
from etacm.atkin import Con1Solution, multiple_root_condition
from etacm.classpoly import ClassPolynomial
from etacm.errors import PreconditionError
from etacm.ffield import FpElement, FpPolynomial
from etacm.modpoly import ModularPolynomial
from etacm.pipeline import EllipticCurve, OrderCertificate, TraceSolution
from etacm.qforms import Discriminant, NSystem, QuadraticForm

CURVE = EllipticCurve.make(3593, 1337, 2089)
VALUES = [
    ApComplex((1, 2, -3), 64),
    UpperHalfPoint(ApComplex((0, 1, 0), 64)),
    Con1Solution(10, 1),
    ClassPolynomial(Discriminant(-56), 3, 13, 1, 10, (0, 1, 1)),
    FpElement(5, 7),
    FpPolynomial.make([1, 2, 3], 7),
    ModularPolynomial(3, 13, 1, 56, 2, ((1, 2), (3,))),
    TraceSolution(3593, 6, 16),
    CURVE,
    OrderCertificate(CURVE, 3600, 6, 2),
    Discriminant(-56),
    NSystem(Discriminant(-56), 39, 10, (QuadraticForm(1, 10, 39),)),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_immutable_tuple(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], value[0])
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == tuple(value) and hash(value) == hash(tuple(value))


def test_repr_and_defaults():
    assert repr(multiple_root_condition(-56, 39, 10)) == "Con1Solution(u=10, v=1)"
    cert = OrderCertificate(CURVE, 3600, 6, 2)
    assert (cert.ambiguous, cert.alt_order) == (False, None)


@pytest.mark.parametrize("build", [
    lambda: QuadraticForm._make((0, 1, 1)),
    lambda: UpperHalfPoint._make([ApComplex((0, -1, 0), 64)]),
    lambda: FpElement(1, 7)._replace(modulus=8),
    lambda: TraceSolution(3593, 6, 16)._replace(t=0),
    lambda: CURVE._replace(a4=FpElement(0, 3593), a6=FpElement(0, 3593)),
    lambda: Discriminant._make([-5]),
], ids=["QuadraticForm", "UpperHalfPoint", "FpElement", "TraceSolution", "EllipticCurve",
        "Discriminant"])
def test_make_and_replace_check_as_construction_does(build):
    with pytest.raises(PreconditionError):
        build()


def test_replace_reduces_an_element():
    assert FpElement(1, 7)._replace(value=100) == FpElement(2, 7)
