"""The value types and result records: repr, equality within a class,
hashability and pickling as the dataclasses had them.

The value types that check or normalize their fields derive from
`numutil.Value`; the result records are `typing.NamedTuple`s.  The reprs
below are those the dataclasses printed.  Every class refuses assignment;
EscapeRateField and the records, assignable dataclasses before, now do too.
A record is a tuple, but no function that takes a pair reads one as a pair.
"""

import pickle
from fractions import Fraction

import pytest

from arithdyn import dynamics
from arithdyn.algebraic import (AlgebraicNumber, MahlerResult,
                                RootOfUnityVerdict, is_root_of_unity,
                                mahler_measure)
from arithdyn.dynamics import (CommutingReport, GlobalHeightResult,
                               LocalHeightLedger, OrbitRecord, RationalMap,
                               canonical_height_global, canonical_height_local,
                               iterate)
from arithdyn.green import (EmpiricalMeasure, EscapeRateField, MomentReport,
                            TransfiniteDiameterResult, as_pair,
                            bilu_moment_test, transfinite_diameter)
from arithdyn.numutil import Value
from arithdyn.polyforms import (BinaryForm, CertifiedRoot, IntPoly,
                                PadicValuation)
from arithdyn.projective import HomForm, HomMorphism, ProjPointQ
from arithdyn.torus import (PushforwardResult, SubadditivityReport,
                            TorusPoint, monomial_pushforward,
                            subadditivity_check)


def z2p1():
    return RationalMap(BinaryForm(2, (1, 0, 1)), BinaryForm(2, (0, 0, 1)))


Z2P1_REPR = ("RationalMap(U=BinaryForm(degree=2, coeffs=(1, 0, 1)), "
             "V=BinaryForm(degree=2, coeffs=(0, 0, 1)), res=1)")

# (class, a fresh instance, its repr, hashable)
CASES = [
    (IntPoly, lambda: IntPoly((-2, 0, 3, 0)),
     "IntPoly(coeffs=(-2, 0, 3))", True),
    (BinaryForm, lambda: BinaryForm(2, (1, 0, 1)),
     "BinaryForm(degree=2, coeffs=(1, 0, 1))", True),
    (PadicValuation, lambda: PadicValuation.of(Fraction(18, 5), 3),
     "PadicValuation(prime=3, value=2)", True),
    (CertifiedRoot, lambda: CertifiedRoot(1 + 2j, 1e-12),
     "CertifiedRoot(value=(1+2j), radius=1e-12)", True),
    (AlgebraicNumber, lambda: AlgebraicNumber(IntPoly((-2, 0, 1))),
     "AlgebraicNumber(minpoly=IntPoly(coeffs=(-2, 0, 1)))", True),
    (MahlerResult, lambda: mahler_measure(IntPoly((-2, 0, 0, 1))),
     "MahlerResult(measure=2.0, log_measure=0.6931471805599453, "
     "error_bound=2.3190468138463578e-17, "
     "archimedean_part=0.6931471805599453, leading_coeff=1, "
     "measure_error=1.4471123568809868e-30)", True),
    (RootOfUnityVerdict,
     lambda: is_root_of_unity(AlgebraicNumber(IntPoly((1, 0, -1, 0, 1)))),
     "RootOfUnityVerdict(is_root_of_unity=True, order=12, "
     "reason='minpoly divides X^12 - 1')", True),
    (ProjPointQ, lambda: ProjPointQ((Fraction(3, 2), 5, -7)),
     "ProjPointQ(coords=(3, 10, -14))", True),
    (HomForm, lambda: HomForm.from_dict(2, {(2, 0): 1, (1, 1): -3,
                                            (0, 2): 2}),
     "HomForm(nvars=2, degree=2, terms=(((0, 2), 2), ((1, 1), -3), "
     "((2, 0), 1)))", True),
    (HomMorphism, lambda: HomMorphism.power_map(1, 2),
     "HomMorphism(forms=(HomForm(nvars=2, degree=2, terms=(((2, 0), 1),)), "
     "HomForm(nvars=2, degree=2, terms=(((0, 2), 1),))), "
     "base_point_free=True)", True),
    (RationalMap, z2p1, Z2P1_REPR, True),
    (OrbitRecord, lambda: iterate(z2p1(), ProjPointQ((1, 2)), n_max=3),
     "OrbitRecord(points=[ProjPointQ(coords=(1, 2)), "
     "ProjPointQ(coords=(5, 4)), ProjPointQ(coords=(41, 16)), "
     "ProjPointQ(coords=(1937, 256))], gcds=[1, 1, 1], "
     "status='budget-exhausted', cycle_entry=None, cycle_length=None)",
     False),
    (GlobalHeightResult,
     lambda: canonical_height_global(z2p1(), ProjPointQ((1, 2)), 1e-6),
     "GlobalHeightResult(value=0.947203436423594, "
     "error=6.610366636305672e-07, n_used=21, budget_exhausted=False, "
     "note='')", False),
    (LocalHeightLedger,
     lambda: canonical_height_local(z2p1(), ProjPointQ((1, 2)), 1e-6),
     "LocalHeightLedger(finite_places={}, archimedean=(0.947203436423594, "
     "4.131479151548077e-08), total=0.947203436423594, "
     "total_error=4.131479151548077e-08)", False),
    (CommutingReport,
     lambda: CommutingReport(0.5, 1e-6, [(ProjPointQ((1, 2)), 0.5, 0.25)]),
     "CommutingReport(max_gap=0.5, tol=1e-06, "
     "per_point=[(ProjPointQ(coords=(1, 2)), 0.5, 0.25)])", False),
    (EscapeRateField, lambda: EscapeRateField(z2p1(), 1e-9),
     f"EscapeRateField(map={Z2P1_REPR}, tol=1e-09)", False),
    (EmpiricalMeasure, lambda: EmpiricalMeasure([2j, (1, 3), "inf"]),
     "EmpiricalMeasure(points=((2j, (1+0j)), ((1+0j), (3+0j)), "
     "((1+0j), 0j)))", True),
    (TransfiniteDiameterResult,
     lambda: transfinite_diameter(EscapeRateField(RationalMap.power(2)), 3),
     "TransfiniteDiameterResult(n=3, delta_n=1.7320508075688772, "
     "formula_value=1.0, converged=True, config=[(1+0j), "
     "(-0.4999999999999998+0.8660254037844387j), "
     "(-0.5000000000000004-0.8660254037844384j)])", False),
    (MomentReport,
     lambda: bilu_moment_test(EmpiricalMeasure([1j, -1, "inf"]), [1, -2]),
     "MomentReport(moments={1: 0.7071067811865476, -2: 0.0}, excluded=1, "
     "n=3)", False),
    (TorusPoint, lambda: TorusPoint((2, Fraction(1, 2))),
     "TorusPoint(coords=(Fraction(2, 1), Fraction(1, 2)))", True),
    (PushforwardResult,
     lambda: monomial_pushforward(TorusPoint((2, 3)), (1, -1)),
     "PushforwardResult(rational=Fraction(2, 3), cloud=None, minpoly=None, "
     "height=1.0986122886681098, bound=2.1972245773362196)", False),
    (SubadditivityReport, lambda: subadditivity_check(2, 3),
     "SubadditivityReport(h_alpha=0.6931471805599453, "
     "h_beta=1.0986122886681098, h_product=1.791759469228055, holds=True, "
     "note='checked')", False),
]
IDS = [case[0].__name__ for case in CASES]


def test_every_class_is_covered():
    assert len(CASES) == len(set(IDS)) == 22


def fields(x):
    return [(name, getattr(x, name)) for name in x._fields]


@pytest.mark.parametrize("cls,make,text,hashable", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, make, text, hashable):
    x = make()
    assert type(x) is cls and repr(x) == text


@pytest.mark.parametrize("cls,make,text,hashable", CASES, ids=IDS)
def test_equality_is_by_fields_within_a_class(cls, make, text, hashable):
    x, y = make(), make()
    assert x == y and not x != y
    assert x != object() and not x == object()
    if isinstance(x, Value):
        # a Value is equal to nothing but its own class
        assert x != tuple(v for _, v in fields(x))


@pytest.mark.parametrize("cls,make,text,hashable", CASES, ids=IDS)
def test_hashable_exactly_where_the_dataclass_was(cls, make, text, hashable):
    x = make()
    if hashable:
        # a frozen dataclass hashed the tuple of its fields
        assert hash(x) == hash(make()) == hash(tuple(v for _, v in fields(x)))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)


@pytest.mark.parametrize("cls,make,text,hashable", CASES, ids=IDS)
def test_assignment(cls, make, text, hashable):
    x = make()
    name, value = fields(x)[0]
    with pytest.raises(AttributeError):
        setattr(x, name, value)
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert repr(x) == text


@pytest.mark.parametrize("points", [
    [CertifiedRoot(1j, 0.1)],
    [PadicValuation(3, 2)],
    AlgebraicNumber(IntPoly((1, 0, 1))).conjugates(),
], ids=["CertifiedRoot", "PadicValuation", "conjugates"])
def test_a_two_field_record_is_not_a_point(points):
    # a dataclass raised in complex(); a NamedTuple must not pass as [x : y]
    with pytest.raises(TypeError):
        EmpiricalMeasure(points)
    with pytest.raises(TypeError):
        as_pair(points[0])


@pytest.mark.parametrize("cls,make,text,hashable", CASES, ids=IDS)
def test_pickle_round_trip(cls, make, text, hashable):
    x = make()
    y = pickle.loads(pickle.dumps(x))
    assert type(y) is cls and y == x and repr(y) == text


def test_kept_on_instance_memoizes_outside_the_fields(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return {2: 1, 3: 1}

    monkeypatch.setattr(dynamics, "factorize", counting)
    f = RationalMap(BinaryForm(2, (1, 0, 0)), BinaryForm(2, (0, 0, 6)))
    before = (repr(f), hash(f))
    assert f.res_factors == ((2, 1), (3, 1)) and f.bad_primes == (2, 3)
    assert f.res_factors == ((2, 1), (3, 1)) and len(calls) == 1
    assert (repr(f), hash(f)) == before and f == RationalMap(f.U, f.V)
    g = pickle.loads(pickle.dumps(f))   # the memo travels with the instance
    assert g.res_factors == ((2, 1), (3, 1)) and len(calls) == 1

    P = IntPoly((1, 0, 1))
    assert P.is_squarefree() and "_kept_is_squarefree" in vars(P)
    assert P == IntPoly((1, 0, 1)) and hash(P) == hash(((1, 0, 1),))

