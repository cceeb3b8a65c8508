"""Tests for the library's record classes: constructor signatures, frozen
fields, value equality and identity equality."""

import inspect

import numpy as np
import pytest

from cartanconn import acceptance as ac
from cartanconn import cartan as ct
from cartanconn import fieldexpr as fe
from cartanconn import liegroup as lg
from cartanconn import maxwell as mx
from cartanconn import models
from cartanconn import principal as pr
from cartanconn import transport as tp

GALILEO = lg.galileo_tag(2)
LINE = pr.batched(lambda t: np.stack([t, 2 * t], axis=-1))
SLOPE = pr.batched(lambda t: np.tile([1.0, 2.0], (len(t), 1)))
ZERO = mx.as_field(0.0)

# the constructor parameters of each record, in order, with their defaults
SIGNATURES = {
    lg.GroupTag: ["kind", ("dims", ())],
    lg.GroupElement: ["tag", "mat"],
    lg.AlgebraElement: ["tag", "mat"],
    pr.ChartDomain: ["dim", ("lower", None), ("upper", None)],
    pr.LocalConnection: ["domain", "tag", "coeff"],
    pr.PrincipalPoint: ["x", "g"],
    pr.PrincipalTangent: ["dx", "dg"],
    pr.AxiomReport: ["samples", "residual_fundamental", "residual_equivariance", "tolerance",
                     ("worst_fundamental", ()), ("worst_equivariance", ())],
    tp.SmoothPath: ["t0", "t1", "x", "xdot"],
    tp.DevelopedPath: ["ts", "values", "points"],
    ct.HomogeneousSpec: ["name", "tag", "fiber_dim", "origin", "act", "coset_section", "stabilizer_basis"],
    ct.CartanReport: ["kind", "min_singular_value", "base_dim", "fiber_dim", "samples", ("worst_point", ())],
    ct.CartanStructure: ["name", "spec", "conn", ("diagonal", False)],
    models.GravityField: ["V", ("W", None)],
    fe.Expression: ["evaluator", "variables"],
    mx.EMConstants: [("eps0", 8.8541878128e-12), ("mu0", 1.25663706212e-06)],
    mx.Form2Field: ["coeffs"],
    mx.MaxwellReport: ["points", "max_dF", "max_dG_minus_4piJ", "max_curl_E_plus_dBdt", "max_div_B",
                       "max_curl_H_minus_dDdt_minus_4pij", "max_div_D_minus_4pirho", "identification_gap",
                       "continuity_residual"],
    mx.GridSampledField: ["axes", "values"],
    ac.CriterionResult: ["number", "name", "passed", "detail", "elapsed", "budget"],
}

# constructor arguments of each record that stands for its values; the
# second set differs from the first in every field
VALUES = {
    lg.GroupTag: ((lg.GroupKind.GALILEO, (2,)), (lg.GroupKind.AFF, (3,))),
    pr.ChartDomain: ((2, (0.0, 0.0), (1.0, 1.0)), (3, (-1.0,) * 3, (2.0,) * 3)),
    pr.AxiomReport: ((200, 1e-12, 2e-12, 1e-8, ((0,),), ((1,),)), (100, 1e-11, 3e-12, 1e-9, ((2,),), ((3,),))),
    ct.CartanReport: (("cartan", 0.5, 2, 2, 20, (1.0,)), ("neither", 0.0, 3, 1, 10, (2.0,))),
    mx.EMConstants: ((1.0, 2.0), (3.0, 4.0)),
    mx.MaxwellReport: (tuple(range(9)), tuple(range(10, 19))),
    ac.CriterionResult: ((1, "lift", True, "ok", 0.5, 10.0), (2, "holonomy", False, "bad", 1.5, 20.0)),
}

# one instance of each other frozen record, built through its constructor
IDENTITY = {
    lg.GroupElement: lambda: lg.GroupElement(GALILEO, np.eye(3)),
    lg.AlgebraElement: lambda: lg.AlgebraElement(GALILEO, np.zeros((3, 3))),
    pr.LocalConnection: lambda: pr.LocalConnection(pr.ChartDomain(2), GALILEO, abs),
    pr.PrincipalPoint: lambda: pr.PrincipalPoint([0.0, 1.0], lg.identity(GALILEO)),
    pr.PrincipalTangent: lambda: pr.PrincipalTangent([1.0, 0.0], np.zeros((3, 3))),
    tp.SmoothPath: lambda: tp.SmoothPath(0.0, 1.0, LINE, SLOPE),
    models.GravityField: lambda: models.GravityField(abs, None),
    fe.Expression: lambda: fe.parse("x + 1"),
    mx.Form2Field: lambda: mx.Form2Field((ZERO,) * 6),
    mx.GridSampledField: lambda: mx.GridSampledField((np.zeros(3),) * 4, np.zeros((3,) * 4)),
}

FROZEN = {cls: (lambda cls=cls: cls(*VALUES[cls][0])) for cls in VALUES} | IDENTITY


def _name(cls):
    return cls.__name__


@pytest.mark.parametrize("cls", SIGNATURES, ids=_name)
def test_constructor_keeps_its_signature(cls):
    params = inspect.signature(cls).parameters.values()
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    assert [p.name if p.default is inspect.Parameter.empty else (p.name, p.default) for p in params] == SIGNATURES[cls]
    assert cls._fields == tuple(p.name for p in params)


@pytest.mark.parametrize("cls", FROZEN, ids=_name)
def test_frozen_record_rejects_assignment_and_deletion(cls):
    record = FROZEN[cls]()
    for name in (*cls._fields, "other"):
        before = getattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name, None) is before


def with_field(record, name, value):
    """``record`` with one field replaced, built past the constructor, which
    may reject the mix (a chart domain's bounds have its dimension)."""
    changed = object.__new__(type(record))
    changed.__dict__.update(vars(record), **{name: value})
    return changed


@pytest.mark.parametrize("cls", VALUES, ids=_name)
def test_value_record_equals_and_hashes_by_its_fields(cls):
    args, others = VALUES[cls]
    record = cls(*args)
    shown = tuple(a for name, a in zip(cls._fields, args) if name not in cls._hidden)
    assert record == cls(*args) and not record != cls(*args)
    assert hash(record) == hash(cls(*args)) == hash(shown)
    assert record != args and record != object()
    for name, other in zip(cls._fields, others):
        changed = with_field(record, name, other)
        if name in cls._hidden:   # a diagnostic, not part of the value
            assert record == changed and hash(record) == hash(changed), name
        else:
            assert record != changed and not record == changed, name


def test_reports_with_witnesses_compare_and_hash_by_their_values():
    # the hidden witness fields hold arrays, on which == and hash fail
    structure = models.affine_structure(2)
    cartan = [structure.is_cartan(samples=3, seed=0) for _ in range(2)]
    conn = models.build_model("galilean").conn
    axioms = [pr.check_axioms(conn, samples=5, seed=0) for _ in range(2)]
    assert axioms[0].worst_equivariance and cartan[0].worst_point
    for first, second in (cartan, axioms):
        assert first == second and hash(first) == hash(second)


@pytest.mark.parametrize("cls", IDENTITY, ids=_name)
def test_other_records_equal_only_themselves(cls):
    record = IDENTITY[cls]()
    assert record == record and record != IDENTITY[cls]()
    assert hash(record) == object.__hash__(record)


def test_mutable_records_take_assignment():
    spec = models.galileo_homogeneous_spec(2)
    spec.origin = np.ones(2)
    assert np.array_equal(spec.origin, np.ones(2))
    structure = ct.CartanStructure("flat", spec, pr.zero_connection(pr.ChartDomain(2), spec.tag))
    structure.diagonal = True
    developed = tp.DevelopedPath(np.arange(3.0), np.zeros((3, 2)), np.zeros((3, 2)))
    developed.values = np.ones((3, 2))
    assert structure.diagonal and developed.initial_tangent.tolist() == [0.0, 0.0]


def test_repr_names_the_shown_fields():
    assert repr(pr.ChartDomain(2)) == "ChartDomain(dim=2, lower=None, upper=None)"
    assert repr(ct.CartanReport("cartan", 0.5, 2, 2, 20, (1.0,))) == (
        "CartanReport(kind='cartan', min_singular_value=0.5, base_dim=2, fiber_dim=2, samples=20)")
