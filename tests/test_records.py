"""`Record` against frozen dataclasses built from the same annotations."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
from fractions import Fraction as F
from unittest import mock

import pytest

import cantorapprox
from cantorapprox import (AffineSource, ApproxFunction, CantorMeasureValue,
                          ContinuedFraction, DimensionFunction, FactorialRule,
                          MembershipResult, MissingDigitSet, PowerRule, RatInterval,
                          RealEnclosure, Scalar, SqrtSource,
                          borel_cantelli_ratio, box_dimension_estimate, build_layer,
                          build_sparse_number, cantor_measure, cf_prefix_interval,
                          continued_fraction_expand, irrationality_exponent_estimate,
                          membership, natural_cover_tail, quasi_independence_scan,
                          series_classify, truncate_psi, truncation_report)
from cantorapprox.enclosures import LogRatioSource, golden_ratio_source
from cantorapprox.errors import BUDGET, Budget
from cantorapprox.records import Record


def _record_classes() -> dict:
    out = {}
    for info in pkgutil.iter_modules(cantorapprox.__path__):
        module = importlib.import_module(f"cantorapprox.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
                    and obj.__module__ == module.__name__):
                out[obj.__qualname__] = obj
    return out


def _samples() -> list:
    """At least one instance of every record class, most built by the library."""
    k = MissingDigitSet(3, (2, 0))
    psi = ApproxFunction.power(2)
    window = RatInterval.unit()
    f = DimensionFunction.power(1, 1)
    scan = quasi_independence_scan(k, psi, window, 3, 1, True)
    golden_cf = continued_fraction_expand(RealEnclosure.from_source(golden_ratio_source()), 12)
    return [
        continued_fraction_expand(F(7, 19), 10), golden_cf,
        ContinuedFraction((1, 2), ((0, 1), (1, 2))),
        irrationality_exponent_estimate(golden_cf),
        cf_prefix_interval([1, 2, 3]),
        k, MissingDigitSet(5, (3, 0, 2)),
        MembershipResult("in"), membership(F(1, 4), k, 3),
        MembershipResult("undetermined", 4),
        CantorMeasureValue(F(1, 3), F(1, 2)), cantor_measure(k, RatInterval.make(0, F(1, 3))),
        SqrtSource(F(5)), LogRatioSource(F(3), F(2)), golden_ratio_source(),
        AffineSource(SqrtSource(F(2))),
        RealEnclosure.exact(F(1, 3)), RealEnclosure.from_source(SqrtSource(F(2))),
        RatInterval.make(F(1, 4), F(1, 2)),
        Scalar(F(2), 1), Scalar(F(3)),
        psi.kind, ApproxFunction.power_log(1, Scalar(F(2))).kind,
        ApproxFunction.table({1: F(1, 2)}).kind,
        psi, truncate_psi(psi, F(1, 2)),
        f, DimensionFunction.table({1: F(1)}),
        build_layer(k, psi, 2, window, True), scan.rows[0], scan,
        series_classify(k, psi, f, 4), natural_cover_tail(k, psi, f, 1, 3),
        borel_cantelli_ratio(k, psi, window, 2), box_dimension_estimate(k, F(2), 2, True),
        PowerRule(F(3)), PowerRule(F(5, 2), F(2)), FactorialRule(),
        truncation_report(build_sparse_number(3, 2, PowerRule(F(3)), 3), 1),
        BUDGET.get(), Budget(steps=3, cells=100),
    ]


SAMPLES = _samples()


def _twin(cls):
    """The frozen dataclass with the fields, defaults and __post_init__ of cls."""
    fields = []
    for name in vars(cls).get("__annotations__", {}):
        if name in vars(cls):
            fields.append((name, "object", dataclasses.field(default=vars(cls)[name])))
        else:
            fields.append((name, "object"))
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True,
                                      namespace=namespace)


def _hash(obj):
    try:
        return hash(obj)
    except TypeError:  # a field holds a dict
        return TypeError


def test_every_record_class_has_a_sample():
    assert {type(s).__qualname__ for s in SAMPLES} == set(_record_classes())


@pytest.mark.parametrize("rec", SAMPLES, ids=lambda r: type(r).__qualname__)
def test_record_matches_frozen_dataclass(rec):
    cls = type(rec)
    twin = _twin(cls)
    names = [f.name for f in dataclasses.fields(twin)]
    required = [f.name for f in dataclasses.fields(twin)
                if f.default is dataclasses.MISSING]
    values = [getattr(rec, name) for name in names]
    kwargs = dict(zip(names, values))

    constructions = [(values, {}), ([], kwargs), (values[:len(required)], {}),
                     (values[:1], dict(list(kwargs.items())[1:]))]
    for args, kw in constructions:
        got, want = cls(*args, **kw), twin(*args, **kw)
        assert repr(got) == repr(want)
        assert _hash(got) == _hash(want)
        assert (got == cls(*args, **kw)) and not (got != cls(*args, **kw))
    assert repr(rec) == repr(twin(*values))
    assert cls(*values) == rec
    assert rec != twin(*values) and rec != object()
    assert rec == mock.ANY and twin(*values) == mock.ANY  # NotImplemented defers to ANY

    bad = [(values + [None], {}), (values, {"not_a_field": 1})]
    if names:
        bad.append((values, {names[0]: values[0]}))
    if required:
        bad.append((values[:len(required) - 1], {}))
    for args, kw in bad:
        with pytest.raises(TypeError):
            twin(*args, **kw)
        with pytest.raises(TypeError):
            cls(*args, **kw)

    before = repr(rec)
    for obj in (rec, twin(*values)):
        for name in names + ["not_a_field"]:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert repr(rec) == before

    for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(clone) is cls
        assert clone == rec and repr(clone) == repr(rec)
        assert _hash(clone) == _hash(rec)


def test_cached_properties_survive_freezing_and_pickling():
    k = MissingDigitSet(5, (3, 0, 2))
    assert k._digitset is k._digitset == frozenset({0, 2, 3})
    assert "_digitset" in vars(k)
    layer = build_layer(MissingDigitSet(3, (0, 2)), ApproxFunction.power(F(3, 2)), 2,
                        RatInterval.unit(), True)
    unions = layer.unions
    assert layer.unions is unions and "unions" in vars(layer)
    clone = pickle.loads(pickle.dumps(layer))
    assert clone == layer and vars(clone)["unions"] == unions
