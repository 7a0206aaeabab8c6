"""Value semantics of the package's records: equality, hashing, repr,
immutability and pickling, class by class."""

import copy
import importlib
import pickle

import pytest

from crossnum import (BoundFormula, CoefficientModel, CrossSpec,
                      GeneralizedWeightSeq, WeightKind, breakpoints_sharp,
                      exact_an_sharp, formula_info, info_complexity_bounds,
                      optimal_truncation, qpt_certify, sharp_table,
                      verify_bound, verify_weight_domination)
from crossnum._record import Record


def _halving(level):
    return 1.0 / (1 + abs(level))


def _flat(k):
    return 1.0


# class name -> (its fields in order, a factory of one instance)
RECORDS = {
    "CrossSpec": (("r", "d"), lambda: CrossSpec(4, 2)),
    "GeneralizedWeightSeq": (("evaluator", "envelope"),
                             lambda: GeneralizedWeightSeq(_halving, 2.0)),
    "WeightKind": (("family", "s"), lambda: WeightKind.plus(1.5)),
    "ApproxNumber": (("r", "s"), lambda: exact_an_sharp(11, 5, 2.0)),
    "Breakpoint": (("r", "cumulative", "value"),
                   lambda: breakpoints_sharp(2, 1.0, 3)[1]),
    "SpectrumTable": (("values", "kind", "d", "certification", "radius", "bases"),
                      lambda: sharp_table(2, 1.0, 5)),
    "DominationReport": (("source", "target", "d", "regime", "passed", "checked",
                          "counterexample", "factor"),
                         lambda: verify_weight_domination(
                             (WeightKind.sharp(1.0), WeightKind.plus(1.0)), 2, 2)),
    "FormulaInfo": (("side", "family", "experimental", "first", "cap", "min_d"),
                    lambda: formula_info(BoundFormula.PRE_UPPER_46)),
    "VerificationReport": (("formula", "d", "s", "checked", "skipped",
                            "violations", "max_slack"),
                           lambda: verify_bound(BoundFormula.P_SQUARED, 2, 1.0,
                                                [1, 2, 3])),
    "TruncationOperator": (("indices", "rank", "d", "s", "r"),
                           lambda: optimal_truncation(10, 2, 1.0)),
    "CoefficientModel": (("evaluator", "decay_scale", "decay_rate"),
                         lambda: CoefficientModel(_flat, 1.0, 1.0)),
    "ComplexityEnclosure": (("lower", "upper", "exact"),
                            lambda: info_complexity_bounds(WeightKind.plus(1.0),
                                                           0.1, 2, exact=True)),
    "QptCertificate": (("s", "t", "c_t", "grid", "passed", "violations",
                        "worst_point", "slack", "per_point_t"),
                       lambda: qpt_certify(1.0, [2, 3], [0.5, 0.25])),
}


def _record(name):
    fields, make = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    return record, fields


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records_and_hashes(name):
    record, fields = _record(name)
    twin = type(record)(*(getattr(record, field) for field in fields))
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert record != tuple(getattr(record, field) for field in fields)
    assert not hasattr(record, "__dict__")  # the fields are the slots


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_every_field_in_order(name):
    record, fields = _record(name)
    shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{name}({shown})"


def test_repr_literals():
    assert repr(exact_an_sharp(11, 5, 2.0)) == "ApproxNumber(r=2, s=2.0)"
    assert repr(WeightKind.integer_m(3)) == "WeightKind(family='intm', s=3.0)"
    assert repr(CrossSpec(4.0, 2)) == "CrossSpec(r=4, d=2)"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_can_be_neither_assigned_nor_deleted(name):
    record, fields = _record(name)
    before = copy.copy(record)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_and_copy_round_trips(name):
    record, _ = _record(name)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(record, protocol))
        assert type(again) is type(record) and again == record
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record


def test_records_of_different_values_differ():
    assert exact_an_sharp(11, 5, 2.0) != exact_an_sharp(11, 5, 1.0)
    assert WeightKind.plus(1.0) != WeightKind.star(1.0)
    assert CrossSpec(4, 2) != CrossSpec(2, 4)
    assert len({WeightKind.plus(1), WeightKind.plus(1.0), WeightKind.star(1)}) == 2


LAYERS = ("combinatorics", "spectra", "bounds", "tractability", "fourier", "cli")


def test_every_record_is_checked_here_and_names_its_fields_once():
    for layer in LAYERS:
        importlib.import_module(f"crossnum.{layer}")
    classes = Record.__subclasses__()
    assert len(classes) == len(RECORDS)
    for cls in classes:
        assert cls.__name__ in RECORDS
        assert tuple(cls.__annotations__) == cls.__slots__ == RECORDS[cls.__name__][0]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_bind_by_keyword_and_trailing_ones_default(name):
    record, fields = _record(name)
    cls, values = type(record), [getattr(record, field) for field in fields]
    assert cls(**dict(zip(fields, values))) == record
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == record
    defaults = cls._defaults
    if defaults:
        short = cls(*values[:len(fields) - len(defaults)])
        assert [getattr(short, field) for field in fields[-len(defaults):]] == list(defaults)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_wrong_arguments_are_type_errors(name):
    record, fields = _record(name)
    cls, values = type(record), [getattr(record, field) for field in fields]
    calls = {
        "surplus positional": lambda: cls(*values, values[0]),
        "unknown keyword": lambda: cls(*values, no_such_field=1),
        "field given twice": lambda: cls(*values, **{fields[0]: values[0]}),
        "missing field": lambda: cls(**dict(zip(fields[1:], values[1:]))),
    }
    for case, call in calls.items():
        with pytest.raises(TypeError):
            call()
            pytest.fail(f"{name}: {case} was accepted")
