"""The package's value classes keep the behaviour they had as frozen
dataclasses: each is checked against a frozen dataclass with the same
fields, defaults and values, built here."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from sternlike import catalog_entry, coeff_table, linear_representation, preset, transition_matrices
from sternlike._frozen import Frozen, set_field
from sternlike.expr import BinOp, Coeff, Lit, Term, Var
from sternlike.identities import Counterexample, DiscrepancyReport, Identity, Verdict
from sternlike.linrep import CoeffTable, LinearRepresentation, MatrixPair
from sternlike.oeis import BFileTable, CrosscheckReport
from sternlike.recurrence import SternLikeSpec
from sternlike.series import CheckReport, LaurentSeries, LevelResult
from sternlike.tm_oracle import YPresetReport

_VERDICT = Verdict(False, 10, Counterexample(1, 2, 3, 4, 5), "grid")

# each class: its fields in constructor order, the dataclass field of each
# one with a default, and one instance
CLASSES = {
    Lit: (("value",), {}, lambda: Lit(3)),
    Var: (("name",), {}, lambda: Var("n")),
    BinOp: (("op", "lhs", "rhs"), {}, lambda: BinOp("+", Lit(1), Var("n"))),
    Term: (("seq", "arg"), {}, lambda: Term("s", BinOp("*", Lit(2), Var("n")))),
    Coeff: (("kind", "e_arg", "r_arg"), {}, lambda: Coeff("A", Var("e"), Var("r"))),
    SternLikeSpec: (("a", "b", "c", "n0", "init", "name", "output_min_index"),
                    {"name": dataclasses.field(default=None),
                     "output_min_index": dataclasses.field(default=0)},
                    lambda: preset("josephus")),
    CoeffTable: (("spec", "e_max", "A", "B"), {}, lambda: coeff_table(preset("z1"), 2)),
    MatrixPair: (("m0", "m1"), {}, lambda: transition_matrices(preset("twisted"))),
    LinearRepresentation: (("spec", "base_states", "matrices"), {},
                           lambda: linear_representation(preset("tm_complexity_shift"))),
    Identity: (("name", "lhs", "rhs", "bindings", "n_min", "family", "variant"),
               {"bindings": dataclasses.field(default=()), "n_min": dataclasses.field(default=0),
                "family": dataclasses.field(default=""),
                "variant": dataclasses.field(default="")},
               lambda: catalog_entry("t_corollary_printed")),
    Verdict: (("holds", "checked_count", "counterexample", "path"),
              {"counterexample": dataclasses.field(default=None),
               "path": dataclasses.field(default="grid", compare=False)},
              lambda: _VERDICT),
    DiscrepancyReport: (("e_max", "n_max", "rows"), {},
                        lambda: DiscrepancyReport(1, 2, ((catalog_entry("z1_thm_printed"),
                                                          _VERDICT),))),
    BFileTable: (("records", "source"), {"source": dataclasses.field(default="")},
                 lambda: BFileTable(((0, 0), (1, 1)), "b.txt")),
    CrosscheckReport: (("spec_label", "source", "index_shift", "checked", "skipped",
                        "mismatches"), {},
                       lambda: CrosscheckReport("stern", "b.txt", 1, 2, 3, ((4, 5, 6),))),
    LaurentSeries: (("val", "coeffs"), {}, lambda: LaurentSeries(-1, (1, 0, -2))),
    LevelResult: (("level", "first_bad_exponent"), {}, lambda: LevelResult(2, 7)),
    CheckReport: (("name", "params", "levels", "artifacts"),
                  {"artifacts": dataclasses.field(default_factory=dict)},
                  lambda: CheckReport("sum_s", {"order": 8}, (LevelResult(0, None),), {"k": 1})),
    YPresetReport: (("ell_max", "prefix_length", "mismatches", "unsaturated"), {},
                    lambda: YPresetReport(4, 16, ((1, 2, 3),), (4,))),
}
_IDS = [cls.__name__ for cls in CLASSES]


def _reference(cls):
    """A frozen dataclass with `cls`'s name, fields and defaults."""
    fields, defaults, _ = CLASSES[cls]
    return dataclasses.make_dataclass(
        cls.__qualname__, [(name, object, defaults[name]) if name in defaults else (name, object)
                           for name in fields], frozen=True)


def _values(x):
    return tuple(getattr(x, name) for name in CLASSES[type(x)][0])


def _compared(x):
    return tuple(value for name, value in zip(CLASSES[type(x)][0], _values(x))
                 if not (type(x) is Verdict and name == "path"))


def test_every_value_class_is_listed():
    modules = {cls.__module__ for cls in CLASSES}
    found = {obj for module in modules for obj in vars(__import__(module, fromlist=["_"])).values()
             if isinstance(obj, type) and issubclass(obj, Frozen)} - {Frozen}
    assert found == set(CLASSES)
    assert len(CLASSES) == 18


@pytest.mark.parametrize("cls", CLASSES, ids=_IDS)
def test_signature_and_repr_are_the_dataclass_ones(cls):
    x = CLASSES[cls][2]()
    ref = _reference(cls)(*_values(x))
    assert repr(x) == repr(ref)
    params = [(p.name, p.default, p.kind) for p in inspect.signature(cls).parameters.values()]
    expected = [(p.name, p.default, p.kind) for p in inspect.signature(type(ref)).parameters.values()]
    if cls is CheckReport:  # None stands for the dataclass's fresh dict
        assert params[-1][1] is None and cls("c", {}, ()).artifacts == {}
        assert cls("c", {}, ()).artifacts is not cls("c", {}, ()).artifacts
        params, expected = params[:-1], expected[:-1]
    assert params == expected


@pytest.mark.parametrize("cls", CLASSES, ids=_IDS)
def test_equal_fields_give_equal_objects_of_one_class_only(cls):
    x = CLASSES[cls][2]()
    y = cls(*_values(x))
    assert y is not x and y == x and not y != x
    # a class with the same fields and values, and the dataclass itself
    twin = type(f"Twin{cls.__name__}", (Frozen,), {"__slots__": CLASSES[cls][0]})
    other = object.__new__(twin)
    for name, value in zip(CLASSES[cls][0], _values(x)):
        set_field(other, name, value)
    for stranger in (other, _reference(cls)(*_values(x)), _values(x), _compared(x)):
        assert x != stranger and stranger != x and not x == stranger


@pytest.mark.parametrize("cls", CLASSES, ids=_IDS)
def test_the_hash_is_the_tuple_of_compared_fields(cls):
    x = CLASSES[cls][2]()
    if cls is CheckReport:  # its dict fields make it unhashable, as before
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(x)
        with pytest.raises(TypeError):
            hash(_reference(cls)(*_values(x)))
        return
    assert hash(x) == hash(_compared(x)) == hash(_reference(cls)(*_values(x)))
    assert hash(x) == hash(x) == hash(cls(*_values(x)))  # cached, and stable


@pytest.mark.parametrize("cls", CLASSES, ids=_IDS)
def test_fields_cannot_be_assigned_or_deleted(cls):
    x = CLASSES[cls][2]()
    before = repr(x)
    for name in (*CLASSES[cls][0], "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
    assert repr(x) == before


@pytest.mark.parametrize("cls", CLASSES, ids=_IDS)
def test_pickle_and_copy_round_trip(cls):
    x = CLASSES[cls][2]()
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is cls and y == x and repr(y) == repr(x)


def test_verdicts_that_differ_only_in_path_are_equal_and_hash_alike():
    verdicts = [Verdict(True, 5, None, path) for path in ("grid", "all", "levels")]
    assert verdicts[0] == verdicts[1] == verdicts[2]
    assert len({hash(v) for v in verdicts}) == 1 and len(set(verdicts)) == 1
    assert Verdict(True, 5) != Verdict(True, 6) and Verdict(True, 5) != Verdict(False, 5)


def test_identity_replace_changes_only_what_it_names():
    ident = catalog_entry("prop2")
    lowered = ident.replace(n_min=0)
    assert (lowered.n_min, ident.n_min) == (0, 1)
    assert _values(lowered)[:4] + _values(lowered)[5:] == _values(ident)[:4] + _values(ident)[5:]
    assert lowered.uses_n and lowered.seq_names == ident.seq_names
    with pytest.raises(TypeError):
        ident.replace(nosuch=1)
