"""The value classes: slotted ``Frozen`` subclasses that keep the contract of
the frozen dataclasses they replace (repr text, hash, equality, immutability,
copying and pickling, keyword construction), with no class built by
``dataclasses`` anywhere in the package."""

from __future__ import annotations

import ast
import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import textwrap
from fractions import Fraction

import pytest

import bollobas
from bollobas.errors import Frozen
from bollobas.exact_arith import QQ, PrimeField, ProbabilityVector
from bollobas.extremal_search import SearchProblem, SearchResult
from bollobas.saturation_engine import FillUpStep, SaturationTrace
from bollobas.subspace_algebra import Subspace, coordinate_decomposition, coordinate_subspace
from bollobas.systems_model import SetSystem, SubspaceSystem
from bollobas.verifiers import Certificate, ClassCount, ConditionKind, VerificationReport
from bollobas.weight_functionals import FunctionalKind, InequalityVerdict

GF3 = PrimeField(3)
HALF = ProbabilityVector((Fraction(1, 2), Fraction(1, 2)))
SKEW = ConditionKind("skew", "set", 2)
TUZA = FunctionalKind("tuza_sum", HALF)
PAIRS = SetSystem(2, 2, ((0b01, 0b10),), (0b01, 0b10))

_HALF = "ProbabilityVector(entries=(Fraction(1, 2), Fraction(1, 2)))"
_SKEW = "ConditionKind(flavor='skew', kind='set', d=2, monotone=False)"
_TUZA = f"FunctionalKind(name='tuza_sum', p={_HALF})"
_PAIRS = "SetSystem(n=2, d=2, tuples=((1, 2),), partition=(1, 2))"

# one value of each class, with the text its frozen dataclass printed
VALUES = [
    (QQ, "RationalField()"),
    (GF3, "PrimeField(p=3)"),
    (HALF, _HALF),
    (coordinate_subspace(2, QQ, [1]), "Subspace(n=2, field=RationalField(), rows=((1, 0),))"),
    (
        coordinate_decomposition(2, QQ, [[1], [2]]),
        "Decomposition(n=2, field=RationalField(), blocks=("
        "Subspace(n=2, field=RationalField(), rows=((1, 0),)), "
        "Subspace(n=2, field=RationalField(), rows=((0, 1),))))",
    ),
    (PAIRS, _PAIRS),
    (
        SubspaceSystem(2, GF3, 1, ((Subspace(2, GF3, ((1, 2),)),),)),
        "SubspaceSystem(n=2, field=PrimeField(p=3), d=1, tuples=(("
        "Subspace(n=2, field=PrimeField(p=3), rows=((1, 2),)),),), decomposition=None)",
    ),
    (SKEW, _SKEW),
    (
        VerificationReport(False, (1, 1, "component"), SKEW),
        f"VerificationReport(verdict=False, first_violation=(1, 1, 'component'), condition={_SKEW}, "
        "field_caveat=False)",
    ),
    (ClassCount((1, 1), 1, 2), "ClassCount(profile=(1, 1), count=1, bound=2)"),
    (
        Certificate("uniform_pair", True, (("m", "1"), ("bound", "2")), (ClassCount((1, 1), 1, 2),)),
        "Certificate(check='uniform_pair', holds=True, quantities=(('m', '1'), ('bound', '2')), "
        "classes=(ClassCount(profile=(1, 1), count=1, bound=2),), field_caveat=False, findings=())",
    ),
    (TUZA, _TUZA),
    (
        InequalityVerdict(Fraction(1, 2), Fraction(1), True, False, SKEW),
        "InequalityVerdict(value=Fraction(1, 2), bound=Fraction(1, 1), holds=True, tight=False, "
        f"licensed_by={_SKEW}, field_caveat=False)",
    ),
    (
        SearchProblem(2, 2, "skew", uniform_sizes=(1, 1)),
        "SearchProblem(n=2, d=2, flavor='skew', objective='max_m', functional=None, field=None, "
        "uniform_sizes=(1, 1), node_budget=200000, prune=True)",
    ),
    (SearchResult(1, PAIRS, 3, True), f"SearchResult(best_value=1, witness={_PAIRS}, nodes=3, exhaustive=True)"),
    (FillUpStep(1, None, 2), "FillUpStep(index=1, block=None, x=2)"),
    (
        SaturationTrace("set", TUZA, (FillUpStep(1, 2, (1, 0)),), Fraction(1, 4), (2, 3), PAIRS),
        f"SaturationTrace(flavor='set', functional={_TUZA}, steps=(FillUpStep(index=1, block=2, x=(1, 0)),), "
        f"omega=Fraction(1, 4), phis=(2, 3), final={_PAIRS})",
    ),
]


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in value._fields)


@pytest.mark.parametrize("value, text", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_value_class_contract(value, text):
    assert repr(value) == text
    assert hash(value) == hash(_fields(value))
    for other in (_fields(value), object()):
        assert value.__eq__(other) is NotImplemented
        assert value != other
    for name in (*value._fields, "other"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    for twin in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
        pickle.loads(pickle.dumps(value, protocol=0)),
        type(value)(**dict(zip(value._fields, _fields(value)))),
    ):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == text


def test_field_tag_hashes_are_the_dataclass_values():
    assert hash(PrimeField(3)) == hash((3,))
    assert hash(QQ) == hash(())


def test_every_value_class_is_tested_and_none_is_a_dataclass():
    assert sorted(cls.__name__ for cls in Frozen.__subclasses__()) == sorted(
        type(value).__name__ for value, _ in VALUES
    )
    modules = [importlib.import_module(f"bollobas.{info.name}") for info in pkgutil.iter_modules(bollobas.__path__)]
    for module in (bollobas, *modules):
        for obj in vars(module).values():
            if isinstance(obj, type):
                assert not dataclasses.is_dataclass(obj), obj


def test_fields_are_stored_by_the_base_setter():
    """No value class but ``Subspace``, the hottest constructor, passes a
    field name to ``object.__setattr__`` (or a name bound to it): the others
    store their fields with one ``_init`` call."""
    for cls in Frozen.__subclasses__():
        if cls is Subspace:
            continue
        tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
        setters = {"object.__setattr__", "_set"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and ast.unparse(node.value) in setters:
                setters.update(ast.unparse(target) for target in node.targets)
        named = {
            node.args[1].value
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) in setters
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        }
        assert not named & set(cls._fields), cls.__name__

