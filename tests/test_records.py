"""The engine's frozen records against their ``@dataclass(frozen=True)`` twins.

``_record.record`` builds the engine's records without generating code.
Each record is checked against its twin, the same class body made a frozen
dataclass, which is kept here as the reference: construction by position,
by keyword and with defaults, the ``__post_init__`` refusals, ``==``,
``!=``, ``hash``, ``repr``, frozen fields and ``cached_property``.  The
generic ``as_dict`` is checked against ``dataclasses.asdict`` of the twins
with every tuple a list.
"""

import ast
import dataclasses
import json
import os

import pytest

from shortloc import algebra, explorer, homology, kronecker, linalg, modules, numerics, verify
from shortloc.errors import AlgebraMismatch, BadParams, DimensionMismatch
from shortloc.homology import dual_data, projective_cover
from shortloc.linalg import QQ, Field, Matrix
from shortloc.modules import m_alpha, simple_module
from shortloc.presets import preset

RECORDS = [algebra.AlgebraReport, explorer.PathStep, explorer.PathRecord,
           explorer.ComplexClassification, homology.Presentation, homology.BettiTable,
           homology.BoundedVerdict, homology.ApproximationData, homology.DualData,
           kronecker.KroneckerRep, linalg.Field, modules.ModuleMap, modules.HomSpace,
           modules.IsoSearch, numerics.MainLemmaWitness, numerics.RecursionCheck,
           numerics.BSequence, verify.Context, verify.ClaimResult, verify.Claim]

BY_NAME = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)

#: What ``record`` adds to a class body.
ADDED = {"__init__", "__eq__", "__hash__", "__repr__", "as_dict", "__setattr__", "__delattr__",
         "__dict__", "__weakref__"}


def twin(cls):
    """The body of ``cls`` made a frozen dataclass: the reference."""
    body = {key: value for key, value in vars(cls).items() if key not in ADDED}
    ref = dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body))
    ref.__qualname__ = cls.__qualname__
    return ref


def field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(twin(cls))]


def samples(cls) -> list[tuple]:
    """Two different sets of field values that pass ``cls``'s checks."""
    if cls is Field:
        return [(7,), (0,)]
    if cls is modules.ModuleMap:
        S = simple_module(preset("L", e=2))
        return [(S, S, Matrix.identity(QQ, 1)), (S, S, Matrix.zeros(QQ, 1, 1))]
    if cls is kronecker.KroneckerRep:
        col = Matrix(QQ, [[1], [0]])
        return [(2, 1, 2, (col, col)), (1, 0, 0, (Matrix.zeros(QQ, 0, 0),))]
    names = field_names(cls)
    return [tuple(f"<{name}>" for name in names), tuple((i, None) for i in range(len(names)))]


def calls(cls, values):
    """(args, kwargs) of the valid ways to pass ``values``, with defaults left out last."""
    names = field_names(cls)
    required = [f.name for f in dataclasses.fields(twin(cls)) if f.default is dataclasses.MISSING]
    return [(values, {}), ((), dict(zip(names, values))),
            (values[:1], dict(zip(names[1:], values[1:]))),
            ((), dict(zip(names[::-1], values[::-1]))), (values[:len(required)], {})]


def test_every_record_is_checked():
    src = os.path.dirname(linalg.__file__)
    decorated = set()
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            decorated |= {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                          and any(isinstance(d, ast.Name) and d.id == "record"
                                  for d in node.decorator_list)}
    assert decorated == {cls.__name__ for cls in RECORDS} and len(RECORDS) == 20


@BY_NAME
def test_construction_matches_the_dataclass(cls):
    ref, names = twin(cls), field_names(cls)
    for values in samples(cls):
        for args, kwargs in calls(cls, values):
            got, want = cls(*args, **kwargs), ref(*args, **kwargs)
            assert all(getattr(got, name) is getattr(want, name) for name in names)
            assert repr(got) == repr(want)


@BY_NAME
def test_bad_calls_raise_type_error_like_the_dataclass(cls):
    names = field_names(cls)
    values = samples(cls)[0]
    bad = [(values + (None,), {}), (values, {"unknown": 1}), (values, {names[0]: values[0]})]
    required = [f.name for f in dataclasses.fields(twin(cls)) if f.default is dataclasses.MISSING]
    if required:
        bad.append((values[:len(required) - 1], {}))
    for make in (cls, twin(cls)):
        for args, kwargs in bad:
            with pytest.raises(TypeError):
                make(*args, **kwargs)


REFUSALS = [(Field, lambda: (4,), BadParams),
            (Field, lambda: (2**31 + 11,), BadParams),
            (modules.ModuleMap, lambda: (simple_module(preset("L", e=2)),
                                         simple_module(preset("L", e=3)),
                                         Matrix.identity(QQ, 1)), AlgebraMismatch),
            (modules.ModuleMap, lambda: (simple_module(preset("L", e=2)),
                                         simple_module(preset("L", e=2)),
                                         Matrix.zeros(QQ, 2, 1)), DimensionMismatch),
            (kronecker.KroneckerRep, lambda: (2, 1, 1, (Matrix.identity(QQ, 1),)), BadParams),
            (kronecker.KroneckerRep, lambda: (1, 1, 2, (Matrix.identity(QQ, 1),)), BadParams)]


@pytest.mark.parametrize("cls, args, error", REFUSALS,
                         ids=[f"{cls.__name__}-{k}" for k, (cls, _, _) in enumerate(REFUSALS)])
def test_post_init_refusals_match(cls, args, error):
    for make in (cls, twin(cls)):
        with pytest.raises(error):
            make(*args())
        with pytest.raises(error):
            make(**dict(zip(field_names(cls), args())))


@BY_NAME
def test_equality_and_hash_match(cls):
    ref = twin(cls)
    first, second = samples(cls)
    a, same, other = cls(*first), cls(*first), cls(*second)
    ra, rsame, rother = ref(*first), ref(*first), ref(*second)
    verdicts = (a == same, a != same, a == other, a != other)
    assert verdicts == (ra == rsame, ra != rsame, ra == rother, ra != rother)
    assert verdicts == (True, False, False, True)
    assert hash(a) == hash(ra) == hash(same) and hash(other) == hash(rother)
    assert a != ra and a.__eq__(ra) is NotImplemented
    assert repr(a) == repr(ra) and repr(other) == repr(rother)


@BY_NAME
def test_fields_are_frozen(cls):
    names, values = field_names(cls), samples(cls)[0]
    for obj in (cls(*values), twin(cls)(*values)):
        for name in names + ["not_a_field"]:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert all(getattr(obj, name) is value for name, value in zip(names, values))


def test_engine_records_match_their_twins(L2):
    S = simple_module(L2)
    pres = projective_cover(S)
    ref = twin(homology.Presentation)(pres.module, pres.cover_rank, pres._kernel_space)
    assert repr(pres) == repr(ref)
    for obj in (pres, ref):  # a Subspace field is unhashable
        with pytest.raises(TypeError):
            hash(obj)
    report = L2.validate()
    values = [getattr(report, name) for name in field_names(algebra.AlgebraReport)]
    assert repr(report) == repr(twin(algebra.AlgebraReport)(*values))
    assert hash(report) == hash(twin(algebra.AlgebraReport)(*values))
    # The cover map is a subclass whose matrix is built on first read.
    cover = pres.cover_map
    assert cover.matrix is cover.matrix and cover == cover
    with pytest.raises(AttributeError):
        cover.source = S


def test_as_dict_is_the_fields_as_plain_data(L2):
    # Fields in order, tuples as lists and nested records as dicts, all the
    # way down: dataclasses.asdict of the twins after a JSON round trip.
    step = (0, 3, 1, (1, 2), True, 0, None, 2)
    walk = explorer.PathRecord("syzygy", (explorer.PathStep(*step),) * 2, "stopped")
    ref_walk = twin(explorer.PathRecord)("syzygy", (twin(explorer.PathStep)(*step),) * 2,
                                         "stopped")
    shape = ("II", (1, 1, 2), 1, 1, (0, None, 1), False, None, "none")
    report = L2.validate()
    cases = [(walk, ref_walk),
             (explorer.ComplexClassification(*shape),
              twin(explorer.ComplexClassification)(*shape)),
             (report, twin(algebra.AlgebraReport)(*[getattr(report, name) for name in
                                                     field_names(algebra.AlgebraReport)]))]
    for obj, ref in cases:
        got = obj.as_dict()
        assert got == json.loads(json.dumps(dataclasses.asdict(ref)))
        assert list(got) == field_names(type(obj))
    assert walk.as_dict()["steps"][0]["dim_vector"] == [1, 2]


def test_cached_properties_are_computed_once(lam0, monkeypatch):
    pres = projective_cover(m_alpha(lam0, 1))
    dual = dual_data(m_alpha(lam0, 1))
    built = {"kernel": 0, "module": 0}
    syzygy, columns = homology.Syzygy, homology.module_from_columns

    def kernel(*args):
        built["kernel"] += 1
        return syzygy(*args)

    def module(*args):
        built["module"] += 1
        return columns(*args)
    monkeypatch.setattr(homology, "Syzygy", kernel)
    monkeypatch.setattr(homology, "module_from_columns", module)
    ref_pres = twin(homology.Presentation)(pres.module, pres.cover_rank, pres._kernel_space)
    ref_dual = twin(homology.DualData)(dual.homs)
    for obj in (pres, ref_pres):
        assert obj.kernel is obj.kernel and vars(obj)["kernel"] is obj.kernel
    for obj in (dual, ref_dual):
        assert obj.approximation is obj.approximation
        assert vars(obj)["approximation"] is obj.approximation
    # M* is kept on M, which both wrap, so it is built once between them.
    assert dual.module is ref_dual.module
    assert built == {"kernel": 2, "module": 1}
