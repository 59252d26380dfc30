"""The package's records: value semantics, and an import free of generated code."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import sullivan
from sullivan import (
    BaseAnalysis,
    BettiTable,
    ExactSequenceProblem,
    FiberVerdict,
    GeneratorSpec,
    KillCertificate,
    ModelDocument,
    Monomial,
    ObstructionReport,
    RankSolution,
    RankVector,
    RealizabilityVerdict,
    RelativeWitness,
    SpaceCatalogEntry,
    SullivanModel,
    ValidationReport,
)
from sullivan.algebra import _Record, validate_model
from sullivan.cohomology import CoboundaryVerdict
from sullivan.dsl import Token
from sullivan.exactseq import Slot

SRC = Path(__file__).parent.parent / "src"

S2 = SullivanModel.free([("x2", 2), ("x3", 3)])
F = RankVector(((2, 1), (3, 1)))

# every field, in the order positional construction fills them
SAMPLES = {
    BaseAnalysis: {"name": "S2", "base": F, "dim": 2, "fiber_dim": 4, "verdicts": ()},
    BettiTable: {"values": (1, 0, 1)},
    ExactSequenceProblem: {"slots": (Slot("a", 0), Slot("b", 1), Slot("c", 0))},
    FiberVerdict: {
        "fiber": F, "status": "killed", "certificate": None, "flags": ("f",),
        "witness": None, "checks_run": ("dimension-formula",),
    },
    GeneratorSpec: {"name": "x2", "degree": 2, "origin": "base"},
    KillCertificate: {"kind": "dimension-formula", "detail": {"fiber": "2:1,3:1"}},
    ModelDocument: {"name": "S2", "model": S2, "notes": ("n",)},
    Monomial: {"exps": (("x2", 2),)},
    ObstructionReport: {
        "total_name": "S7", "total": F, "total_dim": 7, "max_base_dim": 6, "entries": (),
    },
    RankSolution: {"dimensions": (0, 1, 0), "map_ranks": (0, 1)},
    RankVector: {"counts": ((2, 1), (3, 1))},
    RealizabilityVerdict: {
        "status": "realized", "f": F, "model": S2, "examined": 3, "note": "n",
    },
    RelativeWitness: {
        "model": S2, "assignment": (("x3", S2.gen("x2") ** 2),), "rejected_invalid": 5,
    },
    SpaceCatalogEntry: {
        "name": "S2", "rank_vector": F, "dim": 2, "model": S2, "aliases": ("s2",),
        "table_row": False,
    },
    SullivanModel: {"generators": S2.generators, "diff": ()},
    ValidationReport: {
        "ok": False, "d_squared_failures": [("a", "b")], "degree_failures": [],
        "nonminimal_terms": [("c", "d")],
    },
}


def test_every_exported_record_has_a_sample():
    exported = {getattr(sullivan, name) for name in sullivan.__all__}
    assert {c for c in exported if isinstance(c, type) and issubclass(c, _Record)} == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_semantics(cls):
    fields = SAMPLES[cls]
    values = tuple(fields.values())
    record, twin = cls(*values), cls(*values)
    assert [getattr(record, name) for name in fields] == list(values)
    assert record == twin and not record != twin
    assert record != values
    assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
    other = next(c for c in SAMPLES if c is not cls)
    assert record != other(*SAMPLES[other].values())
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()
    ) + ")"
    name = next(iter(fields))
    try:
        expected = hash(values)
    except TypeError:  # a list or dict field, as in a dataclass
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected
    with pytest.raises(AttributeError):
        setattr(record, name, "changed")
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == values[0]


# the fields a record may leave out, with the values they then take
DEFAULTS = {
    FiberVerdict: {"certificate": None, "flags": (), "witness": None, "checks_run": ()},
    GeneratorSpec: {"origin": "plain"},
    Monomial: {"exps": ()},
    RealizabilityVerdict: {"model": None, "examined": 0, "note": ""},
    SpaceCatalogEntry: {"aliases": (), "table_row": True},
    SullivanModel: {"diff": ()},
}


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_keyword_construction(cls):
    fields = SAMPLES[cls]
    values = tuple(fields.values())
    assert cls(**fields) == cls(*values)
    assert cls(*values[:1], **dict(list(fields.items())[1:])) == cls(*values)
    defaults = DEFAULTS.get(cls, {})
    required = {name: value for name, value in fields.items() if name not in defaults}
    record = cls(**required)
    assert {name: getattr(record, name) for name in defaults} == defaults
    for name in required:
        with pytest.raises(TypeError):
            cls(**{n: v for n, v in required.items() if n != name})


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_bad_construction_raises_type_error(cls):
    fields = SAMPLES[cls]
    values = tuple(fields.values())
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(*values, None)  # one value too many
    with pytest.raises(TypeError):
        cls(*values, bogus=None)
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})  # a field given twice


SLOTS = (Slot("a", 0), Slot("b", 1), Slot("c", 0))
RULES = [
    (GeneratorSpec, {"name": "2x", "degree": 2}, "identifier"),
    (GeneratorSpec, {"name": "x", "degree": 0}, "degree must be >= 1"),
    (GeneratorSpec, {"name": "x", "degree": 2, "origin": "total"}, "unknown origin"),
    (SullivanModel, {"generators": S2.generators * 2}, "duplicate generator"),
    (SullivanModel, {"generators": S2.generators, "diff": (("y", ()),)}, "unknown generator"),
    (RankVector, {"counts": ((3, 1), (2, 1))}, "ascending"),
    (RankVector, {"counts": ((2, 0),)}, "bad entry"),
    (ExactSequenceProblem, {"slots": SLOTS[:2]}, "at least 3 slots"),
    (ExactSequenceProblem, {"slots": SLOTS[1:] + SLOTS[:1]}, "must be known zero"),
    (ExactSequenceProblem, {"slots": (SLOTS[0], Slot("b", -1), SLOTS[2])}, "negative"),
    (KillCertificate, {"kind": "guess", "detail": {}}, "unknown certificate kind"),
]


@pytest.mark.parametrize(
    "cls, fields, message", RULES, ids=[f"{c.__name__}: {m}" for c, _, m in RULES]
)
def test_rules_hold_for_keyword_construction(cls, fields, message):
    with pytest.raises(ValueError, match=message):
        cls(**fields)


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


# `import sullivan` has loaded every module that defines a record
RECORDS = sorted(subclasses(_Record), key=lambda c: c.__name__)


def test_no_record_has_its_own_constructor_or_setter():
    own = [
        c.__name__ for c in RECORDS
        if {"__init__", "__setattr__", "__delattr__"} & set(vars(c))
    ]
    assert own == []


# a built instance of every record, the unexported ones included
INSTANCES = {
    **{cls: cls(*fields.values()) for cls, fields in SAMPLES.items()},
    Token: Token("int", "2", 1, 1),
    Slot: SLOTS[1],
    CoboundaryVerdict: CoboundaryVerdict(False, functional={}),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_every_record_is_frozen(cls):
    record = INSTANCES[cls]
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.bogus = None


def test_validate_model_builds_its_report_in_one_call():
    # a d*d, a degree and a minimality failure, so no list is empty
    free = SullivanModel.free([("x2", 2), ("z4", 4), ("w5", 5)])
    x2, z4 = free.gen("x2"), free.gen("z4")
    report = validate_model(free.with_differentials({"z4": x2 * x2, "w5": x2 ** 3 - z4}))
    fields = [getattr(report, name) for name in report._fields]
    assert fields[0] is False and all(isinstance(f, list) and f for f in fields[1:])
    assert report == ValidationReport(*fields)


def test_import_loads_no_dataclasses_typing_inspect_or_pathlib():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import sullivan.cli; "
        "print(sorted(m for m in ('dataclasses', 'typing', 'inspect', 'pathlib') "
        "if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
