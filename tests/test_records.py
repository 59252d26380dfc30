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
from sullivan.algebra import _Record, _Value
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
MUTABLE = {RealizabilityVerdict, ValidationReport}


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
    if cls in MUTABLE:
        assert not isinstance(record, _Value)
        with pytest.raises(TypeError):
            hash(record)
        setattr(twin, name, "changed")
        assert record != twin
        return
    try:
        expected = hash(values)
    except TypeError:  # a dict field, as in a dataclass
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected
    with pytest.raises(AttributeError):
        setattr(record, name, "changed")
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == values[0]


def test_mutable_records_take_fresh_lists():
    first, second = ValidationReport(True), ValidationReport(True)
    first.nonminimal_terms.append(("x", "y"))
    assert second.nonminimal_terms == [] and second.degree_failures == []


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
