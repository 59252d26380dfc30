"""The benchmark's three workloads, their operations and their references.

An operation is one call a user makes: a `sullivan` command line, or one
library session.  Each carries the reference its output is checked
against.  References never come from the code under test: pinned vectors,
SHA-256 digests of the byte goldens, pinned survivor lists, and, for the
pure models, a closed-form Poincare polynomial and this file's own
differential.  Kill certificates are the one exception: they are checked
with `KillCertificate.revalidate()`, which recomputes each recorded
mismatch from the certificate's data alone, without the search that
produced it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("elliptic", "obstruction", "cohomology")


@dataclass
class Op:
    """One operation: what the worker runs, and how its answer is judged.

    `spec` goes to the worker as JSON.  `check(result)` returns None when
    the output is correct, else a one-line reason.
    """

    name: str
    spec: dict
    check: Callable[[dict], str | None] = field(repr=False)


def cli_op(name: str, argv: list[str], check_stdout) -> Op:
    """A command line that must exit 0 with stdout passing check_stdout."""

    def check(result: dict) -> str | None:
        if result["exit"] != 0:
            return f"exit {result['exit']}, expected 0"
        return check_stdout(result["stdout"])

    return Op(name, {"kind": "cli", "argv": argv}, check)


def exact_text(want: str):
    return lambda out: None if out == want else "stdout differs from the reference"


def sha256_text(digest: str):
    def check(out: str) -> str | None:
        got = hashlib.sha256(out.encode()).hexdigest()
        return None if got == digest else f"stdout sha256 {got[:12]} != golden {digest[:12]}"

    return check


# -- elliptic ---------------------------------------------------------------

# The 17 realizable rank vectors of dimensions 2..7, as pinned by the
# acceptance criteria, in the canonical order the CLI prints them.
PINNED_VECTORS = {
    2: ["{2:1, 3:1}"],
    3: ["{3:1}"],
    4: ["{4:1, 7:1}", "{2:1, 5:1}", "{2:2, 3:2}"],
    5: ["{5:1}", "{2:1, 3:2}"],
    6: ["{6:1, 11:1}", "{3:2}", "{2:1, 7:1}", "{2:1, 3:1, 4:1, 7:1}",
        "{2:2, 3:1, 5:1}", "{2:3, 3:3}"],
    7: ["{7:1}", "{3:1, 4:1, 7:1}", "{2:1, 3:1, 5:1}", "{2:2, 3:3}"],
}


def _vectors_text(n: int) -> str:
    return "".join(v + "\n" for v in PINNED_VECTORS[n])


def _table1_text() -> str:
    # byte-identical to tests/golden/table1.json, rebuilt from the pins
    dims = {str(n): PINNED_VECTORS[n] for n in range(2, 8)}
    return json.dumps({"target": "table1", "dimensions": dims}, indent=2) + "\n"


def elliptic_ops() -> list[Op]:
    ops = [
        cli_op(f"enumerate-dim{n}", ["elliptic", "enumerate", "--dim", str(n)],
               exact_text(_vectors_text(n)))
        for n in range(2, 8)
    ]
    ops.append(cli_op("reproduce-table1", ["reproduce", "table1"], exact_text(_table1_text())))
    # `--coeffs=SET`: argparse takes `--coeffs -1,0,1` for a missing value
    ops.append(cli_op("enumerate-dim7-coeffs4",
                      ["elliptic", "enumerate", "--dim", "7", "--coeffs=-1,0,1,2"],
                      exact_text(_vectors_text(7))))
    ops.append(cli_op("enumerate-dim6-coeffs5",
                      ["elliptic", "enumerate", "--dim", "6", "--coeffs=-2,-1,0,1,2"],
                      exact_text(_vectors_text(6))))
    return ops


# -- obstruction ------------------------------------------------------------

# SHA-256 of tests/golden/<target>.json at the commit that added this file.
GOLDEN_SHA256 = {
    "prop31": "6358b34e89d0314769350c582ebefffa0516995b106be34a8060066f63a9e8e2",
    "prop32": "b5279f6601e4be424831671056702a4fb32967a70814e0d67a77ff5a1baa93df",
    "prop41": "775de7777a8fc36f341ac8d9deca3d638f3b734b754381033d2af035e1b947b3",
    "prop42": "a70214e913b4745a51a370dcab88ee180d21c361e985985a1c625126f6432fa9",
    "theorem-a": "d1affdf1a870924e9c36b91ae63df14119fe960e4b7ec76084c1bb8f2105bdd3",
    "theorem-b": "c08eb02c20ca1b713f663c8861a8bc7ce0a2fff0adc85bf3c8ba2915219957d2",
}

# (total space, --max-base-dim) -> surviving bases, pinned at the same commit
SUBMERSION_SURVIVORS = {
    ("S2xCP2", 5): ["S2", "CP2"],
    ("S2xS5", 6): ["S2", "CP2", "S5", "S2xCP2"],
    ("S3xS4", 6): ["S2", "S3", "S4", "S2xS4"],
    ("S3xS3", 5): ["S2", "S3", "S2xS2", "S2xS3"],
    ("CP3", 5): ["S4"],
    ("S2xS4", 5): ["S2", "S4"],
    ("S7", 6): ["S4", "CP3"],
}


class CertificateChecker:
    """Revalidates every kill certificate of a `check submersion` report.

    The run.py process imports the package under test once; identical
    reports are judged once per run, since the same bytes give the same
    verdict.
    """

    def __init__(self):
        self._seen: dict[str, str | None] = {}

    def __call__(self, survivors: list[str], out: str) -> str | None:
        key = hashlib.sha256(out.encode()).hexdigest()
        if key not in self._seen:
            self._seen[key] = self._judge(survivors, out)
        return self._seen[key]

    @staticmethod
    def _judge(survivors: list[str], out: str) -> str | None:
        from sullivan.pipeline import KillCertificate

        try:
            report = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        if report.get("survivors") != survivors:
            return f"survivors {report.get('survivors')} != pinned {survivors}"
        kills = 0
        for base in report["bases"]:
            for fiber in base["fibers"]:
                cert = fiber.get("certificate")
                if cert is None:
                    if fiber["verdict"] != "survives-rationally":
                        return f"{base['name']} {fiber['ranks']}: no certificate"
                    continue
                kills += 1
                if not KillCertificate(cert["kind"], cert["detail"]).revalidate():
                    return f"{base['name']} {fiber['ranks']}: certificate fails revalidate()"
        return None if kills else "no kill certificates to check"


def obstruction_ops() -> list[Op]:
    certificates = CertificateChecker()
    ops = [
        cli_op(f"reproduce-{t}", ["reproduce", t], sha256_text(digest))
        for t, digest in GOLDEN_SHA256.items()
    ]
    for (total, cap), survivors in SUBMERSION_SURVIVORS.items():
        ops.append(cli_op(
            f"submersion-{total}-{cap}",
            ["check", "submersion", "--total", total, "--max-base-dim", str(cap)],
            lambda out, s=survivors: certificates(s, out),
        ))
    return ops


# -- cohomology: seeded square pure models ------------------------------------

@dataclass(frozen=True)
class PureShape:
    """Even generator degrees, the power a_i of the leading term of
    d(y_i) = x_i^a_i + ..., and the two degrees queried with is_coboundary."""

    name: str
    even: tuple[int, ...]
    power: tuple[int, ...]
    query_degrees: tuple[int, int]

    @property
    def odd(self) -> tuple[int, ...]:
        return tuple(a * d - 1 for a, d in zip(self.power, self.even))

    @property
    def formal_dim(self) -> int:
        return sum(self.odd) - sum(d - 1 for d in self.even)


# Fixed shapes, so a seed changes coefficients and never the problem size.
SHAPES = (
    PureShape("pure5a", (2, 2, 2, 2, 4), (3, 2, 2, 2, 2), (6, 10)),
    PureShape("pure5b", (2, 2, 2, 4, 4), (2, 2, 2, 2, 2), (8, 10)),
    PureShape("pure4", (2, 2, 2, 4), (3, 3, 2, 2), (8, 12)),
)

# Each d(y_i) gets this many lower terms, all with nonzero coefficients from
# COEFFS, so every seed fills the same positions.  Coefficients of mixed
# size and sign keep the ideals generic: with only +-1, some seeds make
# extra monomials exact and the query cost jumps.
LOWER_TERMS = 3
COEFFS = (-7, -5, -3, -2, 2, 3, 5, 7)


def exponent_vectors(degrees: tuple[int, ...], total: int) -> list[tuple[int, ...]]:
    """All exponent vectors e with sum(e_i * degrees_i) == total, in
    ascending lexicographic order."""
    if not degrees:
        return [()] if total == 0 else []
    return [
        (e,) + rest
        for e in range(total // degrees[0] + 1)
        for rest in exponent_vectors(degrees[1:], total - e * degrees[0])
    ]


class PureModel:
    """A square pure model with finite cohomology, and the arithmetic the
    benchmark needs to check answers about it.

    d(x_i) = 0 and d(y_i) = f_i = x_i^a_i + (terms in x_i..x_n whose x_i
    exponent is below a_i).  Under lex order the leading monomials x_i^a_i
    are pairwise coprime, so the f_i are a Groebner basis, the quotient
    Q[x]/(f) is finite and the f_i form a regular sequence.  The
    cohomology is then Q[x]/(f), with Poincare polynomial
    prod (1 - t^(a_i |x_i|)) / (1 - t^|x_i|)  (Felix-Halperin-Thomas,
    Rational Homotopy Theory, GTM 205, section 32).
    """

    def __init__(self, shape: PureShape, rng: random.Random):
        self.shape = shape
        n = len(shape.even)
        self.f: list[dict[tuple[int, ...], int]] = []
        for i in range(n):
            lead = tuple(shape.power[i] if j == i else 0 for j in range(n))
            poly = {lead: 1}
            tail = exponent_vectors(shape.even[i:], shape.power[i] * shape.even[i])
            lower = [(0,) * i + e for e in tail if e[0] < shape.power[i]]
            for e in lower[:LOWER_TERMS]:
                poly[e] = rng.choice(COEFFS)
            self.f.append(poly)

    @property
    def size(self) -> int:
        return len(self.shape.even)

    def x(self, i: int) -> str:
        return f"x{i + 1}"

    def y(self, i: int) -> str:
        return f"y{i + 1}"

    def word(self, exps: tuple[int, ...], odd: tuple[int, ...] = ()) -> str:
        parts = [self.x(i) if e == 1 else f"{self.x(i)}^{e}" for i, e in enumerate(exps) if e]
        parts += [self.y(i) for i in odd]
        return "*".join(parts) or "1"

    def text(self) -> str:
        """The model in the package's model-file syntax; evens declared first."""
        lines = [f"space {self.shape.name} {{"]
        lines += [f"    generator {self.x(i)} : {d};" for i, d in enumerate(self.shape.even)]
        lines += [f"    generator {self.y(i)} : {d};" for i, d in enumerate(self.shape.odd)]
        for i, poly in enumerate(self.f):
            terms = " + ".join(f"{c}*{self.word(e)}" for e, c in poly.items())
            lines.append(f"    d {self.y(i)} = {terms.replace('+ -', '- ')};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def poincare(self, top: int) -> list[int]:
        """Betti numbers b_0..b_top from the closed form, in integers."""
        series = [1] + [0] * top
        for d, a in zip(self.shape.even, self.shape.power):
            factor = [0] * (top + 1)
            for j in range(a):
                if j * d <= top:
                    factor[j * d] = 1
            series = [
                sum(series[i] * factor[k - i] for i in range(k + 1)) for k in range(top + 1)
            ]
        return series

    def even_monomials(self, k: int) -> list[tuple[int, ...]]:
        return exponent_vectors(self.shape.even, k)

    # -- the benchmark's own differential, for checking certificates ------

    def parse_word(self, word: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """"x1^2*x3*y2" -> (even exponents, sorted odd indices)."""
        exps = [0] * self.size
        odd = []
        if word != "1":
            for factor in word.split("*"):
                name, _, e = factor.partition("^")
                i = int(name[1:]) - 1
                if name[0] == "x":
                    exps[i] += int(e or 1)
                else:
                    odd.append(i)
        if odd != sorted(set(odd)):
            raise ValueError(f"word {word!r} is not in canonical order")
        return tuple(exps), tuple(odd)

    def d(self, exps: tuple[int, ...], odd: tuple[int, ...]) -> dict:
        """d(x^exps * y_odd[0] * y_odd[1] ...) by the Leibniz rule: d kills
        the x's and passes j odd factors before reaching y_odd[j]."""
        out: dict = {}
        for j, i in enumerate(odd):
            rest = odd[:j] + odd[j + 1:]
            sign = -1 if j % 2 else 1
            for e, c in self.f[i].items():
                key = (tuple(a + b for a, b in zip(exps, e)), rest)
                out[key] = out.get(key, 0) + sign * c
        return {m: c for m, c in out.items() if c}

    def basis(self, k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """All monomials of degree k: even exponents and a set of odd indices."""
        out = []
        for mask in range(1 << self.size):
            odd = tuple(i for i in range(self.size) if mask >> i & 1)
            rem = k - sum(self.shape.odd[i] for i in odd)
            if rem >= 0:
                out += [(e, odd) for e in self.even_monomials(rem)]
        return out


class CoboundaryChecker:
    """Checks is_coboundary answers on one pure model: a witness w must
    satisfy d(w) = x, and a functional must vanish on d of every monomial
    of degree k-1 while taking a nonzero value on x."""

    def __init__(self, model: PureModel):
        self.model = model
        self._images: dict[int, list[dict]] = {}

    def _image(self, k: int) -> list[dict]:
        if k not in self._images:
            self._images[k] = [self.model.d(*b) for b in self.model.basis(k - 1)]
        return self._images[k]

    def _vector(self, terms: list) -> dict:
        return {self.model.parse_word(w): Fraction(c) for w, c in terms}

    def __call__(self, k: int, query: tuple[int, ...], answer: dict) -> str | None:
        x = (query, ())
        if answer["exact"]:
            dw: dict = {}
            for (exps, odd), c in self._vector(answer["witness"]).items():
                for m, v in self.model.d(exps, odd).items():
                    dw[m] = dw.get(m, 0) + c * v
            dw = {m: c for m, c in dw.items() if c}
            return None if dw == {x: 1} else f"d(witness) != {self.model.word(query)}"
        phi = self._vector(answer["functional"])
        if not phi.get(x):
            return f"functional vanishes on {self.model.word(query)}"
        for image in self._image(k):
            if sum(c * phi.get(m, 0) for m, c in image.items()):
                return f"functional for {self.model.word(query)} is nonzero on a coboundary"
        return None


def cohomology_ops(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for shape in SHAPES:
        model = PureModel(shape, rng)
        path = workdir / f"{shape.name}.model"
        path.write_text(model.text())
        top = shape.formal_dim + 2
        betti = " ".join(map(str, model.poincare(top))) + "\n"
        ops.append(cli_op(
            f"{shape.name}-betti",
            ["model", "cohomology", str(path), "--max-degree", str(top)],
            exact_text(betti),
        ))
        queries = [
            (k, exps) for k in shape.query_degrees for exps in model.even_monomials(k)
        ]
        ops.append(Op(
            f"{shape.name}-coboundary",
            {
                "kind": "coboundary",
                "file": str(path),
                # each monomial as [[generator, exponent], ...]
                "queries": [
                    [[model.x(i), e] for i, e in enumerate(exps) if e] for _, exps in queries
                ],
            },
            _query_check(CoboundaryChecker(model), queries),
        ))
    return ops


def _query_check(checker: CoboundaryChecker, queries: list):
    def check(result: dict) -> str | None:
        answers = result.get("answers")
        if result["exit"] != 0 or answers is None:
            return f"exit {result['exit']}"
        if len(answers) != len(queries):
            return f"{len(answers)} answers to {len(queries)} queries"
        for (k, exps), answer in zip(queries, answers):
            problem = checker(k, exps, answer)
            if problem:
                return problem
        return None

    return check


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The workload's operations.  The seed draws the coefficients of the
    cohomology models, whose files go to workdir."""
    if workload == "elliptic":
        return elliptic_ops()
    if workload == "obstruction":
        return obstruction_ops()
    if workload == "cohomology":
        return cohomology_ops(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
