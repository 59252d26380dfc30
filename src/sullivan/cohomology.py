"""Cohomology of a model, degree by degree, with exact certificates.

The coboundary operator in each degree becomes a sparse rational matrix
over the monomial bases; Betti numbers come from ranks, and coboundary
questions come with a checkable answer either way: a primitive when the
class bounds, a linear functional vanishing on the image but not on the
candidate when it does not.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import Element, Monomial, SullivanModel, _Record, _Value
from .linalg import RationalMatrix, SparseVec, vec_dot


def element_to_vector(x: Element, k: int) -> SparseVec:
    """Coordinates of a degree-k element in the canonical monomial basis."""
    index = x.model._tables.positions(k)
    out: SparseVec = {}
    for vec, c in x._terms.items():
        i = index.get(vec)
        if i is None:
            raise ValueError(f"term {Element(x.model, {vec: 1})} is not of degree {k}")
        out[i] = c
    return out


def vector_to_element(model: SullivanModel, vec: SparseVec, k: int) -> Element:
    basis = model._tables.vectors(k)
    return Element(model, {basis[i][0]: c for i, c in vec.items()})


@lru_cache(maxsize=None)
def coboundary_matrix(model: SullivanModel, k: int) -> RationalMatrix:
    """Matrix of d from degree k to degree k+1, columns over the k-basis.

    Each column sums the terms of d on one basis vector, expanded from
    the model's compiled differential and filed by exponent vector, so no
    Element is built; an entry is an int where integral, else a Fraction.
    """
    tables = model._tables
    index = tables.positions(k + 1)
    rows: list[dict] = [{} for _ in index]
    columns = tables.vectors(k)
    for j, (vec, mask) in enumerate(columns):
        for tvec, c in tables.d_vector(vec, mask):
            i = index.get(tvec)
            if i is None:
                raise ValueError(f"term {Element(model, {tvec: 1})} is not of degree {k + 1}")
            row = rows[i]
            row[j] = row.get(j, 0) + c
    return RationalMatrix(
        [{j: c.numerator if c.denominator == 1 else c for j, c in row.items() if c} for row in rows],
        len(columns),
    )


@lru_cache(maxsize=None)
def betti(model: SullivanModel, k: int) -> int:
    if k < 0:
        return 0
    dim_k = model.dimension_of_degree(k)
    if dim_k == 0:
        return 0
    rank_out = coboundary_matrix(model, k).rank()
    rank_in = coboundary_matrix(model, k - 1).rank() if k > 0 else 0
    return dim_k - rank_out - rank_in


class BettiTable(_Value):
    """Betti numbers b_0..b_top as a tuple."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]):
        object.__setattr__(self, "values", values)

    def __getitem__(self, k: int) -> int:
        return self.values[k] if 0 <= k < len(self.values) else 0

    def __len__(self) -> int:
        return len(self.values)


def betti_table(model: SullivanModel, top: int) -> BettiTable:
    return BettiTable(tuple(betti(model, k) for k in range(top + 1)))


class CoboundaryVerdict(_Record):
    """Answer to "is this cocycle exact", with a certificate either way.

    Exact: `witness` satisfies d(witness) = candidate.  Not exact:
    `functional` is a linear form on the candidate's degree, zero on every
    coboundary, nonzero on the candidate (stored over basis monomials).
    """

    __slots__ = ("is_coboundary", "witness", "functional")

    def __init__(
        self,
        is_coboundary: bool,
        witness: Element | None = None,
        functional: dict[Monomial, Fraction] | None = None,
    ):
        self.is_coboundary = is_coboundary
        self.witness = witness
        self.functional = functional


def is_coboundary(x: Element) -> CoboundaryVerdict:
    """Decide whether the cocycle x is d of something, with certificate."""
    model = x.model
    if x.is_zero():
        return CoboundaryVerdict(True, witness=model.zero())
    dx = model.d(x)
    if not dx.is_zero():
        raise ValueError("not a cocycle: d of the candidate is nonzero")
    k = x.degree()
    if k == 0:
        return CoboundaryVerdict(False, functional={Monomial(): Fraction(1)})
    mat = coboundary_matrix(model, k - 1)
    target = element_to_vector(x, k)
    y = mat.solve(target)
    if y is not None:
        witness = vector_to_element(
            model, {i: c for i, c in enumerate(y) if c}, k - 1
        )
        return CoboundaryVerdict(True, witness=witness)
    basis = model.basis_of_degree(k)
    for phi in mat.left_nullspace_basis():
        if vec_dot(phi, target):
            functional = {basis[i]: c for i, c in phi.items()}
            return CoboundaryVerdict(False, functional=functional)
    raise AssertionError("unsolvable system with no separating functional")
