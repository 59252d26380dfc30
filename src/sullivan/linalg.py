"""Exact sparse linear algebra over Q.

Vectors are dicts {index: Fraction} with zero entries absent; matrices
hold sparse rows.  Every computation is exact, so ranks and solvability
verdicts carry no numerical caveats.  There is one elimination,
`extend_echelon`: a fraction-free echelon form in integer arithmetic
(Bareiss, 1968), which also grows an echelon form one batch of vectors
at a time for ranks that a search updates node by node.  A
`RationalMatrix` is ranked by it directly.  `rref` turns it into the
reduced row echelon form by back-substitution, for the nullspaces; and
`solve` reads the reduced form of the matrix with an identity appended,
[A | I], whose appended columns hold the row operations E with
E A = rref(A), so that a right-hand side costs one product with E.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

SparseVec = dict[int, Fraction]
IntVec = dict[int, int]


def vec_add_scaled(target: SparseVec, src: SparseVec, c: Fraction) -> None:
    """target += c * src, in place, dropping zeros."""
    if not c:
        return
    for j, v in src.items():
        new = target.get(j, Fraction(0)) + c * v
        if new:
            target[j] = new
        else:
            target.pop(j, None)


def vec_dot(a: SparseVec, b: SparseVec) -> Fraction:
    if len(b) < len(a):
        a, b = b, a
    return sum((v * b[j] for j, v in a.items() if j in b), Fraction(0))


class RationalMatrix:
    """Sparse rows over Q with exact elimination."""

    def __init__(self, rows: Iterable[SparseVec], ncols: int):
        self.rows = [dict(r) for r in rows]
        self.ncols = ncols
        self._rref: tuple[list[SparseVec], list[int]] | None = None
        self._rank: int | None = None
        # column i of E, the row operations of the reduced [A | I]: the
        # entries E[p][i] of each of its rows, keyed by the row's pivot p
        self._inverse: list[SparseVec] | None = None
        self._left_nullspace: list[SparseVec] | None = None

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def transpose(self) -> "RationalMatrix":
        cols: list[SparseVec] = [dict() for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return RationalMatrix(cols, self.nrows)

    # -- elimination -----------------------------------------------------

    def rref(self) -> tuple[list[SparseVec], list[int]]:
        """Reduced row echelon form: (rows, pivot column per row), computed
        once, for the nullspaces."""
        if self._rref is None:
            self._rref = rref(self.rows)
        return self._rref

    def rank(self) -> int:
        """Exact rank, computed once: the pivot count of the `rref` when the
        matrix already has one, else the length of a fraction-free
        `extend_echelon` of its rows, which leaves the rows as they are."""
        if self._rank is None:
            leads = self._rref[1] if self._rref else extend_echelon({}, self.rows, self.ncols)
            self._rank = len(leads)
        return self._rank

    def solve(self, rhs: SparseVec | Sequence) -> list[Fraction] | None:
        """One solution y of (self) y = rhs, free variables 0; None if none.

        The first call reduces [A | I] once; its rows are (R | E) with
        E A = R, R = rref(A) above its zero rows.  Then E rhs is the
        reduced form of rhs: its entry at a pivot p of A is y[p], and a
        nonzero entry at a row whose R part is zero (a pivot in I, so
        that row of E is in the left kernel of A) means the system is
        inconsistent.  E is kept by column, so a query costs as much as
        the nonzero entries of rhs.  An index of rhs outside
        range(nrows) raises ValueError.
        """
        if not isinstance(rhs, dict):
            rhs = dict(enumerate(rhs))
        bad = [i for i in rhs if not 0 <= i < self.nrows]
        if bad:
            raise ValueError(f"right-hand side index {bad[0]} outside range({self.nrows})")
        n = self.ncols
        if self._inverse is None:
            reduced, pivots = rref([{**row, n + i: 1} for i, row in enumerate(self.rows)])
            self._inverse = [{} for _ in self.rows]
            for row, p in zip(reduced, pivots):
                for j, e in row.items():
                    if j >= n:
                        self._inverse[j - n][p] = e
        reduced_rhs: SparseVec = {}
        for i, c in rhs.items():
            vec_add_scaled(reduced_rhs, self._inverse[i], Fraction(c))
        y = [Fraction(0)] * n
        for p, c in reduced_rhs.items():
            if p >= n:
                return None
            y[p] = c
        return y

    def nullspace_basis(self) -> list[SparseVec]:
        """Basis of {v : (self) v = 0}, one vector per free column."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for f in range(self.ncols):
            if f in pivot_set:
                continue
            v: SparseVec = {f: Fraction(1)}
            for row, p in zip(reduced, pivots):
                c = row.get(f)
                if c:
                    v[p] = -c
            basis.append(v)
        return basis

    def left_nullspace_basis(self) -> list[SparseVec]:
        """Basis of {w : w (self) = 0}, computed once per matrix."""
        if self._left_nullspace is None:
            self._left_nullspace = self.transpose().nullspace_basis()
        return self._left_nullspace


def rref(rows: Sequence[Mapping]) -> tuple[list[SparseVec], list[int]]:
    """Reduced row echelon form of sparse rows, which are left as they are.

    Returns the nonzero rows and their pivot columns, in ascending pivot
    order.  The rows are brought to echelon form by `extend_echelon`;
    then, in descending lead order, each echelon row is divided by its
    lead and has its entries at the larger pivots cleared against the
    rows already reduced.  The reduced form is unique, so it does not
    depend on the order of the rows.
    """
    reduced: dict[int, SparseVec] = {}
    for lead, row in sorted(extend_echelon({}, rows, len(rows)).items(), reverse=True):
        a = row[lead]
        reduced[lead] = reduce_against(reduced, {j: Fraction(v, a) for j, v in row.items()})
    pivots = sorted(reduced)
    return [reduced[p] for p in pivots], pivots


def extend_echelon(
    echelon: dict[int, IntVec], vectors: Iterable[Mapping], dim: int
) -> dict[int, IntVec]:
    """Echelon form of echelon's rows together with vectors, fraction-free.

    An echelon maps the lead (smallest index) of each row to the row, an
    integer vector with content 1; the leads are distinct, so the rank is
    its length.  Each new vector is scaled by the lcm of its denominators
    and divided by its gcd, then has its lead cleared against the row
    with that lead by integer cross-multiplication (again divided by the
    gcd) until its lead is new or nothing is left.  Returns a new dict and
    leaves echelon and its rows as they are.  dim is the dimension of the
    ambient space: once the rank reaches it, the remaining vectors are not
    looked at.
    """
    out = dict(echelon)
    for vec in vectors:
        if len(out) >= dim:
            break
        row = _primitive(vec)
        while row:
            lead = min(row)
            pivot = out.get(lead)
            if pivot is None:
                out[lead] = row
                break
            a, b = pivot[lead], row[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            cleared = {j: a * v for j, v in row.items()}
            for j, v in pivot.items():
                w = cleared.get(j, 0) - b * v
                if w:
                    cleared[j] = w
                else:
                    del cleared[j]
            row = _content_free(cleared)
    return out


def _primitive(vec: Mapping) -> IntVec:
    """vec's nonzero entries scaled to coprime integers."""
    den = lcm(*(c.denominator for c in vec.values()))
    return _content_free({j: c.numerator * (den // c.denominator) for j, c in vec.items() if c})


def _content_free(row: IntVec) -> IntVec:
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def reduce_against(reduced: Mapping[int, SparseVec], vec: SparseVec) -> SparseVec:
    """Residue of vec modulo the span of reduced rows keyed by pivot: each
    row is 1 at its pivot and 0 at every other pivot, so clearing one pivot
    of vec leaves its other pivot entries as they are, and only the pivots
    vec holds are cleared."""
    out = dict(vec)
    for p in [p for p in vec if p in reduced]:
        vec_add_scaled(out, reduced[p], -out[p])
    return out
