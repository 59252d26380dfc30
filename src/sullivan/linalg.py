"""Exact sparse linear algebra over Q.

Vectors are dicts {index: int | Fraction}, zeros absent; matrices
hold sparse rows.  Every computation is exact, so ranks and solvability
verdicts carry no numerical caveats.  Inside an elimination a row is an
integer vector with content 1, changed only by `_clear`, which cancels
one entry by integer cross-multiplication (Bareiss, 1968): in the
echelon form of `extend_echelon`, which a search may grow batch by
batch, in `rref`'s back-substitution, and in `reduce_into`, which grows
a reduced span.  `row_basis` is the one rank routine: on sparse columns,
it takes structural pivots from the zero pattern, then runs
`extend_echelon` on the core they leave, and names the rows of a basis
of the row space, as many as the rank; `RationalMatrix.rank` is it on
the matrix's own columns.  One reduction of [A | I] gives `solve` the row
operations E with E A = rref(A), and the left nullspace as its rows that
vanish on A; a right-hand side that `solve` rejects is separated by the
one of those rows with the smallest pivot at which E rhs is not 0.  A
row is divided by its pivot entry only in an answer: a solution, a
nullspace basis or a separating functional.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

SparseVec = dict[int, int | Fraction]
IntVec = dict[int, int]


class RationalMatrix:
    """Sparse rows of exact rationals, int or Fraction, with exact elimination."""

    def __init__(self, rows: Iterable[SparseVec], ncols: int):
        self.rows = [dict(r) for r in rows]
        self.ncols = ncols
        self._rank: int | None = None
        # from the reduced [A | I]: column i of E as {p: E[p][i]}, keyed by
        # the pivot p of each row, each row's pivot entry, and the left
        # kernel's rows keyed by pivot
        self._augmented: tuple[list[IntVec], IntVec, dict[int, SparseVec]] | None = None

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

    def rank(self) -> int:
        """Exact rank, computed once by `row_basis` on the columns, leaving
        the rows as they are."""
        if self._rank is None:
            columns: list[dict] = [{} for _ in range(self.ncols)]
            for i, row in enumerate(self.rows):
                for j, v in row.items():
                    if v:
                        columns[j][i] = v
            self._rank = len(row_basis(columns))
        return self._rank

    def solve(self, rhs: SparseVec) -> list[Fraction] | None:
        """One solution y of (self) y = rhs, free variables 0; None if none.

        The rows of the reduced [A | I] are (R | E) with E A = R, R =
        rref(A) above its zero rows, so E rhs is the reduced form of rhs:
        its entry at a pivot p of A over row p's pivot entry is y[p], and
        one at a pivot in I (a left-kernel row of E) means the system is
        inconsistent.  E is kept by column, so a query costs as much as
        the nonzero entries of rhs.  An index of rhs outside range(nrows)
        raises ValueError.
        """
        sums = self._apply_inverse(rhs)
        leads = self._reduce_augmented()[1]
        n = self.ncols
        y = [Fraction(0)] * n
        for p, s in sums.items():
            if s:
                if p >= n:
                    return None
                y[p] = Fraction(s, leads[p])
        return y

    def separating_functional(self, rhs: SparseVec) -> SparseVec | None:
        """A w with w (self) = 0 and w rhs != 0, or None when (self) y =
        rhs is solvable: of the rows of the reduced [A | I] that vanish on
        A, a basis of the left nullspace, the one with the smallest pivot
        at which E rhs, as `solve` reads it, is not 0."""
        kernel_at = self._reduce_augmented()[2]
        hits = [p for p, s in self._apply_inverse(rhs).items() if s and p in kernel_at]
        return kernel_at[min(hits)] if hits else None

    def _apply_inverse(self, rhs: SparseVec) -> dict[int, int | Fraction]:
        """E rhs, keyed by the pivots of the reduced [A | I]."""
        bad = [i for i in rhs if not 0 <= i < self.nrows]
        if bad:
            raise ValueError(f"right-hand side index {bad[0]} outside range({self.nrows})")
        inverse = self._reduce_augmented()[0]
        sums: dict[int, int | Fraction] = {}
        for i, c in rhs.items():
            for p, e in inverse[i].items():
                sums[p] = sums.get(p, 0) + c * e
        return sums

    def _reduce_augmented(self) -> tuple[list[IntVec], IntVec, dict[int, SparseVec]]:
        """Reduce [A | I] once: the integer columns of E, the entry of each
        row at its pivot, and, as a left-kernel basis, the rows (0 | e)
        whose pivot lies in I, so that e A = 0, divided by that entry and
        keyed by pivot."""
        if self._augmented is None:
            n = self.ncols
            reduced = rref([{**row, n + i: 1} for i, row in enumerate(self.rows)])
            inverse: list[IntVec] = [{} for _ in self.rows]
            for p, row in reduced.items():
                for j, e in row.items():
                    if j >= n:
                        inverse[j - n][p] = e
            leads = {p: row[p] for p, row in reduced.items()}
            kernel_at = {
                p: {j - n: Fraction(e, row[p]) for j, e in row.items()}
                for p, row in reduced.items() if p >= n
            }
            self._augmented = inverse, leads, kernel_at
        return self._augmented

    def nullspace_basis(self) -> list[SparseVec]:
        """Basis of {v : (self) v = 0}, one vector per free column."""
        reduced = rref(self.rows)
        return [
            {f: Fraction(1), **{p: Fraction(-row[f], row[p]) for p, row in reduced.items() if f in row}}
            for f in range(self.ncols) if f not in reduced
        ]


def row_basis(columns: Sequence[Mapping]) -> set[int]:
    """Row indices of a basis of the row space of the matrix whose
    columns are the given sparse columns {row: nonzero entry}; the rank
    is its size.

    Structural pivots first, from the zero pattern alone (structured
    Gaussian elimination, LaMacchia and Odlyzko, 1990): a column with one
    nonzero makes its row independent of the others, so the row goes; a
    row with one nonzero, at column j, clears column j from the others,
    so column j goes.  Either way the row joins the basis.  The rows of
    the core left, sparsest first so that leads fall on sparse rows, are
    the coordinates of the core's columns, which `extend_echelon` takes
    sparsest first; the rows its leads fall on complete the basis.
    """
    if not any(columns):
        return set()
    cols = [set(column) for column in columns]
    rows: dict[int, set[int]] = {}
    for j, column in enumerate(cols):
        for i in column:
            rows.setdefault(i, set()).add(j)
    # a line a (row or column) with one nonzero, in line b of the other
    # side, removes line b, and the row of the two joins the basis
    sides = (rows, cols), (cols, rows)
    todo = [(0, i) for i, row in rows.items() if len(row) == 1]
    todo += [(1, j) for j, column in enumerate(cols) if len(column) == 1]
    basis = set()
    while todo:
        s, a = todo.pop()
        lines, cross = sides[s]
        if len(lines[a]) == 1:
            (b,) = lines[a]
            basis.add(b if s else a)
            for c in cross[b]:
                lines[c].discard(b)
                if len(lines[c]) == 1:
                    todo.append((s, c))
            cross[b] = set()
    core = sorted((i for i, row in rows.items() if row), key=lambda i: len(rows[i]))
    vectors: dict[int, SparseVec] = {}
    for p, i in enumerate(core):
        for j in rows[i]:
            vectors.setdefault(j, {})[p] = columns[j][i]
    leads = extend_echelon({}, sorted(vectors.values(), key=len), len(core))
    basis.update(core[p] for p in leads)
    return basis


def rref(rows: Sequence[Mapping]) -> dict[int, IntVec]:
    """Reduced row echelon form of sparse rows, which are left as they are.

    Returns {pivot: row} in ascending pivot order, each row an integer
    vector with content 1 that leads at its pivot and is 0 at the other
    pivots; divided by its pivot entry it is a row of the reduced form
    over Q, which is unique.  `extend_echelon` makes an echelon form,
    whose rows are taken in descending lead order: each is cleared at the
    pivots of the rows taken before it, which are 0 at its lead, and is
    filed under its lead, which none of them holds.
    """
    reduced: dict[int, IntVec] = {}
    for lead, row in sorted(extend_echelon({}, rows, len(rows)).items(), reverse=True):
        for p in [p for p in row if p in reduced]:
            row = _clear(row, reduced[p], p)
        reduced[lead] = row
    return dict(reversed(reduced.items()))


def reduce_into(reduced: dict[int, IntVec], vec: Mapping) -> IntVec:
    """Add vec to the span of reduced, rows keyed by pivot as `rref`
    returns them, in place, and return vec's residue: vec scaled to
    coprime integers and cleared at the pivots it holds, so 0 at every
    pivot.  A nonzero residue is cleared from the other rows at its lead
    and filed under its lead, so the rows stay reduced."""
    row = _primitive(vec)
    for p in [p for p in row if p in reduced]:
        row = _clear(row, reduced[p], p)
    if row:
        lead = min(row)
        for p, other in reduced.items():
            if lead in other:
                reduced[p] = _clear(other, row, lead)
        reduced[lead] = row
    return row


def extend_echelon(
    echelon: dict[int, IntVec], vectors: Iterable[Mapping], dim: int
) -> dict[int, IntVec]:
    """Echelon form of echelon's rows together with vectors, fraction-free.

    An echelon maps the lead (smallest index) of each row to the row, an
    integer vector with content 1; the leads are distinct, so the rank is
    its length.  Each new vector is scaled to coprime integers, then has
    its lead cleared against the row with that lead until its lead is new
    or nothing is left.  Returns a new dict and leaves echelon and its
    rows as they are.  dim is the dimension of the ambient space: once the
    rank reaches it, the remaining vectors are not looked at.
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
            row = _clear(row, pivot, lead)
    return out


def _clear(row: IntVec, pivot: IntVec, col: int) -> IntVec:
    """a row - b pivot, for the coprime a and b that cancel the entries at
    col, divided by its content: the one row operation of this module."""
    a, b = pivot[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    cleared = {j: a * v for j, v in row.items()}
    for j, v in pivot.items():
        w = cleared.get(j, 0) - b * v
        if w:
            cleared[j] = w
        else:
            del cleared[j]
    return _content_free(cleared)


def _primitive(vec: Mapping) -> IntVec:
    """vec's nonzero entries scaled to coprime integers."""
    den = lcm(*(c.denominator for c in vec.values()))
    return _content_free({j: c.numerator * (den // c.denominator) for j, c in vec.items() if c})


def _content_free(row: IntVec) -> IntVec:
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row
