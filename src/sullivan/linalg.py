"""Exact sparse linear algebra over Q.

Vectors are dicts {index: Fraction} with zero entries absent; matrices
hold sparse rows.  `rref` files its pending rows by lead column, so
each step finds the leftmost pivot column without rescanning every
row, and among the rows leading there it takes the one with fewest
nonzeros to limit fill-in.  Every computation is exact, so ranks and
solvability verdicts carry no numerical caveats.  A `RationalMatrix` is
ranked by `extend_echelon`, a fraction-free echelon form in integer
arithmetic that keeps no reduced rows and no row operations; the same
routine grows an echelon form one batch of vectors at a time for ranks
that a search updates node by node.  `rref` is for `solve` and the
nullspaces: it eliminates a matrix once, records its row operations as
it goes, and `nullspace_basis` and `solve` both read that one
elimination, `solve` by replaying the operations on the right-hand side
alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

SparseVec = dict[int, Fraction]
IntVec = dict[int, int]
# one elimination step: (pivot row, pivot column, scale of the pivot row,
# target rows, their multipliers), rows as indices into rref's input
Step = tuple[int, int, Fraction, list[int], list[Fraction]]


def vec_from_dense(xs: Sequence) -> SparseVec:
    return {i: Fraction(x) for i, x in enumerate(xs) if Fraction(x)}

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
        self._steps: list[Step] = []
        self._left_nullspace: list[SparseVec] | None = None

    @classmethod
    def from_dense(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        ncols = max((len(r) for r in rows), default=0)
        return cls([vec_from_dense(r) for r in rows], ncols)

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
        """Reduced row echelon form: (rows, pivot column per row).  The one
        rational elimination of this matrix, for `solve` and the
        nullspaces; its row operations are kept for `solve`."""
        if self._rref is None:
            self._rref = rref([dict(r) for r in self.rows], self._steps)
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

        The row operations of the elimination carry rhs to its reduced
        form: its entry in a pivot row is y at that row's pivot column,
        and a nonzero entry left in any other row (one the elimination
        emptied) means the system is inconsistent.  An index of rhs
        outside range(nrows) raises ValueError.
        """
        if not isinstance(rhs, dict):
            rhs = dict(enumerate(rhs))
        bad = [i for i in rhs if not 0 <= i < self.nrows]
        if bad:
            raise ValueError(f"right-hand side index {bad[0]} outside range({self.nrows})")
        self.rref()
        b = {i: Fraction(c) for i, c in rhs.items() if c}
        replay(self._steps, b)
        y = [Fraction(0)] * self.ncols
        for row, col, *_ in self._steps:
            c = b.pop(row, None)
            if c is not None:
                y[col] = c
        return None if b else y

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


def rref(rows: list[SparseVec], log: list[Step] | None = None) -> tuple[list[SparseVec], list[int]]:
    """In-place reduced row echelon form of sparse rows.

    Returns the nonzero rows and their pivot columns, in ascending pivot
    order.  Pending rows are filed in buckets by lead column (their
    smallest index), with a heap of the leads in use.  Each step pops the
    smallest lead and takes the sparsest row of its bucket as pivot row.
    No pending row leads further left, so only the other rows of that
    bucket have an entry in the pivot column: they are reduced and filed
    again under their new leads, or dropped once zero.  The rows placed
    by earlier steps are cleared in the pivot column as well.  The
    reduced form is unique, so which of several equally sparse rows
    becomes the pivot row changes only the logged steps, not the result.

    When log is given, every step is appended to it: the pivot row was
    multiplied by the scale, then each target row had multiplier times
    the pivot row subtracted.  `replay` applies the same steps to a
    right-hand side.
    """
    index = {id(r): i for i, r in enumerate(rows)} if log is not None else None
    buckets: dict[int, list[SparseVec]] = {}
    for r in rows:
        if r:
            buckets.setdefault(min(r), []).append(r)
    leads = list(buckets)
    heapify(leads)
    placed: list[SparseVec] = []
    pivots: list[int] = []
    while leads:
        lead = heappop(leads)
        bucket = buckets.pop(lead)
        pivot_row = min(bucket, key=len)
        inv = Fraction(1) / pivot_row[lead]
        if inv != 1:
            for j in list(pivot_row):
                pivot_row[j] *= inv
        targets: list[int] = []
        multipliers: list[Fraction] = []
        others = [r for r in bucket if r is not pivot_row]
        for r in placed + others:
            c = r.get(lead)
            if c:
                vec_add_scaled(r, pivot_row, -c)
                if index is not None:
                    targets.append(index[id(r)])
                    multipliers.append(c)
        for r in others:
            if r:
                new = min(r)
                if new in buckets:
                    buckets[new].append(r)
                else:
                    buckets[new] = [r]
                    heappush(leads, new)
        if index is not None:
            log.append((index[id(pivot_row)], lead, inv, targets, multipliers))
        placed.append(pivot_row)
        pivots.append(lead)
    return placed, pivots


def replay(steps: list[Step], b: SparseVec) -> None:
    """Apply an elimination's row operations to b, in place: b is a
    right-hand side indexed by the rows the steps were recorded on."""
    for row, _, scale, targets, multipliers in steps:
        v = b.get(row)
        if not v:
            continue
        if scale != 1:
            v = b[row] = v * scale
        for t, c in zip(targets, multipliers):
            new = b.get(t, 0) - c * v
            if new:
                b[t] = new
            else:
                b.pop(t, None)


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


def reduce_against(rref_rows: list[SparseVec], pivots: list[int], vec: SparseVec) -> SparseVec:
    """Residue of vec modulo the row space of an rref (pivots normalized)."""
    out = dict(vec)
    for row, p in zip(rref_rows, pivots):
        c = out.get(p)
        if c:
            vec_add_scaled(out, row, -c)
    return out
