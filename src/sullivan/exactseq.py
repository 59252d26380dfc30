"""Rank bookkeeping in long exact sequences of rational vector spaces.

For an exact sequence of finite-dimensional spaces with zero ends,
exactness at a slot B between arrows f: A -> B and g: B -> C says
dim B = rank f + rank g.  Walking the sequence left to right therefore
determines every rank from the dimensions, and an unknown dimension
becomes a bounded branch as long as its successor is known.  Two
specializations matter here: the long exact homotopy sequence of a
fibration (unknown fiber slots between known total and base slots) and
the Wang-type cohomology sequence of a fibration over a sphere, where
each fiber degree appears twice and the solver carries the connecting
rank as state instead.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .algebra import _Value
from .cohomology import BettiTable
from .ellipticity import RankVector, canonical_sorted


class UnboundedProblemError(ValueError):
    """Raised when consecutive unknown slots leave a dimension unbounded."""


class Slot(_Value):
    __slots__ = ("label", "dimension")

    def __init__(self, label: str, dimension: int | None):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "dimension", dimension)  # None marks an unknown

    @property
    def known(self) -> bool:
        return self.dimension is not None


class ExactSequenceProblem(_Value):
    """Slots of an exact sequence, ends pinned to zero."""

    __slots__ = ("slots",)

    def __init__(self, slots: tuple[Slot, ...]):
        object.__setattr__(self, "slots", slots)
        if len(self.slots) < 3:
            raise ValueError("an exact-sequence problem needs at least 3 slots")
        for end in (self.slots[0], self.slots[-1]):
            if end.dimension != 0:
                raise ValueError(f"end slot {end.label!r} must be known zero")
        for s in self.slots:
            if s.dimension is not None and s.dimension < 0:
                raise ValueError(f"negative dimension at {s.label!r}")

    @classmethod
    def of(cls, entries: Sequence[tuple[str, int | None]]) -> "ExactSequenceProblem":
        return cls(tuple(Slot(label, dim) for label, dim in entries))


class RankSolution(_Value):
    """All slot dimensions plus the rank of every arrow between them."""

    __slots__ = ("dimensions", "map_ranks")

    def __init__(self, dimensions: tuple[int, ...], map_ranks: tuple[int, ...]):
        object.__setattr__(self, "dimensions", dimensions)
        object.__setattr__(self, "map_ranks", map_ranks)


def solve_exact_ranks(p: ExactSequenceProblem) -> list[RankSolution]:
    """Every integer solution of the exactness system, canonically ordered.

    Unknown slots branch over the rank of their outgoing arrow, which the
    next known dimension bounds; a second unknown in a row admits
    arbitrarily large dimensions and raises UnboundedProblemError.
    """
    slots = p.slots
    n = len(slots)
    for i in range(1, n - 1):
        if not slots[i].known and not slots[i + 1].known:
            raise UnboundedProblemError(
                f"slots {slots[i].label!r} and {slots[i + 1].label!r} are both unknown"
            )
    solutions: list[RankSolution] = []
    # depth-first with an explicit stack, so a sequence of any length walks
    # without recursion; an entry (i, dim, out) gives slot i its dimension
    # and the rank of its outgoing arrow.  A pop writes them into dims and
    # ranks at i; the slots before i still hold the entry's ancestors,
    # since every entry popped between its push and its pop is for slot i
    # or a later one
    dims = [0] * n
    ranks = [0] * (n - 1)
    stack = [(0, 0, 0)]
    while stack:
        i, dim, carried = stack.pop()
        dims[i], ranks[i] = dim, carried
        if i == n - 2:
            if carried == 0:
                solutions.append(RankSolution(tuple(dims), tuple(ranks)))
            continue
        slot = slots[i + 1]
        if slot.known:
            out = slot.dimension - carried
            if out >= 0:
                stack.append((i + 1, slot.dimension, out))
        else:
            nxt = slots[i + 2].dimension  # known by the pre-scan
            stack.extend((i + 1, carried + out, out) for out in range(nxt, -1, -1))
    solutions.sort(key=lambda s: s.dimensions)
    return solutions


# -- homotopy sequence of a fibration ------------------------------------


def homotopy_sequence_problem(total: RankVector, base: RankVector) -> ExactSequenceProblem:
    """Slots ... -> pi_k(F) -> pi_k(E) -> pi_k(B) -> pi_{k-1}(F) -> ...
    from the degree cap down to 1; fiber slots unknown."""
    cap = total.max_degree + base.max_degree + 1
    entries: list[tuple[str, int | None]] = [("0", 0)]
    for k in range(cap, 0, -1):
        entries.append((f"pi{k}(F)", None))
        entries.append((f"pi{k}(E)", total.get(k)))
        entries.append((f"pi{k}(B)", base.get(k)))
    entries.append(("0", 0))
    return ExactSequenceProblem.of(entries)


def fiber_rank_vectors(total: RankVector, base: RankVector) -> list[RankVector]:
    """All fiber rank vectors consistent with the homotopy sequence.

    pi_0 of the fiber is trivial by convention; a rank in degree 1 is
    allowed.  An empty list means no fibration is possible at this level.
    """
    if base.get(1):
        raise ValueError("base must be simply connected")
    problem = homotopy_sequence_problem(total, base)
    cap = total.max_degree + base.max_degree + 1
    out = set()
    for sol in solve_exact_ranks(problem):
        ranks: dict[int, int] = {}
        # slot layout: [0, (F E B) for k = cap..1, 0]
        for idx, k in enumerate(range(cap, 0, -1)):
            dim = sol.dimensions[1 + 3 * idx]
            if dim:
                ranks[k] = dim
        out.add(RankVector.of(ranks))
    return canonical_sorted(out)


# -- Wang sequence over a sphere base ------------------------------------


def wang_fiber_betti(
    sphere_dim: int,
    total_betti: BettiTable,
    fiber_dim: int,
    known_fiber: Mapping[int, int] | None = None,
) -> list[BettiTable]:
    """Fiber Betti tables consistent with the sequence
    ... -> H^k(E) -> H^k(F) -> H^(k-n+1)(F) -> H^(k+1)(E) -> ...
    for a fibration over an n-sphere.

    Endpoints are pinned to b_0 = b_fiber_dim = 1 with nothing above
    fiber_dim; known_fiber adds further pins, each in a degree 0..fiber_dim
    (ValueError otherwise).  Results are canonically ordered.
    """
    if sphere_dim < 2:
        raise ValueError("sphere dimension must be at least 2")
    if fiber_dim < 0:
        raise ValueError("fiber dimension must be nonnegative")
    pins: dict[int, int] = {0: 1, fiber_dim: 1}
    for k, v in (known_fiber or {}).items():
        if not 0 <= k <= fiber_dim:
            raise ValueError(f"known fiber Betti number in degree {k} outside 0..{fiber_dim}")
        if k in pins and pins[k] != v:
            return []
        pins[k] = v
    if fiber_dim + sphere_dim >= len(total_betti):  # b_(fiber_dim+n)(E) must be b_fiber_dim(F) = 1
        return []
    top = fiber_dim + sphere_dim + 1
    solutions: list[tuple[int, ...]] = []

    def pinned(k: int) -> int | None:
        if k > fiber_dim:
            return 0
        return pins.get(k)

    # depth-first over degrees with an explicit stack, so a fiber of any
    # dimension walks without recursion; an entry is (k, beta, b_0..b_(k-1))
    stack: list[tuple[int, int, tuple[int, ...]]] = [(0, 0, ())]
    while stack:
        k, beta, bs = stack.pop()
        if k > top:
            if beta == 0:
                solutions.append(bs[: fiber_dim + 1])
            continue
        alpha = total_betti[k] - beta
        if alpha < 0:
            continue
        j = k - sphere_dim + 1
        bj = bs[j] if j >= 0 else 0
        want = pinned(k)
        if want is not None:
            delta = want - alpha
            if 0 <= delta <= bj:
                stack.append((k + 1, bj - delta, bs + (want,)))
            continue
        for delta in range(0, bj + 1):
            stack.append((k + 1, bj - delta, bs + (alpha + delta,)))

    tables = sorted(set(solutions))
    return [BettiTable(t) for t in tables]
