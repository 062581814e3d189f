"""Partitions, rank functions, and the dominance order on matrix classes.

A nilpotent matrix is determined up to conjugation by its Jordan block
sizes, a partition of n, or equivalently by the sequence m -> rk(A^m).
Such sequences are exactly the weakly decreasing convex integer sequences
with r(0) = n; everything downstream computes with that characterization.
A class with an invertible summand is carried as a pair (nilpotent
partition, stable rank q) and has rank function r_nilp(m) + q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "InvalidPartition",
    "InvalidRankFunction",
    "Partition",
    "RankFunction",
    "MatrixClass",
    "partition_to_rank",
    "rank_to_partition",
    "rank_to_class",
    "rank_defect",
    "dominates",
    "class_rank",
    "nontrivial_blocks",
    "partitions_of",
    "partition_count",
]


class InvalidPartition(ValueError):
    """Part list is not a collection of positive integers."""


class InvalidRankFunction(ValueError):
    """Sequence fails the rank-function characterization."""


@dataclass(frozen=True)
class Partition:
    """Jordan block sizes, stored weakly decreasing; empty only for n = 0."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        # checked before sorting, which would fail on mixed types; bool is refused
        if any(type(p) is not int or p < 1 for p in parts):
            raise InvalidPartition(f"parts must be positive integers: {parts!r}")
        object.__setattr__(self, "parts", tuple(sorted(parts, reverse=True)))

    @property
    def n(self) -> int:
        """Total size (number of boxes in the diagram)."""
        return sum(self.parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse comma-separated parts; the empty string is the empty partition."""
        text = text.strip()
        if not text:
            return cls(())
        try:
            parts = tuple(int(t) for t in text.split(","))
        except ValueError as exc:
            raise InvalidPartition(f"malformed partition string: {text!r}") from exc
        return cls(parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


def rank_defect(seq: Sequence[int]) -> str | None:
    """Why ``seq`` is not a rank function stored on 0..n, or None if it is one.

    The stored window must have n + 1 entries with r(0) = n, weakly
    decreasing and convex.  Beyond the window the function continues with
    its constant tail, which adds no further constraint.
    """
    values = tuple(seq)
    if not values:
        return "empty sequence"
    if any(type(v) is not int or v < 0 for v in values):
        return "entries must be non-negative integers"
    n = values[0]
    if len(values) != n + 1:
        return f"need n+1 = {n + 1} entries for r(0) = {n}, got {len(values)}"
    if any(values[m] < values[m + 1] for m in range(n)):
        return "not weakly decreasing"
    if any(values[m] + values[m + 2] < 2 * values[m + 1] for m in range(n - 1)):
        return "not convex"
    return None


@dataclass(frozen=True)
class RankFunction:
    """The sequence (rk(M^0), ..., rk(M^n)); constant at r(n) beyond the window."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        defect = rank_defect(values)
        if defect is not None:
            raise InvalidRankFunction(f"{defect}: {values!r}")
        # once two consecutive values agree the tail is flat (monotone + convex)
        plateau = next((m for m in range(len(values) - 1) if values[m] == values[m + 1]), None)
        assert plateau is None or len(set(values[plateau:])) == 1
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values[0]

    @property
    def stable_rank(self) -> int:
        """rk(M^n), the size of the invertible summand of the class."""
        return self.values[-1]

    def at(self, m: int) -> int:
        """r(m), extended by the constant tail for m > n."""
        if m < 0:
            raise ValueError(f"negative power: {m}")
        return self.values[m] if m < len(self.values) else self.values[-1]


@dataclass(frozen=True)
class MatrixClass:
    """Similarity class split as nilpotent part plus invertible part of size q.

    Only the size of the invertible part matters for rank functions, so the
    class keeps nothing else about it.
    """

    nilp: Partition
    q: int = 0

    def __post_init__(self) -> None:
        if type(self.q) is not int or self.q < 0:
            raise ValueError(f"stable rank must be a non-negative integer: {self.q!r}")

    @property
    def size(self) -> int:
        return self.nilp.n + self.q

    @property
    def is_nilpotent(self) -> bool:
        return self.q == 0

    @property
    def is_zero(self) -> bool:
        """The class of the zero matrix: no invertible part, all blocks trivial."""
        return self.q == 0 and not nontrivial_blocks(self.nilp)


def partition_to_rank(p: Partition) -> RankFunction:
    """Rank function of the nilpotent class with Jordan partition p.

    A block of size k contributes max(k - m, 0) to the rank of the m-th power,
    so r(m) = r(m + 1) + #{parts > m}: running counts from the top give the
    whole window in O(n + parts).
    """
    n = p.n
    sizes = [0] * (n + 2)
    for k in p.parts:
        sizes[k] += 1
    values = [0] * (n + 1)
    above = 0  # parts larger than m
    for m in range(n - 1, -1, -1):
        above += sizes[m + 1]
        values[m] = values[m + 1] + above
    return RankFunction(tuple(values))


def class_rank(c: MatrixClass) -> RankFunction:
    """Rank function of a mixed class: nilpotent ranks shifted by the constant
    contribution q of the invertible part."""
    n = c.size
    nilp = partition_to_rank(c.nilp)
    return RankFunction(tuple(nilp.at(m) + c.q for m in range(n + 1)))


def rank_to_class(r: RankFunction) -> MatrixClass:
    """Invert a rank function: second differences give block multiplicities,
    the tail gives the size of the invertible part."""
    n, q = r.n, r.stable_rank
    parts = []
    for s in range(n, 0, -1):
        mult = r.at(s - 1) - 2 * r.at(s) + r.at(s + 1)
        parts.extend([s] * mult)
    out = MatrixClass(Partition(tuple(parts)), q)
    assert class_rank(out) == r, (out, r)  # exact round trip by construction
    return out


def rank_to_partition(r: RankFunction) -> Partition:
    """Jordan partition of a nilpotent rank function (zero stable rank)."""
    if r.stable_rank != 0:
        raise InvalidRankFunction(
            f"stable rank {r.stable_rank} != 0: not a nilpotent class: {r.values!r}")
    return rank_to_class(r).nilp


def dominates(a: RankFunction, b: RankFunction) -> bool:
    """a <= b entrywise: every power of a has rank at most that of b."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    return all(x <= y for x, y in zip(a.values, b.values))


def nontrivial_blocks(p: Partition) -> tuple[int, ...]:
    """Multiset of block sizes >= 2, weakly decreasing.  Empty for the zero class."""
    return tuple(k for k in p.parts if k >= 2)


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, largest part first, in descending lexicographic
    order."""
    if n < 0:
        raise ValueError(f"cannot partition a negative number: {n}")
    for parts in _partition_tuples(n, n):
        yield Partition(parts)


def _partition_tuples(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(max_part, n), 0, -1):
        for rest in _partition_tuples(n - first, first):
            yield (first,) + rest


_PARTITION_COUNTS = [1]  # p(0), p(1), ...: grown bottom-up and kept


def partition_count(n: int) -> int:
    """p(n) via Euler's pentagonal-number recurrence.

    The table is filled bottom-up, so no call recurses, however large n.
    """
    if n < 0:
        return 0
    p = _PARTITION_COUNTS
    for m in range(len(p), n + 1):
        total, j = 0, 1
        while j * (3 * j - 1) // 2 <= m:
            sign = -1 if j % 2 == 0 else 1
            total += sign * p[m - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= m:
                total += sign * p[m - j * (3 * j + 1) // 2]
            j += 1
        p.append(total)
    return p[n]
