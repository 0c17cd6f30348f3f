"""Integer partitions and their scalar statistics.

A partition is stored once, canonically, as a non-increasing tuple of
positive integers.  Every statistic here is a pure function of that tuple.
The public constructor sorts and validates its parts; only the partition
walk stores its own output unchecked, because it builds each part array
sorted and positive.  The walk keeps the parts in one preallocated array
in which every entry past the last part greater than 1 is a 1, so it never
writes, counts or deletes trailing 1s (Zoghbi and Stojmenovic's ZS1 step,
which keeps the reverse-lexicographic order).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence


class Partition:
    """A partition of a nonnegative integer.

    Accepts parts in any order and stores them non-increasing; the empty
    partition represents zero.  Instances are immutable by convention and
    hashable.
    """

    __slots__ = ("parts",)

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()) -> None:
        ordered = tuple(sorted(parts, reverse=True))
        for part in ordered:
            if type(part) is not int or part < 1:  # bool is an int subclass
                raise ValueError(f"parts must be positive integers, got {part!r}")
        self.parts = ordered

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        """Store ``parts`` unchecked: a non-increasing tuple of positive ints,
        built so by the caller.  Only ``_walk`` calls this."""
        p = object.__new__(cls)
        p.parts = parts
        return p

    @property
    def size(self) -> int:
        """Sum of the parts."""
        return sum(self.parts)

    @property
    def length(self) -> int:
        """Number of parts."""
        return len(self.parts)

    def multiplicity(self, j: int) -> int:
        """Number of parts equal to ``j``."""
        if j < 1:
            raise ValueError("part values are positive")
        return self.parts.count(j)

    def is_strict(self) -> bool:
        """True when no part repeats."""
        return all(a > b for a, b in zip(self.parts, self.parts[1:]))

    def is_odd_parts(self) -> bool:
        """True when every part is odd."""
        return all(part % 2 for part in self.parts)

    def conjugate(self) -> "Partition":
        """Transpose of the Ferrers diagram."""
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for part in self.parts:
            for j in range(part):
                cols[j] += 1
        return Partition(cols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, index):
        return self.parts[index]

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __str__(self) -> str:
        return "+".join(str(part) for part in self.parts) if self.parts else "0"

    def __repr__(self) -> str:
        return f"Partition({str(self)!r})"


def parse(text: str) -> Partition:
    """Parse a ``7+6+6+5+1+1`` literal; "" or "0" is the empty partition.

    Parts must be listed non-increasing; superscript shorthand is rejected.
    """
    body = text.strip()
    if body in ("", "0"):
        return Partition()
    parts = []
    for token in body.split("+"):
        token = token.strip()
        if not (token.isascii() and token.isdigit()) or int(token) < 1:
            raise ValueError(f"bad part {token!r} in partition literal {text!r}")
        parts.append(int(token))
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError(f"partition literal must be non-increasing: {text!r}")
    return Partition(parts)


def union(p: Partition, r: Partition) -> Partition:
    """Multiset union of the parts of two partitions."""
    return Partition(p.parts + r.parts)


def runs(p: Partition) -> tuple[tuple[int, ...], ...]:
    """Maximal blocks of consecutive integers among the parts, largest first.

    Defined on strict partitions only; concatenating the blocks gives back
    the part list.
    """
    if not p.is_strict():
        dup = next(a for a, b in zip(p.parts, p.parts[1:]) if a == b)
        raise ValueError(f"runs requires distinct parts, part {dup} repeats")
    blocks: list[tuple[int, ...]] = []
    current: list[int] = []
    for part in p.parts:
        if current and current[-1] - part != 1:
            blocks.append(tuple(current))
            current = []
        current.append(part)
    if current:
        blocks.append(tuple(current))
    return tuple(blocks)


def sol(p: Partition) -> int:
    """Number of odd-length runs of consecutive parts in a strict partition."""
    return sum(1 for block in runs(p) if len(block) % 2)


def k_measure(p: Partition, k: int) -> int:
    """Longest subsequence of parts with pairwise differences at least ``k``.

    Greedy from the largest part; on a sorted list this greedy choice is
    optimal (cross-checked against exhaustive search in the test suite).
    """
    if type(k) is not int or k < 1:  # bool is an int subclass
        raise ValueError("k must be a positive integer")
    count = 0
    last: int | None = None
    for part in p.parts:
        if last is None or last - part >= k:
            count += 1
            last = part
    return count


def parity_index(values: Sequence[int]) -> int:
    """Number of parity switches scanning ``0, s_1, ..., s_l`` left to right."""
    switches = 0
    prev = 0
    for value in values:
        if (value - prev) % 2:
            switches += 1
        prev = value
    return switches


def partitions(
    n: int, *, max_part: int | None = None, distinct: bool = False, odd: bool = False
) -> Iterator[Partition]:
    """Iterate over every partition of ``n`` in reverse-lexicographic order.

    The arguments are checked when called, before iteration starts.
    ``max_part`` caps the largest part; ``distinct`` restricts to strict
    partitions and ``odd`` to partitions into odd parts, which are
    generated directly rather than filtered.  The stream is deterministic.

    One loop over a preallocated array ``x = [1] * n`` whose first m
    entries are the parts, with h the index of the last part greater than
    1 and ``x[i] == 1`` for every i > h, so trailing 1s are never written,
    counted or deleted.  Fill greedily from h + 1 with as many copies of
    the largest allowed part as fit (one when ``distinct``), where a fill
    of 1s only moves m, and yield at ``n``; on a dead end or after a yield,
    reset the part x[h] = p to 1 and refill with parts up to p - 1 (p - 2
    when ``odd``).  This is Zoghbi and Stojmenovic's ZS1 step: it keeps
    the reverse-lexicographic order, which the ascending AccelAsc walk
    would not, and takes O(1) amortized steps per unrestricted partition.
    """
    if type(n) is not int:  # bool is an int subclass
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_part is not None:
        if type(max_part) is not int:
            raise ValueError(f"max_part must be an integer or None, got {max_part!r}")
        if max_part < 0:
            raise ValueError("max_part must be nonnegative")
    return _walk(n, n if max_part is None else max_part, distinct, odd)


def _walk(n: int, top: int, distinct: bool, odd: bool) -> Iterator[Partition]:
    step = 2 if odd else 1
    x = [1] * n  # the parts are x[:m], and x[i] == 1 for every i > h
    h = -1  # index of the last part greater than 1
    m = 0
    remaining = n
    while True:
        while remaining:
            if top > remaining:
                top = remaining
            if odd and not top % 2:
                top -= 1
            if top < 2:
                if top == 1 and (remaining == 1 or not distinct):
                    m += remaining  # the implicit 1s are already in place
                    remaining = 0
                break  # otherwise a dead end: no allowed part fits
            if distinct:
                x[m] = top
                m += 1
                remaining -= top
                top -= 1
            else:
                copies = remaining // top
                x[m : m + copies] = [top] * copies
                m += copies
                remaining -= top * copies
            h = m - 1
        if not remaining:
            # a fresh tuple each time: x keeps changing after the yield
            yield Partition._trusted(tuple(x[:m]))
        if h < 0:
            return  # only 1s are left, and a 1 has no smaller part to retry with
        part = x[h]
        x[h] = 1
        remaining += part + m - h - 1
        m = h
        h -= 1
        top = part - step
