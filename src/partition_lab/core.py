"""Integer partitions and their scalar statistics.

A partition is stored once, canonically, as a non-increasing tuple of
positive integers, with its length beside it in a slot.  Every statistic
here is a pure function of that tuple.  The public constructor sorts and
validates its parts; only the partition walk stores its own output
unchecked, in place, because it builds each part tuple sorted and
positive, and it stores its length beside it.  One table-driven walk, in
reverse-lexicographic order, serves all, strict and odd partitions: it
places the largest allowed leading parts while the remainder exceeds a
small constant, then appends each tail from the family's table of the
partitions of that remainder, from a stored start index that skips the
tails above the cap.  A strict leading part is skipped, with every smaller
one, when the distinct parts up to it cannot reach the remainder.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator, Sequence


class Partition:
    """A partition of a nonnegative integer.

    Accepts parts in any order and stores them non-increasing; the empty
    partition represents zero.  Instances are immutable by convention and
    hashable.
    """

    __slots__ = ("parts", "length")

    parts: tuple[int, ...]
    length: int  # number of parts, stored with them

    def __init__(self, parts: Iterable[int] = ()) -> None:
        try:
            ordered = tuple(sorted(parts, reverse=True))
        except TypeError:
            # only a part that does not compare with the others stops the
            # sort; alone, the first such part in the given order names itself
            for part in parts:
                Partition((part,))
            raise
        for part in ordered:
            if type(part) is not int or part < 1:  # bool is an int subclass
                raise ValueError(f"parts must be positive integers, got {part!r}")
        self.parts = ordered
        self.length = len(ordered)

    @property
    def size(self) -> int:
        """Sum of the parts."""
        return sum(self.parts)

    def multiplicity(self, j: int) -> int:
        """Number of parts equal to ``j``, a positive int."""
        if type(j) is not int or j < 1:  # bool is an int subclass
            raise ValueError(f"j must be a positive integer, got {j!r}")
        return self.parts.count(j)

    def is_strict(self) -> bool:
        """True when no part repeats."""
        return len(set(self.parts)) == len(self.parts)

    def is_odd_parts(self) -> bool:
        """True when every part is odd."""
        return all(part % 2 for part in self.parts)

    def conjugate(self) -> "Partition":
        """Transpose of the Ferrers diagram: scanning the parts from the
        smallest, the columns past the previous part up to this one are as
        tall as the rows that remain."""
        cols: list[int] = []
        height = self.length
        prev = 0
        for part in reversed(self.parts):
            cols += [height] * (part - prev)
            prev = part
            height -= 1
        return Partition(cols)

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
    """Number of odd-length runs of consecutive parts in a strict partition.

    One pass over the parts, keeping only the parity of the current run;
    a repeated part raises the same ``ValueError`` as ``runs``.
    """
    count = 0
    odd_run = False  # the run so far has odd length
    prev = 0
    for part in p.parts:
        if part == prev - 1:
            odd_run = not odd_run
        elif part == prev:
            raise ValueError(f"runs requires distinct parts, part {part} repeats")
        else:
            count += odd_run
            odd_run = True
        prev = part
    return count + odd_run


def k_measure(p: Partition, k: int) -> int:
    """Longest subsequence of parts with pairwise differences at least ``k``.

    Greedy from the largest part; on a sorted list this greedy choice is
    optimal (cross-checked against exhaustive search in the test suite).
    The scan stops at the first part taken that is at most ``k``: no
    positive part can follow it.
    """
    if type(k) is not int or k < 1:  # bool is an int subclass
        raise ValueError("k must be a positive integer")
    parts = p.parts
    count = 0
    bound = parts[0] if parts else 0  # the next part taken is at most this
    for part in parts:
        if part <= bound:
            count += 1
            if part <= k:
                break
            bound = part - k
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

    One walk serves every family.  It keeps the reverse-lexicographic order,
    which the ascending AccelAsc walk would not, and stores each yielded
    tuple unchecked, in place, because it builds it sorted and positive.
    While the remainder exceeds ``_TAIL`` it appends the largest allowed
    part to a list of leading parts: at most the part before it, less 1
    when ``distinct`` (less 2 when also ``odd``), and odd when ``odd``.
    Under those it yields ``tuple(leading) + tail`` for each tail in the
    family's table row for the remainder, from a stored start index past
    every tail whose largest part the cap forbids; a remainder above the
    table under a cap of 1 has the one tail of all 1s.  It then replaces
    the last leading part with the next smaller allowed part.  When
    ``distinct``, a part p is a dead end, skipped with every smaller one,
    when the remainder exceeds p + (p - 1) + ... + 1 (the odd terms only,
    ((p + 1) // 2) ** 2, when ``odd``), the most distinct parts up to p can
    sum to.  The table holds the partitions of each r <= ``_TAIL`` for
    the family (1,286 tuples, about 0.12 MiB, over the four families);
    each family's is built on its first walk, not at import.
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
    top = n if max_part is None else max_part
    return _walk(n, top, distinct, odd)


_TAIL = 16  # the table holds every family's partitions of r <= _TAIL


@functools.cache
def _tails(distinct: bool, odd: bool) -> tuple[list[list[tuple[int, ...]]], list[list[int]]]:
    """The family's partitions of each r <= _TAIL, reverse-lexicographic, and
    per row r and cap c <= r the index of its first tail with largest part <= c.

    Row r lists, for each allowed largest part a, largest first, ``(a,)``
    before each tail of row r - a under a's own cap, so each row is built
    from smaller ones.
    """
    rows: list[list[tuple[int, ...]]] = [[()]]
    starts: list[list[int]] = [[0]]
    for r in range(1, _TAIL + 1):
        row = []
        for a in range(r - (odd and not r % 2), 0, -2 if odd else -1):
            rest = r - a
            below = rows[rest][starts[rest][min(a - 1 if distinct else a, rest)] :]
            row += [(a,) + tail for tail in below]
        rows.append(row)
        starts.append([sum(1 for tail in row if tail[0] > c) for c in range(r + 1)])
    return rows, starts


def _walk(n: int, top: int, distinct: bool, odd: bool) -> Iterator[Partition]:
    new = object.__new__
    rows, starts = _tails(distinct, odd)
    head: list[int] = []  # the leading parts, each placed above a remainder > _TAIL
    rest = n
    cap = top  # the largest part the remainder may take, before odd rounds it down
    while True:
        while rest > _TAIL:
            part = cap if cap < rest else rest
            if odd and not part % 2:
                part -= 1
            if part < 2:
                # under a cap of 1 the one tail is all 1s; under 0 there is none
                tails = [(1,) * rest] if part == 1 and not distinct else []
                break
            # distinct (odd) parts up to part sum to at most this: past it, a dead end
            if distinct and rest > (((part + 1) // 2) ** 2 if odd else part * (part + 1) // 2):
                tails = []
                break
            head.append(part)
            rest -= part
            cap = part - 1 if distinct else part
        else:
            tails = rows[rest][starts[rest][cap if cap < rest else rest] :]
        prefix = tuple(head)
        for tail in tails:
            parts = prefix + tail  # a fresh tuple, or a table row's own when head is empty
            p = new(Partition)
            p.parts = parts
            p.length = len(parts)
            yield p
        if not head:
            return
        part = head.pop()  # retry below it: the next smaller allowed part
        rest += part
        cap = part - 1
