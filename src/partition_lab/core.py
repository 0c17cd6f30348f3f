"""Integer partitions and their scalar statistics.

A partition is stored once, canonically, as a non-increasing tuple of
positive integers, with its length beside it in a slot.  Every statistic
here is a pure function of that tuple.  The public constructor sorts and
validates its parts; only the two partition walks store their own output
unchecked, in place, because they build each part tuple sorted and
positive, and they store its length beside it.  Both keep the
reverse-lexicographic order.  Unrestricted partitions take the textbook ZS1
step of Zoghbi and Stojmenovic on a list that holds exactly the current
parts, so each yield copies the whole list; strict and odd partitions take a
refill loop on a preallocated array whose entries past the last part greater
than 1 are all 1s, so it never writes or deletes trailing 1s, and whose
backtrack climbs past every part under which no strict refill can reach the
remaining sum.
"""

from __future__ import annotations

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
        ordered = tuple(sorted(parts, reverse=True))
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
        """Number of parts equal to ``j``."""
        if j < 1:
            raise ValueError("part values are positive")
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

    Two loops do the walk, with h the index of the last part greater than 1.
    Both keep the reverse-lexicographic order, which the ascending AccelAsc
    walk would not, and store each yielded tuple unchecked, in place,
    because they build it sorted and positive.

    Unrestricted partitions take Zoghbi and Stojmenovic's ZS1 step, O(1)
    amortized per partition, on a list ``x`` that holds exactly the parts,
    so each yield is ``tuple(x)`` with ``len(x)`` as its length: after a
    greedy first fill under the cap, a last part x[h] == 2 becomes 1 + 1
    (x[h] = 1 and one more 1 appended), and a larger x[h] drops to
    r = x[h] - 1, the 1s after it are deleted, and their sum and the 1 taken
    off x[h] are appended as copies of r and one smaller remainder.  Only the
    first fill meets the cap.

    Strict and odd partitions take a refill loop on a preallocated array
    ``x = [1] * n`` whose first m entries are the parts and whose entries
    past h are all 1s, so trailing 1s are never written or deleted: fill
    greedily from h + 1 with as many copies of the largest allowed part as
    fit (one when ``distinct``), where a fill of 1s only moves m, and yield
    at ``n``; on a dead end or after a yield, reset the part x[h] = p to 1
    and refill with parts up to p - 1 (p - 2 when ``odd``).  When
    ``distinct``, a refill that cannot reach the remaining sum, because it
    exceeds top + (top - 1) + ... + 1 (the odd terms only,
    ((top + 1) // 2) ** 2, when ``odd``), is skipped by climbing on to the
    part before.  Greedy placement keeps a reachable sum reachable, so the
    fill itself never checks it.  Only two strict fills can still dead-end,
    and the fill finds both: a first fill whose sum the cap cannot reach,
    and, of distinct odd parts, a fill left with a sum of 2.
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
    if distinct or odd:
        return _refill(n, top, distinct, odd)
    return _zs1(n, top)


def _zs1(n: int, top: int) -> Iterator[Partition]:
    new = object.__new__
    top = min(top, n)
    if not top and n:
        return  # a cap of 0 leaves no part to use
    # the greedy first fill: copies of top, then the rest; nothing when n == 0
    m, rest = divmod(n, top) if top else (0, 0)
    x = [top] * m  # exactly the parts
    h = m - 1 if top > 1 else -1  # index of the last part greater than 1
    if rest:
        x.append(rest)
        if rest > 1:
            h = m
    while True:
        p = new(Partition)
        p.parts = tuple(x)  # a fresh tuple each time: x keeps changing after the yield
        p.length = len(x)
        yield p
        if h < 0:
            return  # only 1s are left
        if x[h] == 2:
            x[h] = 1  # 2 becomes 1 + 1
            x.append(1)
            h -= 1
        else:
            r = x[h] - 1
            x[h] = r
            t = len(x) - h  # the freed sum: the 1 taken off x[h] and the trailing 1s
            del x[h + 1 :]
            while t >= r:
                x.append(r)
                t -= r
            h = len(x) - 1
            if t:
                x.append(t)  # the remainder t < r, a 1 or a part of its own
                if t > 1:
                    h += 1


def _refill(n: int, top: int, distinct: bool, odd: bool) -> Iterator[Partition]:
    new = object.__new__
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
            p = new(Partition)
            p.parts = tuple(x[:m])  # a fresh tuple each time: x keeps changing after the yield
            p.length = m
            yield p
        while True:
            if h < 0:
                return  # only 1s are left, and a 1 has no smaller part to retry with
            part = x[h]
            x[h] = 1
            remaining += part + m - h - 1
            m = h
            h -= 1
            top = part - step
            # distinct (odd) parts up to top sum to at most this: past it, climb on
            if not distinct or remaining <= (
                ((top + 1) // 2) ** 2 if odd else top * (top + 1) // 2
            ):
                break
