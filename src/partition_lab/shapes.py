"""Ferrers and 2-modular diagram geometry.

Durfee and sub-Durfee sides, 2-modular diagrams in both drawing
conventions (1-cells at the end of each row, or along the right border of
the Durfee square), triples around a Durfee square, and the alternating
index of an odd partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import Partition, parity_index, union


class DurfeeType(Enum):
    TYPE_I = "I"
    TYPE_II = "II"


class Border(Enum):
    """Placement of the 1-cells in a 2-modular diagram."""

    LAST_CELL = "last"
    RIGHT_BORDER = "right"


class TripleKind(Enum):
    ORDINARY = "ordinary"
    MODULAR2 = "2-modular"


@dataclass(frozen=True)
class Triple:
    """A partition decomposed around its (2-modular) Durfee square.

    ``right`` sits to the right of the k-by-k square, ``below`` underneath.
    Size law: ordinary ``k^2 + |right| + |below|``; 2-modular
    ``k(2k-1) + |right| + |below|``.
    """

    durfee: int
    right: Partition
    below: Partition
    kind: TripleKind = TripleKind.ORDINARY

    def __post_init__(self) -> None:
        k = self.durfee
        if self.right.length > k:
            raise ValueError("right subpartition has more parts than the Durfee side")
        if self.kind is TripleKind.ORDINARY:
            if any(part > k for part in self.below.parts):
                raise ValueError("below subpartition has a part wider than the square")
        else:
            if any(part % 2 for part in self.right.parts):
                raise ValueError("2-modular right subpartition must have even parts")
            if any(part % 2 == 0 or part > 2 * k - 1 for part in self.below.parts):
                raise ValueError(
                    "2-modular below subpartition must have odd parts <= 2k-1"
                )

    @property
    def square_weight(self) -> int:
        k = self.durfee
        return k * k if self.kind is TripleKind.ORDINARY else k * (2 * k - 1)

    def to_partition(self) -> Partition:
        """Reassemble the partition the triple was cut from."""
        k = self.durfee
        row = k if self.kind is TripleKind.ORDINARY else 2 * k - 1
        alpha = self.right.parts
        head = [row + (alpha[i] if i < len(alpha) else 0) for i in range(k)]
        return Partition(head + list(self.below.parts))


@dataclass(frozen=True)
class ModularDiagram:
    """A 2-modular diagram: rows of cells holding 1 or 2.

    Row lengths are non-increasing and every column is weakly decreasing
    from top to bottom.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        widths = [len(row) for row in self.rows]
        if any(a < b for a, b in zip(widths, widths[1:])):
            raise ValueError("row lengths must be non-increasing")
        for row in self.rows:
            if not row or any(cell not in (1, 2) for cell in row):
                raise ValueError("cells must hold 1 or 2")
        for upper, lower in zip(self.rows, self.rows[1:]):
            for j in range(len(lower)):
                if upper[j] < lower[j]:
                    raise ValueError(f"column {j + 1} increases downward")

    @property
    def shape(self) -> Partition:
        return Partition(len(row) for row in self.rows)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)

    def render(self) -> str:
        """Text drawing, one row of digits per line."""
        return "\n".join(" ".join(str(cell) for cell in row) for row in self.rows)

    def __str__(self) -> str:
        return self.render()


def durfee_side(p: Partition) -> int:
    """Side of the largest square in the Ferrers diagram; 0 for empty."""
    k = 0
    for i, part in enumerate(p.parts, start=1):
        if part >= i:
            k = i
        else:
            break
    return k


def ordinary_triple(p: Partition) -> Triple:
    """Split ``p`` into (k; right, below) around its Durfee square."""
    k = durfee_side(p)
    right = Partition(p.parts[i] - k for i in range(k) if p.parts[i] > k)
    below = Partition(p.parts[k:])
    return Triple(k, right, below, TripleKind.ORDINARY)


def _sub_durfee(p: Partition) -> tuple[DurfeeType, int]:
    # Type I when row k strictly exceeds k (then take the Durfee side of the
    # part below the square); type II when it equals k (then the tallest
    # j-by-(j+1) rectangle fitting below, 0 when none fits).
    k = durfee_side(p)
    below = Partition(p.parts[k:])
    if p.parts[k - 1] > k:
        return DurfeeType.TYPE_I, durfee_side(below)
    j = 0
    for i, part in enumerate(below.parts, start=1):
        if part >= i + 1:
            j = i
        else:
            break
    return DurfeeType.TYPE_II, j


def sub_durfee_side(p: Partition) -> tuple[DurfeeType, int]:
    """Type and sub-Durfee side of a nonempty partition."""
    if not p:
        raise ValueError("sub-Durfee side is not defined for the empty partition")
    return _sub_durfee(p)


def modular2_shape(p: Partition) -> Partition:
    """Row lengths of the 2-modular diagram: ceil(part / 2)."""
    return Partition((part + 1) // 2 for part in p.parts)


def dur2(p: Partition) -> int:
    """Durfee side of the 2-modular diagram's shape."""
    return durfee_side(modular2_shape(p))


def dur2_sub(p: Partition) -> tuple[DurfeeType, int]:
    """Type and sub-Durfee side of the 2-modular diagram's shape."""
    if not p:
        raise ValueError("2-modular sub-Durfee side is not defined for the empty partition")
    return _sub_durfee(modular2_shape(p))


def modular2_diagram(p: Partition, border: Border = Border.LAST_CELL) -> ModularDiagram:
    """The 2-modular diagram of ``p`` under the chosen drawing convention.

    LAST_CELL works for any partition (a 1 ends each odd row).  RIGHT_BORDER
    requires all parts odd and puts the 1s in column k (k the 2-modular
    Durfee side) of the first k rows, then at the end of each lower row.
    """
    rows: list[tuple[int, ...]] = []
    if border is Border.LAST_CELL:
        for part in p.parts:
            rows.append(tuple([2] * (part // 2) + ([1] if part % 2 else [])))
    else:
        for part in p.parts:
            if part % 2 == 0:
                raise ValueError(f"right-border drawing needs odd parts, got {part}")
        k = dur2(p)
        for i, part in enumerate(p.parts, start=1):
            width = (part + 1) // 2
            if i <= k:
                row = [2] * width
                row[k - 1] = 1
            else:
                row = [2] * (width - 1) + [1]
            rows.append(tuple(row))
    diagram = ModularDiagram(tuple(rows))
    if diagram.row_sums() != p.parts:
        raise RuntimeError(f"2-modular diagram of {p} has row sums {diagram.row_sums()}")
    return diagram


def modular2_triple(p: Partition) -> Triple:
    """Split an odd partition around the Durfee square of its 2-modular diagram.

    With k the 2-modular Durfee side, ``right`` holds the even parts
    ``part_i - (2k - 1)`` for the first k rows (zeros dropped) and ``below``
    the untouched rows underneath.
    """
    if not p:
        raise ValueError("2-modular triple is not defined for the empty partition")
    for part in p.parts:
        if part % 2 == 0:
            raise ValueError(f"2-modular triple needs odd parts, got {part}")
    k = dur2(p)
    right = Partition(
        p.parts[i] - (2 * k - 1) for i in range(k) if p.parts[i] > 2 * k - 1
    )
    below = Partition(p.parts[k:])
    return Triple(k, right, below, TripleKind.MODULAR2)


def modular2_conjugate_even(a: Partition) -> Partition:
    """Conjugate an all-even partition through its 2-modular diagram.

    Its diagram is all 2-cells; transposing and reading row sums doubles the
    ordinary conjugate of the halved partition.  An involution on even
    partitions, preserving size.
    """
    for part in a.parts:
        if part % 2:
            raise ValueError(f"2-modular conjugation needs even parts, got {part}")
    half = Partition(part // 2 for part in a.parts)
    return Partition(2 * part for part in half.conjugate().parts)


def alternating_index(p: Partition) -> int:
    """Alternating index of an odd partition (0 for the empty partition).

    Form eta as the union of the conjugated right subpartition and the below
    subpartition of the 2-modular triple, list its parts non-decreasing,
    append 2k for type I (row k exceeding 2k-1) or 2k-1 for type II, and
    count parity switches.
    """
    if not p:
        return 0
    triple = modular2_triple(p)
    k = triple.durfee
    eta = union(modular2_conjugate_even(triple.right), triple.below)
    tail = 2 * k if p.parts[k - 1] > 2 * k - 1 else 2 * k - 1
    sequence = list(eta.parts[::-1]) + [tail]
    if any(a > b for a, b in zip(sequence, sequence[1:])):
        raise RuntimeError(f"alternating-index sequence of {p} is not non-decreasing")
    return parity_index(sequence)
