"""Ferrers and 2-modular diagram geometry.

Durfee and sub-Durfee sides, 2-modular diagrams in both drawing
conventions (1-cells at the end of each row, or along the right border of
the Durfee square), and the alternating index of an odd partition.  Every
statistic is computed in one pass over the part tuple, and every Durfee fit
reads the parts themselves: a row reaches column j + 1 exactly when its part
exceeds j, or 2j in the 2-modular diagram, so no width list is built.  The
definitions they are checked against (the splits around the ordinary and
2-modular Durfee squares, 2-modular conjugation of even partitions and the
2-modular row widths) live as oracles in the test suite.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

from .core import Partition


class DurfeeType(Enum):
    TYPE_I = "I"
    TYPE_II = "II"


class Border(Enum):
    """Placement of the 1-cells in a 2-modular diagram."""

    LAST_CELL = "last"
    RIGHT_BORDER = "right"


class ModularDiagram:
    """A 2-modular diagram: rows of cells holding 1 or 2.

    Row lengths are non-increasing and every column is weakly decreasing
    from top to bottom.  Instances are immutable by convention and
    hashable.
    """

    __slots__ = ("rows",)

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        widths = [len(row) for row in rows]
        if any(a < b for a, b in zip(widths, widths[1:])):
            raise ValueError("row lengths must be non-increasing")
        for row in rows:
            if not row or any(cell not in (1, 2) for cell in row):
                raise ValueError("cells must hold 1 or 2")
        for upper, lower in zip(rows, rows[1:]):
            for j in range(len(lower)):
                if upper[j] < lower[j]:
                    raise ValueError(f"column {j + 1} increases downward")
        self.rows = rows

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ModularDiagram):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"ModularDiagram(rows={self.rows!r})"

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)

    def render(self) -> str:
        """Text drawing, one row of digits per line."""
        return "\n".join(" ".join(str(cell) for cell in row) for row in self.rows)

    def __str__(self) -> str:
        return self.render()


def _fit(parts: Sequence[int], start: int = 0, extra: int = 0, cell: int = 1) -> int:
    """Side j of the tallest j-by-(j + extra) rectangle in the rows of
    ``parts[start:]``, each cell holding ``cell``: 1 in the Ferrers diagram,
    2 in the 2-modular one, where a part fills ceil(part / 2) cells.

    A row reaches column c + 1 exactly when its part exceeds ``cell * c``,
    so the limit steps by ``cell`` and no width list is built.
    """
    limit = cell * extra
    j = 0
    for part in parts[start:]:
        if part <= limit:
            break
        j += 1
        limit += cell
    return j


def durfee_side(p: Partition) -> int:
    """Side of the largest square in the Ferrers diagram; 0 for empty."""
    return _fit(p.parts)


def _sub_durfee(parts: Sequence[int], cell: int) -> tuple[DurfeeType, int]:
    # Type I when row k strictly exceeds k cells (then the Durfee side of the
    # rows below the square); type II when it holds exactly k (then the
    # tallest j-by-(j+1) rectangle fitting below, 0 when none fits).
    k = _fit(parts, cell=cell)
    if parts[k - 1] > cell * k:
        return DurfeeType.TYPE_I, _fit(parts, k, cell=cell)
    return DurfeeType.TYPE_II, _fit(parts, k, 1, cell)


def sub_durfee_side(p: Partition) -> tuple[DurfeeType, int]:
    """Type and sub-Durfee side of a nonempty partition."""
    if not p:
        raise ValueError("sub-Durfee side is not defined for the empty partition")
    return _sub_durfee(p.parts, 1)


def dur2(p: Partition) -> int:
    """Durfee side of the 2-modular diagram's shape."""
    return _fit(p.parts, cell=2)


def dur2_sub(p: Partition) -> tuple[DurfeeType, int]:
    """Type and sub-Durfee side of the 2-modular diagram's shape."""
    if not p:
        raise ValueError("2-modular sub-Durfee side is not defined for the empty partition")
    return _sub_durfee(p.parts, 2)


def modular2_diagram(p: Partition, border: Border = Border.LAST_CELL) -> ModularDiagram:
    """The 2-modular diagram of ``p`` under the chosen drawing convention.

    LAST_CELL works for any partition (a 1 ends each odd row).  RIGHT_BORDER
    requires all parts odd and puts the 1s in column k (k the 2-modular
    Durfee side) of the first k rows, then at the end of each lower row.
    """
    if not isinstance(border, Border):
        raise ValueError(f"border must be a Border, got {border!r}")
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


def alternating_index(p: Partition) -> int:
    """Alternating index of an odd partition (0 for the empty partition).

    Form eta as the union of the conjugated right subpartition and the below
    subpartition of the 2-modular triple, list its parts non-decreasing,
    append 2k for type I (row k exceeding 2k-1) or 2k-1 for type II, and
    count parity switches.  That list holds 2i exactly when row i exceeds
    row i + 1 (row k + 1 read as 2k - 1), the parts of the conjugated right
    subpartition, and 2i - 1 exactly when a part below the square equals
    it, since those parts are odd and at most 2k - 1.  So one pass over rows
    k, ..., 1 reads the list from the tail down to 0, 2i before 2i - 1, and
    counts the switches; equal neighbours never switch, so no list is built
    or sorted.  A square row equal to 2k - 1 makes the tail 2k - 1 (type
    II), so looking 2i - 1 up among all the parts reads the same list.
    """
    parts = p.parts
    values = set(parts)
    for value in values:
        if value % 2 == 0:
            part = next(part for part in parts if part % 2 == 0)
            raise ValueError(f"alternating index needs odd parts, got {part}")
    if not parts:
        return 0
    k = _fit(parts, cell=2)
    below = 2 * k - 1  # row k + 1, read as 2k - 1
    odd = parts[k - 1] <= below  # the tail, read first, is odd: 2k - 1 for type II
    tail = below if odd else 2 * k
    if p.length > k and parts[k] > tail:  # the largest part below the square
        raise RuntimeError(f"alternating-index sequence of {p} exceeds its tail {tail}")
    switches = 0
    for i in range(k - 1, -1, -1):  # row i + 1: the values 2i + 2, then 2i + 1
        part = parts[i]
        if odd and part > below:
            switches += 1
            odd = False
        if not odd and 2 * i + 1 in values:
            switches += 1
            odd = True
        below = part
    return switches + odd  # the list starts at 0, which is even
