"""Ferrers and 2-modular diagram geometry.

Durfee and sub-Durfee sides, 2-modular diagrams in both drawing
conventions (1-cells at the end of each row, or along the right border of
the Durfee square), and the alternating index of an odd partition.  Every
statistic is computed in one pass over the part tuple.  The definitions
they are checked against (the splits around the ordinary and 2-modular
Durfee squares, 2-modular conjugation of even partitions and the 2-modular
row widths) live as oracles in the test suite.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .core import Partition, parity_index


class DurfeeType(Enum):
    TYPE_I = "I"
    TYPE_II = "II"


class Border(Enum):
    """Placement of the 1-cells in a 2-modular diagram."""

    LAST_CELL = "last"
    RIGHT_BORDER = "right"


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

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)

    def render(self) -> str:
        """Text drawing, one row of digits per line."""
        return "\n".join(" ".join(str(cell) for cell in row) for row in self.rows)

    def __str__(self) -> str:
        return self.render()


def _fit(widths: Sequence[int], start: int = 0, extra: int = 0) -> int:
    """Side j of the tallest j-by-(j + extra) rectangle in ``widths[start:]``."""
    j = 0
    for width in widths[start:]:
        if width <= j + extra:
            break
        j += 1
    return j


def durfee_side(p: Partition) -> int:
    """Side of the largest square in the Ferrers diagram; 0 for empty."""
    return _fit(p.parts)


def _sub_durfee(widths: Sequence[int]) -> tuple[DurfeeType, int]:
    # Type I when row k strictly exceeds k (then the Durfee side of the rows
    # below the square); type II when it equals k (then the tallest
    # j-by-(j+1) rectangle fitting below, 0 when none fits).
    k = _fit(widths)
    if widths[k - 1] > k:
        return DurfeeType.TYPE_I, _fit(widths, k)
    return DurfeeType.TYPE_II, _fit(widths, k, 1)


def sub_durfee_side(p: Partition) -> tuple[DurfeeType, int]:
    """Type and sub-Durfee side of a nonempty partition."""
    if not p:
        raise ValueError("sub-Durfee side is not defined for the empty partition")
    return _sub_durfee(p.parts)


def dur2(p: Partition) -> int:
    """Durfee side of the 2-modular diagram's shape."""
    return _fit([(part + 1) // 2 for part in p.parts])


def dur2_sub(p: Partition) -> tuple[DurfeeType, int]:
    """Type and sub-Durfee side of the 2-modular diagram's shape."""
    if not p:
        raise ValueError("2-modular sub-Durfee side is not defined for the empty partition")
    return _sub_durfee([(part + 1) // 2 for part in p.parts])


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
    count parity switches.  Equal neighbours never switch parity, and the
    conjugated right part has a part 2i exactly when row i exceeds row i + 1
    (row k + 1 read as 2k - 1), so a set of parts suffices.
    """
    parts = p.parts
    for part in parts:
        if part % 2 == 0:
            raise ValueError(f"alternating index needs odd parts, got {part}")
    if not parts:
        return 0
    k = _fit([(part + 1) // 2 for part in parts])
    tail = 2 * k if parts[k - 1] > 2 * k - 1 else 2 * k - 1
    lower = parts[1:k] + (2 * k - 1,)
    values = {2 * i for i in range(1, k + 1) if parts[i - 1] > lower[i - 1]}
    values.update(parts[k:], (tail,))
    if max(values) > tail:
        raise RuntimeError(f"alternating-index sequence of {p} exceeds its tail {tail}")
    return parity_index(sorted(values))
