"""Combinatorial transformations on partitions.

Sylvester's hook bijection from odd to strict partitions, Glaisher's map,
the sign-reversing involution on pairs (strict partition, labeled
partition) together with its fixed-point correspondence, and the odd-gap
decomposition behind the parity-index generating function.
"""

from __future__ import annotations

from enum import Enum

from .core import Partition, parity_index, parse, partitions, runs, union
from .shapes import dur2


class LabeledPartition:
    """A partition whose parts carry an X or Y label.

    Entries are (value, is_x) tuples, and a label must be a ``bool``.
    Canonical order: values descending, the X-labeled copy of a value before
    its Y-labeled copies, which is descending order on the pairs themselves.
    Validity: each X-labeled value appears X-labeled exactly once, and no
    part of value v+1 may coexist with an X-labeled v (equivalently, under
    the canonical order with an infinite sentinel in front, an X-labeled
    part is preceded by something at least 2 larger).  Instances are
    immutable, so ``size``, ``x_count``, ``y_count`` and ``smallest_y`` (None
    without a Y entry) are found once, when the entries are validated.
    """

    __slots__ = ("entries", "size", "x_count", "y_count", "smallest_y")

    entries: tuple[tuple[int, bool], ...]  # (value, is_x)
    size: int
    x_count: int
    y_count: int
    smallest_y: int | None  # the last Y entry in canonical order

    def __init__(self, entries=()) -> None:
        # one pass over the entries in canonical order checks each entry
        # and its neighbour above
        given = tuple(entries)
        try:
            normal = sorted(given, reverse=True)
        except TypeError:
            # only an entry that is not an (int, bool) tuple stops the sort;
            # built alone, with no neighbour to misjudge, the first such
            # entry in the given order names itself
            for entry in given:
                LabeledPartition((entry,))
            raise
        size = x_count = 0
        above = None  # the value before the current entry in canonical order
        smallest_y = None
        for entry in normal:
            if type(entry) is not tuple:  # stored, hashed and searched as a tuple
                raise ValueError(f"entries must be (value, label) tuples, got {entry!r}")
            value, is_x = entry
            if type(value) is not int or value < 1:  # bool is an int subclass
                raise ValueError(f"part values must be positive integers, got {value!r}")
            if type(is_x) is not bool:
                raise ValueError(f"labels must be bools, got {is_x!r}")
            size += value
            if not is_x:
                smallest_y = value
            elif above == value:
                raise ValueError(f"value {value} is X-labeled twice")
            elif above == value + 1:
                raise ValueError(
                    f"X-labeled {value} cannot coexist with a part {value + 1}"
                )
            else:
                x_count += 1
            above = value
        self.entries = tuple(normal)
        self.size = size
        self.x_count = x_count
        self.y_count = len(normal) - x_count
        self.smallest_y = smallest_y

    @property
    def length(self) -> int:
        return len(self.entries)

    @property
    def sign(self) -> int:
        return -1 if self.y_count % 2 else 1

    def values(self) -> tuple[int, ...]:
        return tuple(value for value, _ in self.entries)

    def has_x(self, value: int) -> bool:
        return (value, True) in self.entries

    def add(self, value: int) -> "LabeledPartition":
        """This partition with one more Y-labeled part ``value``."""
        return LabeledPartition(self.entries + ((value, False),))

    def remove(self, value: int) -> "LabeledPartition":
        """This partition with one Y-labeled part ``value`` fewer."""
        entries = list(self.entries)
        entries.remove((value, False))
        return LabeledPartition(entries)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LabeledPartition):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        return "+".join(
            f"{value}x" if is_x else str(value) for value, is_x in self.entries
        )

    def __repr__(self) -> str:
        return f"LabeledPartition({str(self)!r})"


def parse_labeled(text: str) -> LabeledPartition:
    """Parse a ``6x+3+3+1x`` literal; "" or "0" is empty."""
    body = text.strip()
    if body in ("", "0"):
        return LabeledPartition()
    entries = []
    for token in body.split("+"):
        token = token.strip()
        is_x = token.endswith("x")
        digits = token[:-1] if is_x else token
        if not (digits.isascii() and digits.isdigit()) or int(digits) < 1:
            raise ValueError(f"bad part {token!r} in labeled literal {text!r}")
        entries.append((int(digits), is_x))
    return LabeledPartition(entries)


class SignedPair:
    """A strict partition paired with a labeled partition.

    Weight exponents: x counts X-labeled parts, y the total number of parts,
    q the total size; the sign is -1 to the number of Y-labeled parts.
    Instances are immutable by convention and hashable.
    """

    __slots__ = ("lam", "eta")

    lam: Partition
    eta: LabeledPartition

    def __init__(self, lam: Partition, eta: LabeledPartition) -> None:
        if not lam.is_strict():
            raise ValueError(f"left partition must be strict, got {lam}")
        self.lam = lam
        self.eta = eta

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SignedPair):
            return self.lam == other.lam and self.eta == other.eta
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lam, self.eta))

    def __repr__(self) -> str:
        return f"SignedPair(lam={self.lam!r}, eta={self.eta!r})"

    @property
    def sign(self) -> int:
        return self.eta.sign

    @property
    def weight(self) -> tuple[int, int, int]:
        """(x-exponent, y-exponent, q-exponent)."""
        return (
            self.eta.x_count,
            self.lam.length + self.eta.length,
            self.lam.size + self.eta.size,
        )

    def __str__(self) -> str:
        return f"({self.lam}, {self.eta})"


def parse_pair(text: str) -> SignedPair:
    """Parse a ``<strict>|<labeled>`` pair literal."""
    if "|" not in text:
        raise ValueError(f"pair literal needs a '|' separator: {text!r}")
    left, right = text.split("|", 1)
    return SignedPair(parse(left), parse_labeled(right))


class PhiCase(Enum):
    CASE1 = 1
    CASE2 = 2
    FIXED = 0


def classify_pair(pair: SignedPair):
    """Locate the pivots of the involution.

    ``a`` is the smallest part of the strict side whose predecessor value is
    not X-labeled on the labeled side (a part 1 always qualifies, no part 0
    exists); ``b`` is the smallest Y-labeled part.  Case 1 when a > b,
    case 2 when a <= b, fixed when neither exists (None plays infinity).
    """
    eta = pair.eta
    a = None
    for part in reversed(pair.lam.parts):  # ascending
        if not eta.has_x(part - 1):
            a = part
            break
    b = eta.smallest_y
    if a is None and b is None:
        return PhiCase.FIXED, None, None
    if b is not None and (a is None or a > b):
        return PhiCase.CASE1, a, b
    return PhiCase.CASE2, a, b


def involution_phi(pair: SignedPair) -> tuple[PhiCase, SignedPair]:
    """Sign-reversing, weight-preserving involution on signed pairs.

    Returns the case of ``pair`` and its image, from one classification.
    Case 1 moves the smallest Y-labeled part across to the strict side;
    case 2 moves part ``a`` across as a new Y-labeled part; a fixed pair is
    its own image.  Both moves are well defined: in case 1 the moved value
    cannot already sit in the strict side (that would force an X-labeled
    b-1 next to a part b), and in case 2 the incoming Y-part cannot crowd
    an X-labeled a-1, by the choice of a.  The pair constructors re-check
    both invariants at runtime.
    """
    case, a, b = classify_pair(pair)
    if case is PhiCase.FIXED:
        return case, pair
    if case is PhiCase.CASE1:
        return case, SignedPair(Partition(pair.lam.parts + (b,)), pair.eta.remove(b))
    remaining = list(pair.lam.parts)
    remaining.remove(a)
    return case, SignedPair(Partition(remaining), pair.eta.add(a))


def fixed_to_strict(pair: SignedPair) -> Partition:
    """Union of both sides of a fixed pair; lands on a strict partition."""
    case, _, _ = classify_pair(pair)
    if case is not PhiCase.FIXED:
        raise ValueError(f"{pair} is not a fixed point")
    merged = union(pair.lam, Partition(pair.eta.values()))
    if not merged.is_strict():
        raise ValueError(f"fixed pair {pair} does not merge to a strict partition")
    return merged


def strict_to_fixed(t: Partition) -> SignedPair:
    """Inverse of the fixed-point correspondence.

    Within each maximal run of consecutive parts, labels alternate ending
    with X at the smallest part; X-labeled parts form the labeled side and
    the rest the strict side.
    """
    if not t.is_strict():
        raise ValueError(f"expected a strict partition, got {t}")
    lam_parts: list[int] = []
    eta_entries: list[tuple[int, bool]] = []
    for block in runs(t):
        for offset, value in enumerate(reversed(block)):  # ascending within run
            if offset % 2 == 0:
                eta_entries.append((value, True))
            else:
                lam_parts.append(value)
    return SignedPair(Partition(lam_parts), LabeledPartition(eta_entries))


def enumerate_labeled(n: int) -> list[LabeledPartition]:
    """All valid labeled partitions of total size ``n``."""
    found: list[LabeledPartition] = []
    for p in partitions(n):
        counts: dict[int, int] = {}  # value -> multiplicity, values descending
        for part in p.parts:
            counts[part] = counts.get(part, 0) + 1
        eligible = [v for v in counts if v + 1 not in counts]
        for mask in range(1 << len(eligible)):
            chosen = {v for idx, v in enumerate(eligible) if mask >> idx & 1}
            entries = []
            for v, count in counts.items():
                if v in chosen:
                    entries.append((v, True))
                    entries += [(v, False)] * (count - 1)
                else:
                    entries += [(v, False)] * count
            found.append(LabeledPartition(entries))
    return found


def _pairs(n: int, strict: list[list[Partition]], labeled: list[list[LabeledPartition]]):
    # the signed pairs of total size n in enumerate_pairs' order, where
    # strict[m] and labeled[m] list the strict and the labeled partitions
    # of m for every m <= n
    for lam_size in range(n + 1):
        etas = labeled[n - lam_size]
        for lam in strict[lam_size]:
            for eta in etas:
                yield SignedPair(lam, eta)


def enumerate_pairs(n: int) -> list[SignedPair]:
    """All signed pairs of total size ``n``."""
    if type(n) is not int or n < 0:  # bool is an int subclass
        raise ValueError(f"total size must be a nonnegative integer, got {n!r}")
    strict = [list(partitions(m, distinct=True)) for m in range(n + 1)]
    return list(_pairs(n, strict, [enumerate_labeled(m) for m in range(n + 1)]))


def _pair_sort_key(pair: SignedPair):
    lam = pair.lam
    eta_key = tuple((-value, 0 if is_x else 1) for value, is_x in pair.eta.entries)
    return (lam.length, lam.size, tuple(-part for part in lam.parts), eta_key)


def involution_table(n: int) -> str:
    """Two-column table pairing every negative pair with its image."""
    lines = ["- | +"]
    negatives = sorted(
        (p for p in enumerate_pairs(n) if p.sign < 0), key=_pair_sort_key
    )
    for pair in negatives:
        lines.append(f"{pair} | {involution_phi(pair)[1]}")
    return "\n".join(lines)


# -- Sylvester / Glaisher -----------------------------------------------------


def _hook_lengths(p: Partition) -> list[int]:
    # raw (l1, l2, l1, l2, ...) hook readings, trailing zero kept, from the
    # row widths w of the right-border 2-modular diagram and its Durfee side
    # k: hook i has w_i - i + 1 cells in row i and one in every lower row
    # reaching column i; its 1-cells are the one in column k of row i and
    # the last cell of each row below the square that ends in column i.
    # The widths do not increase, so the rows reaching column i are the
    # first ``reach`` rows, and ``reach`` only moves up as i grows; every
    # row of the square reaches column k, so reach >= i
    widths = []
    for part in p.parts:
        if part % 2 == 0:
            raise ValueError(f"Sylvester's map needs odd parts, got {part}")
        widths.append((part + 1) // 2)
    k = dur2(p)
    below = widths[k:]
    out: list[int] = []
    reach = len(widths)
    for i in range(1, k + 1):
        while widths[reach - 1] < i:
            reach -= 1
        cells = widths[i - 1] + reach - 2 * i + 1
        out.append(cells)
        out.append(cells - 1 - below.count(i))
    return out


def _hook_image(p: Partition, hooks: list[int]) -> Partition:
    # the hook readings of p, a trailing zero dropped, must already be a
    # strict partition of |p| in decreasing order, so the image's parts give
    # the readings back
    readings = tuple(hooks[:-1] if hooks[-1] == 0 else hooks)
    image = Partition(readings)
    if image.parts != readings or not image.is_strict() or image.size != p.size:
        raise RuntimeError(f"hooks of {p} gave {image}, not a strict partition of {p.size}")
    return image


def sylvester(p: Partition) -> Partition:
    """Sylvester's hook bijection from odd partitions to strict partitions.

    Hooks of the 2-modular diagram in the right-border drawing: hook i
    starts at diagonal cell (i, i), runs right along row i and down column
    i.  The image lists each hook's cell count followed by its count of
    2-cells, dropping a trailing zero.  Both counts are read from the row
    widths (p_i + 1) / 2 and the 2-modular Durfee side; no diagram is
    built.
    """
    if not p:
        return Partition()
    return _hook_image(p, _hook_lengths(p))


def glaisher(p: Partition) -> Partition:
    """Glaisher's merge map from odd partitions to strict partitions.

    Each odd value with multiplicity f contributes parts value * 2^e over
    the binary digits e of f.
    """
    parts: list[int] = []
    for value in set(p.parts):
        if value % 2 == 0:
            raise ValueError(f"Glaisher's map needs odd parts, got {value}")
        count = p.multiplicity(value)
        e = 0
        while count:
            if count & 1:
                parts.append(value << e)
            count >>= 1
            e += 1
    result = Partition(parts)
    if not result.is_strict() or result.size != p.size:
        raise RuntimeError(f"glaisher({p}) gave {result}, not a strict partition of {p.size}")
    return result


# -- odd-gap decomposition ------------------------------------------------------


def lemma51_decompose(p: Partition) -> tuple[Partition, Partition]:
    """Strip odd gaps off a partition.

    Scanning rows bottom-up, every odd gap between consecutive rows donates
    one cell from each row above it and records the row index in the first
    component; what remains has all even parts.  The first component is
    strict with as many parts as the parity index of the reversed part list.

    One bottom-up pass does it: a gap recorded below rows i - 1 and i took
    one cell from both, so the gap between them keeps the parity it has in
    ``p``, and row i - 1 ends with one cell fewer per index recorded so far,
    its own included.
    """
    sigma: list[int] = []
    rest: list[int] = []  # what remains of each row, bottom-up
    below = 0
    i = p.length
    for part in reversed(p.parts):  # part is row i
        if (part - below) % 2:
            sigma.append(i)
        left = part - len(sigma)
        if left:
            rest.append(left)
        below = part
        i -= 1
    tau = Partition(rest)
    sigma_p = Partition(sigma)
    if not sigma_p.is_strict() or any(part % 2 for part in tau.parts):
        raise RuntimeError(f"odd-gap decomposition of {p} gave {sigma_p}, {tau}")
    if sigma_p.length != parity_index(p.parts[::-1]):
        raise RuntimeError(f"odd-gap decomposition of {p} misses its parity index")
    return sigma_p, tau


def lemma51_compose(sigma: Partition, tau: Partition) -> Partition:
    """Inverse of the odd-gap decomposition: conjugate of tau' union sigma."""
    if not sigma.is_strict():
        raise ValueError(f"first component must be strict, got {sigma}")
    if any(part % 2 for part in tau.parts):
        raise ValueError(f"second component must have even parts, got {tau}")
    return union(tau.conjugate(), sigma).conjugate()
