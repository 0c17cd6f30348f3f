"""Durfee geometry, 2-modular diagrams, and the alternating index."""

import pytest

from partition_lab import shapes
from partition_lab.core import Partition, parity_index, parse, partitions, union
from partition_lab.shapes import (
    Border,
    DurfeeType,
    ModularDiagram,
    alternating_index,
    dur2,
    dur2_sub,
    durfee_side,
    modular2_diagram,
    sub_durfee_side,
)

# -- oracles: the definitions the one-pass statistics are checked against ----


def split(p, modular2=False):
    """(k, right, below) around the k-row (2-modular) Durfee square."""
    k = dur2(p) if modular2 else durfee_side(p)
    row = 2 * k - 1 if modular2 else k
    return k, Partition(part - row for part in p.parts[:k] if part > row), Partition(p.parts[k:])


def join(k, right, below, row):
    """Reassemble a split whose square rows hold ``row`` cells."""
    return Partition([row + a for a in right.parts + (0,) * (k - right.length)] + list(below.parts))


def widths(p):
    """Row lengths of the 2-modular diagram."""
    return Partition((part + 1) // 2 for part in p.parts)


def conjugate_even(a):
    """2-modular conjugate of an even partition: the doubled conjugate of its halves."""
    return Partition(2 * c for c in Partition(part // 2 for part in a.parts).conjugate().parts)


def odd_partitions(n):
    return (p for p in partitions(n) if p.is_odd_parts())


def triple_alternating_index(p):
    """The alternating index by its definition, through the 2-modular triple."""
    if not p:
        return 0
    k, right, below = split(p, modular2=True)
    eta = union(conjugate_even(right), below)
    tail = 2 * k if p.parts[k - 1] > 2 * k - 1 else 2 * k - 1
    sequence = list(eta.parts[::-1]) + [tail]
    assert all(a <= b for a, b in zip(sequence, sequence[1:])), p
    return parity_index(sequence)


class TestDurfee:
    def test_durfee_side_examples(self):
        assert durfee_side(parse("7+6+6+5+1+1")) == 4
        assert durfee_side(Partition()) == 0
        assert durfee_side(parse("5+3+3+3+2")) == 3

    def test_ordinary_triple_examples(self):
        assert split(parse("7+6+6+5+1+1")) == (4, parse("3+2+2+1"), parse("1+1"))
        assert split(Partition()) == (0, Partition(), Partition())
        assert split(parse("5+3+3+3+2")) == (3, parse("2"), parse("3+2"))

    def test_sub_durfee_examples(self):
        assert sub_durfee_side(parse("7+6+6+5+1+1")) == (DurfeeType.TYPE_I, 1)
        assert sub_durfee_side(parse("5+3+3+3+2")) == (DurfeeType.TYPE_II, 1)
        assert sub_durfee_side(parse("1")) == (DurfeeType.TYPE_II, 0)

    def test_sub_durfee_rejects_empty(self):
        with pytest.raises(ValueError):
            sub_durfee_side(Partition())
        with pytest.raises(ValueError):
            dur2_sub(Partition())

    def test_sub_durfee_matches_ordinary_triple(self):
        # type I exactly when all k rows reach past the square; type I measures
        # the square below it, type II the square below it minus its first column
        for n in range(1, 25):
            for p in partitions(n):
                k, right, below = split(p)
                if right.length == k:
                    expected = (DurfeeType.TYPE_I, durfee_side(below))
                else:
                    narrowed = Partition(part - 1 for part in below.parts if part > 1)
                    expected = (DurfeeType.TYPE_II, durfee_side(narrowed))
                assert sub_durfee_side(p) == expected, p

    def test_triple_round_trip_and_size_law(self):
        for n in range(19):
            for p in partitions(n):
                k, right, below = split(p)
                assert join(k, right, below, k) == p
                assert k**2 + right.size + below.size == n
                # the square is the largest: nothing below it is wider than k
                assert right.length <= k and all(part <= k for part in below.parts)


class TestModularDiagrams:
    def test_last_cell_rows(self):
        diagram = modular2_diagram(parse("7+6+6+5+1+1"), Border.LAST_CELL)
        assert diagram.rows == (
            (2, 2, 2, 1),
            (2, 2, 2),
            (2, 2, 2),
            (2, 2, 1),
            (1,),
            (1,),
        )

    def test_right_border_rows(self):
        diagram = modular2_diagram(parse("9+7+7+5+1+1"), Border.RIGHT_BORDER)
        assert diagram.rows == (
            (2, 2, 1, 2, 2),
            (2, 2, 1, 2),
            (2, 2, 1, 2),
            (2, 2, 1),
            (1,),
            (1,),
        )

    def test_single_cell(self):
        for border in Border:
            assert modular2_diagram(parse("1"), border).rows == ((1,),)

    def test_right_border_rejects_even_parts(self):
        with pytest.raises(ValueError):
            modular2_diagram(parse("4+3"), Border.RIGHT_BORDER)

    def test_row_sums_and_column_monotonicity(self):
        for n in range(17):
            for p in partitions(n):
                diagram = modular2_diagram(p, Border.LAST_CELL)
                assert diagram.row_sums() == p.parts
                if p.is_odd_parts():
                    other = modular2_diagram(p, Border.RIGHT_BORDER)
                    assert other.row_sums() == p.parts
                    assert tuple(map(len, other.rows)) == widths(p).parts
                assert tuple(map(len, diagram.rows)) == widths(p).parts

    def test_diagram_validation(self):
        with pytest.raises(ValueError, match="^column 1 increases downward$"):
            ModularDiagram(((1,), (2,)))
        with pytest.raises(ValueError, match="^cells must hold 1 or 2$"):
            ModularDiagram(((2, 3),))
        with pytest.raises(ValueError, match="^cells must hold 1 or 2$"):
            ModularDiagram(((2,), ()))  # an empty row holds no cell
        with pytest.raises(ValueError, match="^row lengths must be non-increasing$"):
            ModularDiagram(((2,), (2, 1)))

    def test_diagram_equality_hash_and_repr(self):
        # a value: equal rows are one diagram, in a set or a dict
        diagram = modular2_diagram(parse("5+1"))
        same = ModularDiagram(((2, 2, 1), (1,)))
        assert diagram == same and hash(diagram) == hash(same)
        assert len({diagram, same, modular2_diagram(parse("5+1"), Border.RIGHT_BORDER)}) == 2
        assert diagram != ModularDiagram(((2, 2, 1),)) and diagram != diagram.rows
        assert repr(same) == "ModularDiagram(rows=((2, 2, 1), (1,)))"

    def test_rejects_a_border_that_is_not_a_border(self):
        # the value, not the enum, must not pick a drawing by falling through
        with pytest.raises(ValueError, match="border must be a Border, got 'last'"):
            modular2_diagram(parse("5+1"), "last")
        assert modular2_diagram(parse("5+1"), Border("last")).render() == "2 2 1\n1"

    def test_render(self):
        diagram = modular2_diagram(parse("5+1"), Border.LAST_CELL)
        assert diagram.render() == "2 2 1\n1"


class TestModular2Statistics:
    def test_dur2_examples(self):
        assert dur2(parse("7+6+6+5+1+1")) == 3
        assert dur2(parse("9+7+7+5+1+1")) == 3
        assert dur2(Partition()) == 0

    def test_dur2_closed_form(self):
        for n in range(19):
            for p in partitions(n):
                expected = 0
                for i, part in enumerate(p.parts, start=1):
                    if part >= 2 * i - 1:
                        expected = i
                assert dur2(p) == expected == durfee_side(widths(p))
                if p:
                    assert dur2_sub(p) == sub_durfee_side(widths(p))

    def test_dur2_sub_examples(self):
        assert dur2_sub(parse("7+6+6+5+1+1")) == (DurfeeType.TYPE_II, 1)
        assert dur2_sub(parse("9+7+7+5+1+1")) == (DurfeeType.TYPE_I, 1)
        assert dur2_sub(parse("11+3+1")) == (DurfeeType.TYPE_II, 0)

    def test_side_four_and_five_boundaries(self):
        # a row reaches 2-modular column j + 1 exactly when its part exceeds 2j:
        # 7 and 8 fill exactly four columns (type II at side 4), 9 reaches a
        # fifth (type I), and 9^5 is the first square of side 5
        cases = {
            "7+7+7+7": (4, (DurfeeType.TYPE_II, 0)),
            "9+9+9+9": (4, (DurfeeType.TYPE_I, 0)),
            "9+9+9+9+9": (5, (DurfeeType.TYPE_II, 0)),
            "8+8+8+8": (4, (DurfeeType.TYPE_II, 0)),
            "8+8+8+8+8": (4, (DurfeeType.TYPE_II, 1)),
            "8+8+8+7": (4, (DurfeeType.TYPE_II, 0)),
            "8+8+8+6": (3, (DurfeeType.TYPE_I, 1)),
        }
        for literal, (side, sub) in cases.items():
            p = parse(literal)
            assert (dur2(p), dur2_sub(p)) == (side, sub), literal
            assert durfee_side(widths(p)) == side and sub_durfee_side(widths(p)) == sub
        for literal in ("7+7+7+7", "9+9+9+9", "9+9+9+9+9"):
            p = parse(literal)
            assert alternating_index(p) == triple_alternating_index(p), literal

    def test_modular2_triple_examples(self):
        assert split(parse("9+7+7+5+1+1"), modular2=True) == (3, parse("4+2+2"), parse("5+1+1"))
        assert split(parse("1"), modular2=True) == (1, Partition(), Partition())
        # k = 2 strips 2k-1 = 3 from the first two rows; only row 3 remains below
        k, right, below = split(parse("11+3+1"), modular2=True)
        assert (k, right, below) == (2, parse("8"), parse("1"))
        assert k * (2 * k - 1) + right.size + below.size == 15

    def test_modular2_triple_round_trip(self):
        for n in range(26):
            for p in odd_partitions(n):
                if not p:
                    continue
                k, right, below = split(p, modular2=True)
                assert join(k, right, below, 2 * k - 1) == p
                assert k * (2 * k - 1) + right.size + below.size == n
                # the square is the largest: even parts to its right, odd parts
                # no wider than its rows below it
                assert right.length <= k and all(part % 2 == 0 for part in right.parts)
                assert all(part % 2 and part <= 2 * k - 1 for part in below.parts)


class TestEvenConjugation:
    def test_examples(self):
        assert conjugate_even(parse("4+2+2")) == parse("6+2")
        assert conjugate_even(Partition()) == Partition()
        assert conjugate_even(parse("2+2")) == parse("4")

    def test_involution_and_size(self):
        for half in range(11):
            for p in partitions(half):
                doubled = Partition(2 * part for part in p.parts)
                image = conjugate_even(doubled)
                assert image.size == doubled.size
                assert all(part % 2 == 0 for part in image.parts)
                assert conjugate_even(image) == doubled


class TestAlternatingIndex:
    def test_examples(self):
        assert alternating_index(parse("9+7+7+5+1+1")) == 4
        assert alternating_index(parse("5+5+3+3")) == 2
        assert alternating_index(parse("3+3+1+1+1+1+1+1+1+1+1")) == 1
        assert alternating_index(Partition()) == 0

    def test_parity_matches_type(self):
        # even alternating index exactly for type I
        for n in range(1, 27):
            for p in odd_partitions(n):
                kind, _ = dur2_sub(p)
                expected_even = kind is DurfeeType.TYPE_I
                assert (alternating_index(p) % 2 == 0) == expected_even, p

    def test_matches_triple_definition(self):
        # n <= 36 reaches type I at side 4 (9+9+9+9), and n = 45 and 46 reach
        # side 5 (9+9+9+9+9, type II, then with a 1 below it)
        for n in [*range(37), 45, 46]:
            for p in partitions(n, odd=True):
                assert alternating_index(p) == triple_alternating_index(p), p

    def test_rejects_even_parts(self):
        with pytest.raises(ValueError, match="alternating index needs odd parts, got 4"):
            alternating_index(parse("4+1"))
        # the first even part is named, whatever order a set of values holds
        with pytest.raises(ValueError, match="alternating index needs odd parts, got 6"):
            alternating_index(parse("6+4+1"))

    def test_a_short_fit_trips_the_tail_check(self, monkeypatch):
        # a fit that stops early leaves parts below the square wider than the
        # tail; the check is an if, not an assert, so it holds under -O too
        monkeypatch.setattr(shapes, "_fit", lambda *args, **kwargs: 1)
        with pytest.raises(
            RuntimeError, match="^alternating-index sequence of 9\\+9\\+9\\+9 exceeds its tail 2$"
        ):
            alternating_index(parse("9+9+9+9"))


def test_statistics_build_no_intermediate(monkeypatch):
    # the walks store each Partition in place, so only a statistic that
    # builds an intermediate Partition or diagram reaches these
    def refuse(self, *args):
        raise AssertionError(f"a statistic constructed a {type(self).__name__}")

    monkeypatch.setattr(Partition, "__init__", refuse)
    monkeypatch.setattr(ModularDiagram, "__init__", refuse)
    for n in range(21):
        for family in ({}, {"distinct": True}, {"odd": True}):
            for p in partitions(n, **family):
                durfee_side(p)
                dur2(p)
                if p:
                    sub_durfee_side(p)
                    dur2_sub(p)
                if p.is_odd_parts():
                    alternating_index(p)


class TestShapeHelpers:
    def test_modular2_shape(self):
        assert widths(parse("7+6+6+5+1+1")) == parse("4+3+3+3+1+1")
        assert widths(Partition()) == Partition()
