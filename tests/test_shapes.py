"""Durfee geometry, 2-modular diagrams, and the alternating index."""

import pytest

from partition_lab.core import Partition, parity_index, parse, partitions, union
from partition_lab.shapes import (
    Border,
    DurfeeType,
    ModularDiagram,
    Triple,
    alternating_index,
    dur2,
    dur2_sub,
    durfee_side,
    modular2_conjugate_even,
    modular2_diagram,
    modular2_shape,
    modular2_triple,
    ordinary_triple,
    sub_durfee_side,
)


def odd_partitions(n):
    return (p for p in partitions(n) if p.is_odd_parts())


def triple_alternating_index(p):
    """The alternating index by its definition, through the 2-modular triple."""
    if not p:
        return 0
    triple = modular2_triple(p)
    k = triple.durfee
    eta = union(modular2_conjugate_even(triple.right), triple.below)
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
        t = ordinary_triple(parse("7+6+6+5+1+1"))
        assert (t.durfee, t.right, t.below) == (4, parse("3+2+2+1"), parse("1+1"))
        t = ordinary_triple(Partition())
        assert (t.durfee, t.right, t.below) == (0, Partition(), Partition())
        t = ordinary_triple(parse("5+3+3+3+2"))
        assert (t.durfee, t.right, t.below) == (3, parse("2"), parse("3+2"))

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
                t = ordinary_triple(p)
                if t.right.length == t.durfee:
                    expected = (DurfeeType.TYPE_I, durfee_side(t.below))
                else:
                    narrowed = Partition(part - 1 for part in t.below.parts if part > 1)
                    expected = (DurfeeType.TYPE_II, durfee_side(narrowed))
                assert sub_durfee_side(p) == expected, p

    def test_triple_round_trip_and_size_law(self):
        for n in range(19):
            for p in partitions(n):
                t = ordinary_triple(p)
                assert t.to_partition() == p
                assert t.durfee**2 + t.right.size + t.below.size == n


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
                    assert other.shape == diagram.shape

    def test_diagram_validation(self):
        with pytest.raises(ValueError):
            ModularDiagram(((1,), (2,)))  # column increases downward
        with pytest.raises(ValueError):
            ModularDiagram(((2, 3),))  # bad cell value
        with pytest.raises(ValueError):
            ModularDiagram(((2,), (2, 1)))  # widths must be non-increasing

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
                assert dur2(p) == expected == durfee_side(modular2_shape(p))
                if p:
                    assert dur2_sub(p) == sub_durfee_side(modular2_shape(p))

    def test_dur2_sub_examples(self):
        assert dur2_sub(parse("7+6+6+5+1+1")) == (DurfeeType.TYPE_II, 1)
        assert dur2_sub(parse("9+7+7+5+1+1")) == (DurfeeType.TYPE_I, 1)
        assert dur2_sub(parse("11+3+1")) == (DurfeeType.TYPE_II, 0)

    def test_modular2_triple_examples(self):
        t = modular2_triple(parse("9+7+7+5+1+1"))
        assert (t.durfee, t.right, t.below) == (3, parse("4+2+2"), parse("5+1+1"))
        t = modular2_triple(parse("1"))
        assert (t.durfee, t.right, t.below) == (1, Partition(), Partition())
        # k = 2 strips 2k-1 = 3 from the first two rows; only row 3 remains below
        t = modular2_triple(parse("11+3+1"))
        assert (t.durfee, t.right, t.below) == (2, parse("8"), parse("1"))
        assert t.square_weight + t.right.size + t.below.size == 15

    def test_modular2_triple_round_trip(self):
        for n in range(26):
            for p in odd_partitions(n):
                if not p:
                    continue
                t = modular2_triple(p)
                assert t.to_partition() == p
                k = t.durfee
                assert k * (2 * k - 1) + t.right.size + t.below.size == n

    def test_modular2_triple_rejects(self):
        with pytest.raises(ValueError):
            modular2_triple(parse("4+3"))
        with pytest.raises(ValueError):
            modular2_triple(Partition())


class TestEvenConjugation:
    def test_examples(self):
        assert modular2_conjugate_even(parse("4+2+2")) == parse("6+2")
        assert modular2_conjugate_even(Partition()) == Partition()
        assert modular2_conjugate_even(parse("2+2")) == parse("4")

    def test_involution_and_size(self):
        for half in range(11):
            for p in partitions(half):
                doubled = Partition(2 * part for part in p.parts)
                image = modular2_conjugate_even(doubled)
                assert image.size == doubled.size
                assert all(part % 2 == 0 for part in image.parts)
                assert modular2_conjugate_even(image) == doubled

    def test_rejects_odd_parts(self):
        with pytest.raises(ValueError):
            modular2_conjugate_even(parse("3+2"))


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
        for n in range(31):
            for p in partitions(n, odd=True):
                assert alternating_index(p) == triple_alternating_index(p), p

    def test_rejects_even_parts(self):
        with pytest.raises(ValueError, match="alternating index needs odd parts, got 4"):
            alternating_index(parse("4+1"))


def test_statistics_build_no_intermediate(monkeypatch):
    # the walk stores through Partition._trusted, so only a statistic that
    # builds an intermediate Partition, Triple or diagram reaches these
    def refuse(self, *args):
        raise AssertionError(f"a statistic constructed a {type(self).__name__}")

    monkeypatch.setattr(Partition, "__init__", refuse)
    monkeypatch.setattr(Triple, "__post_init__", refuse)
    monkeypatch.setattr(ModularDiagram, "__post_init__", refuse)
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
        assert modular2_shape(parse("7+6+6+5+1+1")) == parse("4+3+3+3+1+1")
        assert modular2_shape(Partition()) == Partition()
