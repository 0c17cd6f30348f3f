"""Core partition type and statistics."""

import functools
import itertools

import pytest
from hypothesis import given, strategies as st

from partition_lab.core import (
    Partition,
    k_measure,
    parity_index,
    parse,
    partitions,
    runs,
    sol,
    union,
)

# counts of partitions / strict partitions of n, n = 0..12 (classical values)
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
STRICT_COUNTS = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15]


def longest_gapped_subsequence(parts, k):
    """Oracle for the k-measure: exhaustive maximum over all subsequences."""
    best = 0
    for r in range(len(parts), 0, -1):
        for combo in itertools.combinations(parts, r):
            if all(a - b >= k for a, b in zip(combo, combo[1:])):
                best = r
                break
        if best:
            break
    return best


def longest_gapped_dp(parts, k):
    """Second oracle: maximize over subsequences by dynamic programming."""
    best = []
    for i, part in enumerate(parts):
        extend = 0
        for j in range(i):
            if parts[j] - part >= k:
                extend = max(extend, best[j])
        best.append(extend + 1)
    return max(best, default=0)


partition_lists = st.lists(st.integers(min_value=1, max_value=12), max_size=8)


class TestPartitionType:
    def test_size_examples(self):
        assert Partition().size == 0
        assert parse("7+6+6+5+1+1").size == 26
        assert parse("9+7+7+5+1+1").size == 30

    def test_length_examples(self):
        assert Partition().length == 0
        assert parse("7+6+6+5+1+1").length == 6
        assert parse("14+13+11+9+6+5+4+2+1").length == 9

    def test_multiplicity(self):
        assert parse("7+6+6+5+1+1").multiplicity(6) == 2
        assert parse("9+7+7+5+1+1").multiplicity(1) == 2
        assert Partition().multiplicity(3) == 0

    def test_strict_and_odd_predicates(self):
        assert parse("7+6+5+2+1").is_strict()
        p = parse("9+7+7+5+1+1")
        assert not p.is_strict()
        assert p.is_odd_parts()
        assert Partition().is_strict() and Partition().is_odd_parts()

    def test_constructor_sorts_and_rejects(self):
        assert Partition([1, 3, 2]).parts == (3, 2, 1)
        assert Partition([]).parts == ()
        with pytest.raises(ValueError):
            Partition([3, 0])
        with pytest.raises(ValueError):
            Partition([3, -1])
        with pytest.raises(ValueError):  # bool passes isinstance(part, int)
            Partition([True, 2])

    @pytest.mark.parametrize(
        "parts, bad",
        [
            ([2.0], "2.0"),
            ([True], "True"),
            ([3, 1.5], "1.5"),
            ((x for x in (2, 0)), "0"),
        ],
    )
    def test_constructor_names_the_bad_part(self, parts, bad):
        with pytest.raises(ValueError, match=f"got {bad}$"):
            Partition(parts)

    def test_parse_accepts_canonical_literals(self):
        assert parse("") == Partition()
        assert parse("0") == Partition()
        assert parse("7+6+6+5+1+1").parts == (7, 6, 6, 5, 1, 1)

    @pytest.mark.parametrize("bad", ["5+7", "a", "-1", "3++1", "3+0", "3^2"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse(bad)

    @given(partition_lists)
    def test_literal_round_trip(self, parts):
        p = Partition(parts)
        assert parse(str(p)) == p

    def test_hash_and_equality(self):
        assert Partition([2, 1]) == Partition([1, 2])
        assert len({Partition([2, 1]), Partition([1, 2])}) == 1


class TestRunsAndSol:
    def test_runs_examples(self):
        assert runs(parse("7+6+5+2+1")) == ((7, 6, 5), (2, 1))
        assert runs(parse("14+13+11+9+6+5+4+2+1")) == (
            (14, 13),
            (11,),
            (9,),
            (6, 5, 4),
            (2, 1),
        )
        assert runs(Partition()) == ()

    def test_sol_examples(self):
        assert sol(parse("7+6+5+2+1")) == 1
        assert sol(parse("14+13+11+9+6+5+4+2+1")) == 3
        assert sol(Partition()) == 0

    def test_runs_rejects_repeats(self):
        with pytest.raises(ValueError):
            runs(parse("9+7+7+5+1+1"))
        with pytest.raises(ValueError):
            sol(parse("3+3"))

    def test_runs_reassemble_and_count(self):
        for n in range(21):
            for p in partitions(n, distinct=True):
                blocks = runs(p)
                flattened = tuple(itertools.chain.from_iterable(blocks))
                assert flattened == p.parts
                assert sum(len(b) for b in blocks) == p.length
                assert sol(p) == sum(1 for b in blocks if len(b) % 2)


class TestKMeasure:
    def test_examples(self):
        assert k_measure(parse("7+6+6+5+1+1"), 2) == 3
        assert k_measure(parse("14+13+11+9+6+5+4+2+1"), 2) == 6
        assert k_measure(parse("3+3+2"), 1) == 2

    def test_one_measure_counts_distinct_values(self):
        for n in range(26):
            for p in partitions(n):
                assert k_measure(p, 1) == len(set(p.parts))

    def test_greedy_matches_dp_oracle(self):
        for n in range(19):
            for p in partitions(n):
                for k in (1, 2, 3):
                    assert k_measure(p, k) == longest_gapped_dp(p.parts, k), (p, k)

    def test_greedy_matches_exhaustive_oracle_small(self):
        for n in range(11):
            for p in partitions(n):
                for k in (1, 2, 3):
                    assert k_measure(p, k) == longest_gapped_subsequence(p.parts, k)

    def test_two_measure_relation_on_strict(self):
        for n in range(26):
            for p in partitions(n, distinct=True):
                assert 2 * k_measure(p, 2) == p.length + sol(p)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            k_measure(Partition([2]), 0)
        # a bool or a float compares like an int, so only its type rules it out
        for bad in (True, 1.5, 2.0):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                k_measure(parse("5+4+2"), bad)


class TestUnionAndConjugate:
    def test_union_examples(self):
        assert union(parse("3+1+1"), parse("4+3+2+1")) == parse("4+3+3+2+1+1+1")
        p = parse("6+2")
        assert union(Partition(), p) == p
        assert union(parse("6+2"), parse("5+1+1")) == parse("6+5+2+1+1")

    @given(partition_lists, partition_lists, partition_lists)
    def test_union_laws(self, a, b, c):
        pa, pb, pc = Partition(a), Partition(b), Partition(c)
        assert union(pa, pb) == union(pb, pa)
        assert union(union(pa, pb), pc) == union(pa, union(pb, pc))
        assert union(pa, pb).size == pa.size + pb.size

    def test_conjugate_examples(self):
        assert Partition().conjugate() == Partition()
        assert parse("4+2+2").conjugate() == parse("3+3+1+1")
        p = parse("8+5+5+2+2+2+1")
        assert p.conjugate().conjugate() == p

    def test_conjugate_swaps_length_and_largest(self):
        for n in range(16):
            for p in partitions(n):
                q = p.conjugate()
                assert q.conjugate() == p
                if p:
                    assert q.length == p.parts[0]
                    assert q.parts[0] == p.length


class TestParityIndex:
    def test_examples(self):
        assert parity_index((1, 1, 2, 5, 6, 6)) == 4
        assert parity_index((2, 4, 6)) == 0
        assert parity_index((1,)) == 1
        assert parity_index(()) == 0


def _reference_partitions(n, max_part=None, distinct=False, odd=False):
    """The recursive generator that the partition walk replaced, kept
    as an independent oracle for its order."""
    stack = []

    def emit(remaining, cap):
        if remaining == 0:
            yield tuple(stack)
            return
        top = min(cap, remaining)
        if odd and top % 2 == 0:
            top -= 1
        for part in range(top, 0, -2 if odd else -1):
            stack.append(part)
            yield from emit(remaining - part, part - 1 if distinct else part)
            stack.pop()

    yield from emit(n, n if max_part is None else min(max_part, n))


class TestGenerator:
    def test_order_matches_recursive_reference(self):
        for n in range(23):
            for distinct, odd in itertools.product((False, True), repeat=2):
                for max_part in (None, 0, 1, 2, 3, 4, 6, n, n + 3):
                    family = {"max_part": max_part, "distinct": distinct, "odd": odd}
                    walked = [p.parts for p in partitions(n, **family)]
                    assert walked == list(_reference_partitions(n, **family)), (n, family)

    def test_walk_yields_canonical_unaliased_partitions(self):
        # the walk stores each part array unchecked, so it must already be the
        # tuple the public constructor builds, and a fresh one per yield
        for n in range(26):
            for distinct, odd in itertools.product((False, True), repeat=2):
                for max_part in (None, 1, 2, n):
                    family = {"max_part": max_part, "distinct": distinct, "odd": odd}
                    walked = list(partitions(n, **family))
                    for p in walked:
                        assert type(p.parts) is tuple and p == Partition(p.parts), (p, family)
                    assert len(set(walked)) == len(walked), (n, family)

    def test_rejects_negative_arguments(self):
        # the checks run at call time, before any iteration
        with pytest.raises(ValueError, match="n must be"):
            partitions(-1)
        for n in (0, 5):  # once [Partition('0')] and nothing, respectively
            with pytest.raises(ValueError, match="max_part must be"):
                partitions(n, max_part=-1)

    @pytest.mark.parametrize("bad", [True, 2.5, 5.0])
    def test_rejects_non_int_arguments(self, bad):
        # the walk stores its output unchecked, so a bool or a float must
        # never reach it; the check is a plain if, so it also runs under -O
        with pytest.raises(ValueError, match="n must be an integer"):
            partitions(bad)
        with pytest.raises(ValueError, match="max_part must be an integer"):
            partitions(5, max_part=bad)

    def test_deep_counts_match_largest_part_recurrence(self):
        # beyond the sizes the recursive oracle covers: every family and cap
        # has the count of an independent recurrence on the largest part,
        # and the stream is strictly decreasing, so it holds no repeats
        @functools.lru_cache(maxsize=None)
        def count(n, cap, distinct, odd):
            total = int(n == 0)
            for part in range(1, min(cap, n) + 1):
                if not (odd and part % 2 == 0):
                    total += count(n - part, part - 1 if distinct else part, distinct, odd)
            return total

        for n in (26, 33, 40):
            for distinct, odd in ((False, False), (True, False), (False, True)):
                for max_part in (None, 1, 2, n // 2):
                    cap = n if max_part is None else max_part
                    walked = [p.parts for p in partitions(n, max_part=max_part, distinct=distinct, odd=odd)]
                    assert len(walked) == count(n, cap, distinct, odd), (n, max_part, distinct, odd)
                    assert all(a > b for a, b in zip(walked, walked[1:]))
                    for parts in walked:
                        assert sum(parts) == n and parts[0] <= cap, parts
                        assert not distinct or len(set(parts)) == len(parts), parts
                        assert not odd or all(part % 2 for part in parts), parts

    def test_reverse_lex_order(self):
        listing = [p.parts for p in partitions(6)]
        assert listing[0] == (6,)
        assert listing[-1] == (1,) * 6
        assert listing == sorted(listing, reverse=True)

    def test_counts(self):
        for n, expected in enumerate(PARTITION_COUNTS):
            assert sum(1 for _ in partitions(n)) == expected
        for n, expected in enumerate(STRICT_COUNTS):
            assert sum(1 for _ in partitions(n, distinct=True)) == expected

    def test_distinct_and_max_part_filters(self):
        for n in range(21):
            everything = list(partitions(n))
            strict = [p for p in everything if p.is_strict()]
            assert list(partitions(n, distinct=True)) == strict
            capped = [p for p in everything if not p or p.parts[0] <= 4]
            assert list(partitions(n, max_part=4)) == capped
            # odd=True generates what the odd-parts filter keeps; an even
            # cap (2, 4, 6) must drop to the odd part below it
            for distinct in (False, True):
                for max_part in (None, 1, 2, 3, 4, 6):
                    family = {"distinct": distinct, "max_part": max_part}
                    odd = [p for p in partitions(n, **family) if p.is_odd_parts()]
                    assert list(partitions(n, odd=True, **family)) == odd, (n, family)

    def test_euler_strict_equals_odd(self):
        for n in range(31):
            strict = sum(1 for _ in partitions(n, distinct=True))
            odd = sum(1 for p in partitions(n) if p.is_odd_parts())
            assert strict == odd == sum(1 for _ in partitions(n, odd=True))

    def test_determinism(self):
        first = [p.parts for p in partitions(9)]
        second = [p.parts for p in partitions(9)]
        assert first == second
