"""Bijections, the signed-pair involution, and the odd-gap decomposition."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import partition_lab
from partition_lab import maps, verify
from partition_lab.core import Partition, k_measure, parity_index, parse, partitions, sol
from partition_lab.maps import (
    LabeledPartition,
    PhiCase,
    SignedPair,
    classify_pair,
    enumerate_labeled,
    enumerate_pairs,
    fixed_to_strict,
    glaisher,
    involution_phi,
    involution_table,
    lemma51_compose,
    lemma51_decompose,
    parse_labeled,
    parse_pair,
    strict_to_fixed,
    sylvester,
)
from partition_lab.shapes import Border, dur2, modular2_diagram
from partition_lab.verify import Counterexample

DATA = Path(__file__).parent / "data"


def odd_partitions(n):
    return [p for p in partitions(n) if p.is_odd_parts()]


def diagram_hook_lengths(p):
    # oracle: the raw (l1, l2, l1, l2, ...) hook readings off the drawn
    # right-border 2-modular diagram, trailing zero kept
    rows = modular2_diagram(p, Border.RIGHT_BORDER).rows
    out = []
    for i in range(1, dur2(p) + 1):
        cells = list(rows[i - 1][i - 1:])
        for lower in rows[i:]:
            if len(lower) < i:
                break
            cells.append(lower[i - 1])
        out.append(len(cells))
        out.append(sum(1 for cell in cells if cell == 2))
    return out


class TestLabeledPartition:
    def test_literal_round_trip(self):
        eta = parse_labeled("6x+3+3+1x")
        assert str(eta) == "6x+3+3+1x"
        assert eta.values() == (6, 3, 3, 1)
        assert eta.x_count == 2 and eta.y_count == 2
        assert parse_labeled("0") == LabeledPartition()
        assert str(LabeledPartition()) == "0"

    def test_canonical_order_puts_x_first(self):
        eta = LabeledPartition([(3, False), (3, True)])
        assert str(eta) == "3x+3"

    def test_validity_unique_x(self):
        with pytest.raises(ValueError):
            LabeledPartition([(2, True), (2, True)])
        with pytest.raises(ValueError):  # once 3+Truex of size 4
            LabeledPartition([(True, True), (3, False)])

    def test_validity_blocks_next_value(self):
        with pytest.raises(ValueError):
            LabeledPartition([(3, True), (4, False)])
        with pytest.raises(ValueError):
            parse_labeled("4+3x")
        # fine when the gap is at least two
        LabeledPartition([(5, True), (3, True)])

    @pytest.mark.parametrize("label", ["no", 0, 1])
    def test_rejects_a_label_that_is_not_a_bool(self, label):
        # bool("no") is True, so coercing would build 3x+1 out of bad input
        with pytest.raises(ValueError, match=f"labels must be bools, got {label!r}"):
            LabeledPartition([(3, label), (1, False)])
        with pytest.raises(ValueError, match=f"labels must be bools, got {label!r}"):
            LabeledPartition([(3, True), (1, label)])

    @pytest.mark.parametrize(
        "entries,message",
        [
            ([(3, False), (0, False)], "part values must be positive integers, got 0"),
            ([(3, False), (True, False)], "part values must be positive integers, got True"),
            ([(3, "no"), (1, False)], "labels must be bools, got 'no'"),
            ([(3, 0), (1, False)], "labels must be bools, got 0"),
            ([(3, True), (1, 1)], "labels must be bools, got 1"),
            ([(2, False), (2, True), (2, True)], "value 2 is X-labeled twice"),
            ([(5, True), (3, True), (4, False)], "X-labeled 3 cannot coexist with a part 4"),
            ([(3, True), [1, False]], "entries must be (value, label) tuples, got [1, False]"),
        ],
    )
    def test_each_single_fault_is_named(self, entries, message):
        # the one fault is named whether the sort succeeds or meets an entry
        # it cannot order; the same entries in either order give the same
        # message
        for given in (entries, entries[::-1]):
            with pytest.raises(ValueError) as caught:
                LabeledPartition(given)
            assert str(caught.value) == message

    def test_unsortable_entries_name_the_first_bad_entry_given(self):
        # labels 'no' and None stop the sort; in the given order 2 comes
        # before 2x, which must not read as a second X-labeled 2
        entries = [(2, False), (2, True), (1, "no"), (1, None)]
        with pytest.raises(ValueError, match="^labels must be bools, got 'no'$"):
            LabeledPartition(entries)
        with pytest.raises(ValueError, match="^labels must be bools, got None$"):
            LabeledPartition(entries[::-1])

    def test_entries_may_come_from_a_generator(self):
        eta = LabeledPartition(entry for entry in [(1, True), (3, False)])
        assert str(eta) == "3+1x"
        with pytest.raises(ValueError, match="^labels must be bools, got 'no'$"):
            LabeledPartition(entry for entry in [(3, "no"), (3, False)])

    def test_stored_counts_match_their_definitions(self):
        for m in range(11):
            for eta in enumerate_labeled(m):
                labels = [is_x for _, is_x in eta.entries]
                ys = [value for value, is_x in eta.entries if not is_x]
                assert eta.size == sum(value for value, _ in eta.entries) == m
                assert eta.x_count == labels.count(True)
                assert eta.y_count == labels.count(False)
                assert eta.smallest_y == (min(ys) if ys else None)
                assert all(type(n) is int for n in (eta.size, eta.x_count, eta.y_count))

    def test_shuffled_entries_come_out_canonical(self):
        rng = random.Random(17)
        for m in range(11):
            for eta in enumerate_labeled(m):
                shuffled = list(eta.entries)
                rng.shuffle(shuffled)
                rebuilt = LabeledPartition(shuffled)
                assert rebuilt.entries == eta.entries
                # values descending, and within a value the X copy first
                assert rebuilt.entries == tuple(
                    sorted(eta.entries, key=lambda e: (-e[0], 0 if e[1] else 1))
                )

    def test_sign(self):
        assert parse_labeled("3x+1x").sign == 1
        assert parse_labeled("6").sign == -1
        assert parse_labeled("6x+3+3+1x").sign == 1


class TestSignedPair:
    def test_weight_example(self):
        pair = parse_pair("3+2|6x+3+3+1x")
        assert pair.weight == (2, 6, 18)
        # two parts carry the plain y label (the repeated 3s), so sign +1;
        # any other convention breaks the telescoping checked exhaustively
        # in test_exhaustive_involution_properties
        assert pair.sign == 1

    def test_requires_strict_left(self):
        with pytest.raises(ValueError, match="^left partition must be strict, got 3\\+3$"):
            SignedPair(Partition([3, 3]), LabeledPartition())

    def test_equality_hash_and_set_membership(self):
        # check_involution compares each pair with its image and the fixed
        # pairs as a set, so equal pairs must hash alike and unequal ones
        # must stay apart
        pair = parse_pair("3+2|6x+3+3+1x")
        same = SignedPair(Partition([2, 3]), parse_labeled("1x+3+6x+3"))
        assert pair == same and hash(pair) == hash(same)
        assert same in {pair} and len({pair, same}) == 1
        other = parse_pair("3+2|6x+3+3+1")
        assert pair != other and other not in {pair}
        assert pair != (pair.lam, pair.eta)
        assert SignedPair(pair.lam, pair.eta) == pair

    def test_repr(self):
        assert repr(parse_pair("2|1x")) == (
            "SignedPair(lam=Partition('2'), eta=LabeledPartition('1x'))"
        )

    def test_parse_pair_needs_separator(self):
        with pytest.raises(ValueError):
            parse_pair("3+2")


class TestClassify:
    def test_case2_example(self):
        pair = parse_pair("3+2|6x+3+3+1x")
        case, a, b = classify_pair(pair)
        assert (case, a, b) == (PhiCase.CASE2, 3, 3)

    def test_fixed_example(self):
        pair = parse_pair("2|3x+1x")
        assert classify_pair(pair) == (PhiCase.FIXED, None, None)

    def test_part_one_always_eligible(self):
        pair = parse_pair("1|5")
        case, a, b = classify_pair(pair)
        assert (case, a, b) == (PhiCase.CASE2, 1, 5)


class TestInvolution:
    def test_moves_between_sides(self):
        left = parse_pair("0|6")
        right = parse_pair("6|0")
        assert involution_phi(left) == (PhiCase.CASE1, right)
        assert involution_phi(right) == (PhiCase.CASE2, left)

    def test_case2_labels_y(self):
        assert involution_phi(parse_pair("3|3x")) == (PhiCase.CASE2, parse_pair("0|3x+3"))

    def test_fixed_point(self):
        pair = parse_pair("2|3x+1x")
        assert involution_phi(pair) == (PhiCase.FIXED, pair)

    def test_table_rows_from_publication(self):
        rows = (DATA / "involution_n6_printed.txt").read_text().splitlines()
        assert len(rows) == 43
        computed = set()
        for pair in enumerate_pairs(6):
            if pair.sign < 0:
                computed.add(f"{pair} | {involution_phi(pair)[1]}")
        assert computed == set(rows)

    def test_table_matches_golden_file(self):
        golden = (DATA / "involution_n6.txt").read_text()
        assert involution_table(6) + "\n" == golden

    def test_exhaustive_involution_properties(self):
        for n in range(10):
            for pair in enumerate_pairs(n):
                case, image = involution_phi(pair)
                icase, back = involution_phi(image)
                assert back == pair
                assert image.weight == pair.weight
                assert (case, icase) == (classify_pair(pair)[0], classify_pair(image)[0])
                if image == pair:
                    assert case is PhiCase.FIXED
                    assert pair.sign == 1
                else:
                    assert image.sign == -pair.sign
                    swapped = {PhiCase.CASE1: PhiCase.CASE2, PhiCase.CASE2: PhiCase.CASE1}
                    assert icase is swapped[case]

    def test_fixed_points_at_six(self):
        fixed = {
            str(pair)
            for pair in enumerate_pairs(6)
            if involution_phi(pair)[1] == pair
        }
        assert fixed == {"(0, 6x)", "(0, 5x+1x)", "(0, 4x+2x)", "(2, 3x+1x)"}


class TestFixedPointCorrespondence:
    def test_examples(self):
        pair = parse_pair("2|3x+1x")
        assert fixed_to_strict(pair) == parse("3+2+1")
        assert strict_to_fixed(parse("3+2+1")) == pair
        assert fixed_to_strict(parse_pair("0|6x")) == parse("6")
        assert strict_to_fixed(parse("5+4+2")) == parse_pair("5|4x+2x")

    def test_round_trip_and_weights(self):
        for n in range(15):
            for t in partitions(n, distinct=True):
                pair = strict_to_fixed(t)
                case, _, _ = classify_pair(pair)
                assert case is PhiCase.FIXED
                assert fixed_to_strict(pair) == t
                x, y, q = pair.weight
                assert x == k_measure(t, 2)
                assert y == t.length
                assert q == n

    def test_rejects_moving_pairs(self):
        with pytest.raises(ValueError):
            fixed_to_strict(parse_pair("0|6"))


def labeled_by_masks(n):
    # reference: per partition, the distinct values descending, the values
    # whose successor is absent, and one multiplicity call per value for
    # each subset of those values
    found = []
    for p in partitions(n):
        values = sorted(set(p.parts), reverse=True)
        present = set(values)
        eligible = [v for v in values if v + 1 not in present]
        for mask in range(1 << len(eligible)):
            chosen = {v for idx, v in enumerate(eligible) if mask >> idx & 1}
            entries = []
            for v in values:
                count = p.multiplicity(v)
                if v in chosen:
                    entries.append((v, True))
                    entries.extend((v, False) for _ in range(count - 1))
                else:
                    entries.extend((v, False) for _ in range(count))
            found.append(LabeledPartition(entries))
    return found


class TestEnumeration:
    def test_labeled_matches_the_mask_construction_in_order(self):
        for n in range(13):
            assert [eta.entries for eta in enumerate_labeled(n)] == [
                eta.entries for eta in labeled_by_masks(n)
            ], n

    def test_labeled_counts_small(self):
        # by hand: 3, 3x, 2+1, 2x+1, 1+1+1, 1x+1+1 (1x next to a part 2 is invalid)
        got = {str(eta) for eta in enumerate_labeled(3)}
        assert got == {"3", "3x", "2+1", "2x+1", "1+1+1", "1x+1+1"}

    def test_pair_count_at_six(self):
        pairs = enumerate_pairs(6)
        assert len(pairs) == 2 * 43 + 4

    @pytest.mark.parametrize("n", [True, False, -1, 2.0, "3"])
    def test_pairs_reject_a_size_that_is_no_nonnegative_int(self, n):
        # a bool would enumerate size 0 or 1, and -1 would give no pairs
        with pytest.raises(ValueError, match="^total size must be a nonnegative integer, got "):
            enumerate_pairs(n)
        with pytest.raises(ValueError, match="^total size must be a nonnegative integer, got "):
            involution_table(n)

    def test_checker_classifies_and_enumerates_once(self, monkeypatch):
        # one enumerate_labeled call and one strict walk per total size, and
        # one classification per pair and per image, plus the one
        # fixed_to_strict makes at a fixed point (there is one fixed pair
        # per strict partition)
        calls = {"labeled": 0, "classify": 0, "strict": 0}
        real_labeled, real_classify = maps.enumerate_labeled, maps.classify_pair

        def strict_walks(real):
            def walk(n, **family):
                calls["strict"] += family.get("distinct", False)
                return real(n, **family)

            return walk

        for module in (maps, verify):
            monkeypatch.setattr(module, "partitions", strict_walks(module.partitions))

        def labeled(m):
            calls["labeled"] += 1
            return real_labeled(m)

        def classify(pair):
            calls["classify"] += 1
            return real_classify(pair)

        monkeypatch.setattr(maps, "enumerate_labeled", labeled)
        monkeypatch.setattr(maps, "classify_pair", classify)
        pairs = verify.check_involution(8)["pairs"]
        fixed = sum(1 for n in range(9) for _ in partitions(n, distinct=True))
        assert calls["labeled"] == 9
        assert calls["strict"] == 9
        assert calls["classify"] <= 2 * pairs + fixed


class TestSylvester:
    def test_image_example(self):
        assert sylvester(parse("9+7+7+5+1+1")) == parse("10+7+5+4+3+1")

    def test_tiny_cases(self):
        assert sylvester(parse("1")) == parse("1")
        assert sylvester(parse("3")) == parse("2+1")
        assert sylvester(Partition()) == Partition()

    def test_rejects_even_parts(self):
        # the map names itself, as glaisher does; no diagram is drawn
        for text, part in (("4+1", 4), ("5+2+1", 2), ("3+3+2", 2)):
            with pytest.raises(ValueError, match=f"^Sylvester's map needs odd parts, got {part}$"):
                sylvester(parse(text))

    def test_broken_hooks_raise_under_optimize(self):
        # a wrong hook reading must raise even with asserts stripped by -O
        script = (
            "from partition_lab import maps\n"
            "from partition_lab.core import parse\n"
            "maps._hook_lengths = lambda p: [3, 3]\n"
            "try:\n"
            "    print(maps.sylvester(parse('5+1')))\n"
            "except RuntimeError as exc:\n"
            "    print('RuntimeError', exc)\n"
        )
        src = str(Path(partition_lab.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("RuntimeError hooks of 5+1 gave 3+3")

    def test_stats_check_reads_hooks_once(self, monkeypatch):
        calls = []
        real = maps._hook_lengths
        monkeypatch.setattr(maps, "_hook_lengths", lambda p: calls.append(p) or real(p))
        p = parse("9+7+7+5+1+1")
        assert verify._transported_stats(p, sylvester(p)) == {}
        assert len(calls) == 1

    def test_checker_reads_hooks_once_per_partition(self, monkeypatch):
        # check_sylvester checks the statistics on the image it already
        # built, so each nonempty odd partition's hooks are read once
        calls = []
        real = maps._hook_lengths
        monkeypatch.setattr(maps, "_hook_lengths", lambda p: calls.append(p) or real(p))
        nonempty = sum(len(odd_partitions(n)) for n in range(1, 15))
        assert verify.check_sylvester(14) == {"partitions": nonempty + 1}
        assert len(calls) == nonempty

    def test_stats_check_flags_a_relation_on_the_image(self):
        # the relations read the hooks back from the image's parts: with
        # l2 = 6 in place of the 7 of sylvester(9+7+7+5+1+1) = 10+7+5+4+3+1,
        # l1 - l2 - 1 no longer counts the two 1s
        with pytest.raises(Counterexample, match="multiplicity of 1"):
            verify._transported_stats(parse("9+7+7+5+1+1"), parse("10+6+5+4+3+1"))

    def test_hooks_out_of_order_raise(self, monkeypatch):
        # the statistics are read back from the image's parts, so the hook
        # readings must already be in decreasing order
        monkeypatch.setattr(maps, "_hook_lengths", lambda p: [1, 2])
        with pytest.raises(RuntimeError, match="hooks of 3 gave 2\\+1"):
            sylvester(parse("3"))

    def test_stats_check_raises_on_size_change(self, monkeypatch):
        monkeypatch.setattr(maps, "_hook_lengths", lambda p: [4, 0])
        with pytest.raises(RuntimeError):
            verify._transported_stats(parse("1"), sylvester(parse("1")))

    def test_stats_check_examples(self):
        for p in [parse("9+7+7+5+1+1"), parse("1"), *odd_partitions(15)]:
            assert verify._transported_stats(p, sylvester(p)) == {}, p

    def test_bijection_small_sizes(self):
        for n in range(19):
            images = [sylvester(p) for p in odd_partitions(n)]
            assert len(set(images)) == len(images)
            assert set(images) == set(partitions(n, distinct=True))

    def test_hook_lengths_match_the_drawn_diagram(self):
        checked = 0
        for n in range(1, 31):
            for p in partitions(n, odd=True):
                assert maps._hook_lengths(p) == diagram_hook_lengths(p), p
                checked += 1
        assert checked == 2034  # nonempty odd partitions of n <= 30
        # both reject the same first even part, each naming itself
        for text, part in (("4+1", 4), ("5+2+1", 2), ("3+3+2", 2)):
            with pytest.raises(ValueError, match=f"^Sylvester's map needs odd parts, got {part}$"):
                maps._hook_lengths(parse(text))
            with pytest.raises(ValueError, match=f"^right-border drawing needs odd parts, got {part}$"):
                diagram_hook_lengths(parse(text))


class TestGlaisher:
    def test_examples(self):
        assert glaisher(parse("11+3+1")) == parse("11+3+1")
        assert glaisher(parse("1+1")) == parse("2")
        assert glaisher(parse("3+3+3")) == parse("6+3")

    def test_rejects_even_parts(self):
        with pytest.raises(ValueError):
            glaisher(parse("2+1"))

    def test_bijection_small_sizes(self):
        for n in range(19):
            images = [glaisher(p) for p in odd_partitions(n)]
            assert len(set(images)) == len(images)
            assert set(images) == set(partitions(n, distinct=True))

    def test_counterexample_statistics(self):
        image = glaisher(parse("11+3+1"))
        assert (image.length, sol(image)) == (3, 3)
        assert sol(image) != 1  # lands outside the 3-part, 1-odd-run family


class TestOddGapDecomposition:
    def test_worked_example(self):
        sigma, tau = lemma51_decompose(parse("8+5+5+2+2+2+1"))
        assert sigma == parse("7+6+3+1")
        assert tau == parse("4+2+2")
        assert lemma51_compose(sigma, tau) == parse("8+5+5+2+2+2+1")

    def test_all_even_is_untouched(self):
        p = parse("4+2+2")
        assert lemma51_decompose(p) == (Partition(), p)

    def test_round_trip(self):
        for n in range(15):
            for p in partitions(n):
                sigma, tau = lemma51_decompose(p)
                assert sigma.is_strict()
                assert all(part % 2 == 0 for part in tau.parts)
                assert sigma.size + tau.size == n
                assert sigma.length == parity_index(p.parts[::-1])
                assert lemma51_compose(sigma, tau) == p

    def test_even_largest_part_relation(self):
        for n in range(15):
            for p in partitions(n):
                if p and p.parts[0] % 2 == 0:
                    sigma, tau = lemma51_decompose(p)
                    biggest = tau.parts[0] if tau else 0
                    assert biggest == p.parts[0] - sigma.length

    def test_one_pass_matches_the_row_by_row_definition(self):
        # the definition: bottom-up, each odd gap takes one cell from every
        # row above it, O(length^2) per partition
        def row_by_row(p):
            work = list(p.parts)
            sigma = []
            for i in range(len(work), 0, -1):
                below = work[i] if i < len(work) else 0
                if (work[i - 1] - below) % 2:
                    for j in range(i):
                        work[j] -= 1
                    sigma.append(i)
            return Partition(sigma), Partition(part for part in work if part)

        checked = 0
        for n in range(21):
            for p in partitions(n):
                assert lemma51_decompose(p) == row_by_row(p), p
                checked += 1
        assert checked == 2714  # partitions of n <= 20

    def test_compose_validates(self):
        with pytest.raises(ValueError):
            lemma51_compose(parse("2+2"), Partition())
        with pytest.raises(ValueError):
            lemma51_compose(parse("2"), parse("3"))
