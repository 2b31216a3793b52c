import itertools
import random

import pytest

from conftest import (
    ALPHABET,
    BudgetExceeded,
    brute_force_neighborhood,
    enumeration_fuzzy_set,
    mutate,
    random_word,
    reference_edit_distance,
)
from fzsearch import (
    BadParameter,
    EmptyKeyword,
    edit_distance,
    gram_fuzzy_set,
    normalize_keyword,
    wildcard_fuzzy_set,
)
from fzsearch.fuzzyset import MAX_VARIANTS, _delete_once, _expand_once, _levels, fuzzy_set, within_edits


class TestNormalize:
    def test_case_fold(self):
        assert normalize_keyword("Castle") == "castle"

    def test_strips_non_letters(self):
        assert normalize_keyword("cloud-computing") == "cloudcomputing"
        assert normalize_keyword("  Foo_Bar9 ") == "foobar"

    def test_rejects_letterless(self):
        with pytest.raises(EmptyKeyword):
            normalize_keyword("42!")
        with pytest.raises(EmptyKeyword):
            normalize_keyword("")

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(50):
            w = random_word(rng)
            assert normalize_keyword(w) == w


EDIT_CASES = [
    ("castle", "castle", 0),
    ("castle", "castl", 1),
    ("kitten", "sitting", 3),
    ("cta", "cat", 2),  # transposition is not a primitive operation
    ("a", "", 1),
    ("", "", 0),
    ("cot", "cat", 1),
    ("saturday", "sunday", 3),
    ("abc", "xyz", 3),
]


class TestEditDistance:
    @pytest.mark.parametrize("a,b,expected", EDIT_CASES)
    def test_frozen_cases(self, a, b, expected):
        assert edit_distance(a, b) == expected
        assert edit_distance(b, a) == expected

    def test_matches_reference_on_random_pairs(self):
        rng = random.Random(23)
        for _ in range(300):
            a = random_word(rng, 0, 7) if rng.random() < 0.9 else ""
            b = random_word(rng, 0, 7)
            assert edit_distance(a, b) == reference_edit_distance(a, b)

    @pytest.mark.parametrize("a,b,expected", EDIT_CASES)
    def test_within_edits_on_frozen_cases(self, a, b, expected):
        for k in range(-1, expected + 2):
            assert within_edits(a, b, k) == within_edits(b, a, k) == (expected <= k), k

    def test_within_edits_is_the_distance_bound_on_random_pairs(self):
        """Near pairs (a few edits apart, over few letters) as well as far ones."""
        rng = random.Random(29)
        for _ in range(3000):
            a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 9)))
            b = a
            for _ in range(rng.randint(0, 4)):
                b = mutate(b, rng) if b else rng.choice("abc")
            if rng.random() < 0.2:
                b = random_word(rng, 0, 9)
            for k in range(4):
                assert within_edits(a, b, k) == (edit_distance(a, b) <= k), (a, b, k)

    def test_zero_iff_equal(self):
        rng = random.Random(5)
        for _ in range(100):
            a, b = random_word(rng), random_word(rng)
            assert (edit_distance(a, b) == 0) == (a == b)


class TestWildcardSet:
    def test_base_case(self):
        assert wildcard_fuzzy_set("castle", 0) == ("castle",)

    def test_cat_exact_members(self):
        s = wildcard_fuzzy_set("cat", 1)
        assert s == ("*at", "*cat", "c*at", "c*t", "ca*", "ca*t", "cat", "cat*")

    def test_distance_one_is_one_level_of_the_expansion(self):
        """The d = 1 set, built directly, is the general level expansion's, of ``2*len(word) + 2`` variants."""
        rng = random.Random(53)
        for length in range(1, 21):
            for letters in (ALPHABET, "ab"):
                word = "".join(rng.choice(letters) for _ in range(length))
                assert wildcard_fuzzy_set(word, 1) == _levels(word, 1, _expand_once)
                assert len(wildcard_fuzzy_set(word, 1)) == 2 * length + 2

    def test_sorted_deduped_deterministic(self):
        rng = random.Random(41)
        for d in (0, 1, 2):
            w = random_word(rng)
            s1, s2 = wildcard_fuzzy_set(w, d), wildcard_fuzzy_set(w, d)
            assert s1 == s2
            assert list(s1) == sorted(set(s1))
            assert w in s1

    def test_monotone_in_d(self):
        rng = random.Random(43)
        for _ in range(20):
            w = random_word(rng, 2, 6)
            sets = [set(wildcard_fuzzy_set(w, d)) for d in (0, 1, 2)]
            assert sets[0] <= sets[1] <= sets[2]

    def test_intersection_iff_distance_one(self):
        # variant sets share a member exactly when the words are within one edit
        rng = random.Random(47)
        words = {random_word(rng, 2, 6) for _ in range(40)}
        words |= {mutate(w, rng) for w in list(words)[:20]}
        words = [w for w in words if w]
        cache = {w: set(wildcard_fuzzy_set(w, 1)) for w in words}
        for a in words:
            for b in words:
                overlap = bool(cache[a] & cache[b])
                assert overlap == (edit_distance(a, b) <= 1), (a, b)

    def test_distance_two_coverage_measured(self, capsys):
        # every pair two edits apart shares a d = 2 variant
        rng = random.Random(53)
        pairs = []
        while len(pairs) < 60:
            w = random_word(rng, 3, 7)
            u = mutate(mutate(w, rng), rng)
            if u and edit_distance(w, u) == 2:
                pairs.append((w, u))
        hits = sum(
            1
            for w, u in pairs
            if set(wildcard_fuzzy_set(w, 2)) & set(wildcard_fuzzy_set(u, 2))
        )
        print(f"wildcard d=2 shared-variant coverage: {hits}/{len(pairs)}")
        assert hits == len(pairs)

    def test_intersection_iff_distance_two_exhaustive(self):
        """Every pair of words of 1-5 letters over ``abc``: their d = 2 sets share
        a member exactly when the words are within two edits."""
        words = ["".join(p) for n in range(1, 6) for p in itertools.product("abc", repeat=n)]
        cache = {w: set(wildcard_fuzzy_set(w, 2)) for w in words}
        near = 0
        for a, b in itertools.combinations(words, 2):
            within = reference_edit_distance(a, b) <= 2
            assert (not cache[a].isdisjoint(cache[b])) == within, (a, b)
            near += within
        assert (len(words), near) == (363, 18078)


class TestGramSet:
    def test_base_case(self):
        assert gram_fuzzy_set("cat", 0) == ("cat",)

    def test_cat(self):
        assert gram_fuzzy_set("cat", 1) == ("at", "ca", "cat", "ct")

    def test_duplicate_deletions_collapse(self):
        assert gram_fuzzy_set("aa", 1) == ("a", "aa")

    def test_distance_one_is_one_level_of_the_deletions(self):
        """The gram d = 1 set, built directly, is the general level expansion's; ``"ab"`` repeats letters,
        whose deletions collapse."""
        rng = random.Random(59)
        for length in range(1, 21):
            for letters in (ALPHABET, "ab"):
                for _ in range(3):
                    word = "".join(rng.choice(letters) for _ in range(length))
                    assert gram_fuzzy_set(word, 1) == _levels(word, 1, _delete_once)

    def test_degenerate(self):
        assert gram_fuzzy_set("cat", 3) == ("", "a", "at", "c", "ca", "cat", "ct", "t")
        assert gram_fuzzy_set("a", 1) == gram_fuzzy_set("a", 5) == ("", "a")

    def test_completeness_at_distance_one(self):
        rng = random.Random(59)
        for _ in range(100):
            w = random_word(rng, 2, 8)
            u = mutate(w, rng)
            shared = set(gram_fuzzy_set(w, 1)) & set(gram_fuzzy_set(u, 1))
            assert shared, (w, u)

    def test_known_false_positive(self):
        # distance 2 but the deletion signatures intersect: soundness is not claimed
        assert edit_distance("xab", "aby") == 2
        shared = set(gram_fuzzy_set("xab", 1)) & set(gram_fuzzy_set("aby", 1))
        assert "ab" in shared

    def test_monotone_in_d(self):
        rng = random.Random(61)
        for _ in range(20):
            w = random_word(rng, 4, 8)
            sets = [set(gram_fuzzy_set(w, d)) for d in (0, 1, 2)]
            assert sets[0] <= sets[1] <= sets[2]

    def test_every_short_word_over_abc_against_the_oracle(self):
        """Every word over ``abc`` of 1 to 4 letters: the set is the subsequences
        that at most ``d`` deletions reach, down to the empty word; words within
        ``d`` edits share a variant, and words sharing one are within ``2d``."""
        words = ["".join(p) for n in range(1, 5) for p in itertools.product("abc", repeat=n)]
        for w in words:
            for d in range(6):
                kept = range(max(0, len(w) - d), len(w) + 1)
                oracle = {"".join(c) for n in kept for c in itertools.combinations(w, n)}
                assert gram_fuzzy_set(w, d) == tuple(sorted(oracle)), (w, d)
        pairs = 0
        for d, longest in ((1, 4), (2, 3)):
            short = [w for w in words if len(w) <= longest]
            sets = {w: set(gram_fuzzy_set(w, d)) for w in short}
            for a, b in itertools.product(short, repeat=2):
                distance, shared = reference_edit_distance(a, b), bool(sets[a] & sets[b])
                assert shared or distance > d, (a, b, d)
                assert not shared or distance <= 2 * d, (a, b, d)
                pairs += 1
        assert pairs == 120 * 120 + 39 * 39


class TestEnumerationSet:
    def test_base_case(self):
        assert enumeration_fuzzy_set("cat", 0) == ("cat",)

    def test_equals_brute_force_small_alphabet(self):
        for word, d, size in (("ab", 1, 2), ("ab", 2, 2), ("cab", 1, 3), ("aa", 2, 2)):
            letters = ALPHABET[:size]
            expected = brute_force_neighborhood(word, d, letters)
            got = set(enumeration_fuzzy_set(word, d, alphabet_size=size))
            assert got == expected, (word, d, size)
            if (word, d, size) == ("ab", 1, 2):
                assert len(got) == 9

    def test_cat_full_alphabet_count(self):
        # brute force over every string of length 2..4 on a-z gives 180
        expected = brute_force_neighborhood("cat", 1, ALPHABET)
        got = set(enumeration_fuzzy_set("cat", 1))
        assert got == expected
        assert len(got) == 180

    def test_is_the_distance_ball(self):
        rng = random.Random(67)
        for _ in range(20):
            w = random_word(rng, 2, 5)
            ball = enumeration_fuzzy_set(w, 1)
            for u in ball:
                assert edit_distance(w, u) <= 1
            # spot-check membership the other way
            for _ in range(10):
                u = mutate(w, rng)
                if u:
                    assert u in ball

    def test_monotone_in_d(self):
        a = set(enumeration_fuzzy_set("dog", 1))
        b = set(enumeration_fuzzy_set("dog", 2))
        assert a <= b

    def test_guards(self):
        with pytest.raises(BadParameter):
            enumeration_fuzzy_set("cat", 3)
        with pytest.raises(BadParameter):
            enumeration_fuzzy_set("cat", 1, alphabet_size=0)
        with pytest.raises(BudgetExceeded):
            enumeration_fuzzy_set("elephant", 2, budget=1000)

    def test_no_empty_string(self):
        assert "" not in enumeration_fuzzy_set("a", 1)


def test_dispatcher():
    assert fuzzy_set("cat", 1, "wildcard") == wildcard_fuzzy_set("cat", 1)
    assert fuzzy_set("cat", 1, "gram") == gram_fuzzy_set("cat", 1)
    with pytest.raises(BadParameter):
        fuzzy_set("cat", 1, "bogus")


@pytest.mark.parametrize("method, d", [("wildcard", 3), ("gram", 5)])
def test_a_set_past_the_variant_cap_is_a_parameter_error(method, d):
    word = "abcdefghijklmno"  # 5,039 wildcard variants within 3 edits, 4,944 deletion variants within 5
    assert len(fuzzy_set(word, d - 1, method)) <= MAX_VARIANTS
    with pytest.raises(BadParameter, match=f"fuzzy set of {word!r} at d={d} has more than {MAX_VARIANTS}"):
        fuzzy_set(word, d, method)
