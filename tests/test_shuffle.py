"""Shuffle algebra on words and the linear map into compositions."""

import math
import random
from fractions import Fraction

import pytest

from cmzv.compositions import Composition
from cmzv.errors import CapacityError, DomainError, WordEncodingError
from cmzv.shuffle import FormalWordSum, ZImage, shuffle, shuffle_sum, z_map


def brute_force_shuffle(w1: str, w2: str) -> dict[str, int]:
    """Independent oracle: enumerate every interleaving explicitly."""
    out: dict[str, int] = {}

    def go(i, j, acc):
        if i == len(w1) and j == len(w2):
            out[acc] = out.get(acc, 0) + 1
            return
        if i < len(w1):
            go(i + 1, j, acc + w1[i])
        if j < len(w2):
            go(i, j + 1, acc + w2[j])

    go(0, 0, "")
    return out


def random_word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("xy") for _ in range(n))


def test_formal_word_sum_basics():
    a = FormalWordSum({"yx": Fraction(2), "yyx": Fraction(-1)})
    assert a.coefficient("yx") == 2
    assert a.coefficient("zzz" if False else "xx") == 0
    assert set(a.words()) == {"yx", "yyx"}
    assert (a + a).coefficient("yx") == 4
    assert (a - a).words() == ()
    assert a.scaled(Fraction(1, 2)).coefficient("yx") == 1
    assert a.total_mass() == 1  # signed sum of coefficients
    assert a.to_json() == {"yx": "2", "yyx": "-1"}


def test_formal_word_sum_drops_zeros():
    a = FormalWordSum({"yx": Fraction(0), "yyx": Fraction(1)})
    assert a.words() == ("yyx",)
    assert not (a - a)


def test_shuffle_unit_law():
    assert shuffle("yx", "") == FormalWordSum.of("yx")
    assert shuffle("", "yx") == FormalWordSum.of("yx")
    assert shuffle("", "") == FormalWordSum.of("")


def test_shuffle_known_example():
    got = shuffle("yx", "yx")
    assert got == FormalWordSum({"yxyx": Fraction(2), "yyxx": Fraction(4)})


def test_shuffle_rejects_bad_letters():
    with pytest.raises(DomainError):
        shuffle("yz", "yx")


def test_shuffle_matches_brute_force_exhaustive():
    words = ["", "x", "y", "yx", "xy", "yyx", "yxx"]
    for w1 in words:
        for w2 in words:
            if len(w1) + len(w2) > 6:
                continue
            expected = brute_force_shuffle(w1, w2)
            got = dict(shuffle(w1, w2))
            assert got == {w: Fraction(n) for w, n in expected.items()}, (w1, w2)


def test_shuffle_matches_brute_force_random():
    rng = random.Random(11)
    for _ in range(40):
        w1 = random_word(rng, rng.randint(0, 4))
        w2 = random_word(rng, rng.randint(0, 4))
        expected = brute_force_shuffle(w1, w2)
        got = dict(shuffle(w1, w2))
        assert got == {w: Fraction(n) for w, n in expected.items()}, (w1, w2)


def test_shuffle_total_mass_is_binomial():
    rng = random.Random(3)
    for _ in range(30):
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        w1, w2 = random_word(rng, n), random_word(rng, m)
        assert shuffle(w1, w2).total_mass() == math.comb(n + m, n)


def test_shuffle_past_word_cap_is_capacity_error():
    # (yx)^n sh (yx)^n has 2^(2n-1) distinct words: n = 11 passes the 10^6 cap
    w = "yx" * 11
    with pytest.raises(CapacityError):
        shuffle(w, w)


def test_shuffle_commutative():
    rng = random.Random(5)
    for _ in range(30):
        w1 = random_word(rng, rng.randint(0, 3))
        w2 = random_word(rng, rng.randint(0, 3))
        assert shuffle(w1, w2) == shuffle(w2, w1)


def test_shuffle_associative():
    rng = random.Random(9)
    for _ in range(15):
        w1 = random_word(rng, rng.randint(0, 2))
        w2 = random_word(rng, rng.randint(0, 3))
        w3 = random_word(rng, rng.randint(0, 2))
        left = shuffle_sum(shuffle(w1, w2), FormalWordSum.of(w3))
        right = shuffle_sum(FormalWordSum.of(w1), shuffle(w2, w3))
        assert left == right, (w1, w2, w3)


def test_shuffle_sum_bilinear():
    a = FormalWordSum({"yx": Fraction(2)})
    b = FormalWordSum({"yx": Fraction(1), "yyx": Fraction(3)})
    lhs = shuffle_sum(a, b)
    rhs = shuffle("yx", "yx").scaled(2) + shuffle("yx", "yyx").scaled(6)
    assert lhs == rhs


def test_z_map_single_words():
    img = z_map("yx")
    assert img.constant == 0
    assert [(c.parts, q) for c, q in img] == [((2,), Fraction(1))]
    assert z_map("yyx").terms[0][0] == Composition((1, 2))
    assert z_map("yxx").terms[0][0] == Composition((3,))


def test_z_map_empty_word_is_constant():
    img = z_map("")
    assert img.constant == 1
    assert img.terms == ()
    img2 = z_map(FormalWordSum.of("", Fraction(5, 2)))
    assert img2.constant == Fraction(5, 2)


def test_z_map_rejects_non_admissible():
    with pytest.raises(WordEncodingError):
        z_map("yxy")
    with pytest.raises(WordEncodingError):
        z_map(FormalWordSum({"yx": Fraction(1), "xyx": Fraction(1)}))


def test_z_map_linear_over_sums():
    a = shuffle("yx", "yx")
    img = z_map(a)
    assert dict((c.parts, q) for c, q in img) == {(2, 2): Fraction(2), (1, 3): Fraction(4)}
    assert img.to_json() == {"constant": "0", "terms": [{"composition": [1, 3], "coeff": "4"}, {"composition": [2, 2], "coeff": "2"}]}


def test_shuffle_image_words_stay_admissible():
    # interleaving two admissible words keeps the first letter y and last x
    rng = random.Random(13)
    from cmzv.compositions import is_admissible_word, word_from_composition
    from cmzv.compositions import admissible_compositions

    words = [word_from_composition(c) for w in range(2, 5) for c in admissible_compositions(w)]
    for _ in range(20):
        w1, w2 = rng.choice(words), rng.choice(words)
        for w, _ in shuffle(w1, w2):
            assert is_admissible_word(w)
