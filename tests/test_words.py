import re

import pytest
from hypothesis import given, strategies as st

from stallings import words

from stallings.errors import (
    AlphabetMismatchError,
    EmptyWordError,
    UnknownGeneratorError,
)
from stallings.words import (
    IDENTITY,
    Alphabet,
    GroupHom,
    Letter,
    Word,
    apply_hom,
    compose_homs,
    concat,
    conjugation_hom,
    cyclic_reduce,
    free_reduce,
    identity_hom,
    invert,
    is_nondegenerate,
    last_letter,
    parse_codes,
    parse_hom,
    parse_word,
)

from helpers import naive_reduce

AB = Alphabet.of("a", "b")

letters_ab = st.builds(
    Letter,
    st.sampled_from(["a", "b"]),
    st.sampled_from([1, -1]),
)
raw_words = st.lists(letters_ab, max_size=16)
reduced_words = raw_words.map(free_reduce)


def w(text: str) -> Word:
    return parse_word(text)


class TestReduce:
    def test_cancellation(self):
        assert free_reduce(parse_word("a").letters + parse_word("a^-1 b").letters) == w("b")

    def test_identity(self):
        assert free_reduce([]) == IDENTITY
        assert not IDENTITY

    def test_nested_cancellation_matches_oracle(self):
        raw = [
            Letter("a", 1), Letter("b", 1), Letter("b", -1),
            Letter("a", 1), Letter("a", -1), Letter("b", 1),
        ]
        assert naive_reduce(raw) == (Letter("a", 1), Letter("b", 1))
        assert free_reduce(raw) == w("a b")

    @given(raw_words)
    def test_matches_oracle(self, letters):
        assert free_reduce(letters).letters == naive_reduce(letters)

    @given(raw_words)
    def test_idempotent(self, letters):
        once = free_reduce(letters)
        assert free_reduce(once.letters) == once

    @given(reduced_words)
    def test_word_times_inverse_is_identity(self, u):
        assert u * invert(u) == IDENTITY


class TestConcat:
    def test_one_cancellation(self):
        prod, clean = concat(w("a b"), w("b^-1 a"))
        assert prod == w("a a") and not clean

    def test_clean(self):
        prod, clean = concat(w("a"), w("b"))
        assert prod == w("a b") and clean

    def test_last_letters_differ(self):
        prod, clean = concat(w("a b"), w("a^-1"))
        assert prod == w("a b a^-1") and clean

    @given(reduced_words, reduced_words)
    def test_flag_is_length_additivity(self, u, v):
        prod, clean = concat(u, v)
        assert clean == (len(prod) == len(u) + len(v))
        if u and v:
            assert clean == (last_letter(u) != last_letter(invert(v)))


class TestInvert:
    def test_examples(self):
        assert invert(w("a b")) == w("b^-1 a^-1")
        assert invert(IDENTITY) == IDENTITY
        assert invert(w("a b a^-1")) == w("a b^-1 a^-1")


class TestLastLetter:
    def test_examples(self):
        assert last_letter(w("a b a^-1")) == Letter("a", -1)
        assert last_letter(w("b")) == Letter("b", 1)
        assert last_letter(w("t^-1 y")) == Letter("y", 1)

    def test_identity_rejected(self):
        with pytest.raises(EmptyWordError):
            last_letter(IDENTITY)


class TestCyclicReduce:
    def test_peels_maximally(self):
        prefix, cyc = cyclic_reduce(w("a b a b^-1 a^-1"))
        assert (prefix, cyc) == (w("a b"), w("a"))
        assert free_reduce(
            prefix.letters + cyc.letters + invert(prefix).letters
        ) == w("a b a b^-1 a^-1")

    def test_already_reduced(self):
        assert cyclic_reduce(w("b")) == (IDENTITY, w("b"))
        assert cyclic_reduce(IDENTITY) == (IDENTITY, IDENTITY)

    @given(reduced_words)
    def test_reconstruction_and_core(self, word):
        prefix, cyc = cyclic_reduce(word)
        assert len(cyc) <= 1 or cyc[0] != cyc[-1].inverse()
        assert (
            free_reduce(prefix.letters + cyc.letters + invert(prefix).letters)
            == word
        )

    def test_reconstruction_at_scale(self):
        import random

        from helpers import random_reduced_word

        rng = random.Random(4)
        for _ in range(1000):
            word = AB.word(random_reduced_word(rng, AB, 14))
            prefix, cyc = cyclic_reduce(word)
            assert len(cyc) <= 1 or cyc[0] != cyc[-1].inverse()
            assert (
                free_reduce(prefix.letters + cyc.letters + invert(prefix).letters)
                == word
            )


SIGMA = GroupHom(
    Alphabet.of("alpha", "beta"),
    AB,
    {"alpha": w("b"), "beta": w("a b a^-1")},
)


class TestHoms:
    def test_apply_sigma(self):
        assert apply_hom(SIGMA, parse_word("alpha beta")) == w("b a b a^-1")

    def test_identity_word(self):
        assert apply_hom(SIGMA, IDENTITY) == IDENTITY

    def test_image_cancellation(self):
        phi = GroupHom(AB, AB, {"a": w("a b"), "b": w("b^-1")})
        assert apply_hom(phi, w("a b")) == w("a")

    def test_compose_with_identity(self):
        psi = GroupHom(AB, AB, {"a": w("a b"), "b": w("b")})
        assert compose_homs(identity_hom(AB), psi) == psi

    def test_compose_renamings(self):
        uv = Alphabet.of("u", "v")
        r1 = GroupHom(AB, uv, {"a": w("u"), "b": w("v")})
        r2 = GroupHom(uv, AB, {"u": w("b"), "v": w("a")})
        both = compose_homs(r2, r1)
        assert both == GroupHom(AB, AB, {"a": w("b"), "b": w("a")})

    def test_compose_after_coordinates(self):
        phi = GroupHom(AB, AB, {"a": w("a"), "b": w("b b")})
        assert apply_hom(compose_homs(phi, SIGMA), parse_word("alpha")) == apply_hom(
            phi, w("b")
        )

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            compose_homs(SIGMA, SIGMA)

    def test_equal_homs_hash_equal(self):
        phi = GroupHom(AB, AB, {"a": w("a b"), "b": w("b")})
        psi = GroupHom(AB, AB, {"b": w("b"), "a": w("a b")})
        assert phi == psi and hash(phi) == hash(psi)
        assert len({phi, psi, identity_hom(AB)}) == 2

    @given(st.data())
    def test_composition_respected_on_words(self, data):
        from helpers import random_hom
        import random

        rng = random.Random(data.draw(st.integers(0, 2**16)))
        psi = random_hom(rng, AB, AB, 4)
        phi = random_hom(rng, AB, AB, 4)
        word = data.draw(reduced_words)
        assert apply_hom(compose_homs(phi, psi), word) == apply_hom(
            phi, apply_hom(psi, word)
        )


class TestParseHom:
    def test_target_follows_first_appearance(self):
        phi = parse_hom("a -> c b\nb -> a c^-1 d\n")
        assert phi.source.generators == ("a", "b")
        assert phi.target.generators == ("c", "b", "a", "d")
        assert phi == GroupHom(phi.source, phi.target, {"a": w("c b"), "b": w("a c^-1 d")})
        assert phi.codes == ((1, 2), (3, -1, 4))

    def test_empty_right_side_is_the_identity(self):
        phi = parse_hom("x -> \ny -> x")
        assert phi.codes[0] == ()
        assert not is_nondegenerate(phi)

    def test_comments_and_blank_lines_skipped(self):
        phi = parse_hom("# a header\n\n  \na -> b  # a note\n\n")
        assert phi.source.generators == ("a",)
        assert phi == GroupHom(phi.source, Alphabet.of("b"), {"a": w("b")})

    @pytest.mark.parametrize(
        "text",
        ["a -> b\na -> c", "a b", "1a -> b"],
        ids=["duplicate-image", "no-arrow", "bad-name"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(UnknownGeneratorError):
            parse_hom(text)


class TestParseCodes:
    @pytest.mark.parametrize("alphabet", [None, AB], ids=["inferred", "explicit"])
    @pytest.mark.parametrize("token", ["1b", "a^-2", "b_"])
    def test_malformed_name_rejected(self, alphabet, token):
        message = f"^bad letter token {re.escape(repr(token))}$"
        with pytest.raises(UnknownGeneratorError, match=message):
            parse_codes([["a"], ["b", token]], alphabet)

    def test_each_name_checked_once(self, monkeypatch):
        checked = []
        pattern = words._NAME_RE

        class Counting:
            def match(self, name):
                checked.append(name)
                return pattern.match(name)

        monkeypatch.setattr(words, "_NAME_RE", Counting())
        alphabet, codes = parse_codes([["b", "a^-1", "b"], ["a", "c", "c^-1"]])
        assert sorted(checked) == ["a", "b", "c"]
        assert alphabet == Alphabet.of("b", "a") and codes == ((1, -2, 1), (2,))
        assert alphabet.encode(w("a b^-1")) == (2, -1)

    def test_alphabet_constructor_still_checks_names(self):
        with pytest.raises(UnknownGeneratorError, match="^bad generator name '1b'$"):
            Alphabet.of("a", "1b")
        with pytest.raises(UnknownGeneratorError, match="^duplicate generator names$"):
            Alphabet.of("a", "a")


class TestNondegenerate:
    def test_examples(self):
        assert is_nondegenerate(SIGMA)
        assert not is_nondegenerate(
            GroupHom(AB, AB, {"a": IDENTITY, "b": w("b")})
        )
        assert is_nondegenerate(identity_hom(AB))


class TestConjugation:
    def test_trivial_conjugator(self):
        assert conjugation_hom(IDENTITY, AB) == identity_hom(AB)

    def test_single_letter(self):
        c = conjugation_hom(w("a"), AB)
        assert c == GroupHom(AB, AB, {"a": w("a"), "b": w("a b a^-1")})

    def test_two_letters(self):
        c = conjugation_hom(w("a b"), AB)
        assert c == GroupHom(AB, AB, {"a": w("a b a b^-1 a^-1"), "b": w("a b a^-1")})

    @given(reduced_words)
    def test_always_nondegenerate(self, word):
        assert is_nondegenerate(conjugation_hom(word, AB))


class TestAlphabet:
    def test_fresh_avoids_collisions(self):
        ab = Alphabet.of("a", "t", "s")
        name = ab.fresh_name()
        assert name not in ab.generators

    def test_fresh_prefers_t(self):
        assert AB.fresh_name() == "t"

    def test_parse_format_roundtrip(self):
        for text in ("", "a", "a b^-1 a", "b^-1"):
            assert parse_word(text).text == text

    def test_code_decode_roundtrip(self):
        abc = Alphabet.of("x", "b", "a")
        for l in abc.letters():
            (c,) = abc.encode([l])
            assert abc.decode(c) == l
            assert abc.letters()[abc.code_index(c)] == l
            assert abc.encode([l.inverse()]) == (-c,)
            assert 0 < abs(c) <= len(abc)
        assert sorted(map(abs, abc.encode(abc.letters()))) == [1, 1, 2, 2, 3, 3]
        assert abc.encode(w("a b^-1 x")) == (3, -2, 1)
        assert abc.word((3, -2, 1)) == w("a b^-1 x")

    @given(st.lists(st.sampled_from("abcxyzuvt"), min_size=1, unique=True))
    def test_code_index_is_the_position_in_letters(self, names):
        ab = Alphabet(tuple(names))
        letters = ab.letters()
        positions = [Alphabet.code_index(c) for c in ab.encode(letters)]
        assert positions == list(range(len(letters)))

    def test_foreign_generator_not_encoded(self):
        with pytest.raises(UnknownGeneratorError):
            AB.encode([Letter("c", 1)])
        with pytest.raises(UnknownGeneratorError):
            AB.encode(w("a c^-1"))
        assert Letter("c", 1) not in AB and "c" not in AB
