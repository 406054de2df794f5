import copy
import gc
import pickle
import random
import re
import types

import pytest
from hypothesis import example, given, strategies as st

from stallings import words

from stallings.errors import AlphabetMismatchError, UnknownGeneratorError
from stallings.words import (
    Alphabet,
    GroupHom,
    Letter,
    Word,
    compose_homs,
    conjugation_hom,
    cyclic_reduce,
    identity_hom,
    invert_codes,
    is_nondegenerate,
    parse_codes,
    parse_hom,
    parse_word,
    reduce_codes,
)
from stallings.functor import (
    image_core,
    image_morphism,
    subdivide,
    unbased_core_morphism,
    unbased_image_morphism,
)
from stallings.graph import classify, iso_pointed, unpointed_isomorphic
from stallings.subgroups import Subgroup, contains, gamma, inclusion_morphism, onto_base
from stallings.whitehead import is_restriction_morphism, preserves_folding, whitehead_graph

from helpers import counting_names, naive_member, naive_parse, naive_reduce

AB = Alphabet.of("a", "b")

letters_ab = st.builds(
    Letter,
    st.sampled_from(["a", "b"]),
    st.sampled_from([1, -1]),
)
raw_words = st.lists(letters_ab, max_size=16)
raw_codes = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=16)
reduced_codes = raw_codes.map(reduce_codes)


def w(text: str) -> Word:
    return parse_word(text)


def c(text: str) -> tuple[int, ...]:
    """The code word of a text word over {a, b}."""
    return AB.encode(parse_word(text))


class TestReduce:
    """``reduce_codes`` on code words and the ``Word`` letter stack, one oracle."""

    def test_cancellation(self):
        assert reduce_codes((1, -1, 2)) == (2,)
        assert Word(parse_word("a").letters + parse_word("a^-1 b").letters) == w("b")

    def test_identity(self):
        assert reduce_codes([]) == ()
        assert Word([]) == Word() and not Word()

    def test_nested_cancellation_matches_oracle(self):
        raw = [
            Letter("a", 1), Letter("b", 1), Letter("b", -1),
            Letter("a", 1), Letter("a", -1), Letter("b", 1),
        ]
        assert naive_reduce(raw) == (Letter("a", 1), Letter("b", 1))
        assert Word(raw) == w("a b")
        assert naive_reduce(AB.encode(raw)) == (1, 2)
        assert reduce_codes(AB.encode(raw)) == c("a b")

    @given(raw_codes, raw_words)
    def test_matches_oracle(self, codes, letters):
        assert reduce_codes(codes) == naive_reduce(codes)
        assert Word(letters).letters == naive_reduce(letters)

    @given(raw_codes, raw_words)
    def test_idempotent(self, codes, letters):
        once = reduce_codes(codes)
        assert reduce_codes(once) == once
        word = Word(letters)
        assert Word(word.letters) == word

    @given(reduced_codes, raw_words)
    def test_word_times_inverse_is_identity(self, u, letters):
        assert reduce_codes(u + invert_codes(u)) == ()
        word = Word(letters)
        assert not Word(word.letters + tuple(l.inverse() for l in reversed(word)))


class TestConcat:
    """The reduced product of two reduced code words."""

    def test_one_cancellation(self):
        assert reduce_codes(c("a b") + c("b^-1 a")) == c("a a")

    def test_clean(self):
        assert reduce_codes(c("a") + c("b")) == c("a b")

    def test_last_letters_differ(self):
        assert reduce_codes(c("a b") + c("a^-1")) == c("a b a^-1")

    @given(reduced_codes, reduced_codes)
    def test_flag_is_length_additivity(self, u, v):
        clean = len(reduce_codes(u + v)) == len(u) + len(v)
        if u and v:
            assert clean == (u[-1] != -v[0])
        else:
            assert clean


class TestInvert:
    def test_examples(self):
        assert invert_codes(c("a b")) == c("b^-1 a^-1")
        assert invert_codes(()) == ()
        assert invert_codes(c("a b a^-1")) == c("a b^-1 a^-1")


class TestCyclicReduce:
    def test_peels_maximally(self):
        prefix, cyc = cyclic_reduce(c("a b a b^-1 a^-1"))
        assert (prefix, cyc) == (c("a b"), c("a"))
        assert reduce_codes(prefix + cyc + invert_codes(prefix)) == c("a b a b^-1 a^-1")

    def test_already_reduced(self):
        assert cyclic_reduce(c("b")) == ((), c("b"))
        assert cyclic_reduce(()) == ((), ())

    @given(reduced_codes)
    def test_reconstruction_and_core(self, word):
        prefix, cyc = cyclic_reduce(word)
        assert len(cyc) <= 1 or cyc[0] != -cyc[-1]
        assert reduce_codes(prefix + cyc + invert_codes(prefix)) == word

    def test_reconstruction_at_scale(self):
        import random

        from helpers import random_reduced_word

        rng = random.Random(4)
        for _ in range(1000):
            word = random_reduced_word(rng, AB, 14)
            prefix, cyc = cyclic_reduce(word)
            assert len(cyc) <= 1 or cyc[0] != -cyc[-1]
            assert reduce_codes(prefix + cyc + invert_codes(prefix)) == word


SIGMA = GroupHom(
    Alphabet.of("alpha", "beta"),
    AB,
    {"alpha": w("b"), "beta": w("a b a^-1")},
)


class TestHoms:
    def test_apply_sigma(self):
        assert SIGMA.image((1, 2)) == c("b a b a^-1")

    def test_identity_word(self):
        assert SIGMA.image(()) == ()

    def test_image_cancellation(self):
        phi = GroupHom(AB, AB, {"a": w("a b"), "b": w("b^-1")})
        assert phi.image(c("a b")) == c("a")

    @pytest.mark.parametrize("code", [0, 3, -3])
    def test_image_rejects_codes_outside_the_source(self, code):
        phi = GroupHom(AB, AB, {"a": w("a b"), "b": w("b")})
        with pytest.raises(UnknownGeneratorError, match=f"^label {code} outside the alphabet$"):
            phi.image((1, code))

    @pytest.mark.parametrize(
        "images, message",
        [
            ({"a": "a"}, "no image for generator 'b'"),
            ({"a": "a", "b": "b", "c": "a"}, "image given for foreign generator 'c'"),
            ({"a": "a", "c": "b"}, "no image for generator 'b'"),  # missing comes first
        ],
        ids=["missing", "foreign", "missing-and-foreign"],
    )
    def test_constructor_names_the_bad_generator(self, images, message):
        images = {name: w(text) for name, text in images.items()}
        with pytest.raises(UnknownGeneratorError, match=f"^{re.escape(message)}$"):
            GroupHom(AB, AB, images)

    def test_constructor_takes_any_mapping(self):
        images = types.MappingProxyType({"b": w("b"), "a": w("a b")})
        phi = GroupHom(AB, AB, images)
        assert phi == GroupHom(AB, AB, {"a": w("a b"), "b": w("b")})
        assert phi.codes == ((1, 2), (2,))

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
        assert compose_homs(phi, SIGMA).image((1,)) == phi.image(c("b"))

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
        word = data.draw(reduced_codes)
        assert compose_homs(phi, psi).image(word) == phi.image(psi.image(word))


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a -> 1b\nb c", "bad letter token '1b'"),
            ("a -> x y\nb -> 2z\nb -> q", "bad letter token '2z'"),
            ("a -> x\na -> y^-1^-1", "duplicate image for 'a'"),
        ],
        ids=["token-before-bad-line", "token-before-duplicate", "duplicate-before-its-token"],
    )
    def test_first_error_in_reading_order(self, text, message):
        with pytest.raises(UnknownGeneratorError, match=f"^{re.escape(message)}$"):
            parse_hom(text)


class TestParseCodes:
    @pytest.mark.parametrize("alphabet", [None, AB], ids=["inferred", "explicit"])
    @pytest.mark.parametrize("token", ["1b", "a^-2", "b_"])
    def test_malformed_name_rejected(self, alphabet, token):
        message = f"^bad letter token {re.escape(repr(token))}$"
        with pytest.raises(UnknownGeneratorError, match=message):
            parse_codes([["a"], ["b", token]], alphabet)

    def test_each_name_checked_once(self, monkeypatch):
        # the cost follows the distinct names: a valid parse checks its
        # tokens in one bulk pass and never splits or checks them one by one
        def per_token(*args):
            raise AssertionError(f"per-token call on a valid parse: {args!r}")

        monkeypatch.setattr(words, "_split_token", per_token)
        monkeypatch.setattr(words, "_check_name", per_token)
        lines = [["b", "a^-1", "b"], ["a", "c", "c^-1"]] * 500
        alphabet, codes = parse_codes(lines)
        assert alphabet == Alphabet.of("b", "a") and codes == ((1, -2, 1), (2,)) * 500
        assert alphabet.encode(w("a b^-1")) == (2, -1)
        assert parse_codes(lines, Alphabet.of("a", "b"))[1] == ((2, -1, 2), (1,)) * 500

    def test_alphabet_constructor_still_checks_names(self):
        with pytest.raises(UnknownGeneratorError, match="^bad generator name '1b'$"):
            Alphabet.of("a", "1b")
        with pytest.raises(UnknownGeneratorError, match="^duplicate generator names$"):
            Alphabet.of("a", "a")


NAMES = ["a", "b", "c", "x1", "Ab2"]
# malformed tokens, some holding whitespace or the space that joins tokens,
# which only the list API lets through
BAD_TOKENS = [
    "1b", "a^-2", "b_", "x^-1^-1", "^-1", "é", "x²",
    "", " ", "a b", "a\tb", "a\nb", "a^-1 b",
]
signed = st.sampled_from(NAMES).flatmap(lambda n: st.sampled_from([n, n + "^-1"]))
chunks = st.one_of(
    *[signed.map(lambda t: [t])] * 3,
    # a cancelling pair, so a name may appear only where it cancels
    st.sampled_from(NAMES).flatmap(lambda n: st.sampled_from([[n, n + "^-1"], [n + "^-1", n]])),
    st.sampled_from(BAD_TOKENS).map(lambda t: [t]),
)
token_lines = st.lists(
    st.lists(chunks, max_size=6).map(lambda cs: [t for c in cs for t in c]), max_size=5
)


def outcome(parse, *args):
    """What a parse gives: its result, or the type and message of what it raised."""
    try:
        return parse(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestParseDifferential:
    """``parse_codes`` against the per-token reference ``helpers.naive_parse``."""

    @given(lines=token_lines, generators=st.none() | st.lists(st.sampled_from(NAMES), unique=True))
    @example(lines=[["a\nb"]], generators=None)
    @example(lines=[["b", "a b"]], generators=["a", "b"])
    @example(lines=[["a", "c", "c^-1"], [], ["c", "b"]], generators=["a", "b"])
    def test_same_alphabet_codes_or_error(self, lines, generators):
        alphabet = None if generators is None else Alphabet(tuple(generators))

        def parse():
            parsed, codes = parse_codes(lines, alphabet)
            return parsed.generators, codes

        assert outcome(parse) == outcome(naive_parse, lines, generators)


class TestNondegenerate:
    def test_examples(self):
        assert is_nondegenerate(SIGMA)
        assert not is_nondegenerate(
            GroupHom(AB, AB, {"a": Word(), "b": w("b")})
        )
        assert is_nondegenerate(identity_hom(AB))


class TestConjugation:
    def test_trivial_conjugator(self):
        assert conjugation_hom((), AB) == identity_hom(AB)

    def test_single_letter(self):
        h = conjugation_hom((1,), AB)
        assert h == GroupHom(AB, AB, {"a": w("a"), "b": w("a b a^-1")})

    def test_two_letters(self):
        h = conjugation_hom((1, 2), AB)
        assert h == GroupHom(AB, AB, {"a": w("a b a b^-1 a^-1"), "b": w("a b a^-1")})

    @given(reduced_codes)
    def test_always_nondegenerate(self, word):
        assert is_nondegenerate(conjugation_hom(word, AB))

    @pytest.mark.parametrize("codes", [(1, 3), (-3,), (0,)])
    def test_code_outside_alphabet_rejected(self, codes):
        bad = next(x for x in codes if not 0 < abs(x) <= 2)
        with pytest.raises(UnknownGeneratorError, match=f"^label {bad} outside the alphabet$"):
            conjugation_hom(codes, AB)


class TestAlphabet:
    @pytest.mark.parametrize("code", [0, 3, -3])
    def test_decode_rejects_codes_outside_the_alphabet(self, code):
        for decode in (AB.decode, lambda c: AB.word((1, c))):
            with pytest.raises(UnknownGeneratorError, match=f"^label {code} outside the alphabet$"):
                decode(code)

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
        with pytest.raises(UnknownGeneratorError, match=r"^c not over alphabet \('a', 'b'\)$"):
            AB.encode([Letter("c", 1)])
        with pytest.raises(UnknownGeneratorError):
            AB.encode(w("a c^-1"))
        assert Letter("c", 1) not in AB and "c" not in AB

    @pytest.mark.parametrize("sign", [2, 0, -2])
    def test_bad_sign_not_encoded(self, sign):
        l = Letter("a", sign)
        message = f"^bad letter sign in {re.escape(repr(l))}$"
        with pytest.raises(UnknownGeneratorError, match=message):
            Alphabet.of("a", "b").encode([Letter("b", 1), l])
        with pytest.raises(UnknownGeneratorError, match="^bad letter sign in "):
            Word([l])  # the message Word gives

    def test_encode_reads_a_one_shot_iterator(self):
        assert AB.encode(iter(w("a b^-1 a"))) == (1, -2, 1)
        assert AB.encode(l for l in w("b^-1 a")) == (-2, 1)
        assert AB.encode(iter(())) == ()

        def failing():
            yield Letter("a", 1)
            raise KeyError("from the iterator")

        with pytest.raises(KeyError, match="from the iterator"):  # not read as a miss
            AB.encode(failing())

    def test_encode_codes_each_letter_unreduced(self):
        for ab in (Alphabet.of("a", "b"), parse_codes([["a", "b"]])[0]):
            assert ab.encode(w("a b^-1")) == (1, -2)
            assert ab.encode([Letter("a", 1), Letter("a", -1), Letter("b", -1)]) == (1, -1, -2)
            assert ab.encode(w("b a^-1")) == (2, -1)  # the same answer however often asked
            assert ab.encode(w("a b^-1")) == (1, -2)

    def test_alphabet_equality_hash_and_repr_ignore_use(self):
        fresh, used = Alphabet.of("a", "b"), Alphabet.of("a", "b")
        used.encode(w("a b"))
        list(used.read(Word([Letter("b", 1), Letter("c", -1)])))
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "Alphabet(generators=('a', 'b'))"


class TestInterning:
    """Equal generator tuples make one ``Alphabet``: ``==`` and ``hash`` are identity."""

    @pytest.mark.parametrize(
        "names",
        [["a", "b"], ("a", "b"), iter(["a", "b"]), (n for n in "ab"), dict.fromkeys("ab")],
        ids=["list", "tuple", "iterator", "generator", "dict"],
    )
    def test_any_iterable_of_names_is_kept_as_a_tuple(self, names):
        made = Alphabet(names)
        assert made is AB and type(made.generators) is tuple and made.generators == ("a", "b")
        assert made == Alphabet.of("a", "b") and hash(made) == hash(AB)
        assert hash(identity_hom(made)) == hash(identity_hom(AB))
        assert made.extended("c") is Alphabet.of("a", "b", "c")

    @pytest.mark.parametrize("names", ["ab", "a", ""])
    def test_a_lone_string_is_rejected(self, names):
        with pytest.raises(UnknownGeneratorError, match="one string, not names"):
            Alphabet(names)
        with pytest.raises(UnknownGeneratorError, match="one string, not names"):
            Alphabet(generators=names)

    def test_made_and_parsed_alphabets_are_one(self):
        parsed = parse_codes([["b", "a", "b^-1"]])[0]
        assert parsed is Alphabet.of("b", "a") is Alphabet(generators=("b", "a"))
        assert parse_hom("x -> b a").target is parsed and AB.without("a") is Alphabet.of("b")

    def test_copies_give_back_the_one_immutable_alphabet(self):
        h = Subgroup.of(AB, "b", "a b a^-1")
        phi = GroupHom(AB, Alphabet.of("b", "a"), {"a": w("b a"), "b": w("a")})
        n = whitehead_graph(gamma(h))
        for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            assert clone(AB) is AB
            assert clone(h).alphabet is AB and clone(h) == h
            assert clone(phi).source is AB and clone(phi).target is phi.target
            assert clone(phi) == phi and clone(n).alphabet is AB and clone(n) == n
        for name, value in [("generators", ("b", "a")), ("_index", {}), ("other", 1)]:
            with pytest.raises(AttributeError, match="^Alphabet is immutable$"):
                setattr(AB, name, value)
            with pytest.raises(AttributeError, match="^Alphabet is immutable$"):
                delattr(AB, name)
        assert AB.generators == ("a", "b") and AB._index == {"a": 0, "b": 1}

    def test_dropped_alphabets_leave_no_entries(self):
        gc.collect()
        before = len(words._interned)
        for i in range(1000):
            Alphabet.of("z", f"y{i}")
            parse_codes([[f"w{i}", "z"]])
        gc.collect()
        assert len(words._interned) == before

    def test_wide_alphabets_are_not_walked_between_two(self):
        """No operation on two subgroups, graphs or homs makes a full pass over their names.

        Construction, ``letters()`` and ``full_whitehead`` are O(rank)
        by nature and are not run after setup.
        """
        passes = []
        rank = 200_000
        wide = Alphabet(counting_names((f"x{i}" for i in range(rank)), passes))
        copy_names = counting_names((f"x{i}" for i in range(rank)), passes)
        assert copy_names[7] is not wide.generators[7]  # equal names, other string objects
        other = Alphabet(copy_names)
        assert other is wide
        small = Alphabet.of("s", "t")
        h = Subgroup.of(wide, "x1")
        k = Subgroup.of(other, "x1", "x0 x1 x0^-1")
        k_again = Subgroup.of(wide, "x1", "x0 x1 x0^-1")
        wide_id = identity_hom(other)
        psi = GroupHom(small, other, {"s": w("x1"), "t": w("x0 x1 x0^-1")})
        src = whitehead_graph(gamma(Subgroup.of(small, "s", "t s t^-1")))
        graphs = [gamma(h), gamma(k), gamma(k_again)]
        passes.clear()

        f = inclusion_morphism(h, k)
        assert f is not None and onto_base(h, k).morphism.target == gamma(k)
        assert iso_pointed(gamma(k), gamma(k_again))
        assert unpointed_isomorphic(gamma(k), gamma(k_again.conjugate((-1,))))
        assert classify(image_morphism(wide_id, f)).injective
        assert classify(unbased_core_morphism(f)).injective
        assert classify(unbased_image_morphism(wide_id, f)).injective
        assert subdivide(wide_id, gamma(k)) == image_core(wide_id, gamma(k)) == gamma(k)
        assert preserves_folding(wide_id, gamma(k))
        dst = whitehead_graph(gamma(k))
        assert is_restriction_morphism(src, dst, psi)
        assert h != k == k_again and hash(k) == hash(k_again)
        composite = compose_homs(wide_id, psi)
        assert composite == psi and hash(composite) == hash(psi)
        assert dst == whitehead_graph(graphs[2]) and hash(dst) == hash(whitehead_graph(graphs[1]))
        assert graphs[1] == graphs[2] != graphs[0] and hash(graphs[1]) == hash(graphs[2])
        assert passes == []


class TestCarriedCodes:
    def test_parsed_word_carries_its_codes(self):
        """A parsed word reads over any alphabet by name, with its own letters."""
        parsed = w("b a^-1 b")
        assert parsed.letters == (Letter("b", 1), Letter("a", -1), Letter("b", 1))
        assert parsed[1] == Letter("a", -1) and parsed[-2:] == parsed.letters[1:]
        assert list(AB.read(parsed)) == [2, -1, 2] and AB.encode(parsed) == (2, -1, 2)
        assert list(Alphabet.of("b", "a").read(parsed)) == [1, -2, 1]
        made = AB.word((2, -1, 2))
        assert made == parsed and AB.read(made) == (2, -1, 2)

    def test_equality_hash_repr_and_iteration_ignore_the_codes(self):
        words = [w("b a^-1 b"), AB.word((2, -1, 2)), Word(w("b a^-1 b").letters)]
        assert len({*words}) == 1 and len({hash(x) for x in words}) == 1
        assert len({repr(x) for x in words}) == 1
        assert len({tuple(x) for x in words}) == 1

    def test_equality_and_hashing_make_no_letter(self, monkeypatch):
        """Words that keep other names compare and hash by names and signs alone."""
        parsed, made, other = w("b a^-1 b"), AB.word((2, -1, 2)), w("b a b")
        monkeypatch.setattr(words, "Letter", None)  # spelling a letter would now raise
        assert parsed._names != made._names
        assert parsed == made and hash(parsed) == hash(made)
        assert parsed != other and made != AB.word((2, 1, 2)) and parsed != AB.word((2, -1))

    def test_words_refuse_setting_and_deleting(self):
        x = w("b a^-1 b")
        for name in ("_codes", "_names", "other"):
            with pytest.raises(AttributeError, match="^Word is immutable$"):
                setattr(x, name, ())
            with pytest.raises(AttributeError, match="^Word is immutable$"):
                delattr(x, name)
        assert len(x) == 3 and x == w("b a^-1 b")

    def test_copies_keep_the_alphabets_names(self):
        """A copied or unpickled word over an alphabet keeps its tuple of names.

        So ``read`` hands back its codes, as for the original.  Names no
        live alphabet holds are not interned by the copy.
        """
        parsed, made = w("a b^-1 a"), AB.word((2, -1, 2))
        assert parsed._names is AB.generators
        unchecked = Word([Letter("not a name", 1)])
        for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            for x in (parsed, made):
                out = clone(x)
                assert out._names is x._names and out == x and hash(out) == hash(x)
            assert AB.read(clone(made)) == (2, -1, 2)
            out = clone(unchecked)
            assert out == unchecked and hash(out) == hash(unchecked)
            assert ("not a name",) not in words._interned

    def test_read_passes_own_codes_through(self):
        ab = Alphabet.of("a", "b")
        codes = (2, -1, 2)
        made = ab.word(codes)
        assert ab.read(made) is codes
        assert list(Alphabet.of("a", "b").read(made)) == [2, -1, 2]  # an equal alphabet recodes

    def test_read_recodes_by_name(self):
        ab = Alphabet.of("a", "b")
        assert list(ab.read(w("b a^-1 b"))) == [2, -1, 2]
        assert list(ab.read(w("b c a^-1"))) == [2, 0, -1]  # c is foreign
        assert list(ab.read(w("c c^-1 a"))) == [1]  # c cancels
        assert list(ab.read(Word([Letter("b", 1), Letter("c", -1)]))) == [2, 0]

    def test_read_recodes_other_words_code_by_code(self):
        """Words from letters that cancel, and words made by a wider alphabet."""
        ab = Alphabet.of("a", "b")
        made = Word([Letter("c", 1), Letter("c", -1), Letter("b", 1)])
        assert list(ab.read(made)) == [2]
        wide = Alphabet.of("x", "y", "z", "b", "a")
        assert list(ab.read(wide.word((5, -4)))) == [1, -2]
        assert list(ab.read(wide.word((5, 1, 4, 2, -4)))) == [1, 0, 2, 0, -2]
        assert list(ab.read(wide.word(()))) == []

    def test_wide_alphabet_is_not_walked(self):
        """No word operation makes a full pass over a rank-200,000 alphabet's names."""
        passes = []
        wide = Alphabet(counting_names((f"x{i}" for i in range(200_000)), passes))
        small = Alphabet.of("x1", "x0", "y")
        rng = random.Random(11)
        names = ["x0", "x1", "x2", "x7", "x199999"]
        spelled = [
            [Letter(rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))]
            for _ in range(40)
        ]
        wide_codes = [(1, 2, -1), (200_000, 3), (2,), (8, -2, -2)]
        h = Subgroup.of(wide, "x0 x1 x0^-1", "x2 x1", "x1 x2 x0 x2^-1")
        h_small = Subgroup.of(small, "x0 x1 x0^-1", "x1 y")
        passes.clear()
        queries = [Word(letters) for letters in spelled]
        verdicts = [contains(h, q) for q in queries]
        wide_words = [wide.word(codes) for codes in wide_codes]
        reads = [list(small.read(x)) for x in wide_words]
        small_verdicts = [contains(h_small, x) for x in wide_words]
        encoded = [wide.encode(letters) for letters in spelled]
        k = Subgroup(wide, queries + wide_words)
        phi = GroupHom(small, wide, {"x1": queries[0], "x0": wide_words[1], "y": Word()})
        clones = [copy.copy(x) for x in queries + wide_words]
        clones += [copy.deepcopy(q) for q in queries]
        clones += [pickle.loads(pickle.dumps(q)) for q in queries]
        assert passes == []
        assert verdicts == [naive_member(h, q) for q in queries]
        assert True in verdicts and False in verdicts
        assert reads == [[2, 1, -2], [0, 0], [1], [0, -1, -1]]
        assert small_verdicts == [naive_member(h_small, x) for x in wide_words]
        assert small_verdicts == [True, False, False, False]
        assert encoded == [tuple((int(l.gen[1:]) + 1) * l.sign for l in ls) for ls in spelled]
        assert k.codes == tuple(map(reduce_codes, encoded)) + tuple(wide_codes)
        assert phi.codes == (k.codes[0], wide_codes[1], ())
        assert clones == queries + wide_words + queries + queries


A_C = [Letter("a", 1), Letter("c", -1)]
NOT_AB = "not over alphabet ('a', 'b')"


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda: Word([Letter("a", 2)]), UnknownGeneratorError("bad letter sign in a")),
        (lambda: Word([Letter("a", 0)]), UnknownGeneratorError("bad letter sign in a^-1")),
        (lambda: Word([Letter("a", -2)]), UnknownGeneratorError("bad letter sign in a^-1")),
        (lambda: AB.encode([Letter("c", 1)]), UnknownGeneratorError(f"c {NOT_AB}")),
        (lambda: Subgroup(AB, [Word(A_C)]), UnknownGeneratorError(f"c^-1 {NOT_AB}")),
        (lambda: Subgroup(AB, [parse_word("a c^-1")]), UnknownGeneratorError(f"c^-1 {NOT_AB}")),
        (
            lambda: GroupHom(Alphabet.of("s"), Alphabet.of("x"), {"s": parse_word("y")}),
            UnknownGeneratorError("y not over alphabet ('x',)"),
        ),
        (lambda: Word([("a", 1)]), AttributeError("'tuple' object has no attribute 'sign'")),
        (lambda: list(AB.read(Word([Letter("b", 1), Letter("c", -1)]))), [2, 0]),
    ],
    ids=[
        "sign-2", "sign-0", "sign--2", "encode-foreign", "subgroup-letters", "subgroup-parsed",
        "hom-image", "plain-tuple", "read-foreign",
    ],
)
def test_messages_and_results_at_the_letter_boundary(make, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as caught:
            make()
        assert str(caught.value) == str(expected)
    else:
        assert make() == expected
