import itertools

import pytest

from pumpkit import (
    Accepted,
    BUILTINS,
    GeneralPda,
    NormalizedPda,
    NotAccepted,
    accepts,
    corpus_get,
    is_star_form,
    validate,
)


def is_member(pda, word) -> bool:
    return isinstance(accepts(pda, word), Accepted)


class TestEntries:
    def test_catalog(self):
        assert set(BUILTINS) == {"DYCK1", "REG_AB", "ANBN", "GEN_PAL"}
        for entry in BUILTINS.values():
            assert validate(entry.pda).ok

    def test_get(self):
        assert corpus_get("DYCK1") is BUILTINS["DYCK1"]
        with pytest.raises(KeyError):
            corpus_get("NOPE")

    def test_star_form_entries(self, anbn_general):
        assert is_star_form(BUILTINS["DYCK1"].pda)
        assert is_star_form(BUILTINS["REG_AB"].pda)
        assert is_star_form(BUILTINS["ANBN"].pda)
        assert not is_star_form(BUILTINS["GEN_PAL"].pda)
        # loaded machines come back normalized exactly when in star form
        for name in ("DYCK1", "REG_AB", "ANBN"):
            assert type(BUILTINS[name].pda) is NormalizedPda
        assert type(BUILTINS["GEN_PAL"].pda) is GeneralPda
        assert type(anbn_general) is GeneralPda


class TestGenerators:
    def test_words_are_members(self):
        for entry in BUILTINS.values():
            for m in (1, 2, 3, 7):
                word = entry.generate(m)
                assert is_member(entry.pda, word), (entry.name, word)

    def test_near_misses_are_not(self):
        for entry in BUILTINS.values():
            for m in (1, 2, 3, 7):
                word = entry.generate_near_miss(m)
                assert not is_member(entry.pda, word), (entry.name, word)

    def test_known_shapes(self):
        assert BUILTINS["DYCK1"].generate(3) == "((()))"
        assert BUILTINS["DYCK1"].generate_near_miss(3) == "((())"
        assert BUILTINS["REG_AB"].generate(2) == "abab"
        assert BUILTINS["REG_AB"].generate_near_miss(2) == "aba"
        assert BUILTINS["ANBN"].generate(3) == "aaabbb"
        assert BUILTINS["ANBN"].generate_near_miss(3) == "aaabb"
        pal = BUILTINS["GEN_PAL"].generate(3)
        assert pal == "010" + "010"
        assert pal == pal[::-1]
        near = BUILTINS["GEN_PAL"].generate_near_miss(3)
        assert near != near[::-1]

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            BUILTINS["ANBN"].generate(0)
        for entry in BUILTINS.values():
            with pytest.raises(ValueError):
                entry.generate_near_miss(0)


class TestLanguages:
    def test_dyck1_exhaustive(self, dyck1):
        def balanced(w):
            depth = 0
            for c in w:
                depth += 1 if c == "(" else -1
                if depth < 0:
                    return False
            return depth == 0

        for length in range(0, 9):
            for tup in itertools.product("()", repeat=length):
                w = "".join(tup)
                assert is_member(dyck1, w) == balanced(w), w

    def test_gen_pal_exhaustive(self, gen_pal):
        for length in range(0, 9):
            for tup in itertools.product("01", repeat=length):
                w = "".join(tup)
                expected = (len(w) % 2 == 0) and w == w[::-1]
                assert is_member(gen_pal, w) == expected, w

    def test_anbn_membership(self, anbn):
        assert not is_member(anbn, "")
        assert is_member(anbn, "ab")
        assert is_member(anbn, "aaabbb")
        assert not is_member(anbn, "aab")
        assert not is_member(anbn, "ba")

    def test_general_variant_same_language(self, anbn, anbn_general):
        gp = anbn_general
        for length in range(0, 9):
            for tup in itertools.product("ab", repeat=length):
                w = "".join(tup)
                assert is_member(gp, w) == is_member(anbn, w), w
