import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_builder import UnknownSymbol, expand_symbol
from phrasedec import phrase_lib
from phrasedec.harness import planted_phrase_corpus
from phrasedec.phrase_lib import (
    EmptyCorpus,
    InvalidToken,
    LibraryTooLarge,
    MergeRule,
    Phrase,
    PhraseLibrary,
    UnsupportedLibraryFormat,
    build_library,
    load_library,
    read_corpus,
    save_library,
    write_corpus,
)


def naive_replace(seq, pair):
    """Reference left-to-right pair replacement used as the merge oracle."""
    out, i = [], 0
    while i < len(seq):
        if i < len(seq) - 1 and (seq[i], seq[i + 1]) == pair:
            out.append(None)  # merged marker; only lengths matter
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def replace_count(seqs, pair):
    return sum(len(s) - len(naive_replace(s, pair)) for s in seqs)


class TestBuildLibrary:
    def test_single_merge(self):
        lib = build_library([[1, 2, 1, 2, 3]], merges=1)
        assert lib.vocab_size == 4
        assert lib.rules == (MergeRule(1, 2, 4, 1),)
        assert lib.phrases == (Phrase((1, 2), 1, 2),)

    def test_no_adjacent_pairs(self):
        lib = build_library([[5], [3], [1]], merges=4)
        assert lib.rules == ()
        assert lib.index == {}

    def test_two_step_recount_early_stop(self):
        # after merging (1,2)->4 the rewritten corpus is [4,4,3]; every
        # remaining pair occurs once, so the second iteration stops early
        lib = build_library([[1, 2, 1, 2, 3]], merges=2)
        assert len(lib.rules) == 1

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_library([], merges=1)

    def test_invalid_token(self):
        with pytest.raises(InvalidToken):
            build_library([[1, -2]], merges=1)
        with pytest.raises(InvalidToken):
            build_library([[1, 9]], merges=1, vocab_size=4)

    def test_max_phrase_len_discards_from_index_keeps_rules(self):
        corpus = [[0, 1, 2, 3] * 6]
        lib = build_library(corpus, merges=8, max_phrase_len=2, vocab_size=4)
        assert all(len(p) <= 2 for p in lib.phrases)
        assert any(
            len(expand_symbol(lib.rules, rule.result)) > 2 for rule in lib.rules
        )

    def test_rules_match_replacement_count_oracle(self):
        rng = np.random.default_rng(17)
        corpus = [list(rng.integers(0, 6, size=40)) for _ in range(5)]
        lib = build_library(corpus, merges=10, vocab_size=6)

        seqs = [list(s) for s in corpus]
        for rule in lib.rules:
            pairs = {
                (s[i], s[i + 1]) for s in seqs for i in range(len(s) - 1)
            }
            counts = {pair: replace_count(seqs, pair) for pair in pairs}
            best = max(counts.values())
            assert best >= 2
            assert counts[(rule.left, rule.right)] == best
            assert (rule.left, rule.right) == min(
                p for p, c in counts.items() if c == best
            )
            before = sum(len(s) for s in seqs)
            new = []
            for s in seqs:
                out, i = [], 0
                while i < len(s):
                    if i < len(s) - 1 and (s[i], s[i + 1]) == (rule.left, rule.right):
                        out.append(rule.result)
                        i += 2
                    else:
                        out.append(s[i])
                        i += 1
                new.append(out)
            seqs = new
            # total symbol count drops by exactly the merged pair's count
            assert before - sum(len(s) for s in seqs) == best

        # expanding every symbol of the rewritten corpus restores the original
        restored = [
            [t for sym in s for t in expand_symbol(lib.rules, sym)] for s in seqs
        ]
        assert restored == corpus

    def test_every_phrase_occurs_in_raw_corpus(self):
        rng = np.random.default_rng(3)
        corpus, _ = planted_phrase_corpus(16, 3, 4, 20, 64, 0.9, rng)
        lib = build_library(corpus, merges=64, vocab_size=16)
        joined = [tuple(s) for s in corpus]
        for phrase in lib.phrases:
            found = any(
                seq[i : i + len(phrase)] == phrase.tokens
                for seq in joined
                for i in range(len(seq) - len(phrase) + 1)
            )
            assert found

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        corpus = [list(rng.integers(0, 8, size=50)) for _ in range(10)]
        a, b = tmp_path / "a.psdl", tmp_path / "b.psdl"
        save_library(build_library(corpus, merges=32, vocab_size=8), a)
        save_library(build_library(corpus, merges=32, vocab_size=8), b)
        assert a.read_bytes() == b.read_bytes()


class TestExpandSymbol:
    # the oracle and the engine's own spelling routine, over V=8
    RULES = (MergeRule(1, 2, 8, 1), MergeRule(8, 3, 9, 2))

    def test_raw_token(self):
        assert expand_symbol(self.RULES, 5) == (5,)
        assert phrase_lib._spell(self.RULES, 8, 5) == (5,)

    def test_recursive(self):
        assert expand_symbol(self.RULES, 9) == (1, 2, 3)
        assert phrase_lib._spell(self.RULES, 8, 9) == (1, 2, 3)

    def test_length_identity(self):
        lengths = phrase_lib._phrase_lengths(self.RULES, 8, limit=3)
        for rule in self.RULES:
            assert len(expand_symbol(self.RULES, rule.result)) == len(
                expand_symbol(self.RULES, rule.left)
            ) + len(expand_symbol(self.RULES, rule.right))
            assert lengths[rule.rank - 1] == len(expand_symbol(self.RULES, rule.result))
        # lengths above the limit are capped just above it
        assert phrase_lib._phrase_lengths(self.RULES, 8, limit=2) == [2, 3]
        assert phrase_lib._phrase_lengths(self.RULES, 8, limit=1) == [2, 2]

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            expand_symbol(self.RULES, 10)
        with pytest.raises(UnknownSymbol):
            expand_symbol(self.RULES, -1)


class TestMatchPrefix:
    def test_direct_hit(self):
        lib = build_library([[1, 2, 1, 2, 3]], merges=1)
        assert [p.tokens for p in lib.index.get(1, ())] == [(1, 2)]

    def test_miss(self):
        lib = build_library([[1, 2, 1, 2, 3]], merges=1)
        assert lib.index.get(3, ()) == ()

    def test_ordering_rule(self):
        phrases = (
            Phrase((1, 2), source_rank=1, corpus_count=9),
            Phrase((1, 2, 3), source_rank=2, corpus_count=5),
        )
        lib = PhraseLibrary(4, (), phrases)
        assert [p.tokens for p in lib.index.get(1, ())] == [(1, 2, 3), (1, 2)]

    def test_bucket_keyed_by_first_token(self):
        rng = np.random.default_rng(1)
        corpus = [list(rng.integers(0, 6, size=60)) for _ in range(6)]
        lib = build_library(corpus, merges=16, vocab_size=6)
        for start, bucket in lib.index.items():
            assert all(p.tokens[0] == start for p in bucket)


class TestSerialization:
    def test_round_trip_structural_equality(self, tmp_path):
        rng = np.random.default_rng(9)
        corpus = [list(rng.integers(0, 10, size=80)) for _ in range(8)]
        lib = build_library(corpus, merges=40, vocab_size=10)
        path = tmp_path / "lib.psdl"
        save_library(lib, path)
        loaded = load_library(path)
        assert loaded == lib
        assert loaded.index == lib.index

    def test_largest_ids_the_format_stores(self, tmp_path):
        path = tmp_path / "lib.psdl"
        top = 2**32 - 1
        save_library(PhraseLibrary(top, (), ()), path)
        assert load_library(path).vocab_size == top
        rule = MergeRule(0, 1, top, 1)
        save_library(PhraseLibrary(top, (rule,), (Phrase((0, 1), 1, 2),)), path)
        assert load_library(path).rules == (rule,)
        path.unlink()
        for lib in (
            PhraseLibrary(top + 1, (), ()),
            PhraseLibrary(top, (rule, MergeRule(top, 0, top + 1, 2)), ()),
        ):
            with pytest.raises(LibraryTooLarge, match="does not fit in 32 bits"):
                save_library(lib, path)
            assert not path.exists()

    def test_longest_phrase_the_format_stores(self, tmp_path):
        def lib_with_phrase(n):
            # one rule per length on the halving path from n down to 1, so
            # the last rule spells n zeros and the rules stay few
            ranks, rules = {1: 0}, []

            def spell(length):
                if length not in ranks:
                    left, right = spell(length // 2), spell(length - length // 2)
                    ranks[length] = len(rules) + 1
                    rules.append(MergeRule(left, right, ranks[length], ranks[length]))
                return ranks[length]

            rank = spell(n)
            return PhraseLibrary(1, tuple(rules), (Phrase((0,) * n, rank, 1),))

        path = tmp_path / "lib.psdl"
        save_library(lib_with_phrase(2**16 - 1), path)
        assert len(load_library(path).phrases[0]) == 2**16 - 1
        path.unlink()
        with pytest.raises(LibraryTooLarge, match="65536 tokens"):
            save_library(lib_with_phrase(2**16), path)
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"XXXX" + b"\0" * 10)
        with pytest.raises(UnsupportedLibraryFormat):
            load_library(path)

    def test_unknown_version(self, tmp_path):
        lib = build_library([[1, 2, 1, 2]], merges=1)
        path = tmp_path / "lib.psdl"
        save_library(lib, path)
        data = bytearray(path.read_bytes())
        data[4] = 42
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedLibraryFormat):
            load_library(path)


    @given(
        vocab=st.integers(2, 8),
        merges=st.integers(0, 24),
        max_len=st.integers(2, 6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_fuzz(self, tmp_path_factory, vocab, merges, max_len, seed):
        rng = np.random.default_rng(seed)
        corpus = [rng.integers(0, vocab, size=rng.integers(0, 40)) for _ in range(4)]
        lib = build_library(corpus, merges, max_len, vocab_size=vocab)
        path = tmp_path_factory.mktemp("rt") / "lib.psdl"
        save_library(lib, path)
        loaded = load_library(path)
        assert loaded == lib
        again = path.with_name("again.psdl")
        save_library(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_truncated_file_rejected(self, tmp_path_factory, data):
        lib = build_library([[0, 1, 2, 0, 1, 2, 3, 0, 1]], merges=4, vocab_size=4)
        path = tmp_path_factory.mktemp("trunc") / "lib.psdl"
        save_library(lib, path)
        full = path.read_bytes()
        cut = data.draw(st.integers(0, len(full) - 1))
        path.write_bytes(full[:cut])
        with pytest.raises(UnsupportedLibraryFormat):
            load_library(path)

    @pytest.mark.parametrize(
        "rules, phrases, tail",
        [
            ([(1, 2, 4)], [()], b""),
            ([(1, 2, 4)], [(1, 4)], b""),
            ([(1, 2, 5)], [(1, 2)], b""),
            ([(1, 4, 4)], [(1, 2)], b""),
            ([(1, 2, 4), (5, 3, 5)], [(1, 2)], b""),
            # a valid library followed by one stray byte
            ([(1, 2, 4)], [(1, 2)], b"\0"),
        ],
        ids=[
            "empty_phrase",
            "phrase_token_out_of_vocab",
            "result_not_next_symbol",
            "right_names_itself",
            "left_names_later_symbol",
            "trailing_byte",
        ],
    )
    def test_impossible_content_rejected(self, tmp_path, rules, phrases, tail):
        parts = [b"PSDL", struct.pack("<HII", 1, 4, len(rules))]
        parts += [struct.pack("<III", *rule) for rule in rules]
        parts.append(struct.pack("<I", len(phrases)))
        for tokens in phrases:
            parts.append(struct.pack(f"<H{len(tokens)}I", len(tokens), *tokens))
            parts.append(struct.pack("<IQ", 1, 2))
        path = tmp_path / "lib.psdl"
        path.write_bytes(b"".join(parts) + tail)
        with pytest.raises(UnsupportedLibraryFormat):
            load_library(path)

    @pytest.mark.parametrize(
        "tokens, source_rank, loads",
        [
            ((1, 2, 3), 2, True),
            ((1, 2), 1, True),
            ((3, 3), 1, False),
            ((1, 2), 2, False),
            ((1, 2), 0, False),
            ((1, 2), 3, False),
            ((1, 2), 99, False),
        ],
        ids=["rule_2", "rule_1", "not_the_expansion", "expansion_of_another_rule",
             "rank_zero", "rank_past_last_rule", "rank_far_out_of_range"],
    )
    def test_phrase_must_expand_its_source_rule(self, tmp_path, tokens, source_rank, loads):
        # rules (1, 2) -> 4 and (4, 3) -> 5 over V=4
        lib = PhraseLibrary(
            4, (MergeRule(1, 2, 4, 1), MergeRule(4, 3, 5, 2)), (Phrase(tokens, source_rank, 99),)
        )
        path = tmp_path / "lib.psdl"
        save_library(lib, path)
        if loads:
            assert load_library(path) == lib
        else:
            with pytest.raises(UnsupportedLibraryFormat, match="expansion"):
                load_library(path)

    def test_phrase_stored_twice_rejected(self, tmp_path):
        # no build stores a rule's phrase twice; a decoder would try it twice
        rules = (MergeRule(1, 2, 4, 1),)
        path = tmp_path / "lib.psdl"
        save_library(PhraseLibrary(4, rules, (Phrase((1, 2), 1, 2), Phrase((1, 2), 1, 7))), path)
        with pytest.raises(UnsupportedLibraryFormat, match="stores a rule's phrase twice"):
            load_library(path)


def chained_library(n):
    """V=1 and n rules, each extending the last phrase by one token: rule k
    spells k + 1 zeros, and the one phrase stored is the last rule's."""
    rules = tuple(MergeRule(max(k - 1, 0), 0, k, k) for k in range(1, n + 1))
    return PhraseLibrary(1, rules, (Phrase((0,) * (n + 1), n, 1),))


class TestLoaderChecks:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_loads_iff_every_phrase_is_its_rules_expansion(self, tmp_path_factory, data):
        # random valid rules, a random subset of their phrases, some corrupted
        vocab = data.draw(st.integers(1, 4))
        rules = []
        for rank in range(1, data.draw(st.integers(1, 10)) + 1):
            result = vocab + rank - 1
            left, right = (data.draw(st.integers(0, result - 1)) for _ in range(2))
            rules.append(MergeRule(left, right, result, rank))
        phrases = []
        for rule in data.draw(st.lists(st.sampled_from(rules), max_size=5)):
            tokens, rank = list(expand_symbol(rules, rule.result)), rule.rank
            fault = data.draw(st.sampled_from(["none", "token", "rank", "longer", "shorter"]))
            if fault == "token":
                at = data.draw(st.integers(0, len(tokens) - 1))
                tokens[at] += data.draw(st.integers(1, vocab + 1))
            elif fault == "rank":
                rank = data.draw(st.integers(0, len(rules) + 1))
            elif fault == "longer":
                tokens.append(data.draw(st.integers(0, vocab - 1)))
            elif fault == "shorter":
                tokens.pop()
            phrases.append(Phrase(tuple(tokens), rank, 1))
        lib = PhraseLibrary(vocab, tuple(rules), tuple(phrases))
        path = tmp_path_factory.mktemp("diff") / "lib.psdl"
        save_library(lib, path)
        valid = all(
            1 <= p.source_rank <= len(rules)
            and expand_symbol(rules, vocab + p.source_rank - 1) == p.tokens
            for p in phrases
        )
        once = len({p.source_rank for p in phrases}) == len(phrases)
        if valid and once:
            assert load_library(path) == lib
        elif valid:
            with pytest.raises(UnsupportedLibraryFormat, match="stores a rule's phrase twice"):
                load_library(path)
        else:
            with pytest.raises(UnsupportedLibraryFormat, match="is not the expansion of rule"):
                load_library(path)

    def test_chain_loads_in_linear_memory(self, tmp_path):
        # 4,000 chained rules and one 4,001-token phrase: a 64 KB file
        path = tmp_path / "chain.psdl"
        lib = chained_library(4000)
        save_library(lib, path)
        tracemalloc.start()
        try:
            loaded = load_library(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == lib
        assert peak < 8 * 2**20

    def test_wrong_length_rejected_before_spelling(self, tmp_path, monkeypatch):
        # a 2-token phrase naming the chain's deepest rule, a 4,001-token one
        lib = chained_library(4000)
        path = tmp_path / "chain.psdl"
        save_library(PhraseLibrary(1, lib.rules, (Phrase((0, 0), 4000, 1),)), path)

        def no_walk(*args):
            raise AssertionError("spelled a phrase whose length was already wrong")

        monkeypatch.setattr(phrase_lib, "_spell", no_walk)
        with pytest.raises(UnsupportedLibraryFormat, match="is not the expansion of rule 4000"):
            load_library(path)


class TestCorpusIO:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("# header\n1 2 3\n\n4 5\n", encoding="utf-8")
        assert read_corpus(path) == [(1, 2, 3), (4, 5)]

    def test_write_then_read(self, tmp_path):
        corpus = [(0, 1, 2), (3, 3)]
        path = tmp_path / "c.txt"
        write_corpus(corpus, path)
        assert read_corpus(path) == list(corpus)

    def test_bad_token(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("1 two 3\n", encoding="utf-8")
        with pytest.raises(InvalidToken):
            read_corpus(path)

    @pytest.mark.parametrize(
        "line",
        ["1_0 2", "+3 4", "3 -4", "\u0663 4", "\uff13 4", "\u00b2 4"],
        ids=["underscore", "plus_sign", "minus_sign", "arabic_indic_digit", "fullwidth_digit",
             "superscript_digit"],
    )
    def test_a_token_that_is_not_ascii_digits(self, tmp_path, line):
        # int() reads each of these; 1_0 read as 10 and an Arabic-Indic 3 as 3
        path = tmp_path / "c.txt"
        path.write_text(f"0 1\n{line}\n", encoding="utf-8")
        with pytest.raises(InvalidToken, match=re.escape(f"bad token in corpus line {line!r}")):
            read_corpus(path)

    @pytest.mark.parametrize("data", [b"\xff\xfe", b"1 2\n3 \xff\n"], ids=["first", "later"])
    def test_a_file_that_is_not_utf8(self, tmp_path, data):
        # it used to raise a bare UnicodeDecodeError
        path = tmp_path / "c.txt"
        path.write_bytes(data)
        with pytest.raises(InvalidToken, match=r"c\.txt: not a UTF-8 text file"):
            read_corpus(path)
