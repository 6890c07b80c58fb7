"""Frozen pair-merge library builder: the differential oracle for the flat builder.

This is the engine's former ``build_library``, kept verbatim in behaviour: on
every merge it recounts all adjacent pairs in Python (``_pair_counts``) and
rewrites every sequence (``_replace_pair``), and it expands each phrase with
``expand_symbol``.  ``test_library_builder.py`` asserts that the flat-array
builder returns an equal ``PhraseLibrary`` and identical ``.psdl`` bytes, and
raises the same error types, on the same inputs.  Do not optimise or otherwise
edit this module; it is the specification the builder is checked against.
"""

from __future__ import annotations

from collections import Counter

from phrasedec.core import TokenSequence
from phrasedec.phrase_lib import (
    DEFAULT_MAX_PHRASE_LEN,
    EmptyCorpus,
    InvalidToken,
    MergeRule,
    Phrase,
    PhraseLibrary,
    SymbolId,
)


class UnknownSymbol(ValueError):
    """Symbol id is neither a raw token nor the result of any merge rule."""


def _pair_counts(seqs: list[list[SymbolId]]) -> Counter:
    """Adjacent-pair counts, never crossing sequence boundaries.

    Equal-symbol runs are counted non-overlapping (floor(run/2)) so that the
    count of the chosen pair always equals the number of replacements a merge
    performs.
    """
    counts: Counter = Counter()
    for seq in seqs:
        i, n = 0, len(seq)
        while i < n - 1:
            a, b = seq[i], seq[i + 1]
            if a == b:
                j = i
                while j < n and seq[j] == a:
                    j += 1
                counts[(a, a)] += (j - i) // 2
                i = j - 1
            else:
                counts[(a, b)] += 1
                i += 1
    return counts


def _replace_pair(
    seq: list[SymbolId], pair: tuple[SymbolId, SymbolId], new_symbol: SymbolId
) -> list[SymbolId]:
    out: list[SymbolId] = []
    a, b = pair
    i, n = 0, len(seq)
    while i < n:
        if i < n - 1 and seq[i] == a and seq[i + 1] == b:
            out.append(new_symbol)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def _validate_corpus(corpus, vocab_size: int | None) -> tuple[list[list[int]], int]:
    if not corpus:
        raise EmptyCorpus("corpus contains no sequences")
    seqs: list[list[int]] = []
    max_token = -1
    for seq in corpus:
        row = []
        for tok in seq:
            t = int(tok)
            if t != tok or t < 0:
                raise InvalidToken(f"token {tok!r} is not a non-negative integer")
            if vocab_size is not None and t >= vocab_size:
                raise InvalidToken(f"token {t} out of vocabulary (V={vocab_size})")
            max_token = max(max_token, t)
            row.append(t)
        seqs.append(row)
    if vocab_size is None:
        vocab_size = max_token + 1 if max_token >= 0 else 1
    return seqs, vocab_size


def expand_symbol(rules, symbol: SymbolId) -> TokenSequence:
    """Recursively expand a symbol to raw tokens.

    Raw tokens expand to themselves; merged symbols expand to the
    concatenation of their parts.
    """
    by_result = {rule.result: rule for rule in rules}
    min_result = min(by_result) if by_result else None

    def rec(s: SymbolId) -> tuple[int, ...]:
        rule = by_result.get(s)
        if rule is not None:
            return rec(rule.left) + rec(rule.right)
        if s < 0 or (min_result is not None and s >= min_result):
            raise UnknownSymbol(f"symbol {s} is neither raw nor merged")
        return (s,)

    return rec(symbol)


def build_library(
    corpus,
    merges: int,
    max_phrase_len: int = DEFAULT_MAX_PHRASE_LEN,
    vocab_size: int | None = None,
) -> PhraseLibrary:
    """Learn a phrase library from a corpus of raw token sequences.

    Performs up to `merges` merge iterations, each replacing the globally
    most frequent adjacent pair (ties broken by smaller (left, right) ids),
    stopping early once the best pair occurs fewer than twice.  Phrases
    longer than max_phrase_len are dropped from the index; their rules are
    retained for provenance.
    """
    if merges < 1:
        raise ValueError("merges must be >= 1")
    if max_phrase_len < 2:
        raise ValueError("max_phrase_len must be >= 2")
    seqs, vocab_size = _validate_corpus(corpus, vocab_size)

    rules: list[MergeRule] = []
    for rank in range(1, merges + 1):
        counts = _pair_counts(seqs)
        if not counts:
            break
        best_count = max(counts.values())
        if best_count < 2:
            break
        best_pair = min(pair for pair, c in counts.items() if c == best_count)
        new_symbol = vocab_size + len(rules)
        rules.append(MergeRule(best_pair[0], best_pair[1], new_symbol, rank))
        seqs = [_replace_pair(seq, best_pair, new_symbol) for seq in seqs]

    symbol_counts: Counter = Counter()
    for seq in seqs:
        symbol_counts.update(seq)

    phrases = tuple(
        Phrase(tokens, rule.rank, symbol_counts[rule.result])
        for rule in rules
        for tokens in (expand_symbol(rules, rule.result),)
        if len(tokens) <= max_phrase_len
    )
    return PhraseLibrary(vocab_size, tuple(rules), phrases)
