"""Offline phrase-library construction by iterative pair merging.

A library is built from a token corpus in three steps: repeatedly merge the
globally most frequent adjacent symbol pair into a new symbol, spell each
merged symbol short enough to keep back to raw tokens, and index the
resulting phrases by their starting token.  Each start token's phrases are
also kept as a trie, which the decoder walks to find the first phrase in
trial order that fits a window.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Container, TokenId, TokenSequence, count_at_least, text_lines

SymbolId = int

DEFAULT_MAX_PHRASE_LEN = 8


class EmptyCorpus(ValueError):
    """The corpus contains no sequences."""


class InvalidToken(ValueError):
    """A corpus token is negative, non-integral, out of vocabulary, or in a
    corpus file, not spelled in ASCII digits."""


class UnsupportedLibraryFormat(ValueError):
    """Library file has a bad magic, an unknown format version, is truncated,
    or holds rules or phrases that no build could have produced."""


LIBRARY_FILE = Container(b"PSDL", 1, "library", UnsupportedLibraryFormat)


class LibraryTooLarge(ValueError):
    """A library holds a symbol id or a phrase length that the PSDL
    format's fixed-width fields cannot store, or a corpus is too large for
    the builder's int64 pair scores."""


@dataclass(frozen=True)
class MergeRule:
    """One merge step: (left, right) -> result, learned at iteration `rank`."""

    left: SymbolId
    right: SymbolId
    result: SymbolId
    rank: int


@dataclass(frozen=True)
class Phrase:
    """A merged symbol expanded back to raw tokens.

    corpus_count is the number of occurrences of the source symbol in the
    fully rewritten corpus; it serves as the secondary index sort key.
    """

    tokens: TokenSequence
    source_rank: int
    corpus_count: int

    def __len__(self) -> int:
        return len(self.tokens)


# the rank of a trie node where no phrase ends: above every trial rank
NO_RANK = sys.maxsize


class TrieNode(NamedTuple):
    """One token of the phrases in a start token's bucket, shared by every
    phrase that begins with the path from the root to it.

    Ranks are positions in the bucket's trial order.  ``rank`` and
    ``phrase`` name the first phrase in trial order that ends here
    (``NO_RANK`` and None when none does); ``best`` is the smallest rank in
    the subtree, and ``children`` come in ascending ``best``.
    """

    token: TokenId
    best: int
    rank: int
    phrase: Phrase | None
    children: tuple[TrieNode, ...]


class PhraseLibrary:
    """Merge rules, expanded phrases, the start-token prefix index and its
    tries.

    Index buckets hold every phrase sharing a first token, ordered longest
    first, then by corpus_count descending, then by merge rank; ``trie``
    maps each start token to the root of its bucket's trie.  Immutable
    after construction.
    """

    def __init__(
        self,
        vocab_size: int,
        rules: tuple[MergeRule, ...],
        phrases: tuple[Phrase, ...],
    ) -> None:
        self.vocab_size = vocab_size
        self.rules = tuple(rules)
        self.phrases = tuple(phrases)
        self.index = _build_index(self.phrases)
        self.trie = {start: _build_trie(bucket) for start, bucket in self.index.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhraseLibrary):
            return NotImplemented
        return (
            self.vocab_size == other.vocab_size
            and self.rules == other.rules
            and self.phrases == other.phrases
        )


def _build_index(phrases: tuple[Phrase, ...]) -> dict[TokenId, tuple[Phrase, ...]]:
    buckets: dict[TokenId, list[Phrase]] = {}
    for phrase in phrases:
        buckets.setdefault(phrase.tokens[0], []).append(phrase)
    return {
        start: tuple(
            sorted(bucket, key=lambda p: (-len(p), -p.corpus_count, p.source_rank))
        )
        for start, bucket in buckets.items()
    }


def _build_trie(bucket: tuple[Phrase, ...]) -> TrieNode:
    """The trie of one index bucket, in time and memory linear in its tokens.

    Nodes are created in trial order, so a node's best rank is that of the
    phrase that created it and a node's children are created in ascending
    best rank.  Every child is created after its parent, so freezing the
    nodes in reverse creation order finds each node's children frozen.
    """
    # [token, best, rank, phrase, children by token] until frozen in place
    root = [bucket[0].tokens[0], 0, NO_RANK, None, {}]
    created = [root]
    for rank, phrase in enumerate(bucket):
        node = root
        for token in phrase.tokens[1:]:
            children = node[4]
            child = children.get(token)
            if child is None:
                child = children[token] = [token, rank, NO_RANK, None, {}]
                created.append(child)
            node = child
        # of two rules that spell the same tokens, the first in trial order
        if node[3] is None:
            node[2:4] = rank, phrase
    for node in reversed(created):
        *fields, children = node
        node[4] = TrieNode(*fields, tuple(child[4] for child in children.values()))
    return root[4]


def _validate_corpus(corpus, vocab_size: int | None) -> tuple[list[np.ndarray], int]:
    """Each sequence as one int64 array, plus the vocabulary size.

    Tokens may be integers, bools or integral floats; anything else, a
    negative token or one at or above vocab_size raises InvalidToken.
    """
    if not corpus:
        raise EmptyCorpus("corpus contains no sequences")
    seqs: list[np.ndarray] = []
    max_token = -1
    for seq in corpus:
        try:
            raw = np.asarray(seq)
        except ValueError:  # a ragged sequence, such as [1, [2, 3]]
            raise InvalidToken("sequence is not a flat list of tokens") from None
        if raw.ndim != 1 or (raw.size and raw.dtype.kind not in "biuf"):
            raise InvalidToken(f"sequence of {raw.dtype} is not a flat list of tokens")
        with np.errstate(invalid="ignore"):
            row = raw.astype(np.int64)
        bad = np.flatnonzero((row != raw) | (row < 0))
        if bad.size:
            raise InvalidToken(f"token {raw[bad[0]].item()!r} is not a non-negative integer")
        if row.size:
            max_token = max(max_token, int(row.max()))
        seqs.append(row)
    if vocab_size is None:
        vocab_size = max_token + 1 if max_token >= 0 else 1
    elif max_token >= vocab_size:
        raise InvalidToken(f"token {max_token} out of vocabulary (V={vocab_size})")
    return seqs, vocab_size


def _counted_pairs(x: np.ndarray, sep: int, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions and codes ``left * base + right`` of the pairs a count sees.

    A pair next to a separator never counts; inside a run of equal symbols
    only pairs at even offsets from the run's start count, so a run of n
    counts floor(n / 2) times.
    """
    left, right = x[:-1], x[1:]
    paired = (left != sep) & (right != sep)
    same = np.flatnonzero(paired & (left == right))
    if len(same):
        paired[same[~_even_offsets(same[1:] - same[:-1] == 1)]] = False
    pos = np.flatnonzero(paired)
    return pos, left[pos] * base + right[pos]


def _slot_key(codes: np.ndarray, base: int) -> np.ndarray:
    """Keys that order pair codes by the pair's larger symbol m, then by code.

    Pair (l, m) with l < m has key m * 2 * base + l and pair (m, r) with
    r <= m has key m * 2 * base + base + r.  A key is below 2 * base**2, so
    it fits in int64 for every base up to 2**31.  The key is computed as
    m * (2 * base - 1) + l + r, plus base when l >= r, in one array besides
    the two symbols'.
    """
    left, right = np.divmod(codes, base)
    key = np.maximum(left, right)
    key *= 2 * base - 1
    key += left
    key += right
    np.add(key, base, out=key, where=left >= right)
    return key


def _score_shift(base: int) -> int:
    """Bits of a pair code: a slot's score is count << shift | (mask - code)."""
    return (base * base - 1).bit_length()


def _even_offsets(follows: np.ndarray) -> np.ndarray:
    """For one or more equal pairs in order, given whether each after the
    first directly follows the one before it, which lie at an even offset
    from the start of their run of directly following pairs."""
    order = np.arange(len(follows) + 1)
    run_start = np.maximum.accumulate(np.where(np.concatenate(([True], ~follows)), order, 0))
    return (order - run_start) % 2 == 0


# the value of a cell whose symbol merged into the live cell before it
_DEAD = -1
# the value of the cell past each end of the corpus: neither a symbol nor
# the separator, so a walk along a run of separators stops before it
_FRAME = -2
# how many cells past a site's window _run_bounds walks to find where a
# run ends, before it searches the whole corpus
_REACH = 4


def _run_edges(x: np.ndarray) -> np.ndarray:
    """Where each run of equal values in x starts, then len(x)."""
    edge = np.ones(len(x) + 1, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=edge[1:-1])
    return np.flatnonzero(edge)


def _run_end(cells: np.ndarray, link: np.ndarray, at: np.ndarray) -> np.ndarray | None:
    """The last cell of each run of equal symbols followed from ``at`` along
    ``link``, or None when some run goes on for more than _REACH links."""
    end, symbol = at, cells[at]
    for _ in range(_REACH):
        step = link[end]
        going = cells[step] == symbol
        if not going.any():
            return end
        end = np.where(going, step, end)
    return None


def _run_bounds(
    cells: np.ndarray, nxt: np.ndarray, prv: np.ndarray, hit: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each site h, the cell where the run of equal symbols holding the
    live cell before h starts, and one past the cell where the run holding
    the second live cell after h ends.

    ``nxt`` and ``prv`` link the live cells, and a frame cell past each end
    links to itself.  Each run is followed _REACH links outward; only when
    some run goes on past them all are the run edges of all live cells
    searched.
    """
    before, after = prv[hit], nxt[nxt[hit]]
    start = _run_end(cells, prv, before)
    stop = None if start is None else _run_end(cells, nxt, after)
    if stop is None:
        live = np.flatnonzero(cells >= 0)
        edge = _run_edges(cells[live])
        left, right = np.searchsorted(live, (before, after))
        start = live[edge[np.searchsorted(edge, left, "right") - 1]]
        stop = live[edge[np.searchsorted(edge, right, "right")] - 1]
    return start, stop + 1


class _PairCounts:
    """The corpus, rewritten in place, and the count of every pair in it,
    kept across merges.

    The corpus is held in ``cells``, one per original position, between two
    frame cells.  A merge writes its symbol into the left cell of each site
    and marks the right one dead; ``nxt`` and ``prv`` link the live cells,
    and ``placed[m]`` holds the cells where symbol m was written (a raw
    token's are found on first use).  Every pair a merge creates holds the
    new symbol, the largest so far, so a pair's sites are found among the
    cells of its larger symbol.

    Each pair seen so far has a slot, in ascending key order: its key
    (``_slot_key``) and its score ``count << shift | (mask - code)``, of
    its code ``left * base + right`` and its count (zero once the pair has
    gone); ``keys``, ``codes`` and ``counts`` read them.  New slots append
    at the end, in key order, of arrays whose capacity doubles.  The best
    pair has the highest score, so one argmax finds it; ``batch`` takes the
    next pairs in score order that the one-pair-at-a-time loop would merge
    next, and one ``merge`` pass replaces them all.  A pass recounts only
    the pairs in windows around its sites, before and after the rewrite,
    sums the two counts into one net change per distinct pair, and adds
    the nonzero ones to their slots; ``_run_bounds`` finds the windows'
    ends next to the sites.  ``x`` must start and end with a separator,
    merges must create symbols in ascending order, and a count << shift
    must fit in int64.
    """

    def __init__(self, x: np.ndarray, sep: int, base: int) -> None:
        self.sep, self.base = sep, base
        self.shift = _score_shift(base)
        self.mask = (1 << self.shift) - 1
        self.cells = np.concatenate(([_FRAME], x, [_FRAME]))
        cell = np.arange(len(self.cells))
        self.nxt = np.minimum(cell + 1, len(self.cells) - 1)
        self.prv = np.maximum(cell - 1, 0)
        self.placed: dict[int, np.ndarray] = {}
        codes, counts = np.unique(_counted_pairs(x, sep, base)[1], return_counts=True)
        keys = _slot_key(codes, base)
        order = np.argsort(keys)
        # rows of keys and scores, filled up to size
        self.slots = np.empty((2, max(len(codes), 1)), dtype=np.int64)
        self.size = 0
        self._append(keys[order], codes[order], counts[order])

    @property
    def keys(self) -> np.ndarray:
        return self.slots[0, : self.size]

    @property
    def codes(self) -> np.ndarray:
        return self.mask - (self.slots[1, : self.size] & self.mask)

    @property
    def counts(self) -> np.ndarray:
        return self.slots[1, : self.size] >> self.shift

    @property
    def x(self) -> np.ndarray:
        """The live symbols in order, separators included."""
        cells = self.cells[1:-1]
        return cells[cells != _DEAD]

    def _append(self, keys: np.ndarray, codes: np.ndarray, counts: np.ndarray) -> None:
        """Add slots for ascending keys, after every slot there is."""
        at = self.size
        stop = at + len(codes)
        if stop > self.slots.shape[1]:
            grown = np.empty((2, max(stop, 2 * self.slots.shape[1])), dtype=np.int64)
            grown[:, :at] = self.slots[:, :at]
            self.slots = grown
        rows = self.slots[:, at:stop]
        rows[0] = keys
        rows[1] = counts << self.shift | (self.mask - codes)
        self.size = stop

    def batch(self, limit: int) -> list[int]:
        """Codes of the next merges, at most ``limit``: the most frequent
        pair (the smallest code on ties), then each next pair in score
        order while it occurs twice, does not overlap a pair taken, and the
        pair taken before it is not a self-pair (a, a).  A pair (c, d)
        overlaps a taken (a, b) when c is b or d is a.  Empty when no pair
        occurs twice.

        Merging (a, b) changes only the counts of pairs that end in a or
        start with b, which overlap it: it lowers them, and creates pairs
        (p, n) and (n, q) of its new symbol n, each counting at most the
        pair (p, a) or (b, q) it replaced, which overlaps (a, b) and has a
        smaller code.  A pair sharing a symbol on the same side, such as
        (a, c), has sites disjoint from (a, b)'s and keeps its count.  The
        taken pairs overlap none of each other, so no merge of the batch
        changes another's count, and every pair a merge lowers or creates
        ranks below the first overlapping pair, which ranks below them all.
        After a self-pair (a, a) a created pair may count as much as the
        pair it replaced, (a, a) itself, so the batch ends there.  So
        merging these one at a time, each would be the best pair in turn.
        """
        scores = self.slots[1, : self.size]
        codes: list[int] = []
        lefts: set[int] = set()
        rights: set[int] = set()
        taken, kept = [], []  # slots masked to find the next pair, and their scores
        while self.size and len(codes) < limit:
            slot = int(scores.argmax())
            score = int(scores[slot])
            code = self.mask - (score & self.mask)
            a, b = divmod(code, self.base)
            if score >> self.shift < 2 or a in rights or b in lefts:
                break
            codes.append(code)
            if a == b:
                break
            lefts.add(a)
            rights.add(b)
            taken.append(slot)
            kept.append(score)
            scores[slot] = -1
        scores[taken] = kept
        return codes

    def merge(self, codes: list[int], symbol: int) -> None:
        """Replace every counted occurrence of pair ``codes[k]`` with
        ``symbol + k``, for pairs of which none overlaps another (see
        ``batch``): no symbol is the left of one pair and the right of
        another, so no cell lies in the sites of two pairs."""
        cells, nxt, prv, sep, base = self.cells, self.nxt, self.prv, self.sep, self.base
        sites = []
        for code in codes:
            a, b = divmod(code, base)
            m = max(a, b)
            at = self.placed.get(m)
            if at is None:
                at = np.flatnonzero(cells == m)
            at = self.placed[m] = at[cells[at] == m]
            if a >= b:  # m is the left symbol of each site
                hit = at[cells[nxt[at]] == b]
            else:  # m is the right one
                hit = prv[at]
                hit = hit[cells[hit] == a]
            if a == b:
                hit = hit[_even_offsets(nxt[hit[:-1]] == hit[1:])]
            sites.append(hit)
        hit = np.sort(np.concatenate(sites)) if len(sites) > 1 else sites[0]
        # A site h changes the pairs of its cell, the live cell before it
        # and the two after it.  Widened to whole runs of equal symbols, a
        # window's runs start where they start in the corpus, so their
        # parities recount right; no site of another pair lies in those
        # runs without its window overlapping this one.
        start, stop = _run_bounds(cells, nxt, prv, hit)
        # overlapping windows join; each is cut from the cells with a
        # separator after it, before and after the rewrite
        opens = np.concatenate(([True], start[1:] >= stop[:-1]))
        lo = start[opens]
        width = stop[np.append(opens[1:], True)] - lo + 1
        ends = np.cumsum(width)
        cut = np.arange(ends[-1]) + np.repeat(lo - ends + width, width)
        window = cells[cut]
        right = nxt[hit]
        after = nxt[right]
        for new, written in enumerate(sites, symbol):
            cells[written] = new
            self.placed[new] = written
        cells[right] = _DEAD
        nxt[hit] = after
        prv[after] = hit
        window = np.concatenate((window, cells[cut]))
        window[ends - 1] = sep
        window[ends[-1] + ends - 1] = sep
        live = window != _DEAD
        window = window[live]

        # pairs of the old windows leave the counts, pairs of the new enter:
        # each code is tagged with its side in the low bit (build_library's
        # LibraryTooLarge bound keeps codes below 2**62), so one sort runs
        # each code's old then new occurrences, and a run's sum of -1s and
        # +1s is the pair's net change
        pos, codes = _counted_pairs(window, sep, base)
        old = np.searchsorted(pos, np.count_nonzero(live[: ends[-1]]))
        codes <<= 1
        codes[old:] |= 1
        codes.sort()
        runs = np.flatnonzero(np.concatenate(([True], (codes[1:] ^ codes[:-1]) > 1)))
        net = np.add.reduceat((codes & 1) * 2 - 1, runs)
        changed = np.flatnonzero(net)
        codes = codes[runs[changed]] >> 1
        net = net[changed]
        keys = _slot_key(codes, base)
        order = np.argsort(keys)
        keys, codes, net = keys[order], codes[order], net[order]
        # in key order, a pair not yet in the table comes after every other,
        # since it holds a new symbol, and its net is its count; the pairs
        # are distinct, so one plain add updates the known pairs' slots
        at = np.searchsorted(self.keys, keys)
        known = np.searchsorted(at, self.size)
        self.slots[1, at[:known]] += net[:known] << self.shift
        self._append(keys[known:], codes[known:], net[known:])


def _phrase_lengths(rules, vocab_size: int, limit: int) -> list[int]:
    """Each rule's phrase length, capped at limit + 1 to stay a small int."""
    lengths: list[int] = []
    for rule in rules:
        left, right = rule.left - vocab_size, rule.right - vocab_size
        n = (1 if left < 0 else lengths[left]) + (1 if right < 0 else lengths[right])
        lengths.append(min(n, limit + 1))
    return lengths


def _spell(rules, vocab_size: int, symbol: SymbolId) -> tuple[TokenId, ...]:
    """The raw tokens of a symbol: a stack walk down each left spine, in time
    linear in their count, that keeps no other symbol's expansion."""
    tokens: list[TokenId] = []
    stack = [symbol]
    while stack:
        symbol = stack.pop()
        while symbol >= vocab_size:
            rule = rules[symbol - vocab_size]
            stack.append(rule.right)
            symbol = rule.left
        tokens.append(symbol)
    return tuple(tokens)


def build_library(
    corpus,
    merges: int,
    max_phrase_len: int = DEFAULT_MAX_PHRASE_LEN,
    vocab_size: int | None = None,
) -> PhraseLibrary:
    """Learn a phrase library from a corpus of raw token sequences.

    Performs up to `merges` merge iterations, each replacing the globally
    most frequent adjacent pair (ties broken by smaller (left, right) ids),
    stopping early once the best pair occurs fewer than twice.  Equal-symbol
    runs count non-overlapping (floor(run/2)), so a pair's count is the
    number of replacements its merge makes.  Phrases longer than
    max_phrase_len are dropped from the index; their rules are retained for
    provenance.  Each kept phrase is spelled from its rule (``_spell``), so
    no rule's expansion is built unless it is kept.

    The corpus is one flat int64 array with separators between sequences,
    rewritten in place.  Pairs are counted once.  Each pass then merges a
    batch: the best pair, then each next pair in score order while it
    overlaps no pair taken (its left symbol is no taken pair's right, its
    right no taken pair's left) and does not follow a self-pair
    (``_PairCounts.batch``), which are the merges the one-pair loop would
    make next (about 4.5 to 5.2 to a pass over the first 256 merges of the
    benchmark corpora, about 10 over 2048).  A pass finds each pair's sites
    among the cells of its larger symbol, recounts only the windows around
    them, whose runs end near them, and updates only the slots of the pairs
    whose count those windows change, once each by the pair's net change.
    So a pass costs O(listed cells of its pairs' larger symbols + touched
    cells), one sort of the windows' pair codes, and one argmax over the
    pair slots per pair and one more; only a raw token's first use and a
    run too long to follow locally read the whole corpus.  Memory is a few
    arrays of corpus length.  A corpus whose pair counts could overflow the
    slots' int64 scores raises LibraryTooLarge before any merge; a ``merges``,
    ``max_phrase_len`` or given ``vocab_size`` that is not an integer, or is
    out of range, raises ValueError before the corpus is read.
    """
    merges = count_at_least(merges, 0, "merges")
    max_phrase_len = count_at_least(max_phrase_len, 2, "max_phrase_len")
    if vocab_size is not None:
        vocab_size = count_at_least(vocab_size, 0, "vocab_size")
    seqs, vocab_size = _validate_corpus(corpus, vocab_size)

    # Dense symbol ids keep the (left, right) order: raw tokens by rank among
    # the corpus's distinct tokens, then merged symbols in creation order.
    lengths = np.array([len(seq) for seq in seqs])
    raw, dense = np.unique(np.concatenate(seqs), return_inverse=True)
    first_merged = len(raw)
    # every merge removes at least two symbols, which bounds the symbol count
    sep = first_merged + min(merges, len(dense) // 2)
    base = sep + 1
    # no pair occurs more often than every other token, and a pair slot's
    # score, count << shift | (mask - code), must fit in int64
    if (len(dense) // 2 + 1) << _score_shift(base) > 1 << 63:
        raise LibraryTooLarge(
            f"pair counts over {len(dense)} tokens and {base} symbols do not fit in int64"
        )
    # a separator before every sequence and after the last
    x = np.full(len(dense) + len(seqs) + 1, sep, dtype=np.int64)
    x[np.arange(len(dense)) + np.repeat(np.arange(1, len(seqs) + 1), lengths)] = dense

    counts = _PairCounts(x, sep, base)
    pairs: list[tuple[int, int]] = []
    while len(pairs) < merges:
        batch = counts.batch(merges - len(pairs))
        if not batch:
            break
        counts.merge(batch, first_merged + len(pairs))
        pairs += (divmod(code, base) for code in batch)

    names = raw.tolist() + [vocab_size + k for k in range(len(pairs))]
    rules = tuple(
        MergeRule(names[a], names[b], vocab_size + k, k + 1) for k, (a, b) in enumerate(pairs)
    )
    symbol_counts = np.bincount(counts.x, minlength=base)[first_merged:]
    sizes = _phrase_lengths(rules, vocab_size, max_phrase_len)
    phrases = tuple(
        Phrase(_spell(rules, vocab_size, rule.result), rule.rank, int(symbol_counts[k]))
        for k, rule in enumerate(rules)
        if sizes[k] <= max_phrase_len
    )
    return PhraseLibrary(vocab_size, rules, phrases)


def save_library(lib: PhraseLibrary, path) -> None:
    """Write a library in the versioned PSDL binary format (deterministic bytes).

    Symbol ids are stored in 32 bits and phrase lengths in 16: a library
    with a larger one raises LibraryTooLarge, and nothing is written.
    """
    # every symbol id, tokens included, is below vocab_size + len(rules)
    top = max(lib.vocab_size, lib.vocab_size + len(lib.rules) - 1)
    if top > 0xFFFFFFFF:
        raise LibraryTooLarge(f"symbol id {top} does not fit in 32 bits")
    longest = max(map(len, lib.phrases), default=0)
    if longest > 0xFFFF:
        raise LibraryTooLarge(f"a phrase of {longest} tokens is longer than 65535")
    parts = []
    for rule in lib.rules:
        parts.append(struct.pack("<III", rule.left, rule.right, rule.result))
    parts.append(struct.pack("<I", len(lib.phrases)))
    for phrase in lib.phrases:
        parts.append(struct.pack("<H", len(phrase.tokens)))
        parts.append(struct.pack(f"<{len(phrase.tokens)}I", *phrase.tokens))
        parts.append(struct.pack("<IQ", phrase.source_rank, phrase.corpus_count))
    LIBRARY_FILE.write(path, (lib.vocab_size, len(lib.rules)), b"".join(parts))


def load_library(path) -> PhraseLibrary:
    """Read a PSDL library file; the index is rebuilt with canonical ordering.

    A truncated file, or one whose rules or phrases could not have come from
    build_library, raises UnsupportedLibraryFormat.
    """
    try:
        return _parse_library(*LIBRARY_FILE.read(path))
    except struct.error as exc:
        raise UnsupportedLibraryFormat("library file is truncated") from exc


def _parse_library(vocab_size: int, rule_count: int, data: memoryview) -> PhraseLibrary:
    """Rules must each merge earlier symbols; each stored phrase must name a
    rule whose length it has and whose spelling it is, and no rule's phrase
    may be stored twice.  Time and memory are linear in the file: one length
    per rule, and one walk per phrase."""
    offset = 0
    rules = []
    for rank in range(1, rule_count + 1):
        left, right, result = struct.unpack_from("<III", data, offset)
        offset += 12
        # rule k creates symbol V + k - 1 from symbols defined before it
        if result != vocab_size + rank - 1 or max(left, right) >= result:
            raise UnsupportedLibraryFormat(
                f"rule {rank} ({left}, {right}) -> {result} is not a merge of earlier symbols"
            )
        rules.append(MergeRule(left, right, result, rank))
    (phrase_count,) = struct.unpack_from("<I", data, offset)
    offset += 4
    phrases = []
    for _ in range(phrase_count):
        (length,) = struct.unpack_from("<H", data, offset)
        offset += 2
        tokens = struct.unpack_from(f"<{length}I", data, offset)
        offset += 4 * length
        source_rank, corpus_count = struct.unpack_from("<IQ", data, offset)
        offset += 12
        phrases.append(Phrase(tokens, source_rank, corpus_count))
    if offset != len(data):
        raise UnsupportedLibraryFormat("library file has trailing or missing bytes")
    lengths = _phrase_lengths(rules, vocab_size, max(map(len, phrases), default=0))
    for phrase in phrases:
        rank = phrase.source_rank
        known = 1 <= rank <= len(rules) and lengths[rank - 1] == len(phrase)
        if not known or _spell(rules, vocab_size, rules[rank - 1].result) != phrase.tokens:
            raise UnsupportedLibraryFormat(
                f"phrase {phrase.tokens} is not the expansion of rule {rank}"
            )
    if len({phrase.source_rank for phrase in phrases}) != len(phrases):
        raise UnsupportedLibraryFormat("library file stores a rule's phrase twice")
    return PhraseLibrary(vocab_size, tuple(rules), tuple(phrases))


def read_corpus(path) -> list[TokenSequence]:
    """Read a corpus file: one sequence per line, whitespace-separated decimal
    token ids, '#'-prefixed comment lines ignored.  A token that is not ASCII
    digits alone (a sign, an underscore or another script's digit) or a
    file that is not UTF-8 raises InvalidToken."""
    corpus: list[TokenSequence] = []
    for _, line in text_lines(path, InvalidToken):
        tokens = line.split()
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise InvalidToken(f"bad token in corpus line {line!r}")
        corpus.append(tuple(map(int, tokens)))
    return corpus


def write_corpus(corpus, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for seq in corpus:
            f.write(" ".join(str(int(t)) for t in seq))
            f.write("\n")
