"""The library builder's carried pair counts, and golden library bytes.

``_PairCounts`` keeps every pair count across merges and recounts only the
windows around each merge's sites.  After every merge its counts must equal
a fresh count of the rewritten corpus, taken here by a plain Python scan.
The windows reach to the ends of runs of equal symbols, found next to each
site by ``_run_bounds`` along the links between live cells; it must agree
with a search for run edges over the live symbols.  The golden hashes pin
the ``.psdl`` bytes of both benchmark workloads' libraries, recorded from
the builder that recounted the whole corpus on every merge.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_builder as ref
from phrasedec import phrase_lib
from phrasedec.harness import ExperimentConfig, _resolve_model_and_corpus
from phrasedec.phrase_lib import (
    _DEAD,
    _FRAME,
    _REACH,
    LibraryTooLarge,
    _PairCounts,
    _run_bounds,
    _score_shift,
    _slot_key,
    build_library,
    save_library,
)

SYMBOLS = st.integers(0, 3)
# long runs of one symbol, and cycles such as abab whose merges make runs
# of the new symbol
RUNS = st.lists(st.tuples(SYMBOLS, st.integers(1, 40)), min_size=1, max_size=3).map(
    lambda runs: [s for s, n in runs for _ in range(n)]
)
CYCLES = st.tuples(st.lists(SYMBOLS, min_size=1, max_size=3), st.integers(1, 16)).map(
    lambda t: t[0] * t[1]
)
SEQUENCES = st.one_of(RUNS, CYCLES, st.lists(SYMBOLS, max_size=30))


def python_counts(x, sep):
    """Count pairs one position at a time: a pair next to a separator never
    counts, and inside a run of equal symbols only every other pair does."""
    counts = Counter()
    offset = 0  # of x[i] in its run of equal symbols
    for i in range(len(x) - 1):
        offset = offset + 1 if i and x[i] == x[i - 1] else 0
        left, right = x[i], x[i + 1]
        if sep not in (left, right) and (left != right or offset % 2 == 0):
            counts[left, right] += 1
    return counts


def python_merge(x, a, b, symbol):
    """Rewrite left to right, replacing each (a, b) that does not overlap
    the previous replacement."""
    out, i = [], 0
    while i < len(x):
        if i + 1 < len(x) and (x[i], x[i + 1]) == (a, b):
            out.append(symbol)
            i += 2
        else:
            out.append(x[i])
            i += 1
    return out


def carried(counts: _PairCounts) -> Counter:
    pairs = (divmod(int(c), counts.base) for c in counts.codes)
    return Counter({p: int(c) for p, c in zip(pairs, counts.counts) if c})


@given(seqs=st.lists(SEQUENCES, min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_carried_counts_equal_a_fresh_count_after_every_merge(seqs):
    tokens = sum(map(len, seqs))
    symbol = 4
    sep = symbol + tokens // 2
    x = [sep]
    for seq in seqs:
        x += seq + [sep]
    counts = _PairCounts(np.array(x, dtype=np.int64), sep, sep + 1)
    assert carried(counts) == python_counts(x, sep)
    # run the merges to exhaustion
    while (code := counts.best()) is not None:
        a, b = divmod(code, counts.base)
        fresh = python_counts(x, sep)
        top = max(fresh.values())
        assert fresh[a, b] == top
        assert (a, b) == min(p for p, c in fresh.items() if c == top)
        counts.merge(code, symbol)
        x = python_merge(x, a, b, symbol)
        symbol += 1
        assert counts.x.tolist() == x
        assert carried(counts) == python_counts(x, sep)
        assert (counts.counts >= 0).all()
        assert (counts.keys == _slot_key(counts.codes, counts.base)).all()
        assert (counts.keys[1:] > counts.keys[:-1]).all()
    assert max(python_counts(x, sep).values(), default=0) < 2
    assert symbol <= sep


def test_slot_keys_order_pairs_by_larger_symbol_then_code():
    for base in (7, 2**31 - 1):
        # every pair of some symbols below the separator base - 1
        symbols = sorted({0, 1, 2, 3, base // 2, base - 3, base - 2})
        pairs = [(l, r) for l in symbols for r in symbols]
        codes = np.array([l * base + r for l, r in pairs], dtype=np.int64)
        keys = _slot_key(codes, base)
        assert (keys >= 0).all()
        assert [pairs[i] for i in np.argsort(keys)] == sorted(pairs, key=lambda p: (max(p), p))
        assert len(set(keys.tolist())) == len(pairs)


# base 2**30: the codes of (LO, HI) and (HI, LO) lie within 2**31 of
# 1 << shift, and a count of 7 fills the top bits of an int64 score
BASE = 2**30
HI, LO = BASE - 2, BASE - 3


@pytest.mark.parametrize(
    "pairs, want",
    [
        ({(HI, LO): 7, (LO, HI): 7, (1, 2): 6}, (LO, HI)),
        ({(HI, LO): 7, (LO, HI): 6, (1, 2): 6}, (HI, LO)),
        # (1, 2) has the smaller slot key, (0, HI) the smaller code
        ({(HI, LO): 6, (1, 2): 7, (0, HI): 7}, (0, HI)),
    ],
    ids=["tie_near_the_shift", "count_first", "code_not_key"],
)
def test_ties_at_the_top_count_go_to_the_smallest_code_near_the_score_shift(pairs, want):
    assert _score_shift(BASE) == 60
    sep = BASE - 1
    x = [sep] + [s for pair, n in pairs.items() for _ in range(n) for s in (*pair, sep)]
    counts = _PairCounts(np.array(x, dtype=np.int64), sep, BASE)
    assert carried(counts) == pairs
    assert divmod(counts.best(), BASE) == want


SEP = 3
# runs of 1 to 3 * _REACH equal symbols; a run of SEP is a run of empty
# sequences, and a SEP first or last puts a site next to the frame
RUN_CORPORA = st.lists(
    st.tuples(st.integers(0, SEP), st.integers(1, 3 * _REACH)), min_size=2, max_size=8
).map(lambda runs: [SEP] + [s for s, n in runs for _ in range(n)] + [SEP])


def edge_search(x, hit):
    """Run bounds, as indices into x, from the edges of every run in x."""
    edge = [0] + [i for i in range(1, len(x)) if x[i] != x[i - 1]] + [len(x)]
    start = [max(e for e in edge if e <= h - 1) for h in hit]
    stop = [min(e for e in edge if e > h + 2) for h in hit]
    return start, stop


def linked_cells(x, dead):
    """Cells holding the live symbols x with dead[i] dead cells before x[i]
    and dead[-1] after the last, between two frame cells, and their links.

    A dead cell's links point past the cells, so reading one fails."""
    cells, live = [_FRAME], []
    for symbol, n in zip(x + [None], dead):
        cells += [_DEAD] * n
        if symbol is not None:
            live.append(len(cells))
            cells.append(symbol)
    cells.append(_FRAME)
    nxt = np.full(len(cells), 2 * len(cells))
    prv = nxt.copy()
    chain = [0] + live + [len(cells) - 1]
    nxt[chain] = chain[1:] + chain[-1:]
    prv[chain] = chain[:1] + chain[:-1]
    return np.array(cells, dtype=np.int64), nxt, prv, live


@given(x=RUN_CORPORA, data=st.data())
@settings(max_examples=300, deadline=None)
def test_run_bounds_equal_a_whole_corpus_edge_search(x, data):
    # dead cells anywhere: next to sites and next to either frame cell
    dead = data.draw(st.lists(st.integers(0, 2), min_size=len(x) + 1, max_size=len(x) + 1))
    cells, nxt, prv, live = linked_cells(x, dead)
    # sites are live indices h with x[h-1 : h+3] inside x, the first real
    # index 1 among them
    sites = data.draw(st.sets(st.integers(1, len(x) - 3), min_size=1))
    if data.draw(st.booleans()):
        sites.add(1)
    hit = sorted(sites)
    start, stop = _run_bounds(cells, nxt, prv, np.array([live[h] for h in hit]))
    want_start, want_stop = edge_search(x, hit)
    assert start.tolist() == [live[i] for i in want_start]
    assert stop.tolist() == [live[i - 1] + 1 for i in want_stop]


@pytest.mark.parametrize(
    "corpus",
    [
        # runs far longer than _REACH send merges to the whole-corpus edge
        # search, and every merge makes a run of its new symbol
        [[0] * n for n in (1, 2, 3, 5, 8, 13, 64, 255, 256)],
        # (0, 1) merges first and shortens a run of 9 zeros that reaches
        # past _REACH; (0, 0) then keeps its 4 and wins its tie with (2, 3)
        [[0] * 9 + [1]] + [[0, 1]] * 6 + [[2, 3]] * 4,
    ],
    ids=["one_token", "long_run_before_a_site"],
)
def test_run_heavy_corpora_match_the_reference_builder(tmp_path, corpus):
    got = build_library(corpus, 64)
    want = ref.build_library(corpus, 64)
    assert got == want
    for name, lib in (("got", got), ("want", want)):
        save_library(lib, tmp_path / f"{name}.psdl")
    assert (tmp_path / "got.psdl").read_bytes() == (tmp_path / "want.psdl").read_bytes()


GOLDEN = {
    ("planted", 256): "b27682aed615ec60b76c0adda829d54d873cd8201c5c9d6c4737625dbf7fa959",
    ("planted", 1024): "3b88a9ff2f10a461334085094803a9cca87a937373938b9816d7b3142576a40b",
    # the planted corpus runs out of pairs after 1398 merges
    ("planted", 2048): "d89f30e6434e1087c678c73e9983cabff1cd8ede11293b6fa2f0ba4efcc99b10",
    ("long", 256): "ac54131d7a81ff32307a19e3f90bd565b457b5aa84e58ebca5fb3885b6d968a0",
    ("long", 1024): "986be95054327cbe85487dd7d3c1a76735d19f6362d0b8f9ff9a05ebb805d25c",
    ("long", 2048): "15105d7ba82bf4a18e2ecf3744fc0b58bbefbc091b88dd85d97be7e90401bc9a",
}


@pytest.fixture(scope="module")
def workloads():
    """Model and corpus of each benchmark workload (perfbench's MODEL_SEED 0)."""
    return {
        name: _resolve_model_and_corpus(ExperimentConfig(seed=0, planted=name == "planted"))
        for name in ("planted", "long")
    }


@pytest.mark.parametrize("workload, merges", sorted(GOLDEN))
def test_benchmark_libraries_keep_their_bytes(tmp_path, workloads, workload, merges):
    model, corpus = workloads[workload]
    path = tmp_path / "lib.psdl"
    save_library(build_library(corpus, merges, vocab_size=model.vocab_size), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[workload, merges]


def test_a_corpus_too_large_for_the_pair_scores_raises_before_any_merge(monkeypatch):
    # 2M distinct tokens and a merge budget of 1M: base is 3M + 1, so a code
    # takes 44 bits and a count of 1M does not fit in the other 19
    def no_counts(*args):
        raise AssertionError("pairs were counted")

    monkeypatch.setattr(phrase_lib, "_PairCounts", no_counts)
    with pytest.raises(LibraryTooLarge, match="2000000 tokens and 3000001 symbols"):
        build_library([np.arange(2_000_000)], 1_000_000)
