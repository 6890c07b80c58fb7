"""The library builder's carried pair counts, and golden library bytes.

``_PairCounts`` keeps every pair count across merges and recounts only the
windows around each merge's sites.  After every merge its counts must equal
a fresh count of the rewritten corpus, taken here by a plain Python scan.
The golden hashes pin the ``.psdl`` bytes of both benchmark workloads'
libraries, recorded from the builder that recounted the whole corpus on
every merge.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phrasedec.harness import ExperimentConfig, _resolve_model_and_corpus
from phrasedec.phrase_lib import _PairCounts, build_library, save_library

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
    pairs = (divmod(int(k), counts.base) for k in counts.keys)
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
        assert (counts.keys[1:] > counts.keys[:-1]).all()
    assert max(python_counts(x, sep).values(), default=0) < 2
    assert symbol <= sep


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
