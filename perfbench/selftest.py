"""Show that every output check in ``checks.py`` passes real outputs and
fires on a deliberately corrupted one.

    python3 perfbench/selftest.py

Prints one line per case and exits non-zero if a check misses a corruption
or rejects a clean output.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
from run import ROOT, import_engine


def main() -> int:
    e = import_engine()
    cfg = e.harness.ExperimentConfig(seed=0)
    corpus, model = e.harness.planted_phrase_corpus(
        cfg.vocab_size, cfg.phrase_count, cfg.phrase_len, cfg.corpus_sequences,
        cfg.corpus_seq_len, cfg.planting_rate, np.random.default_rng([0, 0]),
        concentration=cfg.concentration,
    )
    V, n, runs = model.vocab_size, 256, 50

    def decode(mode, run, greedy=False):
        vcfg = e.decoder.VerifyConfig(mode=mode, window_size=16, greedy=greedy)
        return e.decoder.decode(model, None, vcfg, n, np.random.default_rng([0, 1, run]))

    sjd = [decode("sjd", r) for r in range(runs)]
    sjd_seqs = [seq for seq, _ in sjd]
    ancestral = [
        e.models.ancestral_sample(model, n, np.random.default_rng([0, 2, r])) for r in range(runs)
    ]
    greedy, _ = decode("jacobi", 0, greedy=True)
    oracle = checks.greedy_oracle(model, n)
    seq, metrics = sjd[0]
    per_iter = list(metrics.tokens_per_iteration)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        path = Path(tmp) / "lib.psdl"
        built = e.phrase_lib.build_library(corpus, 64, vocab_size=V)
        e.phrase_lib.save_library(built, path)
        saved = path.read_bytes()
        loaded = e.phrase_lib.load_library(path)
        other = e.phrase_lib.build_library(corpus, 32, vocab_size=V)

    skewed = [tuple(1 if t == 0 else t for t in s) for s in sjd_seqs]
    flipped = bytearray(saved)
    flipped[-1] ^= 1
    cases = [
        ("sequence clean", checks.check_sequence(seq, n, V, per_iter), False),
        ("sequence short", checks.check_sequence(seq[:-1], n, V, per_iter), True),
        ("sequence token >= V", checks.check_sequence(seq[:-1] + (V,), n, V, per_iter), True),
        ("sequence commits", checks.check_sequence(seq, n, V, per_iter[:-1] + [per_iter[-1] + 1]), True),
        ("greedy clean", checks.check_greedy(greedy, oracle), False),
        ("greedy one token changed", checks.check_greedy(greedy[:-1] + ((greedy[-1] + 1) % V,), oracle), True),
        ("frequencies clean", checks.check_frequencies(sjd_seqs, ancestral, V), False),
        ("frequencies token 0 -> 1", checks.check_frequencies(skewed, ancestral, V), True),
        ("library clean", checks.check_library(built, loaded, saved, saved), False),
        ("library bytes differ", checks.check_library(built, loaded, bytes(flipped), saved), True),
        ("library loads unequal", checks.check_library(built, other, saved, saved), True),
    ]
    ok = True
    for name, error, should_fire in cases:
        good = (error is not None) == should_fire
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: {error or 'passes'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
