"""Output checks.  Each returns None when the output is right and a short
reason when it is not; the benchmark counts an operation with a reason as
failed.  ``selftest.py`` feeds each check a corrupted output to show it fires.
"""

from __future__ import annotations

import numpy as np

# z-score beyond which pooled token frequencies count as different; with
# 32 tokens per test and 50 or more blocks a side, a false alarm has a
# chance of about 1e-6 per run
FREQ_Z = 6.0
# tokens per block when pooling frequencies: blocks, not tokens, are the
# independent samples, because tokens within a sequence are correlated
FREQ_BLOCK = 256


def check_sequence(seq, length: int, vocab_size: int, tokens_per_iteration=None):
    """Exact length, every token in [0, V), per-iteration commits summing to length."""
    if len(seq) != length:
        return f"length {len(seq)} != {length}"
    arr = np.asarray(seq)
    if arr.size and (arr.min() < 0 or arr.max() >= vocab_size):
        return f"token outside [0, {vocab_size})"
    if tokens_per_iteration is not None and sum(tokens_per_iteration) != length:
        return f"per-iteration commits sum to {sum(tokens_per_iteration)} != {length}"
    return None


def greedy_oracle(model, length: int) -> tuple[int, ...]:
    """Sequential argmax decoding over ``model.conditional``."""
    out: list[int] = []
    for _ in range(length):
        out.append(int(np.argmax(model.conditional(tuple(out)).probs)))
    return tuple(out)


def check_greedy(seq, oracle):
    if tuple(seq) == tuple(oracle):
        return None
    first = next(i for i, (a, b) in enumerate(zip(seq, oracle)) if a != b)
    return f"greedy output differs from sequential argmax at position {first}"


def _block_freqs(seqs, vocab_size: int) -> np.ndarray:
    rows = []
    for seq in seqs:
        arr = np.asarray(seq)
        for lo in range(0, len(arr) - FREQ_BLOCK + 1, FREQ_BLOCK):
            block = arr[lo : lo + FREQ_BLOCK]
            rows.append(np.bincount(block, minlength=vocab_size) / FREQ_BLOCK)
    return np.asarray(rows)


def frequency_z(seqs, reference, vocab_size: int) -> float:
    """Largest per-token z-score between pooled token frequencies of two sets.

    The standard error comes from the spread of per-block frequencies, floored
    at the binomial value so that a token seen in no block is still bounded.
    """
    a, b = _block_freqs(seqs, vocab_size), _block_freqs(reference, vocab_size)
    mean_a, mean_b = a.mean(axis=0), b.mean(axis=0)
    pooled = (mean_a + mean_b) / 2
    floor = pooled * (1 - pooled) / FREQ_BLOCK + 1.0 / FREQ_BLOCK**2
    var_a = np.maximum(a.var(axis=0, ddof=1), floor) / len(a)
    var_b = np.maximum(b.var(axis=0, ddof=1), floor) / len(b)
    return float(np.max(np.abs(mean_a - mean_b) / np.sqrt(var_a + var_b)))


def check_frequencies(seqs, reference, vocab_size: int):
    z = frequency_z(seqs, reference, vocab_size)
    if z <= FREQ_Z:
        return None
    return f"pooled token frequencies differ from the ancestral reference (z={z:.1f})"


def total_variation(seqs, reference, vocab_size: int) -> float:
    """Total-variation distance between the pooled token frequencies."""
    fa = np.bincount(np.concatenate(seqs), minlength=vocab_size) / sum(map(len, seqs))
    fb = np.bincount(np.concatenate(reference), minlength=vocab_size) / sum(map(len, reference))
    return float(0.5 * np.abs(fa - fb).sum())


def check_library(built, loaded, saved: bytes, first_saved: bytes):
    """A rebuild serialises to the first build's bytes and loads back equal."""
    if saved != first_saved:
        return "library bytes differ between two builds of the same corpus"
    if not loaded == built:
        return "load_library(save_library(lib)) != lib"
    return None
