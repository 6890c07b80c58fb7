"""The replay rule of ``decoder._Uniforms``: a decode serves its uniforms from
blocks of one generator call each, yet hands out exactly the uniforms
one-by-one draws would and leaves the generator where they would leave it,
on return and on an exception, for every NumPy BitGenerator.

The oracle is the frozen per-slot decoder of ``reference_decoder.py``, which
draws every uniform with its own ``rng.random()`` call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_decoder as ref
from phrasedec import decoder
from phrasedec.decoder import VerifyConfig, decode
from phrasedec.harness import planted_phrase_corpus
from phrasedec.phrase_lib import build_library

BIT_GENERATORS = ("PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64")
MODES = {
    "sjd": dict(mode="sjd"),
    "sjd_pv": dict(mode="sjd_pv"),
    "jacobi": dict(mode="jacobi"),
    "jacobi_greedy": dict(mode="jacobi", greedy=True),
    "sjd_greedy": dict(mode="sjd", greedy=True),
    "sjd_pv_greedy": dict(mode="sjd_pv", greedy=True),
}
# the greedy modes that draw no uniform: sjd_pv's phrase test still draws
GREEDY = ("jacobi_greedy", "sjd_greedy")
# not a multiple of any window size, so the final window overshoots
LENGTH = 41


@pytest.fixture(scope="module")
def planted():
    corpus, model = planted_phrase_corpus(16, 3, 4, 30, 100, 0.95, np.random.default_rng(3))
    return model, build_library(corpus, 64, vocab_size=16)


def twins(name, seed):
    """Two generators of BitGenerator name in the same state."""
    bit_generator = getattr(np.random, name)
    return np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))


def run(module, model, lib, cfg, length, rng):
    seq, metrics = module.decode(model, lib if cfg.mode == "sjd_pv" else None, cfg, length, rng)
    return seq, metrics.counts(), metrics.tokens_per_iteration


def state(rng):
    """The generator's state, its arrays (MT19937's key, Philox's counter)
    as lists, so that states compare with ==."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


def assert_same_end(rng, ref_rng):
    assert state(rng) == state(ref_rng)
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("window", (1, 5, 16))
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_decode_matches_one_by_one_draws(planted, bit_generator, mode, window):
    model, lib = planted
    cfg = VerifyConfig(window_size=window, **MODES[mode])
    rng, ref_rng = twins(bit_generator, [window, 7])
    assert run(decoder, model, lib, cfg, LENGTH, rng) == run(ref, model, lib, cfg, LENGTH, ref_rng)
    assert_same_end(rng, ref_rng)


@pytest.mark.parametrize("mode", GREEDY)
def test_greedy_decode_leaves_the_generator_untouched(planted, mode):
    model, lib = planted
    rng = np.random.default_rng(4)
    before = state(rng)
    run(decoder, model, lib, VerifyConfig(**MODES[mode]), LENGTH, rng)
    assert state(rng) == before


class Stop(Exception):
    pass


def raising_after(inner, k, before):
    """inner, raising Stop on its (k+1)-th call, before it runs or after it
    returns."""
    calls = []

    def wrapper(*args):
        calls.append(None)
        if before and len(calls) > k:
            raise Stop
        out = inner(*args)
        if len(calls) > k:
            raise Stop
        return out

    return wrapper


@pytest.mark.parametrize("before", [True, False])
@pytest.mark.parametrize("k", [0, 3, 20])
@pytest.mark.parametrize("mode", ["sjd", "sjd_pv", "jacobi"])
@pytest.mark.parametrize("bit_generator", ["PCG64", "MT19937"])
def test_raise_leaves_the_generator_where_one_by_one_draws_would(
    planted, monkeypatch, bit_generator, mode, k, before
):
    model, lib = planted
    cfg = VerifyConfig(mode=mode, window_size=5)
    rng, ref_rng = twins(bit_generator, [k, 9])
    monkeypatch.setattr(decoder, "verify_window", raising_after(decoder.verify_window, k, before))
    monkeypatch.setattr(ref, "verify_window", raising_after(ref.verify_window, k, before))
    with pytest.raises(Stop):
        run(decoder, model, lib, cfg, 200, rng)
    with pytest.raises(Stop):
        run(ref, model, lib, cfg, 200, ref_rng)
    assert_same_end(rng, ref_rng)


def test_small_blocks_straddled_and_outrun(planted, monkeypatch):
    """With a block narrower than some requests, refills straddle a block's
    end and windows outrun whole blocks, yet every decode stays bit-identical."""
    model, lib = planted
    requests = []
    inner = decoder._Uniforms.random

    def recording(self, n=None):
        requests.append((self.pos, len(self.floats), n))
        return inner(self, n)

    monkeypatch.setattr(decoder, "BLOCK", 7)
    monkeypatch.setattr(decoder._Uniforms, "random", recording)
    for mode in ("sjd", "sjd_pv", "jacobi"):
        for window in (5, 16):
            cfg = VerifyConfig(mode=mode, window_size=window)
            rng, ref_rng = twins("PCG64", [window, 11])
            assert run(decoder, model, lib, cfg, LENGTH, rng) == run(
                ref, model, lib, cfg, LENGTH, ref_rng
            )
            assert_same_end(rng, ref_rng)
    vectors = [(pos, end, n) for pos, end, n in requests if n is not None]
    assert any(pos < end < pos + n and n <= 7 for pos, end, n in vectors)  # a straddle
    assert any(n > 7 for _, _, n in vectors)  # a window wider than the block


@given(
    block=st.integers(1, 9),
    sizes=st.lists(st.one_of(st.none(), st.integers(0, 12)), max_size=40),
    bit_generator=st.sampled_from(BIT_GENERATORS),
)
@settings(max_examples=150, deadline=None)
def test_stream_serves_one_by_one_draws(block, sizes, bit_generator):
    """Any run of requests gets the uniforms one-by-one draws give, scalars
    as Python floats, and sync leaves the generator where they leave it."""
    rng, ref_rng = twins(bit_generator, 5)
    saved = decoder.BLOCK
    decoder.BLOCK = block
    try:
        stream = decoder._Uniforms(rng)
        for n in sizes:
            if n is None:
                u = stream.random()
                assert type(u) is float
                assert u == ref_rng.random()
            else:
                want = [ref_rng.random() for _ in range(n)]
                assert stream.random(n).tolist() == want
        stream.sync()
    finally:
        decoder.BLOCK = saved
    assert_same_end(rng, ref_rng)


def test_block_views_are_read_only():
    stream = decoder._Uniforms(np.random.default_rng(6))
    for n in (0, 1, 16, 5):
        view = stream.random(n)
        assert view.shape == (n,)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[...] = 0.5
