"""``ancestral_sample`` against the frozen per-token sampler at the
benchmark's shapes: the planted and the random order-2 model of the default
config (V=32), at 256 and 4096 tokens.

The differential tests in ``test_samplers.py`` stop at small vocabularies
and short sequences; these cover the model sizes and lengths the benchmark
times, where every context row of the flat ``cdf`` table is reachable.
"""

import numpy as np
import pytest

import reference_decoder
from phrasedec.harness import ExperimentConfig, _resolve_model_and_corpus
from phrasedec.models import ancestral_sample


@pytest.fixture(scope="module", params=[True, False], ids=["planted", "long"])
def model(request):
    model, _ = _resolve_model_and_corpus(ExperimentConfig(seed=0, planted=request.param))
    assert (model.order, model.vocab_size) == (2, 32)
    return model


@pytest.mark.parametrize("length", [256, 4096])
@pytest.mark.parametrize("seed", [0, 1, 702])
def test_ancestral_sample_matches_reference_at_benchmark_shapes(model, length, seed):
    new, old = np.random.default_rng([seed, 2, 0]), np.random.default_rng([seed, 2, 0])
    seq = ancestral_sample(model, length, new)
    assert seq == reference_decoder.ancestral_sample(model, length, old)
    assert len(seq) == length
    assert all(type(tok) is int for tok in seq)
    assert new.bit_generator.state == old.bit_generator.state
