"""One rule for every count the package reads: ``core.count_at_least``.

A count is an integer by ``operator.index`` (ints, bools, NumPy integers)
of at least its minimum.  A float, 3.0 included, or a numeric string is
refused with the entry point's typed error, ``ConfigInvalid`` from
``ExperimentConfig`` and ``ValueError`` elsewhere, before any draw.  Real
settings (``tau``, ``planting_rate``, ``concentration``) must be real
numbers, judged on their float, and ``planted``, like ``greedy``, a bool.
Both configs settle every setting by its kind (``core.plain``) before
any check reads it, and after their checks refuse any setting not of its
kind (``core.check_kinds``), whether or not a check reads it.
"""

import dataclasses
import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from phrasedec.core import CategoricalDistribution
from phrasedec.decoder import VerifyConfig, decode
from phrasedec.harness import (
    ConfigInvalid,
    ExperimentConfig,
    planted_phrase_corpus,
    run_benchmark,
    theory_check,
    write_json,
)
from phrasedec.models import (
    ancestral_corpus,
    ancestral_sample,
    check_concentration,
    check_shape,
    exact_marginals,
    random_markov,
    save_markov,
)
from phrasedec.phrase_lib import build_library
from phrasedec.theory import (
    alpha_phr_mc,
    decoder_law,
    proposition1_sweep,
    random_instance,
    target_joint,
)

MODEL = random_markov(1, 3, 1.0, np.random.default_rng(0))
P = CategoricalDistribution([0.7, 0.3])
Q = CategoricalDistribution([0.4, 0.6])
RANDOM = {"planted": False}

# (count's name, its minimum, the call with every other argument valid):
# each call takes the count n and a generator it may draw from
COUNTS = {
    **{
        f"ExperimentConfig.{name}": (
            name,
            least,
            lambda n, rng, name=name, extra=extra: ExperimentConfig(**{name: n}, **extra),
        )
        for name, least, extra in [
            ("seed", 0, {}),
            ("decodes", 1, {}),
            ("total_len", 1, {}),
            ("merges", 0, {}),
            ("phrase_len", 2, {}),
            ("phrase_count", 0, {}),
            ("corpus_sequences", 1, {}),
            ("corpus_seq_len", 1, {}),
            ("order", 1, RANDOM),
            ("vocab_size", 2, RANDOM),
            ("window_size", 1, {}),
            ("max_phrase_len", 2, {}),
        ]
    },
    "VerifyConfig.window_size": ("window_size", 1, lambda n, rng: VerifyConfig(window_size=n)),
    "VerifyConfig.max_phrase_len": (
        "max_phrase_len",
        2,
        lambda n, rng: VerifyConfig(max_phrase_len=n),
    ),
    "theory_check.trials": ("trials", 0, lambda n, rng: theory_check(n, 3, 2, 2)),
    "theory_check.v_max": ("v_max", 2, lambda n, rng: theory_check(2, n, 2, 2)),
    "theory_check.l_max": ("l_max", 1, lambda n, rng: theory_check(2, 3, n, 2)),
    "theory_check.min_inequality_trials": (
        "min_inequality_trials",
        0,
        lambda n, rng: theory_check(2, 3, 2, n),
    ),
    "theory_check.seed": ("seed", 0, lambda n, rng: theory_check(2, 3, 2, 2, n)),
    "check_shape.order": ("order", 1, lambda n, rng: check_shape(n, 3)),
    "check_shape.vocab_size": ("vocab_size", 2, lambda n, rng: check_shape(1, n)),
    "random_markov.order": ("order", 1, lambda n, rng: random_markov(n, 3, 1.0, rng)),
    "random_markov.vocab_size": ("vocab_size", 2, lambda n, rng: random_markov(1, n, 1.0, rng)),
    "ancestral_sample.length": ("length", 0, lambda n, rng: ancestral_sample(MODEL, n, rng)),
    "ancestral_corpus.sequences": (
        "sequences",
        0,
        lambda n, rng: ancestral_corpus(MODEL, n, 4, rng),
    ),
    "ancestral_corpus.length": ("length", 0, lambda n, rng: ancestral_corpus(MODEL, 2, n, rng)),
    "exact_marginals.length": ("length", 0, lambda n, rng: exact_marginals(MODEL, n)),
    "decode.total_len": (
        "total_len",
        1,
        lambda n, rng: decode(MODEL, None, VerifyConfig(), n, rng),
    ),
    "proposition1_sweep.trials": ("trials", 0, lambda n, rng: proposition1_sweep(n, 3, 2, rng)),
    "proposition1_sweep.v_max": ("v_max", 2, lambda n, rng: proposition1_sweep(2, n, 2, rng)),
    "proposition1_sweep.l_max": ("l_max", 1, lambda n, rng: proposition1_sweep(2, 3, n, rng)),
    "alpha_phr_mc.samples": ("samples", 1, lambda n, rng: alpha_phr_mc([P], [Q], n, rng)),
    "build_library.merges": ("merges", 0, lambda n, rng: build_library([[0, 1, 0, 1]], n)),
    "build_library.max_phrase_len": (
        "max_phrase_len",
        2,
        lambda n, rng: build_library([[0, 1, 0, 1]], 2, max_phrase_len=n),
    ),
    "build_library.vocab_size": (
        "vocab_size",
        0,
        lambda n, rng: build_library([[0, 0, 0]], 2, vocab_size=n),
    ),
    "target_joint.length": ("length", 1, lambda n, rng: target_joint(MODEL, n)),
    "decoder_law.length": (
        "length",
        0,
        lambda n, rng: decoder_law(MODEL, VerifyConfig(window_size=2), n),
    ),
    "random_instance.vocab_size": ("vocab_size", 1, lambda n, rng: random_instance(n, 2, rng)),
    "random_instance.length": ("length", 0, lambda n, rng: random_instance(3, n, rng)),
}


def _error(entry: str) -> type:
    return ConfigInvalid if entry.startswith("ExperimentConfig.") else ValueError


@pytest.mark.parametrize("bad", [2.5, 3.0, "3"], ids=repr)
@pytest.mark.parametrize("entry", COUNTS)
def test_a_count_that_is_not_an_integer_is_refused_before_any_draw(entry, bad):
    name, _, call = COUNTS[entry]
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with pytest.raises(_error(entry), match=f"^{name} must be an integer, not {bad!r}$"):
        call(bad, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("entry", COUNTS)
def test_a_count_below_its_minimum_is_refused_before_any_draw(entry):
    name, least, call = COUNTS[entry]
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with pytest.raises(_error(entry), match=f"^{name} must be >= {least}$"):
        call(least - 1, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("entry", COUNTS)
def test_numpy_integers_and_bools_are_counts(entry):
    # a NumPy integer draws what the int draws; True is the count 1
    _, least, call = COUNTS[entry]
    states = []
    for n in (3, np.int64(3), np.int32(3)):
        rng = np.random.default_rng(7)
        call(n, rng)
        states.append(rng.bit_generator.state)
    assert states[1] == states[0] == states[2]
    if least <= 1:
        call(True, np.random.default_rng(7))


@pytest.mark.parametrize("bad", ["0.1", 0.5j, None], ids=repr)
def test_a_real_setting_that_is_not_a_real_number_is_refused(bad):
    with pytest.raises(ValueError, match="tau must be in"):
        VerifyConfig(tau=bad)
    with pytest.raises(ValueError, match="concentration must be finite and > 0"):
        check_concentration(bad)
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="concentration must be finite and > 0"):
        random_markov(1, 3, bad, rng)
    assert rng.bit_generator.state == state
    for name, message in [
        ("tau", "tau must be in"),
        ("planting_rate", "planting_rate must be in"),
        ("concentration", "concentration must be finite and > 0"),
    ]:
        with pytest.raises(ConfigInvalid, match=message):
            ExperimentConfig(**{name: bad})


def test_real_settings_take_numpy_scalars():
    cfg = ExperimentConfig(
        tau=np.float64(0.02), planting_rate=np.float32(0.5), concentration=np.int64(1)
    )
    assert cfg.tau == 0.02
    assert VerifyConfig(tau=np.float32(0.25)).tau == 0.25


# the NumPy scalar of each kind of numeric setting
NUMPY_KIND = {int: np.int64, float: np.float32, bool: np.bool_}


@pytest.mark.parametrize("config", [VerifyConfig, ExperimentConfig], ids=lambda c: c.__name__)
def test_every_numeric_setting_is_stored_as_the_python_value_of_its_kind(config, tmp_path):
    # no setting is listed anywhere: one added later is settled too
    defaults = {
        f.name: f.default for f in dataclasses.fields(config) if type(f.default) in NUMPY_KIND
    }
    cfg = config(**{name: NUMPY_KIND[type(value)](value) for name, value in defaults.items()})
    assert {name: type(getattr(cfg, name)) for name in defaults} == {
        name: type(value) for name, value in defaults.items()
    }
    write_json(dataclasses.asdict(cfg), str(tmp_path), "report.json")


@pytest.mark.parametrize(
    "name, value",
    [
        ("tau", Fraction(1, 10**400)),  # its float is 0.0
        ("tau", Fraction(10**20 - 1, 10**20)),  # its float is 1.0
        ("planting_rate", Fraction(1, 10**400)),
        ("concentration", Fraction(1, 10**400)),
    ],
)
def test_a_real_whose_float_leaves_its_interval_is_refused(name, value):
    # planting_rate used to be judged on its exact value, and built a
    # config whose generator plants nothing
    with pytest.raises(ConfigInvalid, match=f"^{name} must be"):
        ExperimentConfig(**{name: value})


def test_an_integer_given_for_a_real_setting_is_stored_as_its_float():
    cfg = ExperimentConfig(planting_rate=1, concentration=True)
    assert type(cfg.planting_rate) is type(cfg.concentration) is float
    assert cfg.planting_rate == cfg.concentration == 1.0


def test_numpy_counts_write_the_config_echo_of_plain_ints(tmp_path):
    # the config keeps each count, and planted, as the plain int or bool
    # the report's JSON can hold, so the echo equals that of plain values
    plain = dict(
        seed=5, decodes=2, total_len=16, corpus_sequences=4, corpus_seq_len=32, merges=8, window_size=8
    )
    echoes = []
    for name, count, flag in (("plain", int, bool), ("numpy", np.int64, np.bool_)):
        out = tmp_path / name
        counts = {key: count(value) for key, value in plain.items()}
        cfg = ExperimentConfig(**counts, planted=flag(True), out_dir=str(out))
        assert all(type(getattr(cfg, key)) is int for key in plain)
        assert cfg.planted is True
        run_benchmark(cfg)
        config = json.loads((out / "report.json").read_text())["config"]
        echoes.append({**config, "out_dir": None})
    assert echoes[0] == echoes[1]


@pytest.mark.parametrize("model_file", [False, True], ids=["generator", "model_file"])
def test_numpy_settings_write_the_config_echo_of_plain_values(tmp_path, model_file):
    # reals and integers alike, whether a rule reads them or not (beside a
    # model file no rule reads the generator's), are kept as the plain
    # Python values the report's JSON can hold
    plain = dict(tau=0.5, planting_rate=0.5, concentration=0.5, vocab_size=8, phrase_count=1)
    numpy = dict(
        tau=np.float32(0.5), planting_rate=np.float32(0.5), concentration=np.float16(0.5),
        vocab_size=np.int64(8), phrase_count=np.uint8(1),
    )
    common = dict(decodes=2, total_len=16, corpus_sequences=4, corpus_seq_len=32, merges=8)
    if model_file:
        common["model_path"] = str(tmp_path / "model.psdm")
        save_markov(random_markov(2, 8, 0.5, np.random.default_rng(0)), common["model_path"])
    echoes = []
    for name, settings in (("plain", plain), ("numpy", numpy)):
        out = tmp_path / name
        cfg = ExperimentConfig(**settings, **common, out_dir=str(out))
        assert all(type(getattr(cfg, key)) is type(value) for key, value in plain.items())
        run_benchmark(cfg)
        config = json.loads((out / "report.json").read_text())["config"]
        echoes.append({**config, "out_dir": None})
    assert echoes[0] == echoes[1]
    assert {key: echoes[1][key] for key in plain} == plain


@pytest.mark.parametrize("huge", [10**400, -(10**400)], ids=["plus", "minus"])
def test_a_concentration_no_float_holds_is_refused_before_any_draw(huge):
    with pytest.raises(ValueError, match="concentration must be finite and > 0"):
        check_concentration(huge)
    with pytest.raises(ConfigInvalid, match="concentration must be finite and > 0"):
        ExperimentConfig(concentration=huge, planted=False)
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="concentration must be finite and > 0"):
        random_markov(1, 3, huge, rng)
    assert rng.bit_generator.state == state


def test_a_real_concentration_draws_what_its_float_draws():
    # a Fraction is a real number: both generators draw from its float
    assert check_concentration(Fraction(3, 10)) == 0.3
    models = [
        random_markov(2, 4, concentration, np.random.default_rng(7)).rows
        for concentration in (Fraction(3, 10), 0.3)
    ]
    assert np.array_equal(*models)
    models = [
        planted_phrase_corpus(8, 1, 2, 2, 4, 0.9, np.random.default_rng(7), concentration)[1].rows
        for concentration in (Fraction(3, 10), 0.3)
    ]
    assert np.array_equal(*models)


# values of another kind, by the kind of a setting's default
WRONG_KIND = {
    int: [Decimal(3), b"3"],
    float: [Decimal("0.3"), Fraction(10**400), "0.3"],
    bool: [1, "yes", None],
    str: [5, b"sjd"],
    tuple: [5, None],
    type(None): [5],
}


@pytest.mark.parametrize(
    "config, files",
    [(VerifyConfig, False), (ExperimentConfig, False), (ExperimentConfig, True)],
    ids=["VerifyConfig", "ExperimentConfig", "ExperimentConfig-files"],
)
def test_every_setting_of_another_kind_is_refused_naming_it(config, files, tmp_path):
    # no setting is listed anywhere: one added later is checked too.  With
    # files, a model file and a corpus file leave the generator's settings
    # and the corpus sizes to the kind check alone
    error = ConfigInvalid if config is ExperimentConfig else ValueError
    paths = {}
    if files:
        for name in ("model_path", "corpus_path"):
            paths[name] = str(tmp_path / name)
            open(paths[name], "w").close()
    for f in dataclasses.fields(config):
        for bad in WRONG_KIND[type(f.default)]:
            with pytest.raises(error, match=rf"\b{f.name}\b"):
                config(**{**paths, f.name: bad})


@pytest.mark.parametrize(
    "name, value",
    [
        ("concentration", Fraction(10**400)),
        ("concentration", Decimal("0.3")),
        ("vocab_size", Decimal(3)),
        ("vocab_size", b"x"),
    ],
    ids=["fraction", "decimal-real", "decimal-count", "bytes"],
)
def test_a_setting_no_check_reads_is_refused_when_built(name, value, tmp_path, monkeypatch):
    # beside a model file no check reads the generator's settings: each of
    # these used to build, run every decode and write report.csv, and only
    # then fail in report.json's config echo
    model_path = str(tmp_path / "model.psdm")
    save_markov(MODEL, model_path)
    out = tmp_path / "out"

    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(ConfigInvalid, match=f"^{name} must be"):
        ExperimentConfig(model_path=model_path, out_dir=str(out), **{name: value})
    assert not out.exists()
