import csv
import dataclasses
import itertools
import json
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from phrasedec import harness, models
from phrasedec.decoder import DecodeMetrics, decode
from phrasedec.harness import (
    CapacityExceeded,
    ConfigInvalid,
    ExperimentConfig,
    config_from_mapping,
    emit_plot_data,
    load_config_file,
    marginal_tv,
    planted_phrase_corpus,
    run_benchmark,
    run_merge_sweep,
    run_tau_sweep,
    theory_check,
    write_json,
)
from phrasedec.models import MarkovModel, markov_contexts, random_markov, save_markov
from phrasedec.phrase_lib import build_library, write_corpus


def small_cfg(**kw):
    defaults = dict(
        seed=5,
        decodes=4,
        total_len=64,
        corpus_sequences=20,
        corpus_seq_len=96,
        merges=64,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestPlantedPhraseCorpus:
    def test_seed_reproducible(self):
        a, _ = planted_phrase_corpus(16, 3, 4, 10, 50, 0.9, np.random.default_rng(1))
        b, _ = planted_phrase_corpus(16, 3, 4, 10, 50, 0.9, np.random.default_rng(1))
        assert a == b

    def test_capacity_exceeded(self):
        with pytest.raises(CapacityExceeded):
            planted_phrase_corpus(4, 3, 2, 5, 20, 0.9, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "args, concentration",
        [
            ((16, 3, 4, 10, 50, 0.9), -1.0),
            ((16, 3, 4, 10, 50, 0.9), float("nan")),
            ((1, 0, 2, 10, 50, 0.9), 0.3),
            ((16, 3, 1, 10, 50, 0.9), 0.3),
            # corpus sizes, checked before the model is drawn
            ((16, 3, 4, 0, 50, 0.9), 0.3),
            ((16, 3, 4, 10, 0, 0.9), 0.3),
            ((16, 3, 4, 10, 50, 0.0), 0.3),
            ((16, -1, 4, 10, 50, 0.9), 0.3),
            ((4, 3, 2, 5, 20, 0.9), 0.3),  # more phrase tokens than the vocabulary
        ],
    )
    def test_bad_settings_raise_before_drawing(self, args, concentration):
        # the generator checks its arguments by the config's rules, before
        # drawing: the same error type and message either way
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigInvalid) as generator:
            planted_phrase_corpus(*args, rng, concentration=concentration)
        assert rng.random() == np.random.default_rng(0).random()
        names = ("vocab_size", "phrase_count", "phrase_len", "corpus_sequences",
                 "corpus_seq_len", "planting_rate")
        with pytest.raises(ConfigInvalid) as config:
            ExperimentConfig(**dict(zip(names, args)), concentration=concentration)
        assert type(generator.value) is type(config.value)
        assert str(generator.value) == str(config.value)

    def test_deterministic_continuation_at_rate_one(self):
        corpus, model = planted_phrase_corpus(
            12, 2, 3, 10, 80, 1.0, np.random.default_rng(2)
        )
        # recover each phrase's forced successor from the transition table
        followed = {}
        for ctx in markov_contexts(model.order, model.vocab_size):
            if ctx[-1] < 0:
                continue
            row = model.conditional(ctx)
            peak = float(row.probs.max())
            if peak == 1.0:
                followed[ctx[-1]] = (int(np.argmax(row.probs)), ctx)
        assert followed
        for seq in corpus:
            for a, b in zip(seq, seq[1:]):
                if a in followed:
                    assert b == followed[a][0]

    def test_top_cooccurrence_pair_is_planted(self):
        corpus, model = planted_phrase_corpus(
            16, 3, 4, 30, 100, 0.95, np.random.default_rng(3)
        )
        first = build_library(corpus, 1).rules[0]
        # the most frequent adjacent pair must be a forced continuation
        rows = [
            model.conditional(ctx)
            for ctx in markov_contexts(model.order, model.vocab_size)
            if ctx[-1] == first.left
        ]
        assert all(np.argmax(r.probs) == first.right for r in rows)


class TestResolveModelAndCorpus:
    def planted(self, cfg):
        return planted_phrase_corpus(
            cfg.vocab_size,
            cfg.phrase_count,
            cfg.phrase_len,
            cfg.corpus_sequences,
            cfg.corpus_seq_len,
            cfg.planting_rate,
            np.random.default_rng([cfg.seed, 0]),
            concentration=cfg.concentration,
        )

    def test_planted_without_corpus_file_is_the_generators(self):
        cfg = small_cfg()
        corpus, model = self.planted(cfg)
        resolved_model, resolved_corpus = harness._resolve_model_and_corpus(cfg)
        assert resolved_model.rows.tobytes() == model.rows.tobytes()
        assert resolved_corpus == corpus

    def test_planted_with_corpus_file_samples_no_corpus(self, tmp_path, monkeypatch):
        path = tmp_path / "corpus.txt"
        write_corpus([[1, 2, 3, 1, 2]], path)
        cfg = small_cfg(corpus_path=str(path))
        _, model = self.planted(cfg)
        calls = []
        sample = harness.ancestral_corpus

        def counting(*args, **kwargs):
            calls.append(args)
            return sample(*args, **kwargs)

        monkeypatch.setattr(harness, "ancestral_corpus", counting)
        resolved_model, corpus = harness._resolve_model_and_corpus(cfg)
        assert calls == []
        assert corpus == [(1, 2, 3, 1, 2)]
        assert resolved_model.rows.tobytes() == model.rows.tobytes()


class TestRunBenchmark:
    def test_row_count_contract(self):
        report = run_benchmark(small_cfg(decodes=1, modes=("sjd",)))
        assert report.per_mode["sjd"].rows == [report.per_mode["sjd"].rows[0]]
        assert len(report.per_mode["sjd"].rows) == 1

    def test_greedy_jacobi_matches_sequential(self):
        # greedy jacobi decode equals sequential greedy argmax decoding
        from phrasedec.decoder import VerifyConfig, decode
        from phrasedec.harness import _resolve_model_and_corpus

        cfg = small_cfg(modes=("jacobi",))
        model, _ = _resolve_model_and_corpus(cfg)
        vcfg = VerifyConfig(mode="jacobi", window_size=8, greedy=True)
        seq, _ = decode(model, None, vcfg, 40, np.random.default_rng(0))
        sequential = []
        for _ in range(40):
            row = model.conditional(tuple(sequential))
            sequential.append(int(np.argmax(row.probs)))
        assert list(seq) == sequential

    def test_report_files_embed_seed(self, tmp_path):
        cfg = small_cfg(out_dir=str(tmp_path))
        report = run_benchmark(cfg)
        data = json.loads((tmp_path / "report.json").read_text())
        assert list(data) == [
            "report_version", "config", "per_mode", "acceleration",
            "ancestral_us_per_token", "us_per_token", "break_even_verifier_us",
        ]
        assert data["report_version"] == 1
        assert data["config"]["seed"] == cfg.seed
        with open(tmp_path / "report.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == cfg.decodes * len(cfg.modes)

    def test_path_settings_write_the_config_echo_of_str_settings(self, tmp_path):
        # a Path used to stay in the config: report.csv was written, then
        # report.json was left empty when json.dumps met the Path; bytes
        # stayed too: a bytes out_dir failed joining report.csv's path, and
        # a bytes model_path failed in report.json's config echo, each after
        # every decode ran
        model_path, corpus_path = tmp_path / "model.psdm", tmp_path / "corpus.txt"
        model, corpus = harness._resolve_model_and_corpus(small_cfg(corpus_sequences=4))
        save_markov(model, model_path)
        write_corpus(corpus, corpus_path)
        settings = dict(decodes=1, total_len=8, corpus_sequences=4, corpus_seq_len=16, merges=4)
        echoes = []
        for name, kind in (("str", str), ("path", Path), ("bytes", os.fsencode)):
            out = tmp_path / name
            cfg = ExperimentConfig(
                **settings, model_path=kind(model_path), corpus_path=kind(corpus_path),
                out_dir=kind(out),
            )
            assert (cfg.model_path, cfg.corpus_path, cfg.out_dir) == (
                str(model_path), str(corpus_path), str(out)
            )
            run_benchmark(cfg)
            config = json.loads((out / "report.json").read_text())["config"]
            assert config["out_dir"] == str(out)
            echoes.append({**config, "out_dir": None})
        assert echoes[0] == echoes[1] == echoes[2]

    def test_a_report_json_cannot_hold_writes_nothing(self, tmp_path):
        # the file used to be opened first and left empty
        out = tmp_path / "out"
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json({"where": object()}, str(out), "report.json")
        assert not out.exists()

    def test_report_csv_columns(self, tmp_path):
        # the column list README's "Report schemas" documents, in its order
        run_benchmark(small_cfg(decodes=1, out_dir=str(tmp_path)))
        header = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == (
            "mode,run,nfe,iterations,tokens_emitted,token_accepts,"
            "token_rejects,phrase_attempts,phrase_accepts"
        )

    def test_break_even_latency_reproduces_from_the_report(self, tmp_path, monkeypatch):
        cfg = small_cfg(out_dir=str(tmp_path))
        seeds = []
        sample = harness.ancestral_sample

        def recording(model, length, rng):
            seeds.append(rng.bit_generator.seed_seq.entropy)
            return sample(model, length, rng)

        monkeypatch.setattr(harness, "ancestral_sample", recording)
        run_benchmark(cfg)
        # one ancestral sample per decode, on its own stream
        assert seeds == [[cfg.seed, 2, run] for run in range(cfg.decodes)]
        data = json.loads((tmp_path / "report.json").read_text())
        ancestral = data["ancestral_us_per_token"]
        assert ancestral > 0.0
        assert set(data["us_per_token"]) == set(data["break_even_verifier_us"]) == set(cfg.modes)
        tokens = cfg.decodes * cfg.total_len
        for mode, agg in data["per_mode"].items():
            us = data["us_per_token"][mode]
            assert us == pytest.approx(1e6 * agg["wall_clock_s"] / tokens, rel=1e-12)
            expected = (us - ancestral) / (1.0 - agg["mean_nfe"] / cfg.total_len)
            assert data["break_even_verifier_us"][mode] == pytest.approx(expected, rel=1e-12)

    def test_every_generator_of_a_timed_batch_is_seeded_before_the_clock(self, monkeypatch):
        # each batch, the decodes of one mode or the ancestral reference,
        # builds all its generators, then starts the clock, makes its calls
        # and stops the clock: no seeding is timed
        cfg = small_cfg(decodes=3, modes=("sjd", "jacobi"))
        events = []
        default_rng, perf_counter = np.random.default_rng, harness.time.perf_counter
        real_decode, real_sample = harness.decode, harness.ancestral_sample

        def seeding(seed):
            events.append(("seed", seed))
            return default_rng(seed)

        def clock():
            events.append("clock")
            return perf_counter()

        def decoding(model, lib, vcfg, length, rng):
            events.append(("decode", rng.bit_generator.seed_seq.entropy))
            return real_decode(model, lib, vcfg, length, rng)

        def sampling(model, length, rng):
            events.append(("ancestral_sample", rng.bit_generator.seed_seq.entropy))
            return real_sample(model, length, rng)

        monkeypatch.setattr(np.random, "default_rng", seeding)
        monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=clock))
        monkeypatch.setattr(harness, "decode", decoding)
        monkeypatch.setattr(harness, "ancestral_sample", sampling)
        run_benchmark(cfg)
        expected = [("seed", [cfg.seed, 0])]  # the model's
        for call, stream in [("decode", 1)] * len(cfg.modes) + [("ancestral_sample", 2)]:
            streams = [[cfg.seed, stream, run] for run in range(cfg.decodes)]
            expected += [("seed", s) for s in streams] + ["clock"]
            expected += [(call, s) for s in streams] + ["clock"]
        assert events == expected

    def test_break_even_latency_is_null_without_an_nfe_saving(self, tmp_path):
        # one token per call: NFE per token is 1, and no latency breaks even
        cfg = small_cfg(decodes=1, window_size=1, out_dir=str(tmp_path))
        run_benchmark(cfg)
        data = json.loads((tmp_path / "report.json").read_text())
        for mode, agg in data["per_mode"].items():
            assert agg["mean_nfe"] == cfg.total_len
            assert data["break_even_verifier_us"][mode] is None
            assert data["us_per_token"][mode] > 0.0

    def test_rerun_reproduces_numbers(self):
        cfg = small_cfg()
        a = run_benchmark(cfg)
        b = run_benchmark(small_cfg())
        for mode in cfg.modes:
            assert a.per_mode[mode].mean_nfe == b.per_mode[mode].mean_nfe
            assert a.per_mode[mode].rows == b.per_mode[mode].rows

    def test_invalid_config(self):
        with pytest.raises(ConfigInvalid, match="unknown decode mode 'warp'"):
            run_benchmark(small_cfg(modes=("warp",)))
        with pytest.raises(ConfigInvalid):
            run_benchmark(small_cfg(model_path="/nonexistent/model.psdm"))
        with pytest.raises(ConfigInvalid, match="window_size must be an integer"):
            small_cfg(window_size=2.5)


class TestSweeps:
    def test_tau_sweep_single_row(self):
        rows = run_tau_sweep(small_cfg(modes=("sjd_pv",)), [0.01])
        assert len(rows) == 1
        assert set(rows[0]) == {"tau", "mean_nfe", "phrase_accept_rate", "seq_divergence"}

    def test_tau_sweep_divergence_is_against_the_exact_marginals(self, tmp_path, monkeypatch):
        # order 1, V=2: begin row (3/4, 1/4), then (3/4, 1/4) after 0 and
        # (1/4, 3/4) after 1, so the exact marginals are (3/4, 1/4) and
        # (5/8, 3/8).  The stubbed decodes' frequencies are (1/2, 1/2) at
        # both positions: TV 1/4 and 1/8, mean 3/16, at every tau
        model_path, corpus_path = tmp_path / "m.psdm", tmp_path / "c.txt"
        save_markov(MarkovModel(1, 2, [[0.75, 0.25], [0.75, 0.25], [0.25, 0.75]]), model_path)
        write_corpus([[0, 1, 0, 1]], corpus_path)
        outputs = itertools.cycle([(1, 0), (0, 1), (1, 1), (0, 0)])
        monkeypatch.setattr(
            harness, "decode", lambda *args: (next(outputs), DecodeMetrics(nfe=2))
        )
        sampled = []
        monkeypatch.setattr(harness, "ancestral_corpus", lambda *args: sampled.append(args))
        cfg = small_cfg(model_path=str(model_path), corpus_path=str(corpus_path),
                        decodes=4, total_len=2, merges=1)
        rows = run_tau_sweep(cfg, [0.01, 0.2])
        assert [row["seq_divergence"] for row in rows] == [0.1875, 0.1875]
        assert [row["mean_nfe"] for row in rows] == [2.0, 2.0]
        assert sampled == []  # no reference sequence is drawn

    @pytest.mark.parametrize(
        "sweep, message",
        [
            (run_tau_sweep, "tau grid must be non-empty"),
            (run_merge_sweep, "merge grid must be non-empty"),
        ],
    )
    def test_empty_grid_rejected(self, sweep, message):
        with pytest.raises(ConfigInvalid, match=message):
            sweep(small_cfg(decodes=1), [])

    def test_tau_grid_must_ascend(self):
        with pytest.raises(ConfigInvalid):
            run_tau_sweep(small_cfg(), [0.02, 0.01])
        with pytest.raises(ConfigInvalid):
            run_tau_sweep(small_cfg(), [])

    def test_bad_grid_point_raises_before_any_decode(self, monkeypatch):
        decodes = []

        def counting(*args):
            decodes.append(args)
            return decode(*args)

        monkeypatch.setattr(harness, "decode", counting)
        built = []
        resolve = harness._resolve_model_and_corpus
        monkeypatch.setattr(
            harness, "_resolve_model_and_corpus", lambda cfg: built.append(cfg) or resolve(cfg)
        )
        for sweep, grid, message in (
            (run_tau_sweep, [0.01, 1.5], r"tau must be in \(0, 1\)"),
            # the ascending check used to compare the text with a float
            (run_tau_sweep, [0.01, "x"], r"tau must be in \(0, 1\)"),
            (run_merge_sweep, [16, -1], "merges must be >= 0"),
        ):
            with pytest.raises(ConfigInvalid, match=message):
                sweep(small_cfg(decodes=2), grid)
        assert decodes == built == []

    @pytest.mark.parametrize(
        "run, builds",
        [
            (lambda cfg: run_benchmark(dataclasses.replace(cfg, modes=("sjd",))), []),
            (run_benchmark, [64]),
            (lambda cfg: run_tau_sweep(cfg, [0.01, 0.02, 0.05]), [64]),
            (lambda cfg: run_merge_sweep(cfg, [8, 8, 16, 8, 0]), [8, 16, 0]),
        ],
    )
    def test_one_library_per_distinct_merge_budget(self, monkeypatch, run, builds):
        budgets = []

        def counting(corpus, merges, *args):
            budgets.append(merges)
            return build_library(corpus, merges, *args)

        monkeypatch.setattr(harness, "build_library", counting)
        run(small_cfg(decodes=1, total_len=32))
        assert budgets == builds

    def test_repeated_budget_keeps_its_row(self):
        rows = run_merge_sweep(small_cfg(decodes=2), [8, 8, 16])
        assert [row["merges"] for row in rows] == [8, 8, 16]
        assert rows[0] == rows[1]

    def test_runners_agree_on_one_point(self):
        cfg = small_cfg(modes=("sjd", "sjd_pv"))
        bench = run_benchmark(cfg).per_mode["sjd_pv"].mean_nfe
        [tau] = run_tau_sweep(cfg, [cfg.tau])
        [merges] = run_merge_sweep(cfg, [cfg.merges])
        assert bench == tau["mean_nfe"] == merges["mean_nfe"]

    def test_merge_zero_equals_sjd(self):
        cfg = small_cfg(modes=("sjd",))
        sjd = run_benchmark(cfg).per_mode["sjd"]
        rows = run_merge_sweep(small_cfg(modes=("sjd",)), [0])
        # empty library: phrase path never fires, RNG streams coincide
        assert rows[0]["mean_nfe"] == sjd.mean_nfe
        assert rows[0]["library_size"] == 0

    def test_library_size_bounded_by_merges(self):
        rows = run_merge_sweep(small_cfg(), [4, 2000])
        assert rows[0]["library_size"] <= 4
        assert rows[1]["library_size"] <= 2000

    def test_library_size_counts_indexed_phrases(self):
        # max_phrase_len=3 drops the longer phrases of 64 rules: the size is
        # what the decoder searches, not the rule count
        from phrasedec.harness import _resolve_model_and_corpus

        cfg = small_cfg(decodes=1, max_phrase_len=3)
        rows = run_merge_sweep(cfg, [64])
        model, corpus = _resolve_model_and_corpus(cfg)
        lib = build_library(corpus, 64, 3, model.vocab_size)
        assert len(lib.rules) == 64
        assert rows[0]["library_size"] == len(lib.phrases) == 27


class TestEmitPlotData:
    def test_dict_rows_schema(self, tmp_path):
        rows = [{"tau": 0.01, "mean_nfe": 10.0}]
        path = tmp_path / "out.csv"
        emit_plot_data(rows, path)
        with open(path, newline="") as f:
            parsed = list(csv.DictReader(f))
        assert parsed[0]["tau"] == "0.01"

    def test_empty_input_no_file(self, tmp_path):
        path = tmp_path / "never.csv"
        with pytest.raises(ValueError):
            emit_plot_data([], path)
        assert not path.exists()


def largest_vocab(order, limit):
    """The largest V whose order-k table, (V + 1) ** order * V entries,
    holds at most limit."""
    v = 1
    while (v + 2) ** order * (v + 1) <= limit:
        v += 1
    return v


class TestConfig:
    def test_load_and_coerce(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# experiment\nseed=9\nmodes=sjd,sjd_pv\ntau=0.02\nplanted=true\n",
            encoding="utf-8",
        )
        cfg = config_from_mapping(load_config_file(path))
        assert cfg.seed == 9
        assert cfg.modes == ("sjd", "sjd_pv")
        assert cfg.tau == 0.02
        assert cfg.planted is True

    def test_unknown_key(self):
        with pytest.raises(ConfigInvalid):
            config_from_mapping({"warp_factor": "9"})

    def test_bad_value(self):
        for key, value in [
            ("seed", "nine"),
            ("planted", "maybe"),
            ("tau", "abc"),
            ("tau", "0"),
            ("tau", "1"),
            ("window_size", "0"),
            ("decodes", "0"),
            ("merges", "-1"),
            ("max_phrase_len", "1"),
            ("modes", "sjd,warp"),
            ("order", "3"),  # the planted model is order 2
            ("concentration", "-1"),
            ("concentration", "nan"),
            ("phrase_len", "1"),
            ("planting_rate", "0"),
            ("phrase_count", "7"),  # 35 phrase tokens in a vocabulary of 32
            ("corpus_sequences", "0"),
            ("corpus_seq_len", "0"),
        ]:
            with pytest.raises(ConfigInvalid):
                config_from_mapping({key: value})

    @pytest.mark.parametrize(
        "mapping, message",
        [
            ({"vocab_size": "1"}, "vocab_size must be >= 2"),
            ({"vocab_size": "0"}, "vocab_size must be >= 2"),
            ({"concentration": "inf"}, "concentration must be finite and > 0"),
            ({"order": "0"}, "order must be >= 1"),
            # a 227 PiB table, or NumPy's "array is too big", without the size rule
            ({"order": "4", "vocab_size": "2000"}, "the model table has more than"),
            ({"order": "6", "vocab_size": "1000"}, "the model table has more than"),
            ({"order": str(10**9)}, "the model table has more than"),  # no huge int
            (
                {"corpus_sequences": "1000000", "corpus_seq_len": "1000000"},
                "a corpus of 1000000 x 1000000 tokens has more than",
            ),
        ],
    )
    def test_bad_random_model_value(self, mapping, message):
        with pytest.raises(ConfigInvalid, match=message):
            config_from_mapping({"planted": "false"} | mapping)

    def test_generator_size_limit_is_inclusive(self):
        # a sampled corpus is bounded by the harness's own limit
        limit = harness.GENERATOR_LIMIT
        assert ExperimentConfig(corpus_sequences=limit // 256, corpus_seq_len=256)
        with pytest.raises(ConfigInvalid, match=f"corpus .* more than {limit}"):
            ExperimentConfig(corpus_sequences=limit // 256 + 1, corpus_seq_len=256)
        # a generated model by the table limit: (V + 1) ** order * V entries,
        # and the planted table is order 2
        limit = models.TABLE_LIMIT
        v2, v3 = largest_vocab(2, limit), largest_vocab(3, limit)
        assert ExperimentConfig(vocab_size=v2)
        with pytest.raises(ConfigInvalid, match=f"model table has more than {limit}"):
            ExperimentConfig(vocab_size=v2 + 1)
        assert ExperimentConfig(planted=False, order=3, vocab_size=v3)
        with pytest.raises(ConfigInvalid, match=f"model table has more than {limit}"):
            ExperimentConfig(planted=False, order=3, vocab_size=v3 + 1)

    def test_generator_values_checked_only_where_read(self, tmp_path):
        # a model file: no generator runs; a corpus file: no corpus is sampled
        model_path = tmp_path / "model.psdm"
        save_markov(random_markov(1, 2, 1.0, np.random.default_rng(0)), model_path)
        corpus_path = tmp_path / "corpus.txt"
        write_corpus([[0, 1]], corpus_path)
        cfg = ExperimentConfig(model_path=str(model_path), vocab_size=1, concentration=-1.0)
        assert cfg.vocab_size == 1
        cfg = ExperimentConfig(corpus_path=str(corpus_path), corpus_sequences=0)
        assert cfg.corpus_sequences == 0
        # neither does the size rule
        cfg = ExperimentConfig(model_path=str(model_path), planted=False, order=6, vocab_size=1000)
        assert cfg.order == 6
        cfg = ExperimentConfig(
            corpus_path=str(corpus_path), corpus_sequences=10**6, corpus_seq_len=10**6
        )
        assert cfg.corpus_seq_len == 10**6

    def test_checked_when_built_and_frozen(self):
        with pytest.raises(ConfigInvalid, match=r"tau must be in \(0, 1\)"):
            ExperimentConfig(tau=1.5)
        cfg = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.tau = 0.5
        # order applies with planted=false
        assert ExperimentConfig(planted=False, order=3).order == 3

    def test_a_mode_list_is_kept_as_a_tuple(self):
        # the list used to be kept: it could grow after every check had run,
        # and hash(cfg) raised TypeError
        modes = ["sjd"]
        cfg = ExperimentConfig(modes=modes)
        modes.append("bogus")
        assert cfg.modes == ("sjd",)
        assert hash(cfg) == hash(ExperimentConfig(modes=("sjd",)))
        assert cfg == ExperimentConfig(modes=("sjd",))

    def test_a_mode_string_is_refused(self):
        # it used to be iterated into characters: unknown decode mode 's'
        message = "^modes must be a sequence of mode names, not 'sjd_pv'$"
        with pytest.raises(ConfigInvalid, match=message):
            ExperimentConfig(modes="sjd_pv")

    @pytest.mark.parametrize(
        "modes",
        [
            {"sjd", "sjd_pv", "jacobi"},
            frozenset({"sjd"}),
            dict.fromkeys(["sjd_pv", "sjd"]).keys(),
        ],
    )
    def test_an_unordered_mode_collection_is_refused(self, modes):
        # a set was kept in hash order, so modes[0], the benchmark's base,
        # changed with PYTHONHASHSEED; lists, tuples and config text build
        with pytest.raises(ConfigInvalid, match="^modes must be a sequence of mode names, not "):
            ExperimentConfig(modes=modes)
        assert ExperimentConfig(modes=["sjd_pv", "sjd"]).modes == ("sjd_pv", "sjd")
        assert ExperimentConfig(modes=("sjd_pv", "sjd")).modes == ("sjd_pv", "sjd")
        assert config_from_mapping({"modes": "sjd_pv,sjd"}).modes == ("sjd_pv", "sjd")

    @pytest.mark.parametrize(
        "name, value, what",
        [
            ("model_path", 5, "a path"),
            ("out_dir", 5, "a path"),
            ("modes", 5, "a sequence of mode names"),
            ("modes", None, "a sequence of mode names"),
        ],
    )
    def test_a_path_or_modes_of_another_type_is_refused(self, name, value, what):
        # each used to raise a bare TypeError from os.fsdecode or tuple()
        with pytest.raises(ConfigInvalid, match=f"^{name} must be {what}, not {value!r}$"):
            ExperimentConfig(**{name: value})

    def test_negative_seed(self):
        with pytest.raises(ConfigInvalid, match="seed must be >= 0"):
            ExperimentConfig(seed=-1)
        with pytest.raises(ConfigInvalid, match="seed must be >= 0"):
            config_from_mapping({"seed": "-1"})
        assert ExperimentConfig(seed=0).seed == 0

    def test_planted_must_be_a_bool(self):
        # greedy's rule: the truthy string "no" would build a planted config;
        # a config file's text is parsed to a bool first
        for bad in ("no", "false", 0, 1, None):
            with pytest.raises(ConfigInvalid, match=f"planted must be a bool, not {bad!r}"):
                ExperimentConfig(planted=bad)
        assert not ExperimentConfig(planted=np.bool_(False)).planted
        assert config_from_mapping({"planted": "no"}).planted is False

    @pytest.mark.parametrize(
        "modes, repeated",
        [("sjd,sjd", "sjd"), ("sjd_pv,sjd,sjd_pv", "sjd_pv"), ("jacobi,sjd,sjd", "sjd")],
    )
    def test_repeated_mode(self, modes, repeated):
        with pytest.raises(ConfigInvalid, match=f"decode mode '{repeated}' is repeated"):
            config_from_mapping({"modes": modes})

    def test_repeated_key(self, tmp_path):
        # the later value used to win silently
        path = tmp_path / "repeat.cfg"
        path.write_text("seed=1\n# again\n seed = 2\n", encoding="utf-8")
        with pytest.raises(ConfigInvalid, match=r"repeat\.cfg:3: key 'seed' repeats line 1$"):
            load_config_file(path)

    def test_none_keeps_the_default(self):
        assert config_from_mapping({"seed": None}) == ExperimentConfig()
        assert config_from_mapping({"seed": None, "tau": "0.05"}).seed == ExperimentConfig.seed

    def test_empty_mode_list(self):
        with pytest.raises(ConfigInvalid, match="at least one decode mode is required"):
            config_from_mapping({"modes": ""})

    def test_bad_line(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("this is not a pair\n", encoding="utf-8")
        with pytest.raises(ConfigInvalid):
            load_config_file(path)

    def test_a_file_that_is_not_utf8(self, tmp_path):
        # it used to raise a bare UnicodeDecodeError
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ConfigInvalid, match=r"binary\.cfg: not a UTF-8 text file"):
            load_config_file(path)

    def test_empty_out_dir(self, tmp_path):
        # it used to mean "write nothing", as if no out_dir were set
        with pytest.raises(ConfigInvalid, match="out_dir must not be empty"):
            ExperimentConfig(out_dir="")
        path = tmp_path / "empty.cfg"
        path.write_text("out_dir=\n", encoding="utf-8")
        with pytest.raises(ConfigInvalid, match="out_dir must not be empty"):
            config_from_mapping(load_config_file(path))

    def test_an_out_dir_that_names_a_file_or_lies_under_one(self, tmp_path):
        # it used to fail only when the first report was written
        (tmp_path / "file").write_text("kept\n", encoding="utf-8")
        with pytest.raises(ConfigInvalid, match="exists and is not a directory"):
            ExperimentConfig(out_dir=str(tmp_path / "file"))
        with pytest.raises(ConfigInvalid, match="lies under .*, which is not a directory"):
            ExperimentConfig(out_dir=str(tmp_path / "file" / "a" / "b"))
        # a directory still to be made, under one that exists, is fine
        ExperimentConfig(out_dir=str(tmp_path / "a" / "b"))
        assert not (tmp_path / "a").exists()
        assert (tmp_path / "file").read_text(encoding="utf-8") == "kept\n"


class TestMarginalTv:
    def test_identical_sets(self):
        seqs = [(0, 1), (1, 1), (0, 0)]
        assert np.all(marginal_tv(seqs, seqs, 2) == 0.0)

    def test_disjoint_sets(self):
        assert np.all(marginal_tv([(0, 0)], [(1, 1)], 2) == 1.0)

    def test_different_lengths_rejected(self):
        with pytest.raises(ValueError, match="sequence sets must share a common length"):
            marginal_tv([(0, 1)], [(0, 1, 1)], 2)

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_different_lengths_within_a_set_rejected(self, which):
        # it used to fail inside np.asarray with NumPy's inhomogeneous-shape error
        ragged, even = [(0, 1), (0, 1, 1)], [(0, 1), (1, 1)]
        sets = (ragged, even) if which == "first" else (even, ragged)
        with pytest.raises(ValueError, match="the sequences of a set must share a common length"):
            marginal_tv(*sets, 2)


class TestTheoryCheck:
    def test_report_shape(self):
        report = theory_check(trials=20, min_inequality_trials=50, seed=1)
        assert report["trials"] == 20
        assert report["violations"] == 0
        assert report["min_inequality_trials"]["failures"] == 0
        assert len(report["gap_histogram"]["counts"]) == 20
