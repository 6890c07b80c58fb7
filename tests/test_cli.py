import hashlib
import json

import numpy as np
import pytest

from phrasedec import cli, decoder
from phrasedec.cli import main
from phrasedec.harness import ExperimentConfig, planted_phrase_corpus
from phrasedec.models import MarkovModel, random_markov, save_markov
from phrasedec.phrase_lib import load_library, write_corpus


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(4)
    corpus, model = planted_phrase_corpus(16, 3, 4, 20, 80, 0.95, rng)
    corpus_path = tmp_path / "corpus.txt"
    model_path = tmp_path / "model.psdm"
    write_corpus(corpus, corpus_path)
    save_markov(model, model_path)
    return tmp_path, corpus_path, model_path


def test_build_library(workspace, capsys):
    tmp_path, corpus_path, _ = workspace
    out = tmp_path / "lib.psdl"
    rc = main([
        "build-library", "--corpus", str(corpus_path),
        "--merges", "32", "--max-len", "6", "--out", str(out),
    ])
    assert rc == 0
    lib = load_library(out)
    assert 0 < len(lib.rules) <= 32
    assert all(len(p) <= 6 for p in lib.phrases)


def test_decode_seed_defaults_to_the_config_seed(workspace, capsys):
    _, _, model_path = workspace
    tokens = []
    for seed in ([], ["--seed", str(ExperimentConfig.seed)]):
        assert main([*seed, "decode", "--model", str(model_path), "--length", "48"]) == 0
        tokens.append(capsys.readouterr().out)
    assert tokens[0] == tokens[1]
    assert len(tokens[0].split()) == 48


def test_build_library_zero_merges(workspace, capsys):
    tmp_path, corpus_path, _ = workspace
    out = tmp_path / "lib.psdl"
    rc = main(["build-library", "--corpus", str(corpus_path), "--merges", "0",
               "--out", str(out)])
    assert rc == 0
    lib = load_library(out)
    assert (lib.rules, lib.phrases) == ((), ())


def test_decode_all_modes(workspace, capsys, monkeypatch):
    tmp_path, corpus_path, model_path = workspace
    lib_path = tmp_path / "lib.psdl"
    main(["build-library", "--corpus", str(corpus_path), "--merges", "32",
          "--out", str(lib_path)])
    capsys.readouterr()
    returned = []

    def recording(*args):
        returned.append(decoder.decode(*args))
        return returned[-1]

    monkeypatch.setattr(cli, "decode", recording)
    for extra in (["--mode", "sjd"], ["--mode", "jacobi", "--greedy"],
                  ["--mode", "sjd_pv", "--lib", str(lib_path)]):
        rc = main(["--seed", "3", "decode", "--model", str(model_path),
                   "--length", "40"] + extra)
        assert rc == 0
        out, err = capsys.readouterr()
        seq, metrics = returned[-1]
        assert out.split() == [str(t) for t in seq] and len(seq) == 40
        # stderr carries the decode's own counters
        assert json.loads(err) == {
            key: getattr(metrics, key)
            for key in ("nfe", "tokens_emitted", "token_accepts", "token_rejects",
                        "phrase_attempts", "phrase_accepts")
        }


def test_decode_rejects_library_with_larger_vocab(tmp_path, capsys):
    model_path = tmp_path / "v4.psdm"
    save_markov(random_markov(1, 4, 0.5, np.random.default_rng(0)), model_path)
    corpus_path = tmp_path / "v40.txt"
    write_corpus([list(range(40)) * 3], corpus_path)
    lib_path = tmp_path / "v40.psdl"
    main(["build-library", "--corpus", str(corpus_path), "--merges", "8",
          "--out", str(lib_path)])
    assert load_library(lib_path).vocab_size == 40
    capsys.readouterr()
    rc = main(["decode", "--model", str(model_path), "--mode", "sjd_pv",
               "--lib", str(lib_path), "--length", "16"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "phrasedec: error: library vocabulary 40 exceeds the model's 4\n"


def test_decode_tries_the_librarys_longest_phrase(tmp_path, capsys, monkeypatch):
    # a --max-len 12 library of a 12-token cycle holds phrases longer than the
    # default cap of 8; under a uniform model every token is in every
    # neighbourhood, so decode tries the longest phrase that starts at a draft
    vocab = 12
    corpus_path = tmp_path / "cycle.txt"
    write_corpus([list(range(vocab)) * 8] * 4, corpus_path)
    lib_path = tmp_path / "cycle.psdl"
    main(["build-library", "--corpus", str(corpus_path), "--merges", "64",
          "--max-len", "12", "--out", str(lib_path)])
    longest = max(len(p) for p in load_library(lib_path).phrases)
    assert longest > 8
    model_path = tmp_path / "uniform.psdm"
    uniform = MarkovModel(1, vocab, np.full((vocab + 1, vocab), 1 / vocab))
    save_markov(uniform, model_path)

    tried = []
    score = decoder.phrase_acceptance_score

    def recording(verifier, t, rows, drafter, phrase):
        tried.append(len(phrase))
        return score(verifier, t, rows, drafter, phrase)

    monkeypatch.setattr(decoder, "phrase_acceptance_score", recording)
    rc = main(["decode", "--model", str(model_path), "--mode", "sjd_pv",
               "--lib", str(lib_path), "--length", "128"])
    assert rc == 0
    assert max(tried) == longest


def test_build_library_rejects_negative_merges(workspace, capsys):
    tmp_path, corpus_path, _ = workspace
    out = tmp_path / "lib.psdl"
    with pytest.raises(SystemExit) as exit_info:
        main(["build-library", "--corpus", str(corpus_path), "--merges", "-1",
              "--out", str(out)])
    assert exit_info.value.code == 2
    assert "argument --merges: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("1 two 3", "bad token in corpus line '1 two 3'"),
        ("1 -2 3", "token -2 is not a non-negative integer"),
    ],
    ids=["not_an_integer", "negative"],
)
def test_build_library_bad_corpus_token(tmp_path, capsys, line, message):
    corpus_path = tmp_path / "bad.txt"
    corpus_path.write_text(f"0 1 2\n{line}\n", encoding="utf-8")
    out = tmp_path / "lib.psdl"
    rc = main(["build-library", "--corpus", str(corpus_path), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"phrasedec: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "corpus, args, message",
    [
        # V = 2**32 + 1 and two merges: symbol ids up to 2**32 + 2
        ("1 4294967296 " * 4, [], "symbol id 4294967298 does not fit in 32 bits"),
        # pairs of pairs of zeros: the longest phrase has 2**16 tokens
        ("0 " * 140_000, ["--max-len", "200000"], "a phrase of 65536 tokens is longer than 65535"),
    ],
    ids=["token_over_32_bits", "phrase_over_16_bits"],
)
def test_build_library_too_large_for_the_format(tmp_path, capsys, corpus, args, message):
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_text(corpus + "\n", encoding="utf-8")
    out = tmp_path / "lib.psdl"
    rc = main(["build-library", "--corpus", str(corpus_path), "--out", str(out)] + args)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"phrasedec: error: {message}\n"
    assert not out.exists()


def test_decode_arithmetic_fault_is_an_internal_error(workspace, capsys, monkeypatch):
    _, _, model_path = workspace

    def faulty(p, q, drafted, rng):
        raise decoder.DegenerateResidual("rejection with p == q; arithmetic fault")

    monkeypatch.setattr(decoder, "verify_token", faulty)
    rc = main(["decode", "--model", str(model_path), "--mode", "sjd", "--length", "16"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "phrasedec: internal error: DegenerateResidual: "
        "rejection with p == q; arithmetic fault\n"
    )


def test_missing_model_file(tmp_path, capsys):
    rc = main(["decode", "--model", str(tmp_path / "absent.psdm")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("phrasedec: error: ") and err.count("\n") == 1


def test_bench(workspace, tmp_path, capsys):
    _, corpus_path, model_path = workspace
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"model_path={model_path}\ncorpus_path={corpus_path}\n"
        "decodes=2\ntotal_len=48\nmerges=32\ncorpus_sequences=10\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "bench_out"
    rc = main(["--seed", "2", "--config", str(cfg), "--out", str(out_dir), "bench"])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report["per_mode"]) == {"sjd", "sjd_pv"}
    assert report["config"]["seed"] == 2
    # --modes replaces the config's mode list
    out_dir = tmp_path / "bench_sjd"
    rc = main(["--seed", "2", "--config", str(cfg), "--out", str(out_dir), "bench",
               "--modes", "sjd"])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report["per_mode"]) == {"sjd"}


def test_sweeps(workspace, tmp_path, capsys):
    _, corpus_path, model_path = workspace
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"model_path={model_path}\ncorpus_path={corpus_path}\n"
        "decodes=2\ntotal_len=48\nmerges=32\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "sweep_out"
    rc = main(["--config", str(cfg), "--out", str(out_dir), "sweep-tau",
               "--taus", "0.01,0.05"])
    assert rc == 0
    assert (out_dir / "tau_sweep.csv").exists()
    rc = main(["--config", str(cfg), "--out", str(out_dir), "sweep-merges",
               "--merge-grid", "0,32"])
    assert rc == 0
    assert (out_dir / "merge_sweep.csv").exists()


@pytest.mark.parametrize(
    "verb, message",
    [
        (["sweep-tau", "--taus", "0.01,abc"],
         "argument --taus: could not convert string to float: 'abc'"),
        (["sweep-merges", "--merge-grid", "8,x"],
         "argument --merge-grid: invalid literal for int() with base 10: 'x'"),
        (["sweep-merges", "--merge-grid", "8,1.5"],
         "argument --merge-grid: invalid literal for int() with base 10: '1.5'"),
    ],
    ids=["tau_word", "merge_word", "merge_fraction"],
)
def test_a_grid_token_that_is_not_a_number_is_a_bad_argument(tmp_path, capsys, verb, message):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["--out", str(out_dir), *verb])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1
    assert err.endswith(f": error: {message}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "verb, message",
    [
        (["sweep-tau", "--taus", "0.01,1.5"], "tau must be in (0, 1)"),
        (["sweep-merges", "--merge-grid", "16,-1"], "merges must be >= 0"),
    ],
    ids=["tau_above_one", "negative_merges"],
)
def test_a_grid_value_out_of_range_is_a_bad_config(tmp_path, capsys, verb, message):
    out_dir = tmp_path / "out"
    rc = main(["--out", str(out_dir), *verb])
    assert rc == 1
    assert capsys.readouterr().err == f"phrasedec: error: {message}\n"
    assert not out_dir.exists()


def test_left_out_flags_keep_the_owners_defaults(monkeypatch):
    # theory-check passes only the flags it was given
    calls = []
    monkeypatch.setattr(cli.harness, "theory_check", lambda **kw: calls.append(kw) or {})
    assert main(["theory-check"]) == 0
    assert main(["--seed", "4", "theory-check", "--v-max", "5", "--min-ineq-trials", "7"]) == 0
    assert calls == [{}, {"v_max": 5, "min_inequality_trials": 7, "seed": 4}]
    # decode and build-library read theirs from VerifyConfig and ExperimentConfig
    args = cli._build_parser().parse_args(["decode", "--model", "m"])
    assert (args.mode, args.window, args.tau) == (
        decoder.VerifyConfig.mode, decoder.VerifyConfig.window_size, decoder.VerifyConfig.tau
    )
    assert args.length == ExperimentConfig().total_len
    args = cli._build_parser().parse_args(["build-library", "--corpus", "c", "--out", "o"])
    assert args.merges == ExperimentConfig().merges


def test_theory_check(tmp_path, capsys):
    out_dir = tmp_path / "theory"
    rc = main(["--seed", "1", "--out", str(out_dir), "theory-check",
               "--trials", "20", "--min-ineq-trials", "100"])
    assert rc == 0
    report = json.loads((out_dir / "theory_check.json").read_text())
    assert report["violations"] == 0
    capsys.readouterr()
    # without --out the same report goes to stdout
    rc = main(["--seed", "1", "theory-check", "--trials", "20", "--min-ineq-trials", "100"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == report


@pytest.mark.parametrize("flag", ["--trials", "--min-ineq-trials"])
def test_theory_check_rejects_negative_trial_counts(tmp_path, capsys, flag):
    out_dir = tmp_path / "theory"
    with pytest.raises(SystemExit) as exit_info:
        main(["--out", str(out_dir), "theory-check", flag, "-3"])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be >= 0, got -3" in capsys.readouterr().err
    assert not out_dir.exists()


def test_theory_check_rejects_a_too_large_grid(tmp_path, capsys):
    # a grid whose largest instance passes the enumeration guard fails
    # before any trial runs
    out_dir = tmp_path / "theory"
    rc = main(["--seed", "0", "--out", str(out_dir), "theory-check", "--trials", "50",
               "--v-max", "64", "--l-max", "8", "--min-ineq-trials", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("phrasedec: error: v_max=64, l_max=8") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "verb",
    [
        ["decode", "--model", "model.psdm"],
        ["gen-model", "--model-out", "model.psdm"],
        ["bench"],
        ["theory-check"],
    ],
)
def test_negative_seed_is_a_bad_argument(tmp_path, capsys, verb):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["--seed", "-1", "--out", str(out_dir), *verb])
    assert exit_info.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "settings, flags, message",
    [
        ("seed=-1\n", [], "seed must be >= 0"),
        ("modes=sjd,sjd\n", [], "decode mode 'sjd' is repeated"),
        ("", ["--modes", "sjd,sjd_pv,sjd"], "decode mode 'sjd' is repeated"),
    ],
)
def test_bench_rejects_a_bad_config(tmp_path, capsys, settings, flags, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(settings, encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out_dir), "bench", *flags])
    assert rc == 1
    assert capsys.readouterr().err == f"phrasedec: error: {message}\n"
    assert not out_dir.exists()


def test_gen_model(tmp_path, capsys):
    # the default config's planted model and corpus, byte for byte as before
    # gen-model and bench shared one resolver (NumPy's Dirichlet and
    # Generator streams)
    model_out, corpus_out = tmp_path / "gen.psdm", tmp_path / "gen.txt"
    rc = main(["gen-model", "--model-out", str(model_out), "--corpus-out", str(corpus_out)])
    assert rc == 0
    digest = {p.suffix: hashlib.sha256(p.read_bytes()).hexdigest() for p in (model_out, corpus_out)}
    assert digest == {
        ".psdm": "b03dbd18e101c4fc3a55e432790f232b1ec2212d87fccca57c8a5d254b64abbe",
        ".txt": "f63af9868fe96222ff9d0cdd657a507ad0610458dab2e79ae39ee9ff0eb7d493",
    }


def test_gen_model_writes_what_bench_uses(tmp_path, capsys):
    # a random order-3 model: bench on the written files decodes exactly
    # as bench on the config that generated them (the phrase settings fit
    # V=8, but a random model has no planted phrases)
    settings = "decodes=2\ntotal_len=48\nmerges=32\nmodes=sjd,sjd_pv\n"
    cfg = tmp_path / "random.cfg"
    cfg.write_text(
        "planted=false\norder=3\nvocab_size=8\nphrase_count=2\nphrase_len=3\n"
        "corpus_sequences=20\ncorpus_seq_len=64\n" + settings,
        encoding="utf-8",
    )
    model_out, corpus_out = tmp_path / "gen.psdm", tmp_path / "gen.txt"
    rc = main(["--seed", "3", "--config", str(cfg), "gen-model",
               "--model-out", str(model_out), "--corpus-out", str(corpus_out)])
    assert rc == 0
    files = tmp_path / "files.cfg"
    files.write_text(
        f"model_path={model_out}\ncorpus_path={corpus_out}\n" + settings, encoding="utf-8"
    )
    rows = {}
    for name, path in (("config", cfg), ("files", files)):
        out_dir = tmp_path / name
        assert main(["--seed", "3", "--config", str(path), "--out", str(out_dir), "bench"]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        rows[name] = {mode: agg["rows"] for mode, agg in report["per_mode"].items()}
    assert rows["files"] == rows["config"]
