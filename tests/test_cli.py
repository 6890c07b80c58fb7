import errno
import hashlib
import json
import os

import numpy as np
import pytest

from phrasedec import cli, decoder, harness
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


@pytest.fixture(scope="module")
def planted_files(tmp_path_factory):
    # the default config's planted model and corpus, as gen-model writes them
    tmp_path = tmp_path_factory.mktemp("planted")
    model_path, corpus_path = tmp_path / "model.psdm", tmp_path / "corpus.txt"
    rc = main(["--seed", "0", "gen-model", "--model-out", str(model_path),
               "--corpus-out", str(corpus_path)])
    assert rc == 0
    return model_path, corpus_path


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


@pytest.mark.parametrize("corpus, rules", [("planted", 1398), ("zeros", 8)])
def test_build_library_stops_when_no_pair_repeats(planted_files, tmp_path, capsys, corpus, rules):
    # a budget the corpus cannot use up: the planted corpus runs out of
    # pairs at 1398 merges.  200 lines of 256 zeros outgrow the reach of the
    # local search for run ends, so merges search the whole corpus; eight
    # merges halve the runs down to one symbol per line.  Either library
    # still decodes
    model_path, corpus_path = planted_files
    if corpus == "zeros":
        corpus_path = tmp_path / "zeros.txt"
        write_corpus([[0] * 256] * 200, corpus_path)
    lib_path = tmp_path / "lib.psdl"
    rc = main(["build-library", "--corpus", str(corpus_path), "--merges", "4096",
               "--out", str(lib_path)])
    assert rc == 0
    assert capsys.readouterr().out.startswith(f"library: {rules} rules, ")
    assert len(load_library(lib_path).rules) == rules
    rc = main(["--seed", "1", "decode", "--model", str(model_path), "--mode", "sjd_pv",
               "--lib", str(lib_path), "--length", "256"])
    assert rc == 0
    assert len(capsys.readouterr().out.split()) == 256


@pytest.mark.parametrize(
    "seed, mode", [("2", "jacobi"), ("1", "sjd")], ids=["jacobi_seed_2", "sjd"]
)
def test_a_greedy_decode_prints_greedy_jacobis(planted_files, capsys, seed, mode):
    # greedy jacobi reads no uniform, so another seed prints the same tokens
    # and counters; greedy sjd is sequential argmax too, though its token
    # tests read other tables than jacobi's
    model_path, _ = planted_files
    runs = []
    for run_seed, run_mode in (("1", "jacobi"), (seed, mode)):
        rc = main(["--seed", run_seed, "decode", "--model", str(model_path),
                   "--mode", run_mode, "--greedy", "--length", "256"])
        assert rc == 0
        runs.append(capsys.readouterr())
    assert len(runs[0].out.split()) == 256
    assert runs[1] == runs[0]


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
    for extra in (["--mode", "sjd"], ["--mode", "jacobi", "--greedy"], ["--mode", "jacobi"],
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
        ("1 -2 3", "bad token in corpus line '1 -2 3'"),
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


def test_bench_prints_its_numbers_vs_ancestral(workspace, tmp_path, capsys):
    _, corpus_path, model_path = workspace
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"model_path={model_path}\ncorpus_path={corpus_path}\ndecodes=1\ntotal_len=24\n"
        "window_size=1\n",
        encoding="utf-8",
    )
    assert main(["--config", str(cfg), "bench", "--modes", "sjd"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("vs ancestral: ancestral_sample ")
    assert lines[1].endswith(" us/token")
    # one token per call saves no NFE, so no verifier latency breaks even
    assert lines[2].startswith("vs ancestral: sjd ")
    assert lines[2].endswith("break-even verifier latency none (NFE per token >= 1)")


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
    lines = (out_dir / "tau_sweep.csv").read_text().splitlines()
    assert lines[0] == "tau,mean_nfe,phrase_accept_rate,seq_divergence"
    rc = main(["--config", str(cfg), "--out", str(out_dir), "sweep-merges",
               "--merge-grid", "0,32"])
    assert rc == 0
    lines = (out_dir / "merge_sweep.csv").read_text().splitlines()
    assert lines[0] == "merges,library_size,mean_nfe,phrase_hit_rate"
    assert len(lines) == 3
    # a repeated budget keeps its row, though its library is built once
    out_dir = tmp_path / "repeated"
    rc = main(["--config", str(cfg), "--out", str(out_dir), "sweep-merges",
               "--merge-grid", "8,8,16"])
    assert rc == 0
    lines = (out_dir / "merge_sweep.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["8", "8", "16"]


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


@pytest.mark.parametrize(
    "out, verb",
    [
        ("notadir", ["bench"]),
        ("notadir/sub", ["sweep-tau", "--taus", "0.01"]),
        ("notadir/sub", ["sweep-merges", "--merge-grid", "64"]),
        ("notadir", ["theory-check", "--trials", "5"]),
    ],
    ids=["bench", "sweep-tau", "sweep-merges", "theory-check"],
)
def test_an_out_that_names_a_file_fails_before_any_work(tmp_path, capsys, monkeypatch, out, verb):
    # it used to fail with [Errno 17] or [Errno 20] after every decode or trial
    def no_work(*args, **kwargs):
        raise AssertionError("work began")

    monkeypatch.setattr(harness, "_resolve_model_and_corpus", no_work)
    monkeypatch.setattr(harness, "theory_check", no_work)
    (tmp_path / "notadir").write_text("kept\n", encoding="utf-8")
    rc = main(["--out", str(tmp_path / out), *verb])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"phrasedec: error: out_dir {str(tmp_path / out)!r} ")
    assert err.endswith(" not a directory\n") and err.count("\n") == 1
    assert (tmp_path / "notadir").read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize(
    "path, code",
    [
        ("notadir/out", errno.ENOTDIR),
        ("notadir/sub/out", errno.ENOTDIR),
        ("missing/out", errno.ENOENT),
        ("adir", errno.EISDIR),
    ],
    ids=["under-a-file", "deep-under-a-file", "missing-directory", "a-directory"],
)
@pytest.mark.parametrize(
    "verb",
    [
        ["build-library", "--corpus", "corpus.txt", "--merges", "8", "--out", "{}"],
        ["gen-model", "--model-out", "{}"],
        ["gen-model", "--model-out", "m.psdm", "--corpus-out", "{}"],
    ],
    ids=["build-library", "gen-model-model", "gen-model-corpus"],
)
def test_an_unwritable_output_file_fails_before_any_work(
    tmp_path, monkeypatch, capsys, verb, path, code
):
    # it used to fail with [Errno 20], [Errno 2] or [Errno 21] after the
    # whole library, or the model and corpus, had been made
    def no_work(*args, **kwargs):
        raise AssertionError("work began")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "read_corpus", no_work)
    monkeypatch.setattr(harness, "_resolve_model_and_corpus", no_work)
    (tmp_path / "notadir").write_text("kept\n", encoding="utf-8")
    (tmp_path / "adir").mkdir()
    written = sorted(tmp_path.rglob("*"))
    rc = main([arg.format(path) for arg in verb])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"phrasedec: error: {OSError(code, os.strerror(code), path)}\n"
    assert sorted(tmp_path.rglob("*")) == written
    assert (tmp_path / "notadir").read_text(encoding="utf-8") == "kept\n"


DECODE = ["decode", "--model", "model.psdm", "--length", "8"]
BUILD = ["build-library", "--corpus", "corpus.txt", "--out", "lib.psdl"]


@pytest.mark.parametrize(
    "flag, verb",
    [
        (["--config", "run.cfg"], DECODE),
        (["--out", "out"], DECODE),
        (["--seed", "5"], BUILD),
        (["--config", "run.cfg"], BUILD),
        (["--out", "out"], BUILD),
        (["--out", "out"], ["gen-model", "--model-out", "model.psdm"]),
        (["--config", "run.cfg"], ["theory-check", "--trials", "5"]),
    ],
    ids=[
        "decode_config", "decode_out", "build_seed", "build_config", "build_out",
        "gen_model_out", "theory_config",
    ],
)
def test_a_global_flag_the_verb_does_not_read_is_a_bad_argument(
    tmp_path, capsys, monkeypatch, flag, verb
):
    # each used to be dropped silently: the verb ran and exited 0
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main([*flag, *verb])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: ") == 1
    assert captured.err.endswith(f": error: {verb[0]} does not read the global flag {flag[0]}\n")
    assert list(tmp_path.iterdir()) == []


# the global flags each verb reads, by the name of the handler it runs
READS = {
    "_decode": (DECODE, ("--seed",)),
    "_bench": (["bench"], ("--seed", "--config", "--out")),
    "_sweep_tau": (["sweep-tau"], ("--seed", "--config", "--out")),
    "_sweep_merges": (["sweep-merges"], ("--seed", "--config", "--out")),
    "_theory_check": (["theory-check", "--trials", "5"], ("--seed", "--out")),
    "_gen_model": (["gen-model", "--model-out", "model.psdm"], ("--seed", "--config")),
}
# each global flag: its dest, the text given and the value parsed
GLOBALS = {
    "--seed": ("seed", "5", 5),
    "--config": ("config", "run.cfg", "run.cfg"),
    "--out": ("out_dir", "out", "out"),
}


@pytest.mark.parametrize(
    "handler, verb, flag",
    [(handler, verb, flag) for handler, (verb, flags) in READS.items() for flag in flags],
    ids=[f"{verb[0]}_{flag[2:]}" for verb, flags in READS.values() for flag in flags],
)
def test_a_global_flag_the_verb_reads_reaches_its_handler(
    tmp_path, capsys, monkeypatch, handler, verb, flag
):
    # with the seven rejected pairs above, this covers every verb x flag pair
    monkeypatch.chdir(tmp_path)
    seen = []
    monkeypatch.setattr(cli, handler, lambda args: seen.append(args) or 0)
    dest, text, value = GLOBALS[flag]
    assert main([flag, text, *verb]) == 0
    [args] = seen
    assert args.command == verb[0]
    dests = ("seed", "config", "out_dir")
    assert {d: getattr(args, d) for d in dests} == {**dict.fromkeys(dests), dest: value}
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == []


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
    err = capsys.readouterr().err
    assert err.count("error: ") == 1
    assert f"phrasedec theory-check: error: argument {flag}: must be >= 0, got -3\n" in err
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
    err = capsys.readouterr().err
    assert err.count("error: ") == 1
    assert "phrasedec: error: argument --seed: must be >= 0, got -1\n" in err
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


@pytest.mark.parametrize(
    "settings, flags, message",
    [
        ("seed=1\nseed=2\n", [], "bad.cfg:2: key 'seed' repeats line 1"),
        ("modes=\n", [], "at least one decode mode is required"),
        ("", ["--modes", ""], "at least one decode mode is required"),
    ],
)
def test_bench_rejects_a_repeated_key_or_an_empty_mode_list(
    tmp_path, capsys, settings, flags, message
):
    # both used to be accepted: the later seed won, and --modes "" ran the defaults
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(settings, encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out_dir), "bench", *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("phrasedec: error: ") and err.count("\n") == 1
    assert err.rstrip("\n").endswith(message)
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "verb",
    [["bench"], ["sweep-tau", "--taus", "0.01"], ["gen-model", "--model-out", "m.psdm",
                                                  "--corpus-out", "c.txt"]],
    ids=["bench", "sweep-tau", "gen-model"],
)
def test_an_empty_config_path_is_an_unreadable_file(tmp_path, monkeypatch, capsys, verb):
    # it used to be dropped: the verb ran, and wrote, the default config
    monkeypatch.chdir(tmp_path)
    out = [] if verb[0] == "gen-model" else ["--out", "out"]
    rc = main(["--seed", "0", "--config", "", *out, *verb])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("phrasedec: error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["sjd", "sjd_pv"])
def test_an_empty_lib_path_is_an_unreadable_file(workspace, capsys, mode):
    # it used to be dropped: sjd decoded without a library and exited 0, and
    # sjd_pv failed as if no --lib had been given
    _, _, model_path = workspace
    rc = main(["--seed", "1", "decode", "--model", str(model_path), "--lib", "",
               "--mode", mode, "--length", "8"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    missing = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), "")
    assert err == f"phrasedec: error: {missing}\n"


@pytest.mark.parametrize(
    "settings, argv",
    [
        ("", ["--out", "", "theory-check", "--trials", "3", "--min-ineq-trials", "3"]),
        ("", ["--out", "", "sweep-tau", "--taus", "0.01"]),
        ("out_dir=\n", ["--config", "input.txt", "bench"]),
        ("", ["gen-model", "--model-out", "m.psdm", "--corpus-out", ""]),
        ("0 1 0 1\n", ["build-library", "--corpus", "input.txt", "--out", ""]),
    ],
    ids=["theory-check", "sweep-tau", "bench-config", "gen-model-corpus", "build-library"],
)
def test_an_empty_output_path_is_bad_input(tmp_path, monkeypatch, capsys, settings, argv):
    # it used to be dropped: theory-check printed its JSON, sweep-tau and
    # bench wrote no report, and gen-model wrote only the model, all with
    # status 0; build-library mined its library before failing to save it
    monkeypatch.chdir(tmp_path)
    if settings:
        (tmp_path / "input.txt").write_text(settings, encoding="utf-8")
    written = sorted(tmp_path.iterdir())
    rc = main(argv)
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("phrasedec: error: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == written


@pytest.mark.parametrize(
    "argv",
    [["build-library", "--corpus", "binary.txt", "--out", "lib.psdl"],
     ["--config", "binary.txt", "--out", "out", "bench"]],
    ids=["corpus", "config"],
)
def test_a_file_that_is_not_utf8_is_bad_input(tmp_path, monkeypatch, capsys, argv):
    # it used to end with a bare UnicodeDecodeError's message, naming no file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe")
    rc = main(argv)
    assert rc == 1
    assert capsys.readouterr().err == (
        "phrasedec: error: binary.txt: not a UTF-8 text file (invalid start byte)\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["binary.txt"]


@pytest.mark.parametrize(
    "settings",
    [
        "planted=false\norder=4\nvocab_size=2000\n",
        "planted=false\norder=6\nvocab_size=1000\n",
        "corpus_sequences=1000000\ncorpus_seq_len=1000000\n",
        # a bad generator setting or a repeated key fails the same way
        "concentration=-1\n",
        "planted=false\nvocab_size=1\n",
        "seed=1\nseed=2\n",
    ],
)
def test_gen_model_rejects_an_oversized_generator(tmp_path, capsys, settings):
    # fails when the config is built: no table or corpus is allocated
    cfg = tmp_path / "big.cfg"
    cfg.write_text(settings, encoding="utf-8")
    model_out, corpus_out = tmp_path / "m.psdm", tmp_path / "c.txt"
    rc = main(["--config", str(cfg), "gen-model",
               "--model-out", str(model_out), "--corpus-out", str(corpus_out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("phrasedec: error: ") and err.count("\n") == 1
    assert not model_out.exists() and not corpus_out.exists()


@pytest.mark.parametrize(
    "corpus_out",
    ["m.psdm", "sub/../m.psdm", "link.psdm"],
    ids=["same-path", "same-file", "symlink"],
)
def test_gen_model_refuses_one_file_for_both_outputs(tmp_path, monkeypatch, capsys, corpus_out):
    # the corpus used to overwrite the model, with exit status 0 and
    # "wrote" printed for both
    def no_work(*args, **kwargs):
        raise AssertionError("work began")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "_resolve_model_and_corpus", no_work)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.psdm").symlink_to("m.psdm")
    written = sorted(tmp_path.rglob("*"))
    rc = main(["gen-model", "--model-out", "m.psdm", "--corpus-out", corpus_out])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"phrasedec: error: --model-out and --corpus-out name one file: {corpus_out}\n"
    assert sorted(tmp_path.rglob("*")) == written


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


def test_gen_model_without_a_corpus_path_writes_only_the_model(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["gen-model", "--model-out", "gen.psdm"]) == 0
    assert capsys.readouterr().out == "wrote gen.psdm\n"
    assert [p.name for p in tmp_path.iterdir()] == ["gen.psdm"]
    digest = hashlib.sha256((tmp_path / "gen.psdm").read_bytes()).hexdigest()
    assert digest == "b03dbd18e101c4fc3a55e432790f232b1ec2212d87fccca57c8a5d254b64abbe"


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
