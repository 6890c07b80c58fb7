"""Command-line entry point.

Verbs: build-library, decode, bench, sweep-tau, sweep-merges, theory-check,
gen-model.  Global flags --seed, --config <path> and --out <dir> go before
the verb; ``_build_parser`` declares each verb once, with its arguments, the
global flags it reads and its handler.
The config file is a flat key=value text file whose keys mirror
ExperimentConfig.  Bad input (unreadable files, an empty output path, an
--out that is or lies under a file, malformed models, libraries, corpora
or configs) ends with one
``phrasedec: error: ...`` line on stderr and exit status 1, before the
generator draws if a planted setting or corpus size is bad; bad arguments
(a grid token that is not a number, or a global flag the verb does not
read) exit with argparse's status 2 before anything is written.  An
arithmetic fault inside the verifier (``DegenerateResidual``) ends with one
``phrasedec: internal error: ...`` line and exit status 1.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

import numpy as np

from . import harness
from .decoder import MODES, DegenerateResidual, NonTermination, VerifyConfig, decode
from .models import load_markov, save_markov
from .phrase_lib import (
    DEFAULT_MAX_PHRASE_LEN,
    build_library,
    load_library,
    read_corpus,
    save_library,
    write_corpus,
)


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _check_output_paths(*paths: str | None) -> None:
    """Fail on an empty output path as ``open`` fails on it, before anything
    is computed or written; None is "not given"."""
    if "" in paths:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), "")


def _comma_list(text: str, parse) -> list:
    """Comma-separated values read by ``parse``; a bad one is an argument error."""
    try:
        return [parse(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phrasedec",
        description="Phrase-level speculative Jacobi decoding engine",
    )
    parser.add_argument("--seed", type=non_negative_int, default=None, help="master RNG seed")
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", dest="out_dir", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, help, run, reads):
        # reads: the global flags (by dest) the verb reads; another one given
        # before the verb is a bad argument, not silently dropped
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, reads=reads)
        return p

    p = verb("build-library", "learn a phrase library from a corpus", _build_library, ())
    p.add_argument("--corpus", required=True)
    p.add_argument("--merges", type=non_negative_int, default=harness.ExperimentConfig.merges)
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_PHRASE_LEN)
    p.add_argument("--out", dest="library_out", required=True)

    p = verb("decode", "decode one sequence and print metrics", _decode, ("seed",))
    p.add_argument("--model", required=True, help="PSDM model file")
    p.add_argument("--mode", choices=MODES, default=VerifyConfig.mode)
    p.add_argument("--length", type=int, default=harness.ExperimentConfig.total_len)
    p.add_argument("--window", type=int, default=VerifyConfig.window_size)
    p.add_argument("--tau", type=float, default=VerifyConfig.tau)
    p.add_argument("--lib", default=None, help="PSDL library file (sjd_pv mode)")
    p.add_argument("--greedy", action="store_true")

    experiment = ("seed", "config", "out_dir")
    p = verb("bench", "paired benchmark across decode modes", _bench, experiment)
    p.add_argument("--modes", default=None, help="comma-separated mode list")

    p = verb("sweep-tau", "neighborhood-threshold ablation", _sweep_tau, experiment)
    p.add_argument("--taus", type=lambda t: _comma_list(t, float), default="0.005,0.01,0.02,0.05")

    p = verb("sweep-merges", "merge-iteration ablation", _sweep_merges, experiment)
    p.add_argument("--merge-grid", type=lambda t: _comma_list(t, int), default="256,1024,2048")

    p = verb("theory-check", "acceptance-rate oracle report", _theory_check, ("seed", "out_dir"))
    p.add_argument("--trials", type=non_negative_int)
    p.add_argument("--v-max", type=int)
    p.add_argument("--l-max", type=int)
    p.add_argument("--min-ineq-trials", dest="min_inequality_trials", type=non_negative_int)

    p = verb("gen-model", "write the config's model and corpus", _gen_model, ("seed", "config"))
    p.add_argument("--model-out", required=True)
    p.add_argument("--corpus-out", default=None)

    return parser


_GLOBAL_FLAGS = {"seed": "--seed", "config": "--config", "out_dir": "--out"}


def _experiment_config(args, modes=None) -> harness.ExperimentConfig:
    mapping: dict = {}
    if args.config is not None:
        mapping.update(harness.load_config_file(args.config))
    if args.seed is not None:
        mapping["seed"] = args.seed
    if args.out_dir is not None:
        mapping["out_dir"] = args.out_dir
    if modes is not None:
        mapping["modes"] = modes
    return harness.config_from_mapping(mapping)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for dest, flag in _GLOBAL_FLAGS.items():
        if getattr(args, dest) is not None and dest not in args.reads:
            parser.error(f"{args.command} does not read the global flag {flag}")
    try:
        return args.run(args)
    except (OSError, ValueError, NonTermination) as exc:
        # every typed error of the package but DegenerateResidual, an
        # arithmetic fault, is a ValueError or NonTermination
        print(f"phrasedec: error: {exc}", file=sys.stderr)
        return 1
    except DegenerateResidual as exc:
        # not bad input: the verifier rejected a draft where p == q
        print(f"phrasedec: internal error: DegenerateResidual: {exc}", file=sys.stderr)
        return 1


def _build_library(args) -> int:
    _check_output_paths(args.library_out)
    corpus = read_corpus(args.corpus)
    lib = build_library(corpus, args.merges, args.max_len)
    save_library(lib, args.library_out)
    print(
        f"library: {len(lib.rules)} rules, {len(lib.phrases)} phrases "
        f"-> {args.library_out}"
    )
    return 0


def _decode(args) -> int:
    model = load_markov(args.model)
    # an empty --lib is an unreadable file, not "no library"
    lib = load_library(args.lib) if args.lib is not None else None
    # every phrase the library holds may be tried, whatever --max-len built it
    phrases = lib.phrases if lib else ()
    cfg = VerifyConfig(
        mode=args.mode,
        window_size=args.window,
        tau=args.tau,
        max_phrase_len=max(map(len, phrases), default=DEFAULT_MAX_PHRASE_LEN),
        greedy=args.greedy,
    )
    rng = np.random.default_rng(
        harness.ExperimentConfig.seed if args.seed is None else args.seed
    )
    seq, metrics = decode(model, lib, cfg, args.length, rng)
    print(" ".join(str(t) for t in seq))
    print(json.dumps(metrics.counts()), file=sys.stderr)
    return 0


def _bench(args) -> int:
    cfg = _experiment_config(args, args.modes)
    report = harness.run_benchmark(cfg)
    for mode, agg in report.per_mode.items():
        print(
            f"{mode}: mean NFE {agg.mean_nfe:.2f}, "
            f"{agg.mean_tokens_per_iteration:.2f} tokens/iteration, "
            f"acceleration {report.acceleration[mode]:.3f}x"
        )
    return 0


def _sweep_tau(args) -> int:
    cfg = _experiment_config(args)
    for row in harness.run_tau_sweep(cfg, args.taus):
        print(
            f"tau={row['tau']}: mean NFE {row['mean_nfe']:.2f}, "
            f"phrase accept rate {row['phrase_accept_rate']:.3f}, "
            f"divergence {row['seq_divergence']:.4f}"
        )
    return 0


def _sweep_merges(args) -> int:
    cfg = _experiment_config(args)
    for row in harness.run_merge_sweep(cfg, args.merge_grid):
        print(
            f"M={row['merges']}: library {row['library_size']}, "
            f"mean NFE {row['mean_nfe']:.2f}, "
            f"phrase hits/iteration {row['phrase_hit_rate']:.3f}"
        )
    return 0


def _theory_check(args) -> int:
    _check_output_paths(args.out_dir)
    if args.out_dir is not None:
        harness.check_out_dir(args.out_dir)
    given = ("trials", "v_max", "l_max", "min_inequality_trials", "seed")
    kwargs = {k: getattr(args, k) for k in given if getattr(args, k) is not None}
    report = harness.theory_check(**kwargs)
    if args.out_dir is not None:
        print(f"wrote {harness.write_json(report, args.out_dir, 'theory_check.json')}")
    else:
        print(json.dumps(report, indent=2))
    return 0


def _gen_model(args) -> int:
    _check_output_paths(args.model_out, args.corpus_out)
    # the model and corpus bench resolves for the same config
    model, corpus = harness._resolve_model_and_corpus(_experiment_config(args))
    save_markov(model, args.model_out)
    print(f"wrote {args.model_out}")
    if args.corpus_out is not None:
        write_corpus(corpus, args.corpus_out)
        print(f"wrote {args.corpus_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
