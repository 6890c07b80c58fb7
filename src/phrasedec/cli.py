"""Command-line entry point.

Verbs: build-library, decode, bench, sweep-tau, sweep-merges, theory-check,
gen-model.  Global flags --seed, --config <path> and --out <dir> go before
the verb: bench and the sweeps read all three, theory-check --seed and
--out, gen-model --seed and --config, decode --seed, build-library none.
The config file is a flat key=value text file whose keys mirror
ExperimentConfig.  Bad input (unreadable files, malformed models, libraries,
corpora or configs) ends with one ``phrasedec: error: ...`` line on stderr
and exit status 1, before the generator draws if a planted setting or
corpus size is bad; bad arguments (a grid token that is not a number among
them) exit with argparse's status 2.  An arithmetic fault inside the
verifier (``DegenerateResidual``) ends with one ``phrasedec: internal
error: ...`` line and exit status 1.
"""

from __future__ import annotations

import argparse
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

    p = sub.add_parser("build-library", help="learn a phrase library from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--merges", type=non_negative_int, default=harness.ExperimentConfig.merges)
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_PHRASE_LEN)
    p.add_argument("--out", dest="library_out", required=True)

    p = sub.add_parser("decode", help="decode one sequence and print metrics")
    p.add_argument("--model", required=True, help="PSDM model file")
    p.add_argument("--mode", choices=MODES, default=VerifyConfig.mode)
    p.add_argument("--length", type=int, default=harness.ExperimentConfig.total_len)
    p.add_argument("--window", type=int, default=VerifyConfig.window_size)
    p.add_argument("--tau", type=float, default=VerifyConfig.tau)
    p.add_argument("--lib", default=None, help="PSDL library file (sjd_pv mode)")
    p.add_argument("--greedy", action="store_true")

    p = sub.add_parser("bench", help="paired benchmark across decode modes")
    p.add_argument("--modes", default=None, help="comma-separated mode list")

    p = sub.add_parser("sweep-tau", help="neighborhood-threshold ablation")
    p.add_argument("--taus", type=lambda t: _comma_list(t, float), default="0.005,0.01,0.02,0.05")

    p = sub.add_parser("sweep-merges", help="merge-iteration ablation")
    p.add_argument("--merge-grid", type=lambda t: _comma_list(t, int), default="256,1024,2048")

    # a flag left out is absent from the namespace, so theory_check's default holds
    p = sub.add_parser(
        "theory-check", help="acceptance-rate oracle report", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--trials", type=non_negative_int)
    p.add_argument("--v-max", type=int)
    p.add_argument("--l-max", type=int)
    p.add_argument("--min-ineq-trials", dest="min_inequality_trials", type=non_negative_int)

    p = sub.add_parser("gen-model", help="write the config's model and corpus")
    p.add_argument("--model-out", required=True)
    p.add_argument("--corpus-out", default=None)

    return parser


def _experiment_config(args) -> harness.ExperimentConfig:
    mapping: dict = {}
    if args.config:
        mapping.update(harness.load_config_file(args.config))
    if args.seed is not None:
        mapping["seed"] = args.seed
    if args.out_dir is not None:
        mapping["out_dir"] = args.out_dir
    if getattr(args, "modes", None):
        mapping["modes"] = args.modes
    return harness.config_from_mapping(mapping)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (OSError, ValueError, NonTermination) as exc:
        # every typed error of the package but DegenerateResidual, an
        # arithmetic fault, is a ValueError or NonTermination
        print(f"phrasedec: error: {exc}", file=sys.stderr)
        return 1
    except DegenerateResidual as exc:
        # not bad input: the verifier rejected a draft where p == q
        print(f"phrasedec: internal error: DegenerateResidual: {exc}", file=sys.stderr)
        return 1


def _run(args) -> int:
    if args.command == "build-library":
        corpus = read_corpus(args.corpus)
        lib = build_library(corpus, args.merges, args.max_len)
        save_library(lib, args.library_out)
        print(
            f"library: {len(lib.rules)} rules, {len(lib.phrases)} phrases "
            f"-> {args.library_out}"
        )
        return 0

    if args.command == "decode":
        model = load_markov(args.model)
        lib = load_library(args.lib) if args.lib else None
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

    if args.command == "bench":
        cfg = _experiment_config(args)
        report = harness.run_benchmark(cfg)
        for mode, agg in report.per_mode.items():
            print(
                f"{mode}: mean NFE {agg.mean_nfe:.2f}, "
                f"{agg.mean_tokens_per_iteration:.2f} tokens/iteration, "
                f"acceleration {report.acceleration[mode]:.3f}x"
            )
        return 0

    if args.command == "sweep-tau":
        cfg = _experiment_config(args)
        for row in harness.run_tau_sweep(cfg, args.taus):
            print(
                f"tau={row['tau']}: mean NFE {row['mean_nfe']:.2f}, "
                f"phrase accept rate {row['phrase_accept_rate']:.3f}, "
                f"divergence {row['seq_divergence']:.4f}"
            )
        return 0

    if args.command == "sweep-merges":
        cfg = _experiment_config(args)
        for row in harness.run_merge_sweep(cfg, args.merge_grid):
            print(
                f"M={row['merges']}: library {row['library_size']}, "
                f"mean NFE {row['mean_nfe']:.2f}, "
                f"phrase hits/iteration {row['phrase_hit_rate']:.3f}"
            )
        return 0

    if args.command == "theory-check":
        given = ("trials", "v_max", "l_max", "min_inequality_trials", "seed")
        kwargs = {k: getattr(args, k) for k in given if getattr(args, k, None) is not None}
        report = harness.theory_check(**kwargs)
        text = json.dumps(report, indent=2)
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(args.out_dir, "theory_check.json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text + "\n")
            print(f"wrote {path}")
        else:
            print(text)
        return 0

    if args.command == "gen-model":
        # the model and corpus bench resolves for the same config
        model, corpus = harness._resolve_model_and_corpus(_experiment_config(args))
        save_markov(model, args.model_out)
        print(f"wrote {args.model_out}")
        if args.corpus_out:
            write_corpus(corpus, args.corpus_out)
            print(f"wrote {args.corpus_out}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
