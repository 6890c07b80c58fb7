"""Experiment harness: configuration, corpus and model I/O, benchmark and
ablation-sweep runners, and plot-data emission.

All runs are seed-total: every output artifact embeds the resolved config
including the seed, and modes inside one benchmark share identical per-decode
seeds so their metrics are directly comparable.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .core import TokenSequence, check_kinds, count_at_least, normalize_rows, plain, text_lines
from .decoder import DecodeMetrics, VerifyConfig, decode
from .models import (
    MarkovModel,
    ancestral_corpus,
    ancestral_sample,
    check_concentration,
    check_shape,
    context_count,
    exact_marginals,
    load_markov,
    markov_contexts,
    random_markov,
)
from .phrase_lib import PhraseLibrary, build_library, read_corpus
from . import theory

REPORT_VERSION = 1

# the most tokens a sampled corpus may hold (a model table's limit is
# models.TABLE_LIMIT)
GENERATOR_LIMIT = 2**26


class ConfigInvalid(ValueError):
    """Experiment configuration is inconsistent or references missing files."""


class CapacityExceeded(ConfigInvalid):
    """Requested phrases do not fit the vocabulary's transition contexts."""


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment's settings, checked whole when built; immutable after."""

    seed: int = 0
    # model source: an explicit PSDM file, the planted-phrase generator, or
    # a plain random Markov model (planted=False, no model_path)
    model_path: str | None = None
    corpus_path: str | None = None
    planted: bool = True
    order: int = 2
    vocab_size: int = 32
    concentration: float = 0.3
    phrase_count: int = 6
    phrase_len: int = 5
    planting_rate: float = 0.95
    corpus_sequences: int = 200
    corpus_seq_len: int = 256
    # decode settings
    modes: tuple[str, ...] = ("sjd", "sjd_pv")
    total_len: int = 256
    decodes: int = 50
    window_size: int = VerifyConfig.window_size
    tau: float = VerifyConfig.tau
    merges: int = 256
    max_phrase_len: int = VerifyConfig.max_phrase_len
    out_dir: str | None = None

    def __post_init__(self) -> None:
        # before any check reads them: each path (a str, Path or bytes) as the
        # str the report echoes and joins, modes as a tuple, so no list leaves
        # the config mutable, and every number as the plain value of its kind
        for name in ("model_path", "corpus_path", "out_dir"):
            value = getattr(self, name)
            if not isinstance(value, (str, bytes, os.PathLike, type(None))):
                raise ConfigInvalid(f"{name} must be a path, not {value!r}")
            object.__setattr__(self, name, value if value is None else os.fsdecode(value))
        if isinstance(self.modes, str) or not hasattr(self.modes, "__iter__"):
            raise ConfigInvalid(f"modes must be a sequence of mode names, not {self.modes!r}")
        object.__setattr__(self, "modes", tuple(self.modes))
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, plain(getattr(self, f.name), type(f.default)))
        try:
            self._check()
            check_kinds(self)
        except ConfigInvalid:
            raise
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from exc

    def verify_config(self, mode: str) -> VerifyConfig:
        """The decode settings of mode under this config."""
        return VerifyConfig(
            mode=mode, window_size=self.window_size, tau=self.tau, max_phrase_len=self.max_phrase_len
        )

    def _check(self) -> None:
        count_at_least(self.seed, 0, "seed")
        if not self.modes:
            raise ConfigInvalid("at least one decode mode is required")
        for i, mode in enumerate(self.modes):
            self.verify_config(mode)
            if mode in self.modes[:i]:
                raise ConfigInvalid(f"decode mode {mode!r} is repeated")
        for path in (self.model_path, self.corpus_path):
            if path is not None and not os.path.exists(path):
                raise ConfigInvalid(f"referenced file does not exist: {path}")
        count_at_least(self.decodes, 1, "decodes")
        count_at_least(self.total_len, 1, "total_len")
        count_at_least(self.merges, 0, "merges")
        if self.out_dir is not None:
            check_out_dir(self.out_dir)
        # the generator rules, checked only where a generator reads them;
        # planted_phrase_corpus checks its arguments through them too
        if self.model_path is None:
            check_shape(self.order, self.vocab_size)
            check_concentration(self.concentration)
            if self.planted:
                if self.order != 2:
                    raise ConfigInvalid(
                        "the planted model is order 2; order applies only with planted=false"
                    )
                count_at_least(self.phrase_len, 2, "phrase_len")
                if not (isinstance(self.planting_rate, float) and 0.0 < self.planting_rate <= 1.0):
                    raise ConfigInvalid("planting_rate must be in (0, 1]")
                count_at_least(self.phrase_count, 0, "phrase_count")
                needed = self.phrase_count * self.phrase_len
                if needed > self.vocab_size:
                    raise CapacityExceeded(
                        f"{needed} phrase tokens need disjoint blocks in a vocabulary of "
                        f"{self.vocab_size}"
                    )
        if self.corpus_path is None:
            count_at_least(self.corpus_sequences, 1, "corpus_sequences")
            count_at_least(self.corpus_seq_len, 1, "corpus_seq_len")
            if self.corpus_sequences * self.corpus_seq_len > GENERATOR_LIMIT:
                raise ConfigInvalid(
                    f"a corpus of {self.corpus_sequences} x {self.corpus_seq_len} tokens "
                    f"has more than {GENERATOR_LIMIT}"
                )


def load_config_file(path) -> dict[str, str]:
    """Parse a flat key=value config file; '#' lines are comments, and a key is set once.
    A file that is not UTF-8 raises ConfigInvalid."""
    entries: dict[str, tuple[int, str]] = {}
    for lineno, line in text_lines(path, ConfigInvalid):
        if "=" not in line:
            raise ConfigInvalid(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in entries:
            first = entries[key][0]
            raise ConfigInvalid(f"{path}:{lineno}: key {key!r} repeats line {first}")
        entries[key] = lineno, value
    return {key: value for key, (_, value) in entries.items()}


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise ValueError(text)


def _parse_tuple(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


# parser of a text config value, chosen by the type of its field's default;
# a field whose default is None keeps the text
_PARSERS = {bool: _parse_bool, int: int, float: float, tuple: _parse_tuple}


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    kwargs = {}
    for key, value in mapping.items():
        if key not in defaults:
            raise ConfigInvalid(f"unknown config key {key!r}")
        if value is None:
            continue
        parse = _PARSERS.get(type(defaults[key]))
        if parse is not None and isinstance(value, str):
            try:
                value = parse(value)
            except ValueError as exc:
                raise ConfigInvalid(f"bad value for {key!r}: {value!r}") from exc
        kwargs[key] = value
    return ExperimentConfig(**kwargs)


def planted_phrase_corpus(
    vocab_size: int,
    phrase_count: int,
    phrase_len: int,
    sequences: int,
    seq_len: int,
    planting_rate: float,
    rng: np.random.Generator,
    concentration: float = ExperimentConfig.concentration,
) -> tuple[list[TokenSequence], MarkovModel]:
    """Synthesize a corpus whose generating model deterministically continues
    planted multi-token phrases.

    The model is an order-2 Markov chain: whenever the most recent token is a
    non-final phrase token, the next phrase token follows with probability
    planting_rate and the rest of the mass is a context-specific Dirichlet
    row.  Phrases occupy disjoint token blocks, so continuation is
    unambiguous; the context-specific noise makes verifier and drafter rows
    differ mildly during decoding, which is the regime phrase verification
    exploits.  The corpus is ``sequences`` ancestral samples of the model,
    drawn from rng after the model, all in lockstep (``ancestral_corpus``).

    Every setting and both corpus sizes are checked, by the rules of
    ``ExperimentConfig``, before rng is drawn from: a bad one raises
    ConfigInvalid, and more phrase tokens than the vocabulary holds
    CapacityExceeded.
    """
    cfg = ExperimentConfig(
        vocab_size=vocab_size,
        concentration=concentration,
        phrase_count=phrase_count,
        phrase_len=phrase_len,
        planting_rate=planting_rate,
        corpus_sequences=sequences,
        corpus_seq_len=seq_len,
    )
    model = _planted_model(cfg, rng)
    return ancestral_corpus(model, sequences, seq_len, rng), model


def _planted_model(cfg: ExperimentConfig, rng: np.random.Generator) -> MarkovModel:
    """The planted generator's model (see ``planted_phrase_corpus``) for a
    planted config."""
    vocab_size, count, length = cfg.vocab_size, cfg.phrase_count, cfg.phrase_len
    blocks = rng.permutation(vocab_size)[: count * length].reshape(count, length)
    # successor[a + 1] is the phrase token that follows token a, or -1
    successor = np.full(vocab_size + 1, -1)
    successor[blocks[:, :-1] + 1] = blocks[:, 1:]

    order = 2
    # one noise row per context, in markov_contexts order; a context's last
    # token (PAD is -1) picks its successor
    alpha = np.full(vocab_size, cfg.concentration)
    rows = rng.dirichlet(alpha, size=context_count(order, vocab_size))
    last = np.array([ctx[-1] for ctx in markov_contexts(order, vocab_size)])
    nxt = successor[last + 1]
    planted = np.flatnonzero(nxt >= 0)
    rows[planted] *= 1.0 - cfg.planting_rate
    rows[planted, nxt[planted]] += cfg.planting_rate
    return MarkovModel(order, vocab_size, normalize_rows(rows))


def _resolve_model_and_corpus(
    cfg: ExperimentConfig,
) -> tuple[MarkovModel, list[TokenSequence]]:
    """The config's model (its file, the planted generator's or a random
    one) and the corpus its library is mined from (the corpus file, else an
    ancestral sample of the model, which for the planted model is the
    generator's own corpus).  A corpus file means no corpus is sampled."""
    rng = np.random.default_rng([cfg.seed, 0])
    if cfg.model_path is not None:
        model = load_markov(cfg.model_path)
    elif cfg.planted:
        model = _planted_model(cfg, rng)
    else:
        model = random_markov(cfg.order, cfg.vocab_size, cfg.concentration, rng)
    if cfg.corpus_path is not None:
        return model, read_corpus(cfg.corpus_path)
    return model, ancestral_corpus(model, cfg.corpus_sequences, cfg.corpus_seq_len, rng)


@dataclass
class ModeAggregate:
    mode: str
    runs: int
    mean_nfe: float
    mean_tokens_per_iteration: float
    token_accept_rate: float
    phrase_attempts: int
    phrase_accepts: int
    phrase_accept_rate: float
    wall_clock_s: float
    rows: list[dict] = field(default_factory=list)


@dataclass
class BenchmarkReport:
    """A benchmark's aggregates.  The last three fields set wall clock
    against ``ancestral_sample`` on the same model: its µs per token, each
    mode's µs per token, and each mode's break-even verifier latency, the
    per-call cost at which the NFE the mode saves pays for its overhead:
    (µs per token - ancestral µs per token) / (1 - NFE per token).  That is
    None where NFE per token is >= 1, and negative where the mode is
    cheaper than ancestral sampling at any verifier latency."""

    report_version: int
    config: ExperimentConfig
    per_mode: dict[str, ModeAggregate]
    acceleration: dict[str, float]
    ancestral_us_per_token: float
    us_per_token: dict[str, float]
    break_even_verifier_us: dict[str, float | None]


def _rate(x: float, y: float) -> float:
    """x / y, or 0.0 where y is 0."""
    return x / y if y else 0.0


def _run_mode(
    model, lib: PhraseLibrary | None, cfg: ExperimentConfig, mode: str
) -> tuple[ModeAggregate, list[TokenSequence]]:
    vcfg = cfg.verify_config(mode)
    rows: list[dict] = []
    outputs: list[TokenSequence] = []
    totals = DecodeMetrics()
    start = time.perf_counter()
    for run in range(cfg.decodes):
        rng = np.random.default_rng([cfg.seed, 1, run])
        seq, metrics = decode(model, lib, vcfg, cfg.total_len, rng)
        outputs.append(seq)
        totals.merge(metrics)
        # the counters follow; nfe keeps its place ahead of iterations
        row = {"mode": mode, "run": run, "nfe": metrics.nfe, "iterations": metrics.iterations}
        rows.append(row | metrics.counts())
    wall = time.perf_counter() - start
    agg = ModeAggregate(
        mode=mode,
        runs=cfg.decodes,
        mean_nfe=totals.nfe / cfg.decodes,
        mean_tokens_per_iteration=_rate(totals.tokens_emitted, totals.nfe),
        token_accept_rate=_rate(totals.token_accepts, totals.token_accepts + totals.token_rejects),
        phrase_attempts=totals.phrase_attempts,
        phrase_accepts=totals.phrase_accepts,
        phrase_accept_rate=_rate(totals.phrase_accepts, totals.phrase_attempts),
        wall_clock_s=wall,
        rows=rows,
    )
    return agg, outputs


def _run_grid(
    grid: list[ExperimentConfig], modes: tuple[str, ...]
) -> tuple[MarkovModel, list[tuple]]:
    """Run every mode at every grid point, over the model and corpus of the
    grid's first point; the points may differ only in tau and merges.

    Returns the model and, per point, ``(point, library, runs)``, where runs
    lists ``_run_mode``'s ``(aggregate, outputs)`` in mode order.  Only when
    sjd_pv runs is a library built, once per distinct merge budget; it is
    passed to every mode (``decode`` reads it only in sjd_pv).
    """
    model, corpus = _resolve_model_and_corpus(grid[0])
    libraries: dict[int, PhraseLibrary] = {}
    points = []
    for point in grid:
        if "sjd_pv" in modes and point.merges not in libraries:
            libraries[point.merges] = build_library(
                corpus, point.merges, point.max_phrase_len, model.vocab_size
            )
        lib = libraries.get(point.merges)
        points.append((point, lib, [_run_mode(model, lib, point, mode) for mode in modes]))
    return model, points


def file_in_the_way(path: str) -> str:
    """The nearest of path and its ancestors that exists, if it is not a
    directory, so that nothing can be created at path; else ''."""
    head = path
    while head and not os.path.lexists(head):
        head = os.path.dirname(head)
    return head if head and not os.path.isdir(head) else ""


def check_out_dir(out_dir: str) -> None:
    """Refuse an empty output directory, or one that names a file or lies
    under one, which os.makedirs would refuse only when the first report is
    written; nothing is created."""
    if out_dir == "":
        raise ConfigInvalid("out_dir must not be empty")
    head = file_in_the_way(out_dir)
    if head:
        where = "exists and is" if head == out_dir else f"lies under {head!r}, which is"
        raise ConfigInvalid(f"out_dir {out_dir!r} {where} not a directory")


def _write_csv(cfg: ExperimentConfig, name: str, rows: list[dict]) -> list[dict]:
    """Write rows to the CSV file name in cfg.out_dir, if one is set; return rows."""
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        emit_plot_data(rows, os.path.join(cfg.out_dir, name))
    return rows


def write_json(report: dict, out_dir: str, name: str) -> str:
    """Write report, indented JSON and a newline, to the file name in out_dir;
    return its path.  A report JSON cannot hold raises before anything is
    created."""
    text = json.dumps(report, indent=2) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def run_benchmark(cfg: ExperimentConfig) -> BenchmarkReport:
    """Matched-seed decodes for each configured mode over one target model,
    then ``decodes`` timed ancestral samples of it on the streams
    ``[seed, 2, run]``, disjoint from the decodes' ``[seed, 1, run]``."""
    model, [(_, _, runs)] = _run_grid([cfg], cfg.modes)
    per_mode = {agg.mode: agg for agg, _ in runs}
    base_nfe = per_mode[cfg.modes[0]].mean_nfe
    acceleration = {mode: base_nfe / agg.mean_nfe for mode, agg in per_mode.items()}
    start = time.perf_counter()
    for run in range(cfg.decodes):
        ancestral_sample(model, cfg.total_len, np.random.default_rng([cfg.seed, 2, run]))
    tokens = cfg.decodes * cfg.total_len
    ancestral_us = 1e6 * (time.perf_counter() - start) / tokens
    us_per_token = {mode: 1e6 * agg.wall_clock_s / tokens for mode, agg in per_mode.items()}
    break_even: dict[str, float | None] = {}
    for mode, agg in per_mode.items():
        saved = 1.0 - agg.mean_nfe / cfg.total_len
        break_even[mode] = (us_per_token[mode] - ancestral_us) / saved if saved > 0.0 else None
    report = BenchmarkReport(
        REPORT_VERSION, cfg, per_mode, acceleration, ancestral_us, us_per_token, break_even
    )
    _write_csv(cfg, "report.csv", [row for agg in per_mode.values() for row in agg.rows])
    if cfg.out_dir is not None:
        write_json(dataclasses.asdict(report), cfg.out_dir, "report.json")
    return report


def _empirical_marginals(seqs, vocab_size: int) -> np.ndarray:
    """The ``(L, V)`` token frequencies, per position, of a set of
    equal-length sequences; another set raises ValueError."""
    if len({len(seq) for seq in seqs}) > 1:
        raise ValueError("the sequences of a set must share a common length")
    a = np.asarray(seqs)
    return np.array([np.bincount(col, minlength=vocab_size) for col in a.T]) / a.shape[0]


def _row_tv(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Total-variation distance between matching rows of two ``(L, V)`` arrays."""
    return 0.5 * np.abs(p - q).sum(axis=1)


def marginal_tv(seqs_a, seqs_b, vocab_size: int) -> np.ndarray:
    """Per-position total-variation distance between two sets of equal-length
    sequences' empirical marginals."""
    a = _empirical_marginals(seqs_a, vocab_size)
    b = _empirical_marginals(seqs_b, vocab_size)
    if a.shape != b.shape:
        raise ValueError("sequence sets must share a common length")
    return _row_tv(a, b)


def run_tau_sweep(cfg: ExperimentConfig, taus) -> list[dict]:
    """One phrase-verification benchmark row per neighborhood threshold,
    with fixed seeds and a shared model, corpus, and library across rows.

    ``seq_divergence`` is the mean, over positions, of the total-variation
    distance between the decodes' empirical marginals and the model's exact
    marginals (``exact_marginals``); no reference sequence is drawn."""
    grid = [dataclasses.replace(cfg, tau=tau) for tau in taus]
    if not grid:
        raise ConfigInvalid("tau grid must be non-empty")
    if any(b.tau <= a.tau for a, b in zip(grid, grid[1:])):
        raise ConfigInvalid("tau grid must be strictly ascending")
    model, points = _run_grid(grid, ("sjd_pv",))
    exact = exact_marginals(model, cfg.total_len)
    rows = [
        {
            "tau": point.tau,
            "mean_nfe": agg.mean_nfe,
            "phrase_accept_rate": agg.phrase_accept_rate,
            "seq_divergence": float(
                _row_tv(_empirical_marginals(outputs, model.vocab_size), exact).mean()
            ),
        }
        for point, _, [(agg, outputs)] in points
    ]
    return _write_csv(cfg, "tau_sweep.csv", rows)


def run_merge_sweep(cfg: ExperimentConfig, merge_grid) -> list[dict]:
    """One phrase-verification benchmark row per merge budget, with fixed
    seeds and a shared model and corpus across rows."""
    merge_grid = list(merge_grid)
    if not merge_grid:
        raise ConfigInvalid("merge grid must be non-empty")
    grid = [dataclasses.replace(cfg, merges=merges) for merges in merge_grid]
    _, points = _run_grid(grid, ("sjd_pv",))
    rows = [
        {
            "merges": point.merges,
            "library_size": len(lib.phrases),
            "mean_nfe": agg.mean_nfe,
            "phrase_hit_rate": _rate(agg.phrase_accepts, agg.mean_nfe * cfg.decodes),
        }
        for point, lib, [(agg, _)] in points
    ]
    return _write_csv(cfg, "merge_sweep.csv", rows)


def emit_plot_data(rows, out_path) -> None:
    """Write a list of homogeneous dicts as UTF-8, LF-terminated CSV."""
    rows = list(rows)
    if not rows:
        raise ValueError("nothing to emit: input is empty")
    with open(out_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def theory_check(
    trials: int = 1000,
    v_max: int = 8,
    l_max: int = 3,
    min_inequality_trials: int = 10**5,
    seed: int = 0,
) -> dict:
    """JSON-ready report over the acceptance-rate oracles.

    A bad trial count or seed raises ValueError before any trial runs."""
    seed = count_at_least(seed, 0, "seed")
    min_inequality_trials = count_at_least(min_inequality_trials, 0, "min_inequality_trials")
    rng = np.random.default_rng([seed, 3])
    summary = theory.proposition1_sweep(trials, v_max, l_max, rng)
    counts, edges = np.histogram(summary.gaps, bins=20)

    failures = 0
    for _ in range(min_inequality_trials):
        length = int(rng.integers(1, 9))
        ratios = 10.0 ** rng.uniform(-6.0, 6.0, size=length)
        if not theory.min_inequality_check(ratios).holds:
            failures += 1

    return {
        "trials": summary.trials,
        "violations": summary.violations,
        "gap_histogram": {
            "bin_edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts],
        },
        "min_inequality_trials": {
            "trials": min_inequality_trials,
            "failures": failures,
        },
    }
