"""phrasedec benchmark: calibrated per-token cost and NFE of every decode mode.

    python3 perfbench/run.py --workload planted --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Run from the root of a source checkout; the engine is imported from ./src.
Load is a closed loop in one process and one thread: one decode or set-up at
a time, each starting when the last ends.  Each round decodes one sequence
in every mode.  Every timed operation runs inside ``Clock.measure``
(``clock.py``), which interleaves the frozen reference loop
(``reference.py``) around and inside it, so a token cost is a decode's time
per committed token in reference-loop steps, and machine-speed drift moves
the decode and the loop alike.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
decodes untraced and traced in alternation, wraps the public functions of
each layer (``layertrace.py``), prints the per-layer metrics and writes the
spans to ``.perfbench-out/``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from clock import Clock  # noqa: E402
from layertrace import LAYERS, Tracer  # noqa: E402

MODES = ("sjd", "sjd_pv", "jacobi_greedy", "ancestral")
# benchmark mode -> (decoder mode, greedy)
DECODER_MODES = {"sjd": ("sjd", False), "sjd_pv": ("sjd_pv", False), "jacobi_greedy": ("jacobi", True)}
WINDOW = 16
MERGES = 256
RUN_SECONDS = 20
SETUPS = 5
TAIL_PCT = 90
HISTOGRAM_BINS = (("1", 1, 1), ("2", 2, 2), ("3", 3, 3), ("4", 4, 4), ("5-8", 5, 8), ("9-16", 9, 16))
# every workload uses the model, corpus and library of the harness's default
# seed, the ones `phrasedec bench` runs; --seed picks the per-decode seeds.
# Models drawn per seed differ in NFE and cost by more than the bounds below.
MODEL_SEED = 0
# setup_s is the set-up's cost in reference steps times this step time (a
# round figure near the loop's typical 8-9 µs step on the 2-CPU shared host
# the baseline was recorded on), so that it does not follow the host's
# speed phases
NOMINAL_STEP_S = 10e-6
WARMUP_LEN = 64
WARMUP_RUN = 999_999
# stop starting new work after this many seconds, so a run ends well within 180 s
DEADLINE_S = 100.0

WORKLOADS = {
    "planted": {
        "why": "the paper's planted-phrase benchmark at its defaults: 256-token decodes "
        "with short prefixes, where sjd_pv commits planted phrases",
        "length": 256,
        # NFE and the frequency check use the first 50 decodes, as `phrasedec bench` does
        "fixed_rounds": 50,
        "trace_rounds": 24,
        "ancestral_per_round": 1,
    },
    "long": {
        "why": "4096-token decodes of a random order-2 model: long prefixes make window "
        "evaluation dominate and per-token cost grow with length",
        "length": 4096,
        "fixed_rounds": 5,
        "trace_rounds": 2,
        # an ancestral decode is a fiftieth of the round here; more of them
        # steady its median, which five per run left at a 7.5% spread
        "ancestral_per_round": 4,
    },
}

# name, unit, better, bound
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    *(
        (f"token_cost.{m}.{stat}", "ref_steps", "lower", bound)
        for m in MODES
        for stat, bound in (("p50", 0.2), ("tail", 0.25))
    ),
    *((f"nfe_per_token.{m}", "nfe/token", "lower", 0.1) for m in DECODER_MODES),
    ("library_build_cost", "ref_steps", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("success_rate", "ratio", "higher", 0.01),
]

_DECODE_LAYER_METRICS = [
    ("models.batched_conditionals.calls", "count", "lower"),
    ("models.batched_conditionals.self_share", "ratio", "lower"),
    ("models.batched_conditionals.cost_per_call", "ref_steps", "lower"),
    ("decoder.verify_window.self_share", "ratio", "lower"),
    ("decoder.token_accept_rate", "ratio", "higher"),
    *(
        (f"decoder.tokens_per_iteration.n{b}", "ratio", "higher")
        for b, _, _ in HISTOGRAM_BINS
    ),
]
_SAMPLED_LAYER_METRICS = [
    ("core.sample.calls_per_token", "count", "lower"),
    ("core.sample.self_share", "ratio", "lower"),
    ("decoder.verify_token.calls", "count", "lower"),
    ("decoder.verify_token.self_share", "ratio", "lower"),
]
_PHRASE_LAYER_METRICS = [
    ("decoder.build_neighborhood.calls", "count", "lower"),
    ("decoder.build_neighborhood.self_share", "ratio", "lower"),
    ("phrase_lib.match_prefix.calls", "count", "lower"),
    ("phrase_lib.match_prefix.candidates_per_call", "count", "lower"),
    ("decoder.phrase_attempts", "count", "higher"),
    ("decoder.phrase_accepts", "count", "higher"),
    ("decoder.phrase_accept_rate", "ratio", "higher"),
    ("decoder.phrase_token_share", "ratio", "higher"),
    ("decoder.phrase_differing_share", "ratio", "lower"),
]
PER_LAYER = [
    *((f"sjd.{n}", u, b) for n, u, b in _DECODE_LAYER_METRICS + _SAMPLED_LAYER_METRICS),
    *(
        (f"sjd_pv.{n}", u, b)
        for n, u, b in _DECODE_LAYER_METRICS + _SAMPLED_LAYER_METRICS + _PHRASE_LAYER_METRICS
    ),
    *((f"jacobi_greedy.{n}", u, b) for n, u, b in _DECODE_LAYER_METRICS),
    ("ancestral.models.ancestral_sample.cost_per_token", "ref_steps", "lower"),
    ("ancestral.core.sample.calls_per_token", "count", "lower"),
    ("ancestral.core.sample.self_share", "ratio", "lower"),
    ("setup.harness.planted_phrase_corpus.cost", "ref_steps", "lower"),
    ("setup.phrase_lib.build_library.cost", "ref_steps", "lower"),
    ("setup.phrase_lib.build_library.merges_done", "count", "higher"),
    ("setup.phrase_lib.build_library.cost_per_merge", "ref_steps", "lower"),
    ("setup.phrase_lib.build_library.self_share", "ratio", "lower"),
    ("setup.phrase_lib.save_library.cost", "ref_steps", "lower"),
    ("setup.phrase_lib.load_library.cost", "ref_steps", "lower"),
    ("trace_overhead", "ratio", "lower"),
]


def write_spec() -> None:
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as f:
        json.dump(spec, f, indent=2)
        f.write("\n")


def import_engine() -> SimpleNamespace:
    """Import phrasedec from ./src of the checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "phrasedec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no engine source at {src / 'phrasedec'}; run from a source checkout")
    sys.path.insert(0, str(src))
    import phrasedec
    from phrasedec import decoder, harness, models, phrase_lib

    if src not in Path(phrasedec.__file__).resolve().parents:
        sys.exit(f"perfbench: imported phrasedec from {phrasedec.__file__}, not {src}")
    return SimpleNamespace(decoder=decoder, harness=harness, models=models, phrase_lib=phrase_lib)


@dataclass
class Setup:
    model: object
    lib: object
    seconds: float  # calibrated: reference steps x NOMINAL_STEP_S
    wall_seconds: float
    build_cost: float  # reference steps
    step: float  # seconds per reference step while it ran
    merges_done: int
    error: str | None


@dataclass
class ModeStats:
    costs: list[float] = field(default_factory=list)
    us_per_token: list[float] = field(default_factory=list)
    steps: list[float] = field(default_factory=list)
    nfe: int = 0
    nfe_tokens: int = 0
    outputs: list = field(default_factory=list)
    metrics: list = field(default_factory=list)


class Bench:
    def __init__(self, engine, workload: str, seed: int, workdir: Path, clock: Clock) -> None:
        self.e = engine
        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.length = self.spec["length"]
        self.cfg = engine.harness.ExperimentConfig(seed=MODEL_SEED, planted=workload == "planted")
        self.lib_path = workdir / "library.psdl"
        self.clock = clock
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.first_library: bytes | None = None
        self.oracle = None

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def _span(self, scope: str):
        return nullcontext() if self.tracer is None else self.tracer.root(scope)

    @contextmanager
    def traced(self, tracer: Tracer):
        """Trace every call made inside the block."""
        with tracer.installed():
            self.tracer = tracer
            try:
                yield
            finally:
                self.tracer = None

    def make_inputs(self):
        cfg, models = self.cfg, self.e.models
        rng = np.random.default_rng([cfg.seed, 0])
        if self.workload == "planted":
            return self.e.harness.planted_phrase_corpus(
                cfg.vocab_size, cfg.phrase_count, cfg.phrase_len, cfg.corpus_sequences,
                cfg.corpus_seq_len, cfg.planting_rate, rng, concentration=cfg.concentration,
            )
        model = models.random_markov(cfg.order, cfg.vocab_size, cfg.concentration, rng)
        corpus = [
            models.ancestral_sample(model, cfg.corpus_seq_len, rng)
            for _ in range(cfg.corpus_sequences)
        ]
        return corpus, model

    def setup(self) -> Setup:
        """Model, corpus and library, from nothing to ready to decode.

        The library takes the path a user's takes: built, saved, loaded back.
        """
        lib_mod = self.e.phrase_lib
        self.attempted += 1
        try:
            with self.clock.measure() as inputs, self._span("setup"):
                corpus, model = self.make_inputs()
            with self.clock.measure() as build, self._span("setup"):
                built = lib_mod.build_library(
                    corpus, MERGES, self.cfg.max_phrase_len, vocab_size=model.vocab_size
                )
            with self.clock.measure() as io, self._span("setup"):
                lib_mod.save_library(built, self.lib_path)
                loaded = lib_mod.load_library(self.lib_path)
        except Exception:
            self.fail("setup raised:\n" + traceback.format_exc())
            return Setup(None, None, 0.0, 0.0, 0.0, 0.0, 0, "raised")
        saved = self.lib_path.read_bytes()
        if self.first_library is None:
            self.first_library = saved
        error = checks.check_library(built, loaded, saved, self.first_library)
        if error:
            self.fail(f"setup: {error}")
        parts = (inputs, build, io)
        return Setup(
            model, loaded,
            seconds=sum(t.cost for t in parts) * NOMINAL_STEP_S,
            wall_seconds=sum(t.seconds for t in parts),
            build_cost=build.cost,
            step=build.step,
            merges_done=len(built.rules),
            error=error,
        )

    def decode(self, mode: str, model, lib, run: int, length: int):
        """One timed decode; returns (tokens, DecodeMetrics or None, Timing)."""
        if mode == "ancestral":
            # an independent stream, as the harness's ancestral reference uses
            rng = np.random.default_rng([self.seed, 2, run])
            with self.clock.measure() as timing, self._span(mode):
                seq = self.e.models.ancestral_sample(model, length, rng)
            return seq, None, timing
        dmode, greedy = DECODER_MODES[mode]
        vcfg = self.e.decoder.VerifyConfig(
            mode=dmode, window_size=WINDOW, tau=self.cfg.tau,
            max_phrase_len=self.cfg.max_phrase_len, greedy=greedy,
        )
        rng = np.random.default_rng([self.seed, 1, run])
        with self.clock.measure() as timing, self._span(mode):
            seq, metrics = self.e.decoder.decode(
                model, lib if mode == "sjd_pv" else None, vcfg, length, rng
            )
        return seq, metrics, timing

    def checked_decode(self, mode: str, setup: Setup, run: int):
        """Decode and check one sequence; returns (tokens, metrics, Timing) or None."""
        self.attempted += 1
        try:
            seq, metrics, timing = self.decode(mode, setup.model, setup.lib, run, self.length)
        except Exception:
            self.fail(f"{mode} run {run} raised:\n" + traceback.format_exc())
            return None
        per_iteration = None if metrics is None else metrics.tokens_per_iteration
        error = checks.check_sequence(seq, self.length, setup.model.vocab_size, per_iteration)
        if error is None and mode == "jacobi_greedy":
            error = checks.check_greedy(seq, self.oracle)
        if error:
            self.fail(f"{mode} run {run}: {error}")
            return None
        return seq, metrics, timing

    def prepare(self) -> Setup:
        """Set up, then warm every decode path up."""
        setup = self.setup()
        if setup.error is None:
            self.oracle = checks.greedy_oracle(setup.model, self.length)
            try:
                for mode in MODES:
                    self.decode(mode, setup.model, setup.lib, WARMUP_RUN, WARMUP_LEN)
            except Exception:
                self.fail("warm-up decode raised:\n" + traceback.format_exc())
        return setup

    def rounds(self, setup: Setup, stats: dict[str, ModeStats], run: int,
               until_run: int, seconds: float, deadline: float) -> int:
        """Closed loop of rounds from round number `run`, each decoding one
        sequence in every mode (``ancestral_per_round`` ancestral ones), for
        at least `seconds` and until round `until_run`.  Rounds numbered
        below ``fixed_rounds`` keep their outputs and NFE.  Returns the next
        round number."""
        start = time.perf_counter()
        ancestral = self.spec["ancestral_per_round"]
        while True:
            for mode, index in [(m, run) for m in DECODER_MODES] + [
                ("ancestral", run * ancestral + k) for k in range(ancestral)
            ]:
                out = self.checked_decode(mode, setup, index)
                if out is None:
                    continue
                seq, metrics, timing = out
                s = stats[mode]
                s.costs.append(timing.cost / self.length)
                s.us_per_token.append(timing.seconds / self.length * 1e6)
                s.steps.append(timing.step)
                if run < self.spec["fixed_rounds"]:
                    s.outputs.append(seq)
                    if metrics is not None:
                        s.metrics.append(metrics)
                        s.nfe += metrics.nfe
                        s.nfe_tokens += metrics.tokens_emitted
            run += 1
            now = time.perf_counter()
            if now > deadline or (run >= until_run and now - start >= seconds):
                return run

    def frequency_check(self, stats: dict[str, ModeStats], vocab_size: int) -> dict[str, float]:
        """sjd's pooled token frequencies against the ancestral reference; the
        total-variation distances of sjd and sjd_pv are reported alongside."""
        reference_seqs = stats["ancestral"].outputs
        if not reference_seqs or not stats["sjd"].outputs:
            self.fail("frequency check: no decodes to compare")
            return {}
        error = checks.check_frequencies(stats["sjd"].outputs, reference_seqs, vocab_size)
        if error:
            self.failures.extend(f"sjd run {i}: {error}" for i in range(len(stats["sjd"].outputs)))
        return {
            f"tv_vs_ancestral.{m}": checks.total_variation(stats[m].outputs, reference_seqs, vocab_size)
            for m in ("sjd", "sjd_pv")
            if stats[m].outputs
        }


def middle_mean(values: list[float]) -> float:
    """Mean without the lowest and the highest value.  Of five builds it is
    steadier than the median: in ten-run trials of three builds each, the
    median spread by 10% between runs."""
    inner = sorted(values)[1:-1] or values
    return sum(inner) / len(inner)


def tail_label(n: int) -> str:
    beyond = n * (100 - TAIL_PCT) / 100
    return f"p{TAIL_PCT} of {n} decodes ({beyond:.0f} beyond it)"


def end_to_end(bench: Bench, args, deadline: float):
    """Set-ups spread over the run, a third of the rounds after each: the
    host's speed phases last seconds, so set-ups done back to back would all
    land in one phase."""
    first = bench.prepare()
    setups = [first]
    stats = {m: ModeStats() for m in MODES}
    info: dict[str, object] = {}
    if first.error is None:
        run = 0
        for i in range(SETUPS):
            if i:
                setups.append(bench.setup())
            until = bench.spec["fixed_rounds"] if i == SETUPS - 1 else 0
            run = bench.rounds(first, stats, run, until, args.seconds / SETUPS, deadline)
        info.update(bench.frequency_check(stats, first.model.vocab_size))
    good = [s for s in setups if s.error is None]
    nan = float("nan")
    metrics = {
        "setup_s": statistics.median(s.seconds for s in good) if good else nan,
        "library_build_cost": middle_mean([s.build_cost for s in good]) if good else nan,
    }
    info["setup_wall_s"] = statistics.median(s.wall_seconds for s in good) if good else nan
    for mode in MODES:
        costs = stats[mode].costs or [nan]
        metrics[f"token_cost.{mode}.p50"] = float(np.median(costs))
        metrics[f"token_cost.{mode}.tail"] = float(np.percentile(costs, TAIL_PCT))
        info[f"token_cost.{mode}.tail_is"] = tail_label(len(stats[mode].costs))
        info[f"us_per_token.{mode}.p50"] = float(np.median(stats[mode].us_per_token or [nan]))
    steps = [step for s in stats.values() for step in s.steps]
    info["reference_step_us.p50"] = float(np.median(steps)) * 1e6 if steps else nan
    for mode in DECODER_MODES:
        s = stats[mode]
        metrics[f"nfe_per_token.{mode}"] = s.nfe / s.nfe_tokens if s.nfe_tokens else nan
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["success_rate"] = 1 - min(len(bench.failures), bench.attempted) / bench.attempted

    # derived from the numbers above; printed, not gated
    for mode in DECODER_MODES:
        info[f"speedup_vs_ancestral.{mode}"] = (
            metrics["token_cost.ancestral.p50"] / metrics[f"token_cost.{mode}.p50"]
        )
    sjd, pv = stats["sjd"], stats["sjd_pv"]
    if sjd.metrics and pv.metrics:
        # per decode, over the same decodes whose NFE is reported
        us = {m: np.mean(stats[m].us_per_token[: len(stats[m].metrics)]) * bench.length for m in ("sjd", "sjd_pv")}
        nfe_gap = sjd.nfe / len(sjd.metrics) - pv.nfe / len(pv.metrics)
        info["nfe_saved_per_decode"] = nfe_gap
        info["break_even_verifier_us"] = (us["sjd_pv"] - us["sjd"]) / nfe_gap if nfe_gap > 0 else nan
    return metrics, info


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(bench: Bench, args, deadline: float):
    """Untraced and traced rounds in alternation, on the same per-decode seeds."""
    tracer = Tracer()
    setup = bench.prepare()
    info: dict[str, object] = {}
    metrics = {n: 0.0 for n, _, _ in PER_LAYER}
    if setup.error is not None:
        return metrics, info
    with bench.traced(tracer):
        traced_setup = bench.setup()

    plain = {m: ModeStats() for m in MODES}
    traced = {m: ModeStats() for m in MODES}
    for run in range(bench.spec["trace_rounds"]):
        if time.perf_counter() > deadline:
            break
        bench.rounds(setup, plain, run, run + 1, 0.0, deadline)
        with bench.traced(tracer):
            bench.rounds(setup, traced, run, run + 1, 0.0, deadline)
    info.update(bench.frequency_check(plain, setup.model.vocab_size))
    untraced = sum(sum(s.costs) for s in plain.values())
    metrics["trace_overhead"] = _share(sum(sum(s.costs) for s in traced.values()), untraced) - 1

    summary = tracer.summary()
    for scope, layers in summary.items():
        total = layers.get("root", {}).get("total_s", 0.0)
        if scope == "setup":
            step, tokens = traced_setup.step, 0
        else:
            step = float(np.median(traced[scope].steps or [np.nan]))
            tokens = len(traced[scope].costs) * bench.length
        for layer, rec in layers.items():
            key = f"{scope}.{layer}"
            values = {
                f"{key}.calls": rec["calls"],
                f"{key}.self_share": _share(rec["self_s"], total),
                f"{key}.calls_per_token": _share(rec["calls"], tokens),
                f"{key}.cost_per_call": _share(rec["total_s"], rec["calls"]) / step,
                f"{key}.cost_per_token": _share(rec["total_s"], tokens) / step,
                f"{key}.cost": rec["total_s"] / step,
            }
            for name, value in values.items():
                if name in metrics:
                    metrics[name] = float(value)
        info[f"self_share_ranking.{scope}"] = [
            (layer, round(_share(rec["self_s"], total), 4))
            for layer, rec in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
        ]

    for mode in DECODER_MODES:
        runs = traced[mode].metrics
        accepts = sum(m.token_accepts for m in runs)
        metrics[f"{mode}.decoder.token_accept_rate"] = _share(
            accepts, accepts + sum(m.token_rejects for m in runs)
        )
        per_iter = np.concatenate([m.tokens_per_iteration for m in runs]) if runs else np.zeros(0)
        for name, lo, hi in HISTOGRAM_BINS:
            inside = np.count_nonzero((per_iter >= lo) & (per_iter <= hi))
            metrics[f"{mode}.decoder.tokens_per_iteration.n{name}"] = _share(inside, per_iter.size)

    pv_runs, watch = traced["sjd_pv"].metrics, tracer.watch
    attempts = sum(m.phrase_attempts for m in pv_runs)
    accepts = sum(m.phrase_accepts for m in pv_runs)
    metrics["sjd_pv.decoder.phrase_attempts"] = attempts
    metrics["sjd_pv.decoder.phrase_accepts"] = accepts
    metrics["sjd_pv.decoder.phrase_accept_rate"] = _share(accepts, attempts)
    metrics["sjd_pv.phrase_lib.match_prefix.candidates_per_call"] = _share(
        watch.candidates, metrics["sjd_pv.phrase_lib.match_prefix.calls"]
    )
    metrics["sjd_pv.decoder.phrase_token_share"] = _share(
        watch.accepted_tokens, len(pv_runs) * bench.length
    )
    metrics["sjd_pv.decoder.phrase_differing_share"] = _share(watch.differing, watch.accepted)
    if watch.broken or watch.accepted != accepts:
        info["phrase_watch"] = "unavailable: the decoder's calls no longer match the reconstruction"
    metrics["setup.phrase_lib.build_library.merges_done"] = traced_setup.merges_done
    metrics["setup.phrase_lib.build_library.cost_per_merge"] = _share(
        metrics["setup.phrase_lib.build_library.cost"], traced_setup.merges_done
    )

    called = {layer for layers in summary.values() for layer in layers}
    info["absent_layers"] = [f"{m}.{f}" for m, f in LAYERS if f"{m}.{f}" not in called]
    info["trace_rounds"] = len(traced["sjd"].costs)
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{bench.workload}-seed{bench.seed}.npz"
    tracer.save(trace_file)
    info["trace_file"] = str(trace_file.relative_to(ROOT))
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    process_start = time.perf_counter()
    engine = import_engine()
    deadline = process_start + DEADLINE_S
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        bench = Bench(engine, args.workload, args.seed, Path(tmp), Clock(probes=not args.trace))
        measure = per_layer if args.trace else end_to_end
        metrics, info = measure(bench, args, deadline)

    units = {n: u for n, u, *_ in (END_TO_END if not args.trace else PER_LAYER)}
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"python={platform.python_version()} numpy={np.__version__} nproc={os.cpu_count()}")
    for name, value in metrics.items():
        print(f"  {name:<58} {value:>14.6g} {units[name]}")
    for name, value in info.items():
        print(f"  {name}: {value}")
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = min(len(bench.failures), bench.attempted)
    result = {
        "correct": not bench.failures and all(np.isfinite(v) for v in metrics.values()),
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
