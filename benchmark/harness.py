"""Workloads of the invcount benchmark and the timed and traced runs over them.

Every input is a ``target_inversions`` instance, so the true count ``k*``
is known exactly and every call's result can be checked.  A run builds
one instance from the workload seed and calls the public API on it in a
closed loop (the next call starts when the previous one returns) until
the run's seconds are used up.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import invcount
from invcount import instances
from invcount.iomodel import EmParams

from tracer import LAYER_METRICS, ROOT, VARYING, Patches, TallyLog, Tracer

#: External-memory parameters of the count workloads.
COUNT_PARAMS = EmParams(memory_words=1024, block_words=32)

#: Setups per timed run; setup_s reports their median.
SETUP_REPEATS = 5

#: Per-layer metrics the traced run adds to the tracer's, name -> (unit, better).
RUN_METRICS = {
    "instances.generate.s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def _floor_pow_6_5(n: int) -> int:
    """Exact floor(n ** 1.2), the largest k with k**5 <= n**6."""
    k = round(n ** 1.2)
    while k ** 5 > n ** 6:
        k -= 1
    while (k + 1) ** 5 <= n ** 6:
        k += 1
    return k


@dataclass(frozen=True)
class Workload:
    """One named input family and the result each call must return."""

    name: str
    kind: str          # "count": reduce_inversions + count_adaptive; "estimate": estimate_inversions
    n: int
    kstar: int
    regime: object     # rounds the adaptive counter takes, or the estimator's regime


# Why these four: the count pair splits the adaptive counter's time between
# the leaf kernel and per-cell overhead (one successful round, ~2k cells)
# and the distribution recursion after a failed round; the estimate pair
# covers the estimator's exact_small path (capped RAM counter with B=1 in
# thousands of cells) and its cell_sampling path (cutting sweep and pair
# sampler, never the leaf kernel).
_TABLE = {
    "count-sparse": ("count", 2**17, lambda n: n, 1),
    "count-dense": ("count", 2**17, lambda n: n * n // 4, 2),
    "estimate-sparse": ("estimate", 2**15, lambda n: n // 2, "exact_small"),
    "estimate-dense": ("estimate", 2**18, _floor_pow_6_5, "cell_sampling"),
}

NAMES = tuple(_TABLE)


def workload(name: str, n: int | None = None) -> Workload:
    """The named workload, at its own size unless ``n`` is given."""
    kind, default_n, kstar, regime = _TABLE[name]
    n = default_n if n is None else n
    return Workload(name, kind, n, kstar(n), regime)


def generate(w: Workload, seed: int) -> np.ndarray:
    return instances.generate(instances.InstanceSpec(
        n=w.n, shape="target_inversions", seed=seed, target=w.kstar))


def _call_seed(seed: int, i: int) -> int:
    """Estimator seed of call ``i``: differs per call, fixed by the workload seed."""
    return int(np.random.SeedSequence((seed, i)).generate_state(1)[0])


def call(w: Workload, values: np.ndarray, seed: int, i: int, new_tally):
    """One top-level call through the public API; returns its result."""
    if w.kind == "count":
        tally = new_tally(COUNT_PARAMS)
        red, blue = invcount.reduce_inversions(values)
        return invcount.count_adaptive(red, blue, COUNT_PARAMS, tally)
    return invcount.estimate_inversions(values, seed=_call_seed(seed, i))


def check(w: Workload, res) -> str | None:
    """Why a call's result is wrong, or None when it is right."""
    if w.kind == "count":
        if res.count != w.kstar:
            return f"count {res.count} != k* {w.kstar}"
        if res.rounds != w.regime:
            return f"{res.rounds} rounds, expected {w.regime}"
        return None
    if res.regime != w.regime:
        return f"regime {res.regime}, expected {w.regime}"
    if res.regime == "exact_small" and res.value != w.kstar:
        return f"exact estimate {res.value} != k* {w.kstar}"
    if abs(res.value - w.kstar) > res.epsilon_bound * w.kstar:
        return (f"estimate {res.value} outside {res.epsilon_bound:.3f} "
                f"of k* {w.kstar}")
    return None


def fingerprint(w: Workload, res, io: tuple[int, int]) -> tuple:
    """The parts of a result that must repeat exactly for one instance.

    The sampled estimate changes with the estimator seed of each call, so
    only its regime, sample space and I/O are compared.
    """
    if w.kind == "count":
        return (res.count, res.rounds, tuple(res.caps)) + io
    value = res.value if res.regime == "exact_small" else None
    return (res.regime, value, res.sample_space, res.n_samples) + io


@dataclass
class Calls:
    """Outcome of the calls of one run."""

    seconds: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    warmup: int = 0
    errors: list[str] = field(default_factory=list)
    failed: int = 0
    fingerprints: list[tuple] = field(default_factory=list)
    io: tuple[int, int] = (0, 0)
    layers: list[dict] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    def median(self, traced: bool = False) -> float:
        timed = zip(self.seconds[self.warmup:], self.traced[self.warmup:])
        return statistics.median(s for s, t in timed if t == traced)


def _run_calls(w: Workload, values: np.ndarray, seed: int, seconds: float,
               tracer: Tracer | None, min_calls: int) -> Calls:
    """Closed loop of calls until ``seconds`` have passed and ``min_calls`` ran.

    With a tracer, call 0 warms up untraced and is left out of the times,
    then calls alternate traced and untraced.  Every result is checked,
    and its fingerprint must equal the first call's.
    """
    out = Calls(warmup=int(tracer is not None))
    log = TallyLog()
    base = Patches()
    log.install(base)
    try:
        deadline = time.perf_counter() + seconds
        i = 0
        while i < min_calls or time.perf_counter() < deadline:
            traced = tracer is not None and i % 2 == 1
            first_tally = len(log.tallies)
            error = res = None
            gc.collect()
            if traced:
                first_span, pointsets = len(tracer.spans), tracer.pointsets
                layer = Patches()
                tracer.install(layer)
                root = tracer.span(ROOT, estimate=w.kind == "estimate")
            else:
                root = contextlib.nullcontext()
            try:
                with root:
                    t0 = time.perf_counter()
                    try:
                        res = call(w, values, seed, i, log.new)
                    except Exception as exc:  # a raising call is a failed call
                        error = f"call {i} raised {exc!r}"
                    dt = time.perf_counter() - t0
            finally:
                if traced:
                    layer.restore()
            io = log.io_since(first_tally)
            if res is not None:
                error = check(w, res)
                fp = fingerprint(w, res, io)
                if error is None and out.fingerprints and fp != out.fingerprints[0]:
                    error = f"call {i} gave {fp}, call 0 gave {out.fingerprints[0]}"
                out.fingerprints.append(fp)
                if traced:
                    m = tracer.layer_metrics(first_span, tracer.pointsets - pointsets, io)
                    split = m["cells.io_blocks"] + m["counting.distribute.io_blocks"]
                    if error is None and split != sum(io):
                        error = f"per-layer I/O {split} != io_blocks {sum(io)}"
                    out.layers.append(m)
            if error is not None:
                out.errors.append(error)
                out.failed += 1
            out.seconds.append(dt)
            out.traced.append(traced)
            if i == 0:
                out.io = io
            i += 1
    finally:
        base.restore()
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_timed(w: Workload, seed: int, seconds: float, import_s: float) -> tuple[Calls, dict]:
    """Untraced run: end-to-end metrics, with set-up repeated and its median taken."""
    gen_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        values = generate(w, seed)
        gen_s.append(time.perf_counter() - t0)
    calls = _run_calls(w, values, seed, seconds, None, min_calls=1)
    metrics = {
        "wall_s": calls.median(),
        "setup_s": import_s + statistics.median(gen_s),
        "io_blocks": sum(calls.io),
        "peak_rss_mb": peak_rss_mb(),
    }
    return calls, metrics


def run_traced(w: Workload, seed: int, seconds: float) -> tuple[Calls, dict, Tracer]:
    """Traced run: per-layer metrics of the traced calls and the tracing overhead.

    Metrics that vary per call are medians over the traced calls; every
    other per-layer metric must be identical across them, else the run
    records a failure.
    """
    tracer = Tracer()
    with tracer.span("instances.generate"):
        values = generate(w, seed)
    generate_s = (tracer.spans[0][4] - tracer.spans[0][3]) / 1e9
    calls = _run_calls(w, values, seed, seconds, tracer, min_calls=3)
    metrics = dict.fromkeys(LAYER_METRICS, 0)
    for name in LAYER_METRICS:
        per_call = [m[name] for m in calls.layers]
        if not per_call:  # every traced call failed; the errors say why
            continue
        if name in VARYING:
            metrics[name] = statistics.median(per_call)
        else:
            if len(set(per_call)) > 1:
                # A run-level error: it makes the run incorrect, not one call.
                calls.errors.append(f"{name} differs between traced calls: {per_call}")
            metrics[name] = per_call[0]
    metrics["instances.generate.s"] = generate_s
    metrics["trace.overhead"] = calls.median(traced=True) / calls.median(traced=False)
    return calls, metrics, tracer
