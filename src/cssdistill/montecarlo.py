"""Parallel trial execution, weight statistics, rate inversion and fits.

Trials are distributed over worker processes in chunks; every trial draws
its own counter-based random stream keyed by (master seed, p index, trial
index), so aggregated results are bit-identical for any worker count or
scheduling order.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import gf2
from .css import AncillaSpec
from .distill import BATCH, BatchOutcome, DistillationConfig, ProtocolRunner
from .frames import FailureModel

_ENV_WORKERS = "CSSDISTILL_WORKERS"


def default_workers() -> int:
    env = os.environ.get(_ENV_WORKERS)
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0  # reported below, with the integers below 1
    if workers < 1:
        raise ValueError(f"{_ENV_WORKERS}: expected an integer >= 1, got {env!r}")
    return workers


@dataclass
class PStats:
    """Counters for one failure-rate grid point.

    ``hist_x``/``hist_z`` count accepted output blocks by residual weight:
    bins 0..3 exact, the last bin is everything beyond (weight above the
    table cap included).
    """

    p: float
    trials: int = 0
    aborted: int = 0
    cand1: int = 0
    rej1: int = 0
    cand2: int = 0
    rej2: int = 0
    accepted: int = 0
    hist_x: list[int] = field(default_factory=lambda: [0] * 5)
    hist_z: list[int] = field(default_factory=lambda: [0] * 5)

    def merge(self, other: "PStats") -> None:
        if self.p != other.p:
            raise ValueError(f"cannot merge counters of p={other.p} into p={self.p}")
        self._add(vars(other))

    def _add(self, counts: dict) -> None:
        """Add every counter of a :meth:`to_dict` mapping; a value of another
        shape raises ``TypeError`` or ``ValueError``."""
        for f in fields(self)[1:]:
            mine, theirs = getattr(self, f.name), counts[f.name]
            setattr(self, f.name, [a + b for a, b in zip(mine, theirs, strict=True)]
                    if isinstance(mine, list) else mine + theirs)

    @property
    def r1(self) -> float:
        return self.rej1 / self.cand1 if self.cand1 else 0.0

    @property
    def r2(self) -> float:
        return self.rej2 / self.cand2 if self.cand2 else 0.0

    def weight_fraction(self, side: str, w: int | str) -> float | None:
        """P_X(w) / P_Z(w) over accepted blocks; None with no acceptances."""
        if not self.accepted:
            return None
        hist = self.hist_x if side == "x" else self.hist_z
        idx = 4 if w == "gt" else int(w)
        return hist[idx] / self.accepted

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PStats":
        stats = cls(p=float(d["p"]))
        stats._add(d)
        return stats


@dataclass
class RunStats:
    """Aggregated experiment results over a failure-rate grid."""

    meta: dict
    per_p: list[PStats]

    def merge(self, other: "RunStats") -> None:
        for a, b in zip(self.per_p, other.per_p):
            a.merge(b)

    def to_dict(self) -> dict:
        return {"meta": self.meta, "per_p": [s.to_dict() for s in self.per_p]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "RunStats":
        meta = dict(d["meta"])
        for key in ("n", "k_c1", "n_c1", "k_c2", "n_c2"):  # what metric_rows and yields read
            if type(meta.get(key)) is not int or meta[key] < 1:
                raise ValueError(f"meta.{key}: expected an integer >= 1, got {meta.get(key)!r}")
        return cls(meta=meta, per_p=[PStats.from_dict(x) for x in d["per_p"]])

    @classmethod
    def from_json(cls, text: str) -> "RunStats":
        return cls.from_dict(json.loads(text))


def classify_outcome(batch: BatchOutcome, table, stats: PStats) -> None:
    """Fold a batch of trials into the counters."""
    stats.trials += len(batch.aborted)
    stats.aborted += int(batch.aborted.sum())
    stats.cand1 += int(batch.cand1.sum())
    stats.rej1 += int(batch.rej1.sum())
    stats.cand2 += int(batch.cand2.sum())
    stats.rej2 += int(batch.rej2.sum())
    stats.accepted += len(batch.out_trial)
    for hist, side, frames in ((stats.hist_x, "x", batch.out_e), (stats.hist_z, "z", batch.out_f)):
        # A zero frame has weight 0; only the others are looked up.
        weights = table.weights(side, frames.take(gf2.nonzero_rows(frames), axis=0))
        # Bins 0..3 exact; weight 4 and beyond the table (-1) share bin 4.
        counts = np.bincount(np.where((weights >= 0) & (weights <= 3), weights, 4), minlength=5)
        counts[0] += len(frames) - len(weights)
        for w in range(5):
            hist[w] += int(counts[w])


# Worker-global state, built once per process from the pickled config.
_WORKER: dict = {}


def _init_worker(config: DistillationConfig, p_grid, seed: int, w_cap: int) -> None:
    _WORKER["runners"] = {}
    _WORKER["compiled"] = None
    _WORKER["config"] = config
    _WORKER["p_grid"] = list(p_grid)
    _WORKER["seed"] = seed
    _WORKER["table"] = config.spec.weight_table(w_cap)


def _runner_for(p_index: int) -> ProtocolRunner:
    """The worker's runner for one grid point: one compiled protocol,
    shared by every p."""
    runner = _WORKER["runners"].get(p_index)
    if runner is None:
        if _WORKER["compiled"] is None:
            _WORKER["compiled"] = ProtocolRunner(_WORKER["config"])
        p = _WORKER["p_grid"][p_index]
        runner = _WORKER["compiled"].with_model(FailureModel.uniform(p))
        _WORKER["runners"][p_index] = runner
    return runner


def _run_chunk(task: tuple[int, int, int]) -> tuple[int, dict]:
    p_index, start, count = task
    runner = _runner_for(p_index)
    stats = PStats(p=_WORKER["p_grid"][p_index])
    table = _WORKER["table"]
    seed = _WORKER["seed"]
    for first in range(start, start + count, BATCH):
        # No name holds a batch's outcome, so it is freed before the next
        # batch runs.
        classify_outcome(runner.run_batch(seed, p_index, first, min(BATCH, start + count - first)),
                         table, stats)
    return p_index, stats.to_dict()


def run_experiment(
    config: DistillationConfig,
    p_grid: list[float],
    trials_per_p: int,
    seed: int,
    workers: int | None = None,
    w_cap: int = 4,
    chunk_size: int = 20_000,
) -> RunStats:
    """Run the protocol over a grid of failure rates.

    The per-trial stream depends only on (seed, p index, trial index), so
    the aggregate is independent of worker count and chunking.
    ``workers`` defaults to :func:`default_workers` and must be >= 1, and
    so must ``chunk_size``.
    """
    if trials_per_p < 1:
        raise ValueError("trials_per_p must be >= 1")
    if chunk_size < 1:
        raise ValueError(f"chunk_size: expected an integer >= 1, got {chunk_size!r}")
    if workers is None:
        workers = default_workers()
    elif workers < 1:
        raise ValueError(f"workers: expected an integer >= 1, got {workers!r}")
    per_p = [PStats(p=p) for p in p_grid]
    tasks = []
    for p_index in range(len(p_grid)):
        start = 0
        while start < trials_per_p:
            n = min(chunk_size, trials_per_p - start)
            tasks.append((p_index, start, n))
            start += n

    if workers <= 1:
        _init_worker(config, p_grid, seed, w_cap)
        try:
            for task in tasks:
                p_index, d = _run_chunk(task)
                per_p[p_index].merge(PStats.from_dict(d))
        finally:
            _WORKER.clear()
    else:
        import multiprocessing as mp

        ctx = mp.get_context("fork") if hasattr(os, "fork") else mp.get_context("spawn")
        with ctx.Pool(
            workers, initializer=_init_worker, initargs=(config, p_grid, seed, w_cap)
        ) as pool:
            for p_index, d in pool.imap_unordered(_run_chunk, tasks):
                per_p[p_index].merge(PStats.from_dict(d))

    spec: AncillaSpec = config.spec
    meta = {
        "kind": spec.kind,
        "n": spec.blocks[0].n,
        "k_c1": config.code_c1.k,
        "n_c1": config.code_c1.n,
        "k_c2": config.code_c2.k,
        "n_c2": config.code_c2.n,
        "n_extra": config.n_extra,
        "seed": seed,
        "w_cap": w_cap,
        "trials_per_p": trials_per_p,
        "postselection": not (config.code_d1 is None and config.code_d2 is None),
        "p_grid": list(p_grid),
    }
    return RunStats(meta=meta, per_p=per_p)


def wilson_ci(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def _binom_tail(p: float, n: int, t: int) -> float:
    return sum(math.comb(n, w) * p**w * (1 - p) ** (n - w) for w in range(t + 1, n + 1))


def _binom_point(p: float, n: int, t: int) -> float:
    return math.comb(n, t) * p**t * (1 - p) ** (n - t)


def effective_rate(prob: float, n: int, t: int, kind: str = "tail") -> float:
    """Invert the binomial weight model for the effective error rate.

    ``tail`` solves P = sum_{w>t} C(n,w) p^w (1-p)^(n-w) on (0, 1);
    ``point`` solves P = C(n,t) p^t (1-p)^(n-t) on its increasing branch
    (0, t/n].  Bisection to 1e-12 relative tolerance.
    """
    if prob < 0:
        raise ValueError("probability must be nonnegative")
    if prob == 0.0:
        return 0.0
    if kind == "tail":
        if prob >= 1.0:
            raise ValueError("tail probability must be < 1")
        fn = _binom_tail
        lo, hi = 0.0, 1.0
    elif kind == "point":
        mode = t / n
        if prob > _binom_point(mode, n, t):
            raise ValueError("point probability exceeds the binomial mode maximum")
        fn = _binom_point
        lo, hi = 0.0, mode
    else:
        raise ValueError("kind must be 'tail' or 'point'")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid, n, t) < prob:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    stderr: float


def slope_fit(points: list[tuple[float, float]]) -> FitResult:
    """Least-squares slope of log P against log p."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    if any(p <= 0 or v <= 0 for p, v in points):
        raise ValueError("nonpositive values cannot be fit in log space")
    xs = np.log([p for p, _ in points])
    ys = np.log([v for _, v in points])
    n = len(xs)
    xbar, ybar = xs.mean(), ys.mean()
    sxx = float(((xs - xbar) ** 2).sum())
    slope = float(((xs - xbar) * (ys - ybar)).sum() / sxx)
    intercept = float(ybar - slope * xbar)
    if n > 2:
        resid = ys - (slope * xs + intercept)
        stderr = math.sqrt(float((resid**2).sum()) / (n - 2) / sxx)
    else:
        stderr = 0.0
    return FitResult(slope=slope, intercept=intercept, stderr=stderr)


def yields(stats: PStats, meta: dict, t: int) -> tuple[float, float]:
    """(Yield_FT, Yield_naive).

    Yield_FT applies the counted per-round rejection rates to the ideal
    k1 k2 / (n1 n2) throughput; the naive verification benchmark needs
    t^2 + t identically prepared blocks per qualified ancilla.
    """
    base = (meta["k_c1"] * meta["k_c2"]) / (meta["n_c1"] * meta["n_c2"])
    yield_ft = base * (1.0 - stats.r1) * (1.0 - stats.r2)
    yield_naive = 1.0 / (t * t + t)
    return yield_ft, yield_naive
