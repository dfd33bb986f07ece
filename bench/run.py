#!/usr/bin/env python3
"""Benchmark of the cssdistill Monte Carlo engine: trials/s, set-up, memory.

One run measures one workload:

    python3 bench/run.py --workload golay0-A-ref --seed 1 --seconds 60 --trace 0

It builds the workload's experiment config the way ``cssdistill simulate``
does, then calls ``montecarlo.run_experiment`` with one worker, one call
after another, while a call as long as the last one still ends within
``--seconds`` (the first call always runs).  Every call is checked:
its ``RunStats`` counters must equal the pinned counters of that workload
and seed slot (``pinned.json``), which is the engine's bit-identical
determinism contract.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
``{"report": ...}`` object with provenance, per-call figures, Wilson 95%
half-widths of R2 and P_X(1..3) at each p, and the traced layer table.

``--trace 0`` reports the end-to-end metrics:

* ``trials_per_s``: trials / wall time of the run's ``run_experiment``
  calls, which includes the per-p runner compile (see ``rate``);
* ``setup_s``: time from the config dict to a ``DistillationConfig``, a
  ``ProtocolRunner`` and the weight table, each in a fresh interpreter (a
  warm process would hide the code registry and table caches); the median
  of ``SETUP_PROBES`` set-ups spread over the run;
* ``peak_rss_mib``: peak resident memory of the measuring process.

``--trace 1`` attaches spans to the program's layers from outside (see
``tracer.py``), traces the cold set-up once, then alternates untraced and
traced calls, and reports the per-layer metrics and the tracing overhead.
A layer metric whose every traced function the program no longer has is
null.

    python3 bench/run.py --all [--seed 1] [--seconds 60]
    python3 bench/run.py --smoke

``--all`` runs every workload untraced and traced and prints every metric
by name with its unit; ``--smoke`` makes the shortest runs and checks that
each emits every metric named in BENCHMARK.json with its unit and passes
the counter check.  ``pin.py`` regenerates ``pinned.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINNED = BENCH / "pinned.json"

# Calls cycle through this many seeds, each with pinned counters.
SEED_SLOTS = 16
# Fresh interpreters timed per run for setup_s.
SETUP_PROBES = 7

_GOLAY = {"cx": "golay23", "cz": "golay23"}

# Each config is what a user would pass to `cssdistill simulate`; the seed
# is set per call.  trials_per_p is the simulate default (ExperimentConfig),
# because it fixes the share of the per-p runner compile in trials_per_s:
# about 2% of a call's wall on golay0-A-ref and 3% on bell-A-nops at this
# traffic, against 14% and 25% at 1,000 trials per p.  Why each workload
# is in the set is recorded in BENCHMARK.json.
WORKLOADS = {
    # ROADMAP reference workload: dense p points, group processing dominates.
    "golay0-A-ref": {"css": _GOLAY, "ancilla": {"kind": "zero"}, "combination": "A",
                     "n_extra": 6, "p_grid": [1e-4, 4e-4, 1.6e-3], "trials_per_p": 10_000,
                     "w_cap": 4},
    # m = 2: generic group path, 46-qubit weight table, heavy set-up.  No
    # registry code has the k = 23 that postselection on bell would need.
    "bell-A-nops": {"css": _GOLAY, "ancilla": {"kind": "bell"}, "combination": "A",
                    "d1": "none", "d2": "none", "n_extra": 6, "p_grid": [4e-4],
                    "trials_per_p": 10_000, "w_cap": 4},
}


def import_program():
    """Import cssdistill from this checkout's ``src``, never an installed copy."""
    if not (SRC / "cssdistill" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'cssdistill'}")
    sys.path.insert(0, str(SRC))
    import cssdistill
    from cssdistill import cli, codes, css, distill, frames, montecarlo

    if Path(cssdistill.__file__).resolve().parent != SRC / "cssdistill":
        sys.exit(f"error: imported cssdistill from {cssdistill.__file__}, not {SRC}")
    return cli, codes, css, distill, frames, montecarlo


def call_slot(seed: int, j: int) -> int:
    """Seed slot of the j-th call of a run."""
    return (seed + j) % SEED_SLOTS


def counters(stats) -> list[dict]:
    return [s.to_dict() for s in stats.per_p]


def build(cli, distill, name: str):
    """Config dict -> (ExperimentConfig, DistillationConfig), with a runner
    compiled and the weight table built, as ``simulate`` would need them."""
    cfg = cli.ExperimentConfig.from_dict(json.loads(json.dumps(WORKLOADS[name])))
    dconfig = cli.build_distillation_config(cfg, float(cfg.p_grid[0]))
    distill.ProtocolRunner(dconfig)
    dconfig.spec.weight_table(cfg.w_cap)
    return cfg, dconfig


def run_call(montecarlo, cfg, dconfig, slot: int):
    return montecarlo.run_experiment(
        dconfig, [float(p) for p in cfg.p_grid], trials_per_p=cfg.trials_per_p,
        seed=slot, workers=1, w_cap=cfg.w_cap,
    )


# ---- reporting helpers ---------------------------------------------------------


def quartiles(values: list[float]) -> dict:
    vals = sorted(values)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    else:
        q1 = q3 = vals[0]
    return {"n": len(vals), "q1": q1, "median": statistics.median(vals), "q3": q3}


def rate(records: list[dict]) -> float:
    """Trials/s over a set of calls: their trials over their wall time.

    An order statistic of the calls (the slowest call, say) would be taken
    over more calls the faster the program is, and so read lower for faster
    code; the ratio of sums does not depend on how many calls a run makes.
    """
    return sum(r["trials"] for r in records) / sum(r["wall_s"] for r in records)


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly so that a checkout
    without one never reports the commit of an enclosing repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def precision(montecarlo, per_p) -> list[dict]:
    """Wilson 95% half-widths of R2 and P_X(1..3) at each p."""
    out = []
    for s in per_p:
        row = {"p": s.p, "trials": s.trials}
        for metric, count, total in (
            ("r2", s.rej2, s.cand2),
            *((f"px_w{w}", s.hist_x[w], s.accepted) for w in (1, 2, 3)),
        ):
            if total:
                lo, hi = montecarlo.wilson_ci(count, total)
                row[metric] = {"value": count / total, "count": count, "total": total,
                               "half_width": (hi - lo) / 2}
            else:
                row[metric] = None
        out.append(row)
    return out


# ---- measured calls --------------------------------------------------------------


class Calls:
    """Runs checked ``run_experiment`` calls and keeps their figures."""

    def __init__(self, montecarlo, name: str, cfg, dconfig, seed: int):
        self.montecarlo = montecarlo
        self.cfg, self.dconfig, self.seed = cfg, dconfig, seed
        self.pinned = load_pinned(name)
        self.records: list[dict] = []
        self.attempted = self.failed = 0
        self.total = None  # RunStats merged over calls that returned

    def run(self, tracer=None) -> None:
        slot = call_slot(self.seed, len(self.records))
        self.attempted += 1
        record = {"slot": slot, "traced": tracer is not None}
        self.records.append(record)
        if tracer is not None:
            tracer.install()
        try:
            c0 = time.process_time()
            t0 = time.perf_counter()
            stats = run_call(self.montecarlo, self.cfg, self.dconfig, slot)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        except Exception:  # a crash fails this call; the run goes on
            traceback.print_exc()
            self.failed += 1
            record["ok"] = False
            return
        finally:
            if tracer is not None:
                tracer.uninstall()
        trials = sum(s.trials for s in stats.per_p)
        ok = self.pinned is not None and counters(stats) == self.pinned[slot]
        if not ok:
            self.failed += 1
            print(f"counter mismatch: slot {slot}", file=sys.stderr)
        record.update(ok=ok, trials=trials, wall_s=wall, cpu_s=cpu, trials_per_s=trials / wall)
        if self.total is None:
            self.total = stats
        else:
            self.total.merge(stats)

    def traced_calls(self, traced: bool) -> list[dict]:
        """Records of the calls that returned, traced or not."""
        return [r for r in self.records if "wall_s" in r and r["traced"] == traced]


def load_pinned(name: str) -> list | None:
    """Pinned counters of a workload, or None if they were pinned for
    another config (then every call fails the check)."""
    data = json.loads(PINNED.read_text(encoding="utf-8"))
    entry = data["workloads"].get(name)
    if entry is None or entry["config"] != WORKLOADS[name]:
        print(f"no pinned counters for {name} with this config", file=sys.stderr)
        return None
    return entry["counters"]


# ---- set-up ----------------------------------------------------------------------


def probe_setup(name: str) -> None:
    """Time the set-up once in this (fresh) interpreter; imports excluded."""
    cli, _, _, distill, _, _ = import_program()
    t0 = time.perf_counter()
    build(cli, distill, name)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def setup_time(name: str) -> float:
    """Set-up seconds measured by one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup", name],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---- tracing ---------------------------------------------------------------------

GROUP_LAYERS = ("distill.round1", "distill.round2", "distill.round_other")


def _group_layer(args) -> str:
    rnd = args[1] if len(args) > 1 else None
    return {1: "distill.round1", 2: "distill.round2"}.get(getattr(rnd, "round", None),
                                                         "distill.round_other")


def make_tracer(cli, codes, css, distill, frames, montecarlo):
    from tracer import Tracer

    runner = distill.ProtocolRunner
    t = Tracer()
    t.span(cli, "build_distillation_config", "cli.build_config")
    t.span(codes, "build_code", "codes.registry")  # cold coset-leader table builds
    t.span(frames, "synth_encoding_circuit", "frames.synth_encoder")
    t.count(frames, "run_noisy", "frames.run_noisy")
    t.span(runner, "__init__", "distill.compile")
    t.span(css.WeightTable, "__init__", "css.weight_table")
    t.span(montecarlo, "run_experiment", "montecarlo.loop")
    t.span(montecarlo, "classify_outcome", "montecarlo.classify")
    t.count(css.WeightTable, "x_weight", "css.weight_lookups")
    t.count(css.WeightTable, "z_weight", "css.weight_lookups")
    t.span(runner, "run_trial", "distill.sample")
    t.span(runner, "_execute", "distill.scatter")
    t.count(runner, "_execute", "distill.faults", amount=lambda a: len(a[1]) + len(a[2]))
    t.span(runner, "_run_protocol_core", "distill.regroup")
    t.span(runner, "_process_group", _group_layer, GROUP_LAYERS)
    t.span(runner, "_process_group_m1", _group_layer, GROUP_LAYERS)
    return t


def trace_metrics(tracer, setup: dict, calls: Calls, groups1: int) -> tuple[dict, list[dict]]:
    """Per-layer metrics from the traced set-up and the traced calls.

    A metric whose layer the program no longer has is reported as null, not
    as 0: a removed method did no work that the tracer could see, which is
    no measurement of the layer.
    """
    traced = [r for r in calls.records if r["traced"] and "wall_s" in r]
    trials = sum(r["trials"] for r in traced)
    wall = sum(r["wall_s"] for r in traced)
    s, e, c = tracer.self_s, tracer.entries, tracer.counts
    gone = tracer.unmeasured

    def setup_self_s(layer: str) -> float | None:
        return None if layer in gone else setup["self_s"].get(layer, 0.0)

    def us(*layers: str) -> float | None:
        if gone.intersection(layers):
            return None
        return sum(s.get(layer, 0.0) for layer in layers) * 1e6 / trials

    def per_trial(counter, layer: str) -> float | None:
        return None if layer in gone else counter.get(layer, 0) / trials

    total = calls.total
    cand1 = sum(p.cand1 for p in total.per_p)
    cand2 = sum(p.cand2 for p in total.per_p)
    all_trials = sum(p.trials for p in total.per_p)
    groups1_per_trial = per_trial(e, "distill.round1")
    traced_rate = rate(calls.traced_calls(True))
    untraced_rate = rate(calls.traced_calls(False))
    m = {
        "cli.build_config_s": (setup_self_s("cli.build_config"), "s"),
        "codes.registry_s": (setup_self_s("codes.registry"), "s"),
        "frames.synth_encoder_s": (setup_self_s("frames.synth_encoder"), "s"),
        "frames.run_noisy_calls": (None if "frames.run_noisy" in gone
                                   else setup["counts"].get("frames.run_noisy", 0), "count"),
        "distill.compile_s": (setup_self_s("distill.compile"), "s"),
        "css.weight_table_s": (setup_self_s("css.weight_table"), "s"),
        "distill.compile_us": (us("distill.compile", "frames.synth_encoder"), "us/trial"),
        "distill.sample_us": (us("distill.sample"), "us/trial"),
        "distill.scatter_us": (us("distill.scatter"), "us/trial"),
        "distill.round1_us": (us("distill.round1"), "us/trial"),
        "distill.round2_us": (us("distill.round2"), "us/trial"),
        "distill.regroup_us": (us("distill.regroup"), "us/trial"),
        "montecarlo.classify_us": (us("montecarlo.classify"), "us/trial"),
        "montecarlo.loop_us": (us("montecarlo.loop"), "us/trial"),
        "css.weight_lookups_per_trial": (per_trial(c, "css.weight_lookups"), "count/trial"),
        "distill.faults_per_trial": (per_trial(c, "distill.faults"), "count/trial"),
        "distill.round1_groups_per_trial": (groups1_per_trial, "count/trial"),
        "distill.round2_groups_per_trial": (per_trial(e, "distill.round2"), "count/trial"),
        "distill.round1_dirty_frac": (None if groups1_per_trial is None
                                      else groups1_per_trial / groups1, "ratio"),
        "distill.accept1": (1 - sum(p.rej1 for p in total.per_p) / cand1 if cand1 else 0.0, "ratio"),
        "distill.accept2": (1 - sum(p.rej2 for p in total.per_p) / cand2 if cand2 else 0.0, "ratio"),
        "distill.abort_frac": (sum(p.aborted for p in total.per_p) / all_trials, "ratio"),
        "trace.trials_per_s": (traced_rate, "trials/s"),
        "trace.untraced_trials_per_s": (untraced_rate, "trials/s"),
        "trace.overhead": (untraced_rate / traced_rate - 1.0, "ratio"),
    }
    table = [
        {"layer": layer, "self_s": s[layer], "calls": tracer.calls[layer],
         "share_of_wall": s[layer] / wall}
        for layer in sorted(s, key=s.get, reverse=True)
    ]
    return m, table


# ---- one run ---------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool, probes: int) -> int:
    cli, codes, css, distill, frames, montecarlo = import_program()
    report: dict = {"workload": name, "trace": int(trace), "seconds": seconds,
                    "provenance": provenance(seed)}
    tracer = None
    if trace:
        # This interpreter is fresh, so the traced set-up is the cold one.
        tracer = make_tracer(cli, codes, css, distill, frames, montecarlo)
        tracer.install()
        try:
            cfg, dconfig = build(cli, distill, name)
        finally:
            tracer.uninstall()
        setup = {"self_s": dict(tracer.self_s), "counts": dict(tracer.counts)}
        tracer.reset()
        report["missing_spans"] = tracer.missing
        report["unmeasured_layers"] = sorted(tracer.unmeasured)
    else:
        cfg, dconfig = build(cli, distill, name)

    calls = Calls(montecarlo, name, cfg, dconfig, seed)
    setup_s: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # A call starts only if one as long as the last ends within the run.
        enough = len(calls.records) >= (2 if trace else 1)
        full = enough and elapsed + calls.records[-1].get("wall_s", 0.0) > seconds
        # Set-up probes are spread over the run, so that they and the calls
        # see the same load on a shared machine.
        if not trace and len(setup_s) < probes \
                and (full or elapsed >= len(setup_s) * seconds / probes):
            setup_s.append(setup_time(name))
            continue
        if full:
            break
        traced_turn = trace and len(calls.records) % 2 == 1
        calls.run(tracer if traced_turn else None)
    if not calls.traced_calls(False) or (trace and not calls.traced_calls(True)):
        sys.exit("error: no call completed")

    report["calls"] = calls.records
    report["precision"] = precision(montecarlo, calls.total.per_p)
    report["failed_share"] = calls.failed / calls.attempted
    if trace:
        groups1 = dconfig.code_c2.n + dconfig.n_extra
        metrics, table = trace_metrics(tracer, setup, calls, groups1)
        report["layers"] = table
        report["setup_layers"] = setup
    else:
        untraced = calls.traced_calls(False)
        report["setup_probes_s"] = setup_s
        report["call_trials_per_s_quartiles"] = quartiles([r["trials_per_s"] for r in untraced])
        report["setup_s_quartiles"] = quartiles(setup_s)
        metrics = {
            "trials_per_s": (rate(untraced), "trials/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }

    print_run(report, metrics)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": calls.failed == 0,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def fmt(value) -> str:
    return f"{'(unmeasured)':>14}" if value is None else f"{value:14.6g}"


def print_run(report: dict, metrics: dict) -> None:
    prov = report["provenance"]
    print(f"# {report['workload']} trace={report['trace']} seed={prov['seed']} "
          f"commit={prov['commit'][:12]} nproc={prov['nproc']} cpu={prov['cpu_model']!r} "
          f"python={prov['python']} numpy={prov['numpy']}")
    ok = sum(1 for r in report["calls"] if r.get("ok"))
    print(f"calls: {len(report['calls'])}, counter check passed: {ok}, "
          f"failed share: {report['failed_share']:.3f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34} {fmt(value)} {unit}")
    for row in report.get("layers", []):
        print(f"  layer {row['layer']:22} self {row['self_s']:9.4f} s  calls {row['calls']:9d}  "
              f"share {100 * row['share_of_wall']:5.1f}%")
    if report.get("missing_spans"):
        print(f"  missing spans: {', '.join(report['missing_spans'])}")
    for row in report["precision"]:
        cells = [f"{k}={v['value']:.3g}+-{v['half_width']:.2g}"
                 for k, v in row.items() if isinstance(v, dict)]
        print(f"  p={row['p']:g} trials={row['trials']}: {' '.join(cells)}")


# ---- all workloads, smoke --------------------------------------------------------


def run_subprocess(name: str, seed: int, seconds: float, trace: int, probes: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--probes", str(probes)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{name} trace={trace} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def run_all(seed: int, seconds: float) -> int:
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            report, result = run_subprocess(name, seed, seconds, trace, SETUP_PROBES)
            results.setdefault(name, {})[f"trace{trace}"] = {"result": result, "report": report}
    print(f"{'workload':14} {'metric':34} {'value':>14} unit")
    for name, modes in results.items():
        for mode in ("trace0", "trace1"):
            for metric, mv in modes[mode]["result"]["metrics"].items():
                print(f"{name:14} {metric:34} {fmt(mv['value'])} {mv['unit']}")
        for row in modes["trace1"]["report"]["layers"]:
            print(f"{name:14} layer {row['layer']:28} self {row['self_s']:9.4f} s  "
                  f"calls {row['calls']:9d}  share {100 * row['share_of_wall']:5.1f}%")
        for mode in ("trace0", "trace1"):
            r = modes[mode]["result"]
            print(f"{name:14} {mode}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}")
    out = BENCH / "out" / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"report: {out}")
    failed = any(not m["result"]["correct"] for modes in results.values() for m in modes.values())
    return 1 if failed else 0


def smoke() -> int:
    """Shortest run of every workload and mode against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("smoke: BENCHMARK.json workloads differ from bench/run.py")
        return 1
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            report, result = run_subprocess(name, 0, 0, trace, 1)
            where = f"{name} trace={trace}"
            if report.get("missing_spans"):
                problems.append(f"{where}: missing spans {report['missing_spans']}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: counter check failed ({result['failed']} of "
                                f"{result['attempted']} calls)")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics/units {got} != {expected[trace]}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{where}: non-finite values {bad}")
            print(f"smoke: {where}: {len(got)} metrics, attempted={result['attempted']} "
                  f"failed={result['failed']}")
    for p in problems:
        print(f"smoke: FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--smoke", action="store_true", help="shortest runs, checked against BENCHMARK.json")
    ap.add_argument("--probes", type=int, default=SETUP_PROBES, help=argparse.SUPPRESS)
    ap.add_argument("--probe-setup", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0
    if args.smoke:
        return smoke()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload, --all or --smoke is required")
    return measure(args.workload, args.seed, args.seconds, bool(args.trace), max(1, args.probes))


if __name__ == "__main__":
    sys.exit(main())
