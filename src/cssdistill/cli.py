"""Configuration-driven command line: simulate, inject, analyze, codes.

Experiments are described by a JSON config (no interactive steering), and
results land as JSON plus flat CSV suitable for log-log plotting.  Exit
codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import codes as codes_mod
from .codes import LinearCode, registry
from .css import AncillaSpec, build_ancilla_spec, build_css
from .distill import DistillationConfig, ProtocolRunner
from .frames import FailureModel, Fault, FaultInjection, effective_support
from .montecarlo import (
    RunStats,
    default_workers,
    effective_rate,
    run_experiment,
    slope_fit,
    wilson_ci,
    yields,
)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


COMBINATIONS = {
    "A": ("bch15_7_5", "bch15_7_5"),
    "B": ("bch15_7_5", "rep5"),
    "C": ("hamming7", "hamming7"),
    "D": ("rep3", "rep3"),
}

# ---- config schema ---------------------------------------------------------
# A check takes a value and its dotted field name, and returns the value,
# normalised, or raises ConfigError naming the field.

def _rule(what: str, ok, convert=lambda value: value):
    def check(value, name):
        if not ok(value):
            raise ConfigError(f"{name}: expected {what}, got {value!r}")
        return convert(value)
    return check


def _nullable(check):
    return lambda value, name: None if value is None else check(value, name)


def _integer(low: int | None = None, high: int | None = None):
    """An integer (>= low, <= high); an integral float such as 1e3 is taken
    as one."""
    what = ("an integer" if low is None else f"an integer >= {low}" if high is None
            else f"an integer in {low}..{high}")
    return _rule(what, lambda v: (isinstance(v, int) and not isinstance(v, bool)
                                  or isinstance(v, float) and v.is_integer())
                 and (low is None or v >= low) and (high is None or v <= high), int)


def _object(**keys):
    """A JSON object whose keys are among ``keys``, each with its own check."""
    def check(value, name):
        _rule("an object", lambda v: isinstance(v, dict))(value, name)
        for key in value:
            if key not in keys:
                raise ConfigError(f"{name}.{key}: unknown key; expected one of {list(keys)}")
        return {key: keys[key](v, f"{name}.{key}") for key, v in value.items()}
    return check


_string = _rule("a string", lambda v: isinstance(v, str))
_path = _rule("a file path", lambda v: isinstance(v, str))
_registry_name = _rule("a registry name or {'file': path}", lambda v: v in codes_mod.REGISTRY_NAMES)
_code_file = _object(file=_path, name=_string)


def _code(value, name):
    """A registry name or a {"file": path, "name": label} object."""
    if isinstance(value, dict) and "file" in value:
        _path(value["file"], name)  # the file is the code, so name the field itself
        return _code_file(value, name)
    return _registry_name(value, name)


def _detecting(value, name):
    """A postselection code, "none" or "ideal"."""
    return value if value in ("none", "ideal") else _code(value, name)


# Every ExperimentConfig field and its check.  Two rules need more than the
# field: c1/c2 are given exactly when combination is null (__post_init__),
# and ancilla.i/j must be below the code's k (build_spec).
FIELDS = {
    "css": _object(cx=_code, cz=_code),
    "ancilla": _object(kind=_string, i=lambda v, name: v, j=lambda v, name: v,
                       basis=_rule("'Z' or 'X'", lambda v: v in ("Z", "X"))),
    "combination": _nullable(_rule(f"one of {list(COMBINATIONS)}",
                                   lambda v: isinstance(v, str) and v in COMBINATIONS)),
    "c1": _nullable(_code),
    "c2": _nullable(_code),
    "d1": _detecting,
    "d2": _detecting,
    "p_grid": _rule("a non-empty list of failure rates in [0, 1]",
                    lambda v: isinstance(v, list) and v != [] and all(
                        isinstance(p, (int, float)) and not isinstance(p, bool) and 0 <= p <= 1
                        for p in v),
                    lambda v: [float(p) for p in v]),
    "trials_per_p": _integer(1),
    "n_extra": _integer(0),
    # The key word of every trial's Philox stream (sampling.TrialStream).
    "seed": _integer(0, 2**64 - 1),
    # Weights 0..3 are histogram bins of their own; the weight table grows
    # about threefold per step of the cap, and beyond 5 it costs seconds
    # and hundreds of MiB on a two-block ancilla.
    "w_cap": _integer(3, 5),
    "out": _nullable(_string),
}


@dataclass
class ExperimentConfig:
    """JSON-serializable description of one experiment.  README's "Config
    fields" table gives each field's type, range, default and allowed keys;
    ``FIELDS`` checks them whenever a config is made."""

    css: dict = field(default_factory=lambda: {"cx": "golay23", "cz": "golay23"})
    ancilla: dict = field(default_factory=lambda: {"kind": "zero"})
    combination: str | None = None
    c1: str | dict | None = None
    c2: str | dict | None = None
    d1: str | dict = "golay23"
    d2: str | dict = "golay23_dual"
    p_grid: list = field(default_factory=lambda: [4e-4, 8e-4, 1.6e-3])
    trials_per_p: int = 10_000
    n_extra: int = 2
    seed: int = 0
    w_cap: int = 4
    out: str | None = None

    def __post_init__(self) -> None:
        for name, check in FIELDS.items():
            setattr(self, name, check(getattr(self, name), name))
        for name in ("c1", "c2"):
            if (getattr(self, name) is None) == (self.combination is None):
                raise ConfigError(f"{name}: set both c1 and c2, or a combination, not both")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = sorted(set(d) - set(FIELDS))
        if unknown:
            raise ConfigError(f"{unknown[0]}: unknown config field; expected one of {list(FIELDS)}")
        return cls(**d)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(raw)


def _load_classical(value, fieldname: str) -> LinearCode:
    """A checked code value: a registry name or a {"file": ...} object."""
    if isinstance(value, str):
        return registry(value)
    try:
        return codes_mod.load_code(value["file"], name=value.get("name", ""))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{fieldname}: {exc}") from exc


def build_spec(cfg: ExperimentConfig) -> AncillaSpec:
    cx, cz = (_load_classical(cfg.css.get(key, "golay23"), f"css.{key}") for key in ("cx", "cz"))
    try:
        quantum = build_css(cx, cz)
    except ValueError as exc:
        raise ConfigError(f"css: {exc}") from exc
    ancilla = {"kind": "zero", **cfg.ancilla}
    for name in ("i", "j"):
        value = ancilla.get(name, 0)
        if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < quantum.k:
            raise ConfigError(f"ancilla.{name}: expected a logical qubit index in "
                              f"0..{quantum.k - 1}, got {value!r}")
    blocks = [quantum, quantum] if ancilla["kind"] == "bell" else quantum
    try:
        return build_ancilla_spec(blocks, **ancilla)
    except ValueError as exc:
        raise ConfigError(f"ancilla: {exc}") from exc


# The DistillationConfig field a ValueError names, as the config field that
# sets it: a block code is css's, the width of a unit of blocks ancilla's.
_CONFIG_FIELDS = {"spec.blocks": "css", "spec": "ancilla", "code_c1": "c1", "code_c2": "c2",
                  "code_d1": "d1", "code_d2": "d2"}


def build_distillation_config(cfg: ExperimentConfig, p: float = 0.0) -> DistillationConfig:
    """The protocol of a config; a config that DistillationConfig refuses,
    such as one beyond the batched kernel, raises ConfigError naming its
    field."""
    spec = build_spec(cfg)
    c1, c2 = COMBINATIONS[cfg.combination] if cfg.combination else (cfg.c1, cfg.c2)
    d1, d2 = (
        value if value == "ideal" else None if value == "none" else _load_classical(value, name)
        for value, name in ((cfg.d1, "d1"), (cfg.d2, "d2"))
    )
    code_c1, code_c2 = _load_classical(c1, "c1"), _load_classical(c2, "c2")
    try:
        return DistillationConfig(spec=spec, code_c1=code_c1, code_c2=code_c2, code_d1=d1,
                                  code_d2=d2, model=FailureModel.uniform(p), n_extra=cfg.n_extra)
    except ValueError as exc:
        name, _, why = str(exc).partition(": ")
        raise ConfigError(f"{_CONFIG_FIELDS[name]}: {why}" if name in _CONFIG_FIELDS
                          else str(exc)) from None


# ---- metric emission -------------------------------------------------------

_X_BINS = (("px_w1", 1), ("px_w2", 2), ("px_w3", 3), ("px_gt3", "gt"))
_Z_BINS = (("pz_w1", 1), ("pz_w2", 2), ("pz_w3", 3))


def metric_rows(stats: RunStats) -> list[dict]:
    """One row per (p, metric): value, Wilson 95% bounds, count.  The
    effective rates invert the weight model at the block code's t, P_X(>t)
    and P_Z(t), which the exact bins 0..3 resolve only for t <= 3; a code
    with t = 0 has neither them nor a naive yield."""
    rows = []
    meta = stats.meta
    n, t = meta["n"], meta["t"]
    for s in stats.per_p:
        def emit(metric, count, total):
            if total:
                lo, hi = wilson_ci(count, total)
                rows.append(dict(p=s.p, metric=metric, value=count / total,
                                 ci_lo=lo, ci_hi=hi, count=count))

        for name, w in _X_BINS:
            emit(name, s.hist_x[4] if w == "gt" else s.hist_x[w], s.accepted)
        for name, w in _Z_BINS:
            emit(name, s.hist_z[w], s.accepted)
        emit("r1", s.rej1, s.cand1)
        emit("r2", s.rej2, s.cand2)
        emit("abort", s.aborted, s.trials)
        y_ft, y_naive = yields(s, meta, t=t)
        rows.append(dict(p=s.p, metric="yield_ft", value=y_ft, ci_lo=None, ci_hi=None, count=None))
        if y_naive is not None:
            rows.append(dict(p=s.p, metric="yield_naive", value=y_naive, ci_lo=None, ci_hi=None,
                             count=None))
        if s.accepted and 1 <= t <= 3:
            px_gt = sum(s.hist_x[t + 1:]) / s.accepted
            if 0 < px_gt < 1:
                rows.append(dict(p=s.p, metric="p_eff_x", ci_lo=None, ci_hi=None, count=None,
                                 value=effective_rate(px_gt, n, t, "tail")))
            pz_t = s.hist_z[t] / s.accepted
            try:
                if pz_t > 0:
                    rows.append(dict(p=s.p, metric="p_eff_z", ci_lo=None, ci_hi=None, count=None,
                                     value=effective_rate(pz_t, n, t, "point")))
            except ValueError:
                pass
    return rows


def slope_rows(rows: list[dict]) -> list[dict]:
    """Log-log fit of each weight bin and rejection rate of
    :func:`metric_rows` ``rows`` over the p where it is > 0."""
    metrics = [m for m, _ in _X_BINS + _Z_BINS] + ["r1", "r2"]
    table: dict[str, list] = {m: [] for m in metrics}
    for row in rows:
        if row["metric"] in table and row["value"] > 0:
            table[row["metric"]].append((row["p"], row["value"]))
    out = []
    for metric, pts in table.items():
        if len(pts) >= 2:
            fit = slope_fit(pts)
            out.append(dict(metric=metric, slope=fit.slope,
                            intercept=fit.intercept, stderr=fit.stderr,
                            points=len(pts)))
    return out


def write_csv(path: Path, rows: list[dict], fields: list[str]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k) for k in fields})


def print_summary(stats: RunStats, file=None) -> None:
    file = file if file is not None else sys.stdout
    rows = metric_rows(stats)
    by_p: dict[float, dict] = {}
    for row in rows:
        by_p.setdefault(row["p"], {})[row["metric"]] = row["value"]
    cols = ["px_w1", "px_w2", "px_w3", "px_gt3", "pz_w1", "pz_w2", "pz_w3",
            "r1", "r2", "yield_ft", "p_eff_x", "p_eff_z"]
    print("p        " + " ".join(f"{c:>9}" for c in cols), file=file)
    for p in sorted(by_p):
        vals = by_p[p]
        cells = []
        for c in cols:
            v = vals.get(c)
            cells.append(f"{v:9.3g}" if v is not None else f"{'-':>9}")
        print(f"{p:<9.3g}" + " ".join(cells), file=file)
    srows = slope_rows(rows)
    if srows:
        print("\nlog-log slopes:", file=file)
        for row in srows:
            print(f"  {row['metric']:>8}: {row['slope']:6.2f} "
                  f"(+/- {row['stderr']:.2f}, {row['points']} pts)", file=file)


# ---- commands --------------------------------------------------------------

def _make_out_dir(directory: Path, field: str, path: Path) -> None:
    """Create an output directory before any work, so that a bad output
    path exits 1, naming ``field`` and ``path``, without losing a run."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
        if path.is_dir() and path != directory:
            raise IsADirectoryError(f"{path} is a directory")
    except OSError as exc:
        raise ConfigError(f"{field}: cannot write {path}: {exc}") from None


def cmd_simulate(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    workers = args.workers
    if workers is None:
        try:
            workers = default_workers()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    elif workers < 1:
        raise ConfigError(f"--workers: expected an integer >= 1, got {workers}")
    dconfig = build_distillation_config(cfg)
    out_path = Path(args.out or cfg.out or "results.json")
    if out_path.suffix == ".csv":
        raise ConfigError(f"out: {out_path} is where the CSV table of the results goes; "
                          "name the JSON results file with another suffix")
    _make_out_dir(out_path.parent, "out", out_path)
    stats = run_experiment(dconfig, cfg.p_grid, trials_per_p=cfg.trials_per_p, seed=cfg.seed,
                           workers=workers, w_cap=cfg.w_cap)
    out_path.write_text(stats.to_json(), encoding="utf-8")
    csv_path = out_path.with_suffix(".csv")
    write_csv(csv_path, metric_rows(stats), ["p", "metric", "value", "ci_lo", "ci_hi", "count"])
    print_summary(stats)
    print(f"\nresults: {out_path} and {csv_path}")
    return 0


def parse_scenario(text: str) -> dict[str, dict[int, FaultInjection]]:
    """Scenario lines: '<stage> <instance> <step> <gate_idx> <pauli>'.

    Stage is prep (instance = block unit) or round1/round2 (instance =
    group); step and gate index a location of that stage's circuit.
    """
    staged: dict[str, dict[int, list[Fault]]] = {"prep": {}, "round1": {}, "round2": {}}
    for lineno, ln in enumerate(text.strip().splitlines(), 1):
        parts = ln.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) < 5 or parts[0] not in staged:
            raise ConfigError(f"scenario line {lineno}: expected "
                              f"'<prep|round1|round2> <instance> <step> <gate> <pauli>'")
        stage, pauli = parts[0], parts[4]
        if set(pauli) - set("IXYZ"):
            raise ConfigError(f"scenario line {lineno}: pauli: expected letters from IXYZ, "
                              f"got {pauli!r}")

        def integer(field: str, text: str) -> int:
            try:
                return int(text)
            except ValueError:
                raise ConfigError(f"scenario line {lineno}: {field}: expected an integer, "
                                  f"got {text!r}") from None

        inst, step = integer("instance", parts[1]), integer("step", parts[2])
        staged[stage].setdefault(inst, []).append(Fault(step, integer("gate", parts[3]), pauli))
    return {
        stage: {inst: FaultInjection(tuple(fl)) for inst, fl in d.items()}
        for stage, d in staged.items()
    }


def cmd_inject(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"scenario: cannot read {args.scenario}: {exc}") from exc
    staged = parse_scenario(text)
    dconfig = build_distillation_config(cfg)
    runner = ProtocolRunner(dconfig)
    try:
        outcome = runner.run_injected(
            prep_faults=staged["prep"],
            round1_faults=staged["round1"],
            round2_faults=staged["round2"],
        )
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc

    table = dconfig.spec.weight_table(cfg.w_cap)
    print(f"aborted: {outcome.aborted}")
    print(f"round1: {outcome.rej1}/{outcome.cand1} rejected; "
          f"round2: {outcome.rej2}/{outcome.cand2} rejected")
    for idx, (e, f) in enumerate(outcome.outputs):
        wx = table.x_weight(e)
        wz = table.z_weight(f)
        wx_s = str(wx) if wx is not None else f">{cfg.w_cap}"
        wz_s = str(wz) if wz is not None else f">{cfg.w_cap}"
        print(f"output {idx}: residual wX={wx_s} wZ={wz_s} "
              f"e={[hex(b) for b in e]} f={[hex(b) for b in f]}")
    for stage, circ in (("prep", runner.enc_circuit),
                        ("round1", runner.round1.circuit),
                        ("round2", runner.round2.circuit)):
        for inst, inj in staged[stage].items():
            x_sup, z_sup = effective_support(inj, circ)
            xs = {b: bin(v) for b, v in enumerate(x_sup) if v}
            zs = {b: bin(v) for b, v in enumerate(z_sup) if v}
            print(f"QE[{stage}:{inst}] X={xs or '{}'} Z={zs or '{}'}")
    return 0


def cmd_analyze(args) -> int:
    path = Path(args.results)
    try:
        stats = RunStats.from_json(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"results: cannot read {path}: {exc}") from exc
    out_dir = Path(args.out_dir)
    _make_out_dir(out_dir, "out-dir", out_dir)
    rows = metric_rows(stats)
    groups = {
        "weights_x.csv": [r for r in rows if r["metric"].startswith("px_")],
        "weights_z.csv": [r for r in rows if r["metric"].startswith("pz_")],
        "rejection.csv": [r for r in rows if r["metric"] in ("r1", "r2", "abort")],
        "yield.csv": [r for r in rows if r["metric"].startswith("yield")],
        "effective_rate.csv": [r for r in rows if r["metric"].startswith("p_eff")],
    }
    for fname, grp in groups.items():
        write_csv(out_dir / fname, grp, ["p", "metric", "value", "ci_lo", "ci_hi", "count"])
    srows = slope_rows(rows)
    if len(stats.per_p) >= 2 and srows:
        write_csv(out_dir / "slopes.csv", srows,
                  ["metric", "slope", "intercept", "stderr", "points"])
    print(f"wrote {len(groups)} metric files to {out_dir}")
    return 0


def cmd_codes(args) -> int:
    for name in codes_mod.REGISTRY_NAMES:  # "list", the one action argparse accepts
        code = registry(name)
        print(f"{name:14} [{code.n},{code.k},{code.d}]  t={code.t}  "
              f"max column weight of A: {code.max_col_weight}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cssdistill",
        description="Fault-tolerant distillation of CSS stabilizer ancillas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--workers", type=int, default=None,
                       help="worker processes (default $CSSDISTILL_WORKERS or all cores)")
    p_sim.set_defaults(func=cmd_simulate)

    p_inj = sub.add_parser("inject", help="run one deterministic fault scenario")
    p_inj.add_argument("--scenario", required=True)
    p_inj.add_argument("--config", required=True)
    p_inj.set_defaults(func=cmd_inject)

    p_ana = sub.add_parser("analyze", help="emit plot CSVs from results JSON")
    p_ana.add_argument("--results", required=True)
    p_ana.add_argument("--out-dir", required=True)
    p_ana.set_defaults(func=cmd_analyze)

    p_codes = sub.add_parser("codes", help="registry utilities")
    p_codes.add_argument("action", choices=["list"])
    p_codes.set_defaults(func=cmd_codes)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
