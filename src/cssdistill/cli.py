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
from dataclasses import asdict, dataclass, field, fields
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

_DEFAULT_D = ("golay23", "golay23_dual")


@dataclass
class ExperimentConfig:
    """JSON-serializable description of one experiment.

    ``css`` names the classical codes of the quantum code ({"cx", "cz"}
    registry names or {"cx_file", "cz_file"} paths); ``combination``
    resolves c1/c2 from the named pair ("A".."D" or "name1+name2");
    ``d1``/``d2`` accept registry names, file paths ({"file": path}),
    "none" or "ideal".
    """

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
    ideal_postselection: bool = False
    out: str | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)

    def to_dict(self) -> dict:
        out = asdict(self)
        return out

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(raw)


def _load_classical(value, fieldname: str) -> LinearCode:
    if isinstance(value, str):
        if value in codes_mod.REGISTRY_NAMES:
            return registry(value)
        raise ConfigError(f"{fieldname}: unknown code name {value!r}")
    if isinstance(value, dict) and "file" in value:
        if not isinstance(value["file"], str):
            raise ConfigError(f"{fieldname}: expected a file path, got {value['file']!r}")
        try:
            return codes_mod.load_code(value["file"], name=value.get("name", ""))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{fieldname}: {exc}") from exc
    raise ConfigError(f"{fieldname}: expected a registry name or {{'file': path}}")


def _load_detecting(value, fieldname: str):
    if value in (None, "none"):
        return None
    if value == "ideal":
        return "ideal"
    return _load_classical(value, fieldname)


_ANCILLA_KEYS = ("kind", "i", "j", "basis")


def build_spec(cfg: ExperimentConfig) -> AncillaSpec:
    css_d = cfg.css
    if "cx_file" in css_d or "cz_file" in css_d:
        for name, other in (("cx_file", "cz_file"), ("cz_file", "cx_file")):
            if name not in css_d:
                raise ConfigError(f"css.{name}: required with css.{other}")
        cx = _load_classical({"file": css_d["cx_file"]}, "css.cx_file")
        cz = _load_classical({"file": css_d["cz_file"]}, "css.cz_file")
    else:
        cx = _load_classical(css_d.get("cx", "golay23"), "css.cx")
        cz = _load_classical(css_d.get("cz", "golay23"), "css.cz")
    try:
        quantum = build_css(cx, cz)
    except ValueError as exc:
        raise ConfigError(f"css: {exc}") from exc
    for name in cfg.ancilla:
        if name not in _ANCILLA_KEYS:
            raise ConfigError(f"ancilla.{name}: unknown key; expected one of {list(_ANCILLA_KEYS)}")
    basis = cfg.ancilla.get("basis", "Z")
    if basis not in ("Z", "X"):
        raise ConfigError(f"ancilla.basis: expected 'Z' or 'X', got {basis!r}")
    kind = cfg.ancilla.get("kind", "zero")
    blocks = [quantum, quantum] if kind == "bell" else quantum
    for name in ("i", "j"):
        value = cfg.ancilla.get(name, 0)
        if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < quantum.k:
            raise ConfigError(f"ancilla.{name}: expected a logical qubit index in "
                              f"0..{quantum.k - 1}, got {value!r}")
    try:
        return build_ancilla_spec(
            blocks,
            kind,
            i=cfg.ancilla.get("i", 0),
            j=cfg.ancilla.get("j", 0),
            basis=basis,
        )
    except ValueError as exc:
        raise ConfigError(f"ancilla: {exc}") from exc


def build_distillation_config(cfg: ExperimentConfig, p: float = 0.0) -> DistillationConfig:
    spec = build_spec(cfg)
    c1, c2 = cfg.c1, cfg.c2
    if cfg.combination:
        name = cfg.combination
        if name in COMBINATIONS:
            c1n, c2n = COMBINATIONS[name]
        elif "+" in name:
            c1n, c2n = name.split("+", 1)
        else:
            raise ConfigError(f"combination: unknown name {name!r}")
        c1, c2 = c1n, c2n
    if c1 is None or c2 is None:
        raise ConfigError("c1/c2: set both codes or a combination name")
    code_c1 = _load_classical(c1, "c1")
    code_c2 = _load_classical(c2, "c2")
    d1 = "ideal" if cfg.ideal_postselection else _load_detecting(cfg.d1, "d1")
    d2 = "ideal" if cfg.ideal_postselection else _load_detecting(cfg.d2, "d2")
    for dval, s, fieldname in ((d1, spec.s1, "d1"), (d2, spec.s2, "d2")):
        if isinstance(dval, LinearCode) and dval.k != len(s):
            raise ConfigError(
                f"{fieldname}: error-detecting code must encode k={len(s)} bits, "
                f"got k={dval.k}"
            )
    try:
        return DistillationConfig(
            spec=spec,
            code_c1=code_c1,
            code_c2=code_c2,
            code_d1=d1,
            code_d2=d2,
            model=FailureModel.uniform(p),
            n_extra=cfg.n_extra,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---- metric emission -------------------------------------------------------

_X_BINS = (("px_w1", 1), ("px_w2", 2), ("px_w3", 3), ("px_gt3", "gt"))
_Z_BINS = (("pz_w1", 1), ("pz_w2", 2), ("pz_w3", 3))


def metric_rows(stats: RunStats) -> list[dict]:
    """One row per (p, metric): value, Wilson 95% bounds, count."""
    rows = []
    meta = stats.meta
    n = meta["n"]
    t = 3
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
        rows.append(dict(p=s.p, metric="yield_naive", value=y_naive, ci_lo=None, ci_hi=None, count=None))
        if s.accepted:
            px_gt = (s.hist_x[4]) / s.accepted
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


def slope_rows(stats: RunStats) -> list[dict]:
    rows = []
    metrics = [m for m, _ in _X_BINS] + [m for m, _ in _Z_BINS] + ["r1", "r2"]
    table = {m: [] for m in metrics}
    for s in stats.per_p:
        for name, w in _X_BINS:
            v = s.weight_fraction("x", w)
            if v:
                table[name].append((s.p, v))
        for name, w in _Z_BINS:
            v = s.weight_fraction("z", w)
            if v:
                table[name].append((s.p, v))
        if s.r1 > 0:
            table["r1"].append((s.p, s.r1))
        if s.r2 > 0:
            table["r2"].append((s.p, s.r2))
    for metric, pts in table.items():
        if len(pts) >= 2:
            fit = slope_fit(pts)
            rows.append(dict(metric=metric, slope=fit.slope,
                             intercept=fit.intercept, stderr=fit.stderr,
                             points=len(pts)))
    return rows


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
    srows = slope_rows(stats)
    if srows:
        print("\nlog-log slopes:", file=file)
        for row in srows:
            print(f"  {row['metric']:>8}: {row['slope']:6.2f} "
                  f"(+/- {row['stderr']:.2f}, {row['points']} pts)", file=file)


# ---- commands --------------------------------------------------------------

def _check_types(cfg: ExperimentConfig) -> None:
    """Type checks of the fields every command reads; an integral float
    such as 1e3 is taken as an integer."""
    for name in ("seed", "w_cap", "n_extra"):
        value = getattr(cfg, name)
        if isinstance(value, float) and value.is_integer():
            value = int(value)
            setattr(cfg, name, value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name}: expected an integer, got {value!r}")
    for name in ("css", "ancilla"):
        if not isinstance(getattr(cfg, name), dict):
            raise ConfigError(f"{name}: expected an object, got {getattr(cfg, name)!r}")
    for name in ("combination", "out"):
        value = getattr(cfg, name)
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{name}: expected a string or null, got {value!r}")
    kind = cfg.ancilla.get("kind", "zero")
    if not isinstance(kind, str):
        raise ConfigError(f"ancilla.kind: expected a string, got {kind!r}")


def _run_size(cfg: ExperimentConfig) -> tuple[list[float], int]:
    """The checked p grid and trial count of a simulate config."""
    grid, trials = cfg.p_grid, cfg.trials_per_p
    if not isinstance(grid, list) or not grid:
        raise ConfigError(f"p_grid: expected a non-empty list of failure rates, got {grid!r}")
    for p in grid:
        if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
            raise ConfigError(f"p_grid: expected failure rates in [0, 1], got {p!r}")
    if isinstance(trials, float) and trials.is_integer():
        trials = int(trials)
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ConfigError(f"trials_per_p: expected an integer >= 1, got {trials!r}")
    return [float(p) for p in grid], trials


def cmd_simulate(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    _check_types(cfg)
    grid, trials = _run_size(cfg)
    workers = args.workers
    if not workers:
        try:
            workers = default_workers()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    dconfig = build_distillation_config(cfg)
    out_path = Path(args.out or cfg.out or "results.json")
    stats = run_experiment(
        dconfig,
        grid,
        trials_per_p=trials,
        seed=cfg.seed,
        workers=workers,
        w_cap=cfg.w_cap,
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
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
    _check_types(cfg)
    dconfig = build_distillation_config(cfg)
    runner = ProtocolRunner(dconfig)
    staged = parse_scenario(Path(args.scenario).read_text(encoding="utf-8"))
    try:
        outcome = runner.run_injected(
            prep_faults=staged["prep"],
            round1_faults=staged["round1"],
            round2_faults=staged["round2"],
        )
    except (ValueError, IndexError, KeyError) as exc:
        raise ConfigError(f"scenario: invalid circuit location ({exc})") from exc

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
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"results: cannot read {path}: {exc}") from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    srows = slope_rows(stats)
    if len(stats.per_p) >= 2 and srows:
        write_csv(out_dir / "slopes.csv", srows,
                  ["metric", "slope", "intercept", "stderr", "points"])
    print(f"wrote {len(groups)} metric files to {out_dir}")
    return 0


def cmd_codes(args) -> int:
    if args.action == "list":
        for name in codes_mod.REGISTRY_NAMES:
            code = registry(name)
            print(f"{name:14} [{code.n},{code.k},{code.d}]  t={code.t}  "
                  f"max column weight of A: {code.max_col_weight}")
        return 0
    raise ConfigError(f"codes: unknown action {args.action!r}")


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
