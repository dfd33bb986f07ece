import json

import pytest

from cssdistill.cli import (
    COMBINATIONS,
    ConfigError,
    ExperimentConfig,
    build_distillation_config,
    main,
    metric_rows,
    parse_scenario,
)
from cssdistill.distill import ProtocolRunner
from cssdistill.montecarlo import RunStats, PStats


def write_config(tmp_path, **overrides):
    cfg = {
        "combination": "A",
        "p_grid": [1e-3],
        "trials_per_p": 5,
        "seed": 7,
        "n_extra": 2,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = ExperimentConfig(combination="B", p_grid=[1e-4], trials_per_p=3)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.from_dict({"frobnicate": 1})

    @pytest.mark.parametrize("name", list(COMBINATIONS))
    def test_combinations_resolve_to_known_pairs(self, name):
        cfg = ExperimentConfig(combination=name, trials_per_p=1)
        dc = build_distillation_config(cfg)
        c1n, c2n = COMBINATIONS[name]
        assert dc.code_c1.name == c1n and dc.code_c2.name == c2n
        assert dc.code_d1.name == "golay23" and dc.code_d2.name == "golay23_dual"

    def test_plus_syntax(self):
        cfg = ExperimentConfig(combination="rep3+rep3", trials_per_p=1)
        dc = build_distillation_config(cfg)
        assert dc.code_c1.name == "rep3" and dc.code_c2.name == "rep3"

    def test_missing_detecting_code_dimension_error(self):
        cfg = ExperimentConfig(combination="A", d1="golay23_dual")
        with pytest.raises(ConfigError, match="d1.*k=12.*k=11"):
            build_distillation_config(cfg)

    def test_postselection_disabled(self):
        cfg = ExperimentConfig(combination="A", d1="none", d2="none")
        dc = build_distillation_config(cfg)
        assert dc.code_d1 is None and dc.code_d2 is None

    def test_ideal_flag(self):
        cfg = ExperimentConfig(combination="D", ideal_postselection=True)
        dc = build_distillation_config(cfg)
        assert dc.code_d1 == "ideal" and dc.code_d2 == "ideal"

    def test_code_from_file(self, tmp_path):
        p = tmp_path / "rep3.txt"
        p.write_text("d=3\n2 3\n110\n011\n")
        cfg = ExperimentConfig(c1={"file": str(p)}, c2="rep3", d1="golay23", d2="golay23_dual")
        dc = build_distillation_config(cfg)
        assert dc.code_c1.n == 3


class TestSimulate:
    def test_p_zero_run(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, p_grid=[0.0], trials_per_p=4,
                                out=str(tmp_path / "res.json"))
        rc = main(["simulate", "--config", str(cfg_path), "--workers", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "yield_ft" in out
        data = json.loads((tmp_path / "res.json").read_text())
        stats = RunStats.from_dict(data)
        assert stats.per_p[0].accepted == 4 * 49
        assert stats.per_p[0].hist_x[0] == 4 * 49
        y = [r for r in metric_rows(stats) if r["metric"] == "yield_ft"]
        assert y[0]["value"] == pytest.approx(49 / 225)
        assert (tmp_path / "res.csv").exists()

    def test_validation_failure_exit_code(self, tmp_path):
        cfg_path = write_config(tmp_path, combination="Z")
        assert main(["simulate", "--config", str(cfg_path)]) == 1

    def test_bad_json_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["simulate", "--config", str(path)]) == 1

    @pytest.mark.parametrize("field,value", [
        ("p_grid", [2.0]),
        ("p_grid", ["abc"]),
        ("p_grid", 1e-3),
        ("trials_per_p", 0),
    ], ids=["p-above-one", "p-not-a-number", "grid-not-a-list", "zero-trials"])
    def test_bad_run_size_names_field(self, tmp_path, capsys, field, value):
        cfg_path = write_config(tmp_path, **{field: value})
        assert main(["simulate", "--config", str(cfg_path), "--workers", "1"]) == 1
        assert f"error: {field}: " in capsys.readouterr().err

    def test_bad_workers_variable_names_it(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CSSDISTILL_WORKERS", "abc")
        assert main(["simulate", "--config", str(write_config(tmp_path))]) == 1
        assert "error: CSSDISTILL_WORKERS: " in capsys.readouterr().err


class TestInject:
    def test_empty_scenario_all_accepted(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, combination="D")
        scen = tmp_path / "empty.txt"
        scen.write_text("# nothing\n")
        rc = main(["inject", "--scenario", str(scen), "--config", str(cfg_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "round1: 0/" in out
        assert "wX=0 wZ=0" in out

    def test_single_fault_report(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, combination="D")
        # round1 group 0: fault on the first CNOT gate of step 0.
        scen = tmp_path / "one.txt"
        scen.write_text("round1 0 0 0 XI\n")
        rc = main(["inject", "--scenario", str(scen), "--config", str(cfg_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "QE[round1:0]" in out

    def test_invalid_location(self, tmp_path):
        cfg_path = write_config(tmp_path, combination="D")
        scen = tmp_path / "bad.txt"
        scen.write_text("round1 0 99 0 XI\n")
        assert main(["inject", "--scenario", str(scen), "--config", str(cfg_path)]) == 1

    def test_identity_fault_is_a_no_op(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, combination="D")
        runner = ProtocolRunner(build_distillation_config(ExperimentConfig.load(str(cfg_path))))
        step, gate = runner.enc_cnot_locs[0]
        scen = tmp_path / "identity.txt"
        scen.write_text(f"prep 1 {step} {gate} II\nround1 0 0 0 II\n")
        assert main(["inject", "--scenario", str(scen), "--config", str(cfg_path)]) == 0
        assert "wX=0 wZ=0" in capsys.readouterr().out

    @pytest.mark.parametrize("line,message", [
        ("prep 15 0 0 X", "unit 15 is outside 0..14"),
        ("prep -1 0 0 X", "unit -1 is outside 0..14"),
        ("round1 5 0 0 XI", "round 1 group 5 is outside 0..4"),
        ("round2 -1 0 0 XI", "round 2 group -1 is outside 0..0"),
    ])
    def test_instance_out_of_range(self, tmp_path, capsys, line, message):
        cfg_path = write_config(tmp_path, combination="D")
        scen = tmp_path / "bad.txt"
        scen.write_text(f"{line}\n")
        assert main(["inject", "--scenario", str(scen), "--config", str(cfg_path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("line,field", [
        ("prep x 0 0 X", "instance"),
        ("prep 0 s 0 X", "step"),
        ("prep 0 0 zz X", "gate"),
        ("round1 0 0 mem X 0 0", "gate"),
        ("round2 0 0 mem Z 0 0", "gate"),
    ])
    def test_malformed_scenario_line(self, tmp_path, capsys, line, field):
        cfg_path = write_config(tmp_path, combination="D")
        scen = tmp_path / "bad.txt"
        scen.write_text(f"# header\n{line}\n")
        assert main(["inject", "--scenario", str(scen), "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scenario line 2: ")
        assert f" {field}: " in err

    def test_two_fault_scenario_reports_heavy_block(self, tmp_path, capsys):
        # One distillation CNOT fault plus one preparation fault, Hamming
        # check code, postselection off: the report names an output block
        # with residual X weight above 3.
        cfg_path = write_config(tmp_path, combination="C", d1="none", d2="none")
        cfg = ExperimentConfig.load(str(cfg_path))
        runner = __import__("cssdistill.distill", fromlist=["ProtocolRunner"]).ProtocolRunner(
            build_distillation_config(cfg)
        )
        # preparation fault: X on qubit 13 right after its prep in unit 4
        prep_loc = next(
            (s, g)
            for s, g, gate in runner.enc_circuit.gates()
            if gate.kind.startswith("prep") and gate.locs[0] == (0, 13)
        )
        # distillation fault: X on the control of data block 3's first
        # transversal layer at qubit 11 (round-1 circuit of group 0)
        rnd = runner.round1
        first_layer = min(layer for layer, (i, j) in enumerate(rnd.layers) if j == 0)
        dist_loc = next(
            key
            for key, (layer, blk, q) in rnd._gate_index.items()
            if layer == first_layer and q == 11
        )
        scen = tmp_path / "thm1.txt"
        scen.write_text(
            f"prep 4 {prep_loc[0]} {prep_loc[1]} X\n"
            f"round1 0 {dist_loc[0]} {dist_loc[1]} XI\n"
        )
        rc = main(["inject", "--scenario", str(scen), "--config", str(cfg_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wX=4" in out or "wX=>4" in out

    def test_scenario_parse(self):
        staged = parse_scenario("prep 3 0 1 X\nround2 1 2 5 ZZ\n")
        assert 3 in staged["prep"] and len(staged["prep"][3]) == 1
        assert staged["round2"][1].items[0].pauli == "ZZ"


class TestAnalyze:
    def _fake_stats(self, ps):
        meta = {"kind": "zero", "n": 23, "k_c1": 7, "n_c1": 15, "k_c2": 7,
                "n_c2": 15, "n_extra": 2, "seed": 0, "w_cap": 4,
                "trials_per_p": 10, "postselection": True, "p_grid": [s.p for s in ps]}
        return RunStats(meta=meta, per_p=ps)

    def test_single_p_no_slopes(self, tmp_path):
        s = PStats(p=1e-3, trials=10, accepted=100, cand1=70, rej1=1,
                   cand2=70, rej2=2, hist_x=[90, 6, 3, 1, 0], hist_z=[95, 4, 1, 0, 0])
        stats = self._fake_stats([s])
        res = tmp_path / "r.json"
        res.write_text(stats.to_json())
        rc = main(["analyze", "--results", str(res), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "weights_x.csv").exists()
        assert not (tmp_path / "out" / "slopes.csv").exists()

    def test_three_p_slopes_emitted(self, tmp_path):
        ps = []
        for i, p in enumerate((1e-4, 2e-4, 4e-4)):
            scale = 2**i
            ps.append(PStats(p=p, trials=10, accepted=10000,
                             cand1=70, rej1=scale, cand2=70, rej2=scale,
                             hist_x=[9000, 600 * scale, 100 * scale * scale, 0, 0],
                             hist_z=[9600, 300 * scale, 0, 0, 0]))
        stats = self._fake_stats(ps)
        res = tmp_path / "r.json"
        res.write_text(stats.to_json())
        rc = main(["analyze", "--results", str(res), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        slopes = (tmp_path / "out" / "slopes.csv").read_text()
        assert "px_w1" in slopes and "px_w2" in slopes

    def test_empty_accepted_metrics_absent(self, tmp_path):
        s = PStats(p=1e-3, trials=10, accepted=0, cand1=70, rej1=70, cand2=0, rej2=0)
        stats = self._fake_stats([s])
        res = tmp_path / "r.json"
        res.write_text(stats.to_json())
        rc = main(["analyze", "--results", str(res), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        wx = (tmp_path / "out" / "weights_x.csv").read_text().strip().splitlines()
        assert len(wx) == 1  # header only: absent, not zero

    def test_malformed_results(self, tmp_path):
        res = tmp_path / "r.json"
        res.write_text("{}")
        assert main(["analyze", "--results", str(res), "--out-dir", str(tmp_path / "o")]) == 1


class TestCodesCommand:
    def test_list(self, capsys):
        assert main(["codes", "list"]) == 0
        out = capsys.readouterr().out
        assert "golay23" in out and "[23,12,7]" in out
