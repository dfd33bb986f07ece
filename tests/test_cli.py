import json
from dataclasses import fields
from importlib import resources

import pytest

from cssdistill import cli
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

    def test_every_way_of_making_a_config_checks_it(self, tmp_path):
        bad = {"combination": "D", "w_cap": 2}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(bad))
        for make in (lambda: ExperimentConfig(**bad), lambda: ExperimentConfig.from_dict(bad),
                     lambda: ExperimentConfig.load(str(path))):
            with pytest.raises(ConfigError, match="^w_cap: expected an integer in 3..5, got 2$"):
                make()
        # An integral float is taken as an integer, and p_grid as floats.
        cfg = ExperimentConfig(combination="D", trials_per_p=1e3, seed=7.0, p_grid=[0, 1])
        assert (cfg.trials_per_p, cfg.seed, cfg.p_grid) == (1000, 7, [0.0, 1.0])
        assert type(cfg.trials_per_p) is int and type(cfg.p_grid[0]) is float


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

    @pytest.mark.parametrize("field,value,named", [
        ("seed", "abc", "seed"),
        ("w_cap", "x", "w_cap"),
        ("n_extra", "x", "n_extra"),
        ("n_extra", 1.5, "n_extra"),
        ("ancilla", "zero", "ancilla"),
        ("css", "golay", "css"),
        ("combination", 5, "combination"),
        ("ancilla", {"kind": ["zero"]}, "ancilla.kind"),
        ("out", 5, "out"),
    ], ids=["seed-string", "w_cap-string", "n_extra-string", "n_extra-fraction",
            "ancilla-string", "css-string", "combination-number", "kind-list", "out-number"])
    def test_wrong_type_names_field(self, tmp_path, capsys, field, value, named):
        cfg_path = write_config(tmp_path, **{field: value})
        assert main(["simulate", "--config", str(cfg_path), "--workers", "1"]) == 1
        assert f"error: {named}: " in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["c1", "c2", "d1", "d2", "css.cx_file", "css.cz_file"])
    @pytest.mark.parametrize("path", [2**20, None], ids=["descriptor", "null"])
    def test_code_file_must_be_a_path(self, tmp_path, capsys, field, path):
        # An integer would open as a file descriptor (2**20 is not an open
        # one, so nothing is read from or closed in this process).
        code = tmp_path / "rep3.txt"
        code.write_text("d=3\n2 3\n110\n011\n")
        cfg = {"combination": None, "c1": "rep3", "c2": "rep3", "p_grid": [0.0]}
        if field.startswith("css."):
            cfg["css"] = {"cx_file": str(code), "cz_file": str(code)}
            cfg["css"][field[4:]] = path
        else:
            cfg[field] = {"file": path}
        cfg_path = write_config(tmp_path, **cfg)
        assert main(["simulate", "--config", str(cfg_path), "--workers", "1"]) == 1
        assert f"error: {field}: expected a file path, got {path!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("given,missing", [("cx_file", "cz_file"), ("cz_file", "cx_file")])
    def test_half_file_pair_names_missing_field(self, tmp_path, capsys, given, missing):
        code = tmp_path / "rep3.txt"
        code.write_text("d=3\n2 3\n110\n011\n")
        cfg_path = write_config(tmp_path, css={given: str(code)})
        assert main(["simulate", "--config", str(cfg_path), "--workers", "1"]) == 1
        assert f"error: css.{missing}: " in capsys.readouterr().err

    @pytest.mark.parametrize("ancilla,field", [
        ({"kind": "zero", "frob": 1}, "frob"),
        ({"kind": "bell", "block": 2}, "block"),
        ({"kind": "zero", "basis": "Y"}, "basis"),
        ({"kind": "mixed", "basis": "Y"}, "basis"),
        ({"kind": "plus", "basis": 1}, "basis"),
    ], ids=["unknown-key", "unknown-key-bell", "zero-basis-Y", "mixed-basis-Y", "basis-number"])
    def test_bad_ancilla_key_names_it(self, tmp_path, capsys, ancilla, field):
        cfg_path = write_config(tmp_path, combination="D", p_grid=[0.0], ancilla=ancilla)
        assert main(["simulate", "--config", str(cfg_path), "--workers", "1"]) == 1
        assert f"error: ancilla.{field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "inject"])
    @pytest.mark.parametrize("kind", ["omega", "theta"])
    def test_unknown_kind_names_ancilla(self, tmp_path, capsys, command, kind):
        cfg_path = write_config(tmp_path, combination="D", ancilla={"kind": kind})
        scen = tmp_path / "empty.txt"
        scen.write_text("")
        extra = ["--workers", "1"] if command == "simulate" else ["--scenario", str(scen)]
        assert main([command, "--config", str(cfg_path), *extra]) == 1
        assert f"error: ancilla: unknown ancilla kind {kind!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("ancilla,field", [
        ({"kind": "bell", "i": "x"}, "i"),
        ({"kind": "bell", "i": 1.5}, "i"),
        ({"kind": "bell", "j": None}, "j"),
        ({"kind": "bell", "i": True}, "i"),
        ({"kind": "mixed", "j": 5}, "j"),
        ({"kind": "bell", "i": -1}, "i"),
    ], ids=["i-string", "i-fraction", "j-null", "i-bool", "j-above-k", "i-negative"])
    def test_bad_logical_index_names_field(self, tmp_path, capsys, ancilla, field):
        # The Golay code has k = 1, so 0 is the only logical index.
        cfg_path = write_config(tmp_path, combination="D", p_grid=[0.0], ancilla=ancilla)
        assert main(["simulate", "--config", str(cfg_path), "--workers", "1"]) == 1
        assert f"error: ancilla.{field}: expected a logical qubit index in 0..0" \
            in capsys.readouterr().err

    def test_bad_workers_variable_names_it(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CSSDISTILL_WORKERS", "abc")
        assert main(["simulate", "--config", str(write_config(tmp_path))]) == 1
        assert "error: CSSDISTILL_WORKERS: " in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["-3", "0"])
    def test_workers_below_one_names_option(self, tmp_path, capsys, workers):
        cfg_path = write_config(tmp_path, combination="D", p_grid=[0.0], trials_per_p=1,
                                out=str(tmp_path / "res.json"))
        assert main(["simulate", "--config", str(cfg_path), "--workers", workers]) == 1
        assert capsys.readouterr().err.startswith("error: --workers: ")
        assert not (tmp_path / "res.json").exists()

    @pytest.mark.parametrize("command,missing", [
        ("simulate", "config"), ("inject", "config"), ("inject", "scenario"),
    ])
    def test_missing_input_file_names_it(self, tmp_path, capsys, command, missing):
        files = {"config": write_config(tmp_path, combination="D"), "scenario": tmp_path / "s.txt"}
        files["scenario"].write_text("")
        files[missing] = tmp_path / "absent" / "file"
        extra = ["--workers", "1"] if command == "simulate" else ["--scenario", str(files["scenario"])]
        assert main([command, "--config", str(files["config"]), *extra]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {missing}: cannot read {files[missing]}: ")

    @pytest.mark.parametrize("where", ["parent-is-a-file", "out-is-a-directory"])
    def test_bad_out_path_fails_before_any_trial(self, tmp_path, capsys, monkeypatch, where):
        # A finished run used to be lost to a bad output path: the
        # directory was made only after every trial ran.
        (tmp_path / "afile").write_text("")
        (tmp_path / "adir").mkdir()
        out = tmp_path / "afile" / "out.json" if where == "parent-is-a-file" else tmp_path / "adir"
        cfg_path = write_config(tmp_path, combination="D", p_grid=[0.0], trials_per_p=1)
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("trials ran"))
        assert main(["simulate", "--config", str(cfg_path), "--workers", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: out: cannot write {out}: ")

    # Inputs that were silently ignored or misread: each must exit 1 naming
    # the field.  GOLAY is a path, so css.cx beside the file pair is the
    # only fault of that case.
    @pytest.mark.parametrize("overrides,named", [
        ({"ideal_postselection": "yes"}, "ideal_postselection"),
        ({"ideal_postselection": "false"}, "ideal_postselection"),
        ({"ideal_postselection": 1}, "ideal_postselection"),
        ({"css": {"cx": "golay23", "cz": "golay23", "frob": 1}}, "css.frob"),
        ({"combination": None, "c1": {"file": "GOLAY", "frob": 1}, "c2": "rep3"}, "c1.frob"),
        ({"combination": None, "c1": {"file": "GOLAY", "name": 5}, "c2": "rep3"}, "c1.name"),
        ({"css": {"cx": "golay23", "cx_file": "GOLAY", "cz_file": "GOLAY"}}, "css.cx"),
        ({"css": {"cz": "golay23", "cx_file": "GOLAY", "cz_file": "GOLAY"}}, "css.cz"),
        ({"c1": "rep5"}, "c1"),
        ({"c2": "rep5"}, "c2"),
        ({"w_cap": 0}, "w_cap"),
    ], ids=["postselection-yes", "postselection-false-string", "postselection-one",
            "css-unknown-key", "code-file-unknown-key", "code-file-name-number",
            "cx-beside-files", "cz-beside-files", "c1-with-combination", "c2-with-combination",
            "w_cap-zero"])
    def test_ignored_input_names_field(self, tmp_path, capsys, overrides, named):
        golay = str(resources.files("cssdistill.data").joinpath("golay23.txt"))
        overrides = json.loads(json.dumps(overrides).replace('"GOLAY"', json.dumps(golay)))
        cfg_path = write_config(tmp_path, **{"combination": "D", "p_grid": [0.0], "trials_per_p": 1,
                                             "out": str(tmp_path / "res.json"), **overrides})
        assert main(["simulate", "--config", str(cfg_path), "--workers", "1"]) == 1
        assert f"error: {named}: " in capsys.readouterr().err


# One bad value per FIELDS entry, with the field its message names.
BAD_FIELD_VALUES = {
    "css": ({"css": "golay"}, "css"),
    "ancilla": ({"ancilla": {"kind": "zero", "frob": 1}}, "ancilla.frob"),
    "combination": ({"combination": "Z"}, "combination"),
    "c1": ({"combination": None, "c1": "nosuchcode", "c2": "rep3"}, "c1"),
    "c2": ({"combination": None, "c1": "rep3", "c2": {"file": 5}}, "c2"),
    "d1": ({"d1": "nosuchcode"}, "d1"),
    "d2": ({"d2": 5}, "d2"),
    "p_grid": ({"p_grid": [2.0]}, "p_grid"),
    "trials_per_p": ({"trials_per_p": 0}, "trials_per_p"),
    "n_extra": ({"n_extra": -1}, "n_extra"),
    "seed": ({"seed": "abc"}, "seed"),
    "w_cap": ({"w_cap": 2}, "w_cap"),
    "ideal_postselection": ({"ideal_postselection": "yes"}, "ideal_postselection"),
    "out": ({"out": 5}, "out"),
}
# Further bad values, each with the field its message names.
MORE_BAD_VALUES = {
    # The Golay Bell weight table peaks at 45 MiB at cap 4 and 166 MiB at 5.
    "w_cap-high": ({"w_cap": 6}, "w_cap"),
    # ideal_postselection replaces d1/d2, so a code given there would go
    # unchecked and unused.
    "ideal-with-d2": ({"ideal_postselection": True, "d2": "rep3"}, "d2"),
    "ideal-with-d1-none": ({"ideal_postselection": True, "d1": "none"}, "d1"),
}


def test_schema_covers_every_field():
    names = {f.name for f in fields(ExperimentConfig)}
    assert set(cli.FIELDS) == names and set(BAD_FIELD_VALUES) == names


@pytest.mark.parametrize("command", ["simulate", "inject"])
@pytest.mark.parametrize("case", list(BAD_FIELD_VALUES) + list(MORE_BAD_VALUES))
def test_schema_rejects_before_any_build(tmp_path, capsys, monkeypatch, command, case):
    overrides, named = {**BAD_FIELD_VALUES, **MORE_BAD_VALUES}[case]

    def no_build(*args, **kwargs):
        raise AssertionError("a code was built before the config was checked")
    monkeypatch.setattr(cli, "build_distillation_config", no_build)
    cfg_path = write_config(tmp_path, **{"combination": "D", "p_grid": [0.0], **overrides})
    scen = tmp_path / "empty.txt"
    scen.write_text("")
    extra = ["--workers", "1"] if command == "simulate" else ["--scenario", str(scen)]
    assert main([command, "--config", str(cfg_path), *extra]) == 1
    assert capsys.readouterr().err.startswith(f"error: {named}: ")


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
        ("round1 0 2 0 Q", "pauli"),
        ("prep 0 0 0 x", "pauli"),
        ("round1 0 0 0 X-", "pauli"),
    ])
    def test_malformed_scenario_line(self, tmp_path, capsys, line, field):
        cfg_path = write_config(tmp_path, combination="D")
        scen = tmp_path / "bad.txt"
        scen.write_text(f"# header\n{line}\n")
        assert main(["inject", "--scenario", str(scen), "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scenario line 2: ")
        assert f" {field}: " in err

    @pytest.mark.parametrize("line,letters", [
        ("prep 0 0 0 XZ", 1),
        ("prep 0 1 0 XIZ", 2),
        ("prep 0 1 0 X", 2),
        ("round1 0 0 0 X", 2),
        ("round1 0 2 0 XZ", 1),
    ], ids=["preparation-two", "cnot-three", "cnot-one", "round-cnot-one", "readout-two"])
    def test_pauli_letters_match_gate(self, tmp_path, capsys, line, letters):
        # Encoder step 0 holds the preparations and step 1 starts its CNOTs;
        # round-1 step 0 is a CNOT layer and step 2 a readout.
        cfg_path = write_config(tmp_path, combination="D")
        scen = tmp_path / "bad.txt"
        scen.write_text(f"{line}\n")
        assert main(["inject", "--scenario", str(scen), "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scenario: Fault(")
        assert f"takes {letters} Pauli letter(s)" in err

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

    def test_round2_faults_checked_when_round1_aborts(self, tmp_path, capsys):
        # Readout flips on both checks, at different qubits, reject a rep3
        # group; three of the five groups leave too few units for round 2.
        # The reference never reaches round 2, so its faults are checked
        # first.
        cfg_path = write_config(tmp_path, combination="D")
        scen = tmp_path / "abort.txt"
        lines = "".join(f"round1 {g} 2 0 X\nround1 {g} 2 24 X\n" for g in range(3))
        scen.write_text(lines)
        assert main(["inject", "--scenario", str(scen), "--config", str(cfg_path)]) == 0
        assert "aborted: True" in capsys.readouterr().out
        scen.write_text(lines + "round2 0 99 0 XI\n")
        assert main(["inject", "--scenario", str(scen), "--config", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: scenario: fault does not address a circuit location: ")

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

    @pytest.mark.parametrize("edit", [
        lambda d: [1, 2],
        lambda d: {**d, "per_p": 5},
        lambda d: {**d, "per_p": [{**d["per_p"][0], "hist_x": 5}]},
        lambda d: {**d, "per_p": [{**d["per_p"][0], "hist_z": [1, 2]}]},
        lambda d: {**d, "per_p": [{**d["per_p"][0], "rej1": "3"}]},
        lambda d: {**d, "per_p": [{**d["per_p"][0], "p": None}]},
        lambda d: {**d, "meta": {}},
        lambda d: {**d, "meta": {**d["meta"], "k_c1": "7"}},
    ], ids=["list", "per_p-number", "hist-number", "hist-short", "counter-string", "p-null",
            "meta-empty", "meta-string"])
    def test_results_not_shaped_like_runstats(self, tmp_path, capsys, edit):
        stats = self._fake_stats([PStats(p=1e-3, trials=10, accepted=1, hist_x=[1, 0, 0, 0, 0],
                                         hist_z=[1, 0, 0, 0, 0])])
        res = tmp_path / "r.json"
        res.write_text(json.dumps(edit(stats.to_dict())))
        assert main(["analyze", "--results", str(res), "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: results: cannot read {res}: ")

    def test_out_dir_under_a_file_exits_1(self, tmp_path, capsys):
        res = tmp_path / "r.json"
        res.write_text(self._fake_stats([PStats(p=1e-3, trials=10)]).to_json())
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "o"
        assert main(["analyze", "--results", str(res), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: out-dir: cannot write {out}: ")


class TestCodesCommand:
    def test_list(self, capsys):
        assert main(["codes", "list"]) == 0
        out = capsys.readouterr().out
        assert "golay23" in out and "[23,12,7]" in out
