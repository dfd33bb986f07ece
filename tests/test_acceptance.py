"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The Monte Carlo fixtures default to 2e6 trials per grid point (override
with CSSDISTILL_ACCEPT_TRIALS for quick runs) and cache their results
under .acceptance_cache keyed by configuration, so assertion logic can be
iterated without re-simulating.
"""

import hashlib
import itertools
import json
import math
import os
import random
import time
from pathlib import Path

import pytest

from cssdistill import gf2
from cssdistill.codes import registry
from cssdistill.css import build_ancilla_spec, build_css, generalized_syndrome
from cssdistill.distill import CompiledRound, DistillationConfig, ProtocolRunner
from cssdistill.frames import PAULI_2Q, FailureModel, Fault, FaultInjection, PauliFrame, effective_support
from cssdistill.montecarlo import (
    RunStats,
    _binom_point,
    _binom_tail,
    effective_rate,
    run_experiment,
    slope_fit,
    wilson_ci,
    yields,
)

ACCEPT_TRIALS = int(os.environ.get("CSSDISTILL_ACCEPT_TRIALS", "2000000"))
GRID = [4e-4, 8e-4, 1.6e-3]
SEED = 230923
N_EXTRA = 6  # sized to the measured round-1 rejection at the top grid point
CACHE_DIR = Path(__file__).resolve().parent.parent / ".acceptance_cache"

GOLAY_LOGICAL = int("00000000000101011100011"[::-1], 2)  # qubit 0 first


def criterion(num: int, ok: bool, desc: str, detail: str = "") -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def golay_css():
    g = registry("golay23")
    return build_css(g, g)


@pytest.fixture(scope="session")
def zero_spec(golay_css):
    return build_ancilla_spec(golay_css, "zero")


def _cached_run(tag: str, config: DistillationConfig, grid, trials, seed) -> RunStats:
    CACHE_DIR.mkdir(exist_ok=True)
    key = hashlib.sha256(
        json.dumps([tag, grid, trials, seed, N_EXTRA]).encode()
    ).hexdigest()[:16]
    path = CACHE_DIR / f"{tag}-{key}.json"
    if path.exists():
        return RunStats.from_json(path.read_text())
    t0 = time.time()
    stats = run_experiment(config, grid, trials, seed=seed, w_cap=4)
    path.write_text(stats.to_json())
    print(f"[{tag}] {trials} trials x {len(grid)} points in {time.time() - t0:.0f}s")
    return stats


def _config(spec, c_name: str, postselect: bool) -> DistillationConfig:
    code_c = registry(c_name)
    return DistillationConfig(
        spec=spec,
        code_c1=code_c,
        code_c2=code_c,
        code_d1=registry("golay23") if postselect else None,
        code_d2=registry("golay23_dual") if postselect else None,
        model=FailureModel.uniform(0.0),
        n_extra=N_EXTRA,
    )


@pytest.fixture(scope="session")
def comb_a_stats(zero_spec):
    return _cached_run("combA", _config(zero_spec, "bch15_7_5", True), GRID, ACCEPT_TRIALS, SEED)


@pytest.fixture(scope="session")
def comb_c_stats(zero_spec):
    return _cached_run("combC", _config(zero_spec, "hamming7", True), GRID, ACCEPT_TRIALS, SEED)


@pytest.fixture(scope="session")
def comb_a_nops_stats(zero_spec):
    return _cached_run(
        "combA-noPS", _config(zero_spec, "bch15_7_5", False), [8e-4], ACCEPT_TRIALS, SEED
    )


def test_criterion_1_decoder_exhaustiveness():
    t0 = time.time()
    golay = registry("golay23")
    count = 0
    for w in range(4):
        for combo in itertools.combinations(range(23), w):
            e = 0
            for q in combo:
                e |= 1 << q
            assert golay.decode(golay.syndrome(e)) == e
            count += 1
    assert count == 2048
    bch = registry("bch15_7_5")
    count = 0
    for w in range(3):
        for combo in itertools.combinations(range(15), w):
            e = 0
            for q in combo:
                e |= 1 << q
            assert bch.decode(bch.syndrome(e)) == e
            count += 1
    assert count == 121
    for name in ("rep3", "rep5", "hamming7"):
        code = registry(name)
        for w in range(code.t + 1):
            for combo in itertools.combinations(range(code.n), w):
                e = 0
                for q in combo:
                    e |= 1 << q
                assert code.decode(code.syndrome(e)) == e
    dt = time.time() - t0
    criterion(1, dt < 1.0, "all registry decoders exhaustive on coset leaders",
              f"2048 Golay + 121 BCH + smaller codes in {dt:.2f}s")


def test_criterion_2_css_invariants(golay_css):
    t0 = time.time()
    ok = gf2.mat_mul_t(golay_css.h_x, golay_css.h_z).is_zero()
    ok &= gf2.mat_mul_t(golay_css.l_z, golay_css.d_mat) == gf2.BitMatrix.identity(1)
    xbar = golay_css.d_mat.data[0]
    ok &= gf2.mat_vec(golay_css.h_z, xbar) == 0  # same H_Z syndrome as l (both zero)
    ok &= (xbar & GOLAY_LOGICAL).bit_count() % 2 == 1  # same coset: odd overlap
    zbar = golay_css.l_z.data[0]
    ok &= (xbar & zbar).bit_count() % 2 == 1  # anticommute
    dt = time.time() - t0
    criterion(2, ok and dt < 1.0, "[[23,1,7]] construction invariants hold exactly",
              f"{dt:.3f}s")


def test_criterion_3_benign_single_faults(zero_spec):
    t0 = time.time()
    total = 0
    for name in ("rep3", "bch15_7_5"):
        rnd = CompiledRound(zero_spec, 1, registry(name), None)
        circ = rnd.circuit
        inputs = [PauliFrame.zeros((23,)) for _ in range(rnd.n_c)]
        cnots = [(s, g) for s, g, gate in circ.gates() if gate.kind == "cnot"]
        for s, g in cnots:
            for pauli in PAULI_2Q:
                inj = FaultInjection((Fault(s, g, pauli),))
                res = rnd.run(inputs, inj)
                x_sup, _ = effective_support(inj, circ)
                qe = 0
                for v in x_sup:
                    qe |= v
                for slot in range(rnd.r_c, rnd.n_c):
                    assert slot in res.accepted_slots
                    assert res.frames[slot].e[0] in (0, qe)
                total += 1
    dt = time.time() - t0
    criterion(3, dt < 60.0, "single round-1 CNOT faults are benign",
              f"{total} fault cases, outputs clean or exactly on the X support, {dt:.0f}s")


def test_criterion_4_two_fault_no_go(zero_spec):
    t0 = time.time()
    ham = registry("hamming7")
    rnd = CompiledRound(zero_spec, 1, ham, None)
    tab = zero_spec.weight_table(4)
    supp_l = [q for q in range(23) if (GOLAY_LOGICAL >> q) & 1]
    hit = None
    for q1, q2 in itertools.permutations(supp_l, 2):
        inputs = [PauliFrame.zeros((23,)) for _ in range(7)]
        inputs[4].e[0] = 1 << q2  # preparation fault outside the affected blocks
        first_layer = min(layer for layer, (i, j) in enumerate(rnd.layers) if j == 0)
        gate_loc = rnd.cnot_location(first_layer, q1)
        inj = FaultInjection((Fault(gate_loc[0], gate_loc[1], "XI"),))
        res = rnd.run(inputs, inj)
        for slot in res.accepted_slots:
            wx = tab.x_weight(tuple(res.frames[slot].e))
            if wx is None or wx > 3:
                hit = (q1, q2, slot, wx)
                break
        if hit:
            break
    dt = time.time() - t0
    criterion(4, hit is not None and dt < 1.0,
              "two faults leave X weight > 3 with postselection disabled",
              f"dist fault q={hit[0]}, prep fault q={hit[1]}, block {hit[2]}, "
              f"residual wX={'>' + str(4) if hit[3] is None else hit[3]}, {dt:.2f}s"
              if hit else f"{dt:.2f}s")


def _weight_slope(stats: RunStats, side: str, w) -> tuple[float, list]:
    pts = []
    for s in stats.per_p:
        v = s.weight_fraction(side, w)
        if v:
            pts.append((s.p, v))
    return (slope_fit(pts).slope if len(pts) >= 2 else float("nan")), pts


def test_criterion_5_weight_scaling_combination_a(comb_a_stats):
    s1, pts1 = _weight_slope(comb_a_stats, "x", 1)
    s2, pts2 = _weight_slope(comb_a_stats, "x", 2)
    ok = abs(s1 - 1.0) <= 0.5 and abs(s2 - 2.0) <= 0.5
    detail = f"P_X(1) slope {s1:.2f}, P_X(2) slope {s2:.2f}"
    w3_counts = [s.hist_x[3] for s in comb_a_stats.per_p]
    if all(c >= 100 for c in w3_counts):
        s3, _ = _weight_slope(comb_a_stats, "x", 3)
        ok = ok and abs(s3 - 3.0) <= 0.5
        detail += f", P_X(3) slope {s3:.2f}"
    criterion(5, ok, "Combination A weight scaling O(p^w)", detail)


def test_criterion_6_no_go_vs_postselection(comb_a_stats, comb_c_stats):
    pts_c = []
    for s in comb_c_stats.per_p:
        if s.accepted:
            frac = (s.hist_x[3] + s.hist_x[4]) / s.accepted
            if frac:
                pts_c.append((s.p, frac))
    slope_c = slope_fit(pts_c).slope
    s3, _ = _weight_slope(comb_a_stats, "x", 3)
    ok = abs(slope_c - 2.0) <= 0.5 and abs(s3 - 3.0) <= 0.5
    criterion(6, ok, "Hamming pair stuck at O(p^2) while Combination A reaches O(p^3)",
              f"Comb C P_X(w>2) slope {slope_c:.2f}, Comb A P_X(3) slope {s3:.2f}")


def test_criterion_7_rejection_rate_scaling(comb_a_stats):
    r1_pts = [(s.p, s.r1) for s in comb_a_stats.per_p if s.r1 > 0]
    r2_pts = [(s.p, s.r2) for s in comb_a_stats.per_p if s.r2 > 0]
    slope1 = slope_fit(r1_pts).slope
    slope2 = slope_fit(r2_pts).slope
    ok = abs(slope1 - 2.0) <= 0.5 and abs(slope2 - 2.0) <= 0.5
    criterion(7, ok, "per-round rejection rates scale as O(p^2)",
              f"R1 slope {slope1:.2f}, R2 slope {slope2:.2f}; "
              f"R2 grid values {[round(s.r2, 4) for s in comb_a_stats.per_p]}")


def test_criterion_8_yield_consistency(comb_a_stats):
    s = comb_a_stats.per_p[0]
    y_ft, _ = yields(s, comb_a_stats.meta, t=3)
    target = 49 / 225
    ok = abs(y_ft - target) <= 0.05
    criterion(8, ok, "Combination A yield near k1 k2 / (n1 n2) at the smallest p",
              f"Yield_FT {y_ft:.4f} vs {target:.4f} (advisory +/-5pp)")


def test_criterion_9_postselection_effect(comb_a_stats, comb_a_nops_stats):
    s_ps = next(s for s in comb_a_stats.per_p if s.p == 8e-4)
    s_no = comb_a_nops_stats.per_p[0]
    k_ps, n_ps = s_ps.hist_x[4], s_ps.accepted
    k_no, n_no = s_no.hist_x[4], s_no.accepted
    frac_ps = k_ps / n_ps
    frac_no = k_no / n_no
    lo_ps, hi_ps = wilson_ci(k_ps, n_ps)
    lo_no, hi_no = wilson_ci(k_no, n_no)
    ok = frac_no >= 10 * frac_ps and hi_ps < lo_no
    criterion(9, ok, "postselection suppresses P_X(w>3) by >= 10x at p = 8e-4",
              f"with PS {frac_ps:.3g} [{lo_ps:.3g},{hi_ps:.3g}], "
              f"without {frac_no:.3g} [{lo_no:.3g},{hi_no:.3g}], "
              f"ratio {frac_no / frac_ps if frac_ps else float('inf'):.1f}x")


def test_criterion_10_degeneracy_oracle(golay_css):
    t0 = time.time()
    rng = random.Random(1010)
    checked = 0
    for kind, m, cap in (("zero", 1, 4), ("plus", 1, 4), ("bell", 2, 3)):
        spec = build_ancilla_spec([golay_css] * m if m > 1 else golay_css, kind)
        tab = spec.weight_table(cap)
        total = spec.total_qubits
        sizes = spec.block_sizes

        def split(bits):
            out = []
            off = 0
            for n in sizes:
                out.append((bits >> off) & ((1 << n) - 1))
                off += n
            return tuple(out)

        # Independent oracle: enumerate Paulis in weight order through
        # generalized_syndrome and keep the first (= minimum) weight per class.
        zeros = (0,) * m
        oracle_x: dict[int, int] = {}
        oracle_z: dict[int, int] = {}
        for bits, w in gf2.iter_weight_le(total, cap):
            eb = split(bits)
            sx = generalized_syndrome(spec, eb, zeros)
            oracle_x.setdefault(sx, w)
            sz = generalized_syndrome(spec, zeros, eb)
            oracle_z.setdefault(sz, w)
        for _ in range(1000):
            if rng.random() < 0.5:
                bits = rng.getrandbits(total)
            else:
                bits = 0
                for q in rng.sample(range(total), rng.randint(0, cap + 2)):
                    bits |= 1 << q
            eb = split(bits)
            want_x = oracle_x.get(generalized_syndrome(spec, eb, zeros))
            want_z = oracle_z.get(generalized_syndrome(spec, zeros, eb))
            assert tab.x_weight(eb) == want_x
            assert tab.z_weight(eb) == want_z
            checked += 1
    dt = time.time() - t0
    criterion(10, checked == 3000 and dt < 60.0,
              "residual weights equal the brute-force class minimum",
              f"3000 random frames across zero/plus/bell, {dt:.0f}s")


def test_criterion_11_worker_determinism(zero_spec):
    cfg = _config(zero_spec, "bch15_7_5", True)
    runs = [
        run_experiment(cfg, [1e-3], 400, seed=31337, workers=w, chunk_size=37)
        for w in (1, 4, 8)
    ]
    ok = runs[0].to_dict() == runs[1].to_dict() == runs[2].to_dict()
    criterion(11, ok, "RunStats bit-identical across 1, 4 and 8 workers")


def test_supplementary_asymptotic_grid_evidence(zero_spec):
    """Not a criterion: scaling at the operating regime the claims address.

    The pinned acceptance grid {4e-4, 8e-4, 1.6e-3} sits at the round-2
    rejection knee for this encoding circuit, so the p^2/p^3 asymptotics
    saturate there.  One grid step down, every scaling law and the yield
    line up with the claims; this run documents that.
    """
    grid = [1e-4, 2e-4, 4e-4]
    trials = min(ACCEPT_TRIALS, 400_000)
    stats = _cached_run("combA-low", _config(zero_spec, "bch15_7_5", True), grid, trials, SEED)
    s1, _ = _weight_slope(stats, "x", 1)
    s2, _ = _weight_slope(stats, "x", 2)
    s3, _ = _weight_slope(stats, "x", 3)
    r1 = slope_fit([(s.p, s.r1) for s in stats.per_p]).slope
    r2 = slope_fit([(s.p, s.r2) for s in stats.per_p]).slope
    y_ft, _ = yields(stats.per_p[0], stats.meta, t=3)
    print(f"[evidence] low grid {grid}: P_X slopes {s1:.2f}/{s2:.2f}/{s3:.2f} "
          f"(w=1/2/3), R1 slope {r1:.2f}, R2 slope {r2:.2f}, "
          f"yield at 1e-4 = {y_ft:.4f} (ideal 0.2178)")
    assert abs(s1 - 1.0) <= 0.5 and abs(s2 - 2.0) <= 0.5 and abs(s3 - 3.0) <= 0.5
    assert abs(r1 - 2.0) <= 0.5 and abs(r2 - 2.0) <= 0.5
    assert abs(y_ft - 49 / 225) <= 0.05


def test_criterion_12_effective_rate_round_trip():
    rng = random.Random(121212)
    worst = 0.0
    for _ in range(1000):
        kind = rng.choice(["tail", "point"])
        if kind == "tail":
            p = 10 ** rng.uniform(-6, -0.5)
            prob = _binom_tail(p, 23, 3)
        else:
            p = 10 ** rng.uniform(-6, math.log10(3 / 23))
            prob = _binom_point(p, 23, 3)
        back = effective_rate(prob, 23, 3, kind)
        worst = max(worst, abs(back - p) / p)
    # Reference operating point as a forward-evaluation fixture.
    fix = _binom_point(3.83e-4, 23, 3)
    fixture_ok = abs(fix - 9.87e-8) / 9.87e-8 < 5e-3
    back = effective_rate(fix, 23, 3, "point")
    fixture_ok &= abs(back - 3.83e-4) / 3.83e-4 < 1e-6
    ok = worst <= 1e-9 and fixture_ok
    criterion(12, ok, "binomial inversion round-trips to 1e-9",
              f"worst relative error {worst:.2e}")
