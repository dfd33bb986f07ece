import dataclasses
import math
import random

import pytest

from cssdistill import distill, montecarlo
from cssdistill.codes import registry
from cssdistill.css import build_ancilla_spec, build_css
from cssdistill.distill import DistillationConfig
from cssdistill.frames import FailureModel
from cssdistill.montecarlo import (
    FitResult,
    PStats,
    RunStats,
    effective_rate,
    run_experiment,
    slope_fit,
    wilson_ci,
    yields,
    _binom_point,
    _binom_tail,
)


@pytest.fixture(scope="module")
def comb_a_config():
    golay = registry("golay23")
    css = build_css(golay, golay)
    spec = build_ancilla_spec(css, "zero")
    bch = registry("bch15_7_5")
    return DistillationConfig(
        spec=spec, code_c1=bch, code_c2=bch,
        code_d1=registry("golay23"), code_d2=registry("golay23_dual"),
        model=FailureModel.uniform(0.0), n_extra=2,
    )


class TestRunExperiment:
    def test_p_zero_full_yield(self, comb_a_config):
        stats = run_experiment(comb_a_config, [0.0], trials_per_p=50, seed=5, workers=1)
        s = stats.per_p[0]
        assert s.trials == 50
        assert s.accepted == 50 * 49
        assert s.hist_x == [50 * 49, 0, 0, 0, 0]
        assert s.hist_z == [50 * 49, 0, 0, 0, 0]
        assert s.r1 == 0.0 and s.r2 == 0.0
        y_ft, _ = yields(s, stats.meta, t=3)
        assert y_ft == pytest.approx(49 / 225)

    def test_same_seed_bit_identical(self, comb_a_config):
        a = run_experiment(comb_a_config, [1e-3], 120, seed=42, workers=1)
        b = run_experiment(comb_a_config, [1e-3], 120, seed=42, workers=1)
        assert a.to_dict() == b.to_dict()

    def test_worker_count_invariance(self, comb_a_config):
        base = run_experiment(comb_a_config, [1e-3], 90, seed=9, workers=1, chunk_size=7)
        for workers in (2, 4):
            got = run_experiment(
                comb_a_config, [1e-3], 90, seed=9, workers=workers, chunk_size=13
            )
            assert got.to_dict() == base.to_dict()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, comb_a_config, workers):
        with pytest.raises(ValueError, match=rf"^workers: expected an integer >= 1, got {workers}$"):
            run_experiment(comb_a_config, [1e-3], 10, seed=1, workers=workers)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_key_word_rejected(self, comb_a_config, seed):
        # The seed keys every trial's Philox stream: 2**64 would alias 0.
        with pytest.raises(ValueError, match=rf"^seed: expected an integer in 0..2\*\*64-1, got {seed}$"):
            run_experiment(comb_a_config, [1e-3], 10, seed=seed, workers=1)

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_chunk_size_below_one_rejected(self, comb_a_config, chunk_size):
        # A chunk of no trials would be queued forever.
        with pytest.raises(ValueError, match=rf"^chunk_size: expected an integer >= 1, got {chunk_size}$"):
            run_experiment(comb_a_config, [1e-3], 10, seed=1, workers=1, chunk_size=chunk_size)

    @pytest.mark.parametrize("kind", ["zero", "bell"], ids=["golay0-A-ref", "bell-A-nops"])
    def test_w_cap_changes_no_counters(self, comb_a_config, kind):
        # Residual weights 0..3 are bins of their own for any cap >= 3, and
        # weight 4, heavier ones and those beyond the table share bin 4, so
        # no counter depends on w_cap.  The benchmark configs, with outputs
        # in bin 4.
        config = dataclasses.replace(comb_a_config, n_extra=6)
        if kind == "bell":
            golay = config.spec.blocks[0]
            config = dataclasses.replace(config, spec=build_ancilla_spec([golay, golay], "bell"),
                                         code_d1=None, code_d2=None)
        per_p = [[s.to_dict() for s in run_experiment(config, [4e-4, 1.6e-3], 3000, seed=5, workers=1,
                                                       w_cap=w_cap).per_p]
                 for w_cap in (3, 4, 5)]
        assert per_p[0] == per_p[1] == per_p[2]
        assert per_p[0][1]["hist_x"][4] + per_p[0][1]["hist_z"][4]

    def test_histogram_conservation(self, comb_a_config):
        stats = run_experiment(comb_a_config, [2e-3], 150, seed=3, workers=2)
        s = stats.per_p[0]
        assert sum(s.hist_x) == s.accepted
        assert sum(s.hist_z) == s.accepted

    def test_pinned_counters(self, comb_a_config):
        # Counters recorded with an earlier scalar per-trial engine for this seed:
        # the batched engine must reproduce them bit for bit, here with
        # chunks of 37 trials so that batches end at chunk edges.  Golay
        # |0>_L with combination A; Golay Bell pairs (two-block units) with
        # combination A and no postselection; Steane Bell pairs whose
        # detecting code bch15_7_5 has k = 7 = |S|, so postselection rejects.
        # The Steane |0>_L with rep3 rounds at p = 0.35 and 1 pins the streams
        # where numpy's geometric searches and where p = 1 takes every
        # location without a draw.  The two ideal-postselection cases on
        # Golay |0>_L (rep3 rounds, and combination A's round codes) were
        # recorded with the engine that decoded all 2^|S| stabilizer
        # products of every group.  The last two were recorded with the
        # engine that looked up detecting-code parities and logical fixes
        # in separate tables per logical and block: Golay |0>_L with a
        # detecting code in round 1 only, and Golay |+>_L, whose round 2
        # carries the logical, with golay23_dual (k = 11 = |S1|) and
        # golay23 (k = 12 = |S2|).
        zero = dataclasses.replace(comb_a_config, n_extra=6)
        golay = zero.spec.blocks[0]
        steane = build_css(registry("hamming7"), registry("hamming7"))

        def bell(css, code_d):
            return dataclasses.replace(zero, spec=build_ancilla_spec([css, css], "bell"),
                                       code_d1=code_d, code_d2=code_d)

        rep3 = registry("rep3")
        ideal = dataclasses.replace(zero, code_d1="ideal", code_d2="ideal")
        ideal_rep3 = dataclasses.replace(ideal, code_c1=rep3, code_c2=rep3)
        edge = dataclasses.replace(zero, spec=build_ancilla_spec(steane, "zero"), code_c1=rep3,
                                   code_c2=rep3, code_d1=None, code_d2=None, n_extra=2)
        one_sided = dataclasses.replace(zero, code_d2=None)
        plus = dataclasses.replace(zero, spec=build_ancilla_spec(golay, "plus"),
                                   code_d1=registry("golay23_dual"), code_d2=registry("golay23"))

        cases = [
            (zero, [1e-4, 1.6e-3], 300, [
                {"p": 1e-4, "trials": 300, "aborted": 0, "cand1": 44100, "rej1": 17,
                 "cand2": 14700, "rej2": 113, "accepted": 14587,
                 "hist_x": [14165, 419, 3, 0, 0], "hist_z": [14531, 56, 0, 0, 0]},
                {"p": 1.6e-3, "trials": 300, "aborted": 16, "cand1": 44100, "rej1": 8301,
                 "cand2": 13916, "rej2": 12177, "accepted": 1739,
                 "hist_x": [1206, 441, 82, 9, 1], "hist_z": [1483, 183, 35, 38, 0]},
            ]),
            (bell(golay, None), [4e-4, 1.6e-3], 200, [
                {"p": 4e-4, "trials": 200, "aborted": 0, "cand1": 29400, "rej1": 0,
                 "cand2": 9800, "rej2": 0, "accepted": 9800,
                 "hist_x": [6499, 1952, 431, 240, 678], "hist_z": [6595, 1547, 606, 337, 715]},
                {"p": 1.6e-3, "trials": 200, "aborted": 0, "cand1": 29400, "rej1": 0,
                 "cand2": 9800, "rej2": 0, "accepted": 9800,
                 "hist_x": [251, 443, 715, 1280, 7111], "hist_z": [223, 618, 932, 1284, 6743]},
            ]),
            (bell(steane, zero.code_c1), [4e-4, 2e-3], 200, [
                {"p": 4e-4, "trials": 200, "aborted": 0, "cand1": 29400, "rej1": 56,
                 "cand2": 9800, "rej2": 444, "accepted": 9356,
                 "hist_x": [8666, 672, 18, 0, 0], "hist_z": [9280, 76, 0, 0, 0]},
                {"p": 2e-3, "trials": 200, "aborted": 0, "cand1": 29400, "rej1": 1857,
                 "cand2": 9800, "rej2": 5689, "accepted": 4111,
                 "hist_x": [2990, 971, 143, 7, 0], "hist_z": [3789, 287, 29, 6, 0]},
            ]),
            (edge, [0.35, 1.0], 40, [
                {"p": 0.35, "trials": 40, "aborted": 0, "cand1": 200, "rej1": 0,
                 "cand2": 40, "rej2": 0, "accepted": 40,
                 "hist_x": [0, 21, 15, 4, 0], "hist_z": [7, 33, 0, 0, 0]},
                {"p": 1.0, "trials": 40, "aborted": 0, "cand1": 200, "rej1": 0,
                 "cand2": 40, "rej2": 0, "accepted": 40,
                 "hist_x": [3, 22, 13, 2, 0], "hist_z": [4, 36, 0, 0, 0]},
            ]),
            (ideal_rep3, [1e-2], 300, [
                {"p": 1e-2, "trials": 300, "aborted": 81, "cand1": 2700, "rej1": 1705,
                 "cand2": 219, "rej2": 198, "accepted": 21,
                 "hist_x": [10, 9, 2, 0, 0], "hist_z": [19, 2, 0, 0, 0]},
            ]),
            (ideal, [1.6e-3], 300, [
                {"p": 1.6e-3, "trials": 300, "aborted": 60, "cand1": 44100, "rej1": 10072,
                 "cand2": 11760, "rej2": 10963, "accepted": 797,
                 "hist_x": [609, 166, 20, 2, 0], "hist_z": [763, 34, 0, 0, 0]},
            ]),
            (one_sided, [4e-4, 1.6e-3], 300, [
                {"p": 4e-4, "trials": 300, "aborted": 0, "cand1": 44100, "rej1": 422,
                 "cand2": 14700, "rej2": 0, "accepted": 14700,
                 "hist_x": [12972, 1611, 115, 2, 0], "hist_z": [13331, 967, 246, 156, 0]},
                {"p": 1.6e-3, "trials": 300, "aborted": 16, "cand1": 44100, "rej1": 8301,
                 "cand2": 13916, "rej2": 0, "accepted": 13916,
                 "hist_x": [8912, 3958, 883, 141, 22], "hist_z": [4813, 3610, 2400, 3093, 0]},
            ]),
            (plus, [4e-4, 1.6e-3], 300, [
                {"p": 4e-4, "trials": 300, "aborted": 0, "cand1": 44100, "rej1": 429,
                 "cand2": 14700, "rej2": 3409, "accepted": 11291,
                 "hist_x": [10140, 1092, 57, 2, 0], "hist_z": [11172, 117, 1, 1, 0]},
                {"p": 1.6e-3, "trials": 300, "aborted": 16, "cand1": 44100, "rej1": 8338,
                 "cand2": 13916, "rej2": 12149, "accepted": 1767,
                 "hist_x": [1224, 440, 90, 13, 0], "hist_z": [1513, 190, 29, 22, 13]},
            ]),
        ]
        for cfg, grid, trials, want in cases:
            stats = run_experiment(cfg, grid, trials, seed=2718, workers=1, chunk_size=37)
            assert [s.to_dict() for s in stats.per_p] == want

    def test_batch_size_invariance(self, comb_a_config, monkeypatch):
        # The trials a batch carries never change a counter: the benchmark
        # configs (Golay |0>_L with postselection at 1.6e-3, where trials
        # abort; Golay Bell pairs at 4e-4) at batches of 1, 37 and 64
        # trials and at the engine's own size, against counters recorded
        # with the 64-trial kernel before flat scatters.  Odd sizes end
        # batches at shapes the pinned counters never reach; the recorded
        # counters catch a change that loses fault hits at every size.
        zero = dataclasses.replace(comb_a_config, n_extra=6)
        golay = zero.spec.blocks[0]
        bell = dataclasses.replace(zero, spec=build_ancilla_spec([golay, golay], "bell"),
                                   code_d1=None, code_d2=None)
        cases = [
            (zero, 1.6e-3, 300, {
                "p": 1.6e-3, "trials": 300, "aborted": 13, "cand1": 44100, "rej1": 8034,
                "cand2": 14063, "rej2": 12232, "accepted": 1831,
                "hist_x": [1274, 471, 75, 9, 2], "hist_z": [1600, 183, 26, 22, 0]}),
            (bell, 4e-4, 150, {
                "p": 4e-4, "trials": 150, "aborted": 0, "cand1": 22050, "rej1": 0,
                "cand2": 7350, "rej2": 0, "accepted": 7350,
                "hist_x": [4972, 1466, 337, 163, 412], "hist_z": [4940, 1172, 418, 301, 519]}),
        ]
        for cfg, p, trials, want in cases:
            for batch in (1, 37, 64, distill.BATCH):
                monkeypatch.setattr(montecarlo, "BATCH", batch)
                stats = run_experiment(cfg, [p], trials, seed=77, workers=1)
                assert [s.to_dict() for s in stats.per_p] == [want], batch

    @pytest.mark.parametrize("p", [0.0, 1.6e-3])
    def test_classify_skips_only_zero_frames(self, comb_a_config, p):
        # classify_outcome looks up only nonzero output frames and counts
        # zero ones in bin 0: the histograms equal classifying every frame.
        runner = distill.ProtocolRunner(comb_a_config).with_model(FailureModel.uniform(p))
        table = comb_a_config.spec.weight_table(4)
        got, want = PStats(p=p), PStats(p=p)
        nonzero = 0
        for first in range(0, 4 * distill.BATCH, distill.BATCH):
            batch = runner.run_batch(3, 0, first, distill.BATCH)
            montecarlo.classify_outcome(batch, table, got)
            for hist, side, frames in ((want.hist_x, "x", batch.out_e),
                                       (want.hist_z, "z", batch.out_f)):
                nonzero += int((frames != 0).any(axis=1).sum())
                for w in table.weights(side, frames).tolist():
                    hist[w if 0 <= w <= 3 else 4] += 1
        assert (got.hist_x, got.hist_z) == (want.hist_x, want.hist_z)
        assert sum(got.hist_x) == got.accepted and got.hist_x[0] > 0
        assert (nonzero > 0) == (p > 0)

    def test_json_roundtrip(self, comb_a_config):
        stats = run_experiment(comb_a_config, [1e-3, 2e-3], 20, seed=1, workers=1)
        again = RunStats.from_json(stats.to_json())
        assert again.to_dict() == stats.to_dict()


class TestPStats:
    def test_merge_other_p_rejected(self):
        a = PStats(p=1e-3, trials=2)
        with pytest.raises(ValueError, match="p="):
            a.merge(PStats(p=2e-3, trials=1))
        assert a.trials == 2

    def test_run_merge_other_grid_rejected(self):
        # Runs over p grids of different lengths used to merge their common
        # prefix and drop the rest.
        run = RunStats(meta={}, per_p=[PStats(p=1e-3, trials=2), PStats(p=2e-3, trials=3)])
        with pytest.raises(ValueError, match="run of 1 p points into one of 2"):
            run.merge(RunStats(meta={}, per_p=[PStats(p=1e-3, trials=1)]))
        with pytest.raises(ValueError, match="run of 3 p points into one of 2"):
            run.merge(RunStats(meta={}, per_p=[PStats(p=p, trials=1) for p in (1e-3, 2e-3, 4e-3)]))
        assert [s.trials for s in run.per_p] == [2, 3]


class TestWilson:
    def test_zero_successes(self):
        lo, hi = wilson_ci(0, 50)
        assert lo == 0.0 and hi > 0

    def test_all_successes(self):
        lo, hi = wilson_ci(50, 50)
        assert hi == 1.0 and lo < 1

    def test_half(self):
        lo, hi = wilson_ci(50, 100, z=1.96)
        # Closed-form evaluation of the score interval.
        assert lo == pytest.approx(0.404, abs=2e-3)
        assert hi == pytest.approx(0.596, abs=2e-3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            wilson_ci(1, 0)


class TestEffectiveRate:
    def test_zero(self):
        assert effective_rate(0.0, 23, 3, "tail") == 0.0
        assert effective_rate(0.0, 23, 3, "point") == 0.0

    def test_reported_rate_forward_then_invert(self):
        # Known Z-side operating point: forward-evaluate then recover.
        p = 3.83e-4
        prob = _binom_point(p, 23, 3)
        assert prob == pytest.approx(9.87e-8, rel=2e-3)
        back = effective_rate(prob, 23, 3, "point")
        assert back == pytest.approx(p, rel=1e-6)

    def test_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(1000):
            kind = rng.choice(["tail", "point"])
            if kind == "tail":
                p = 10 ** rng.uniform(-6, -0.5)
                prob = _binom_tail(p, 23, 3)
            else:
                p = 10 ** rng.uniform(-6, math.log10(3 / 23))
                prob = _binom_point(p, 23, 3)
            back = effective_rate(prob, 23, 3, kind)
            assert abs(back - p) <= 1e-9 * p + 1e-15

    def test_point_above_mode_rejected(self):
        peak = _binom_point(3 / 23, 23, 3)
        with pytest.raises(ValueError, match="mode"):
            effective_rate(peak * 1.01, 23, 3, "point")

    def test_monotone_domain(self):
        # The point branch stays below the mode.
        assert effective_rate(_binom_point(0.1, 23, 3), 23, 3, "point") == pytest.approx(0.1, rel=1e-9)


class TestSlopeFit:
    def test_exact_linear(self):
        pts = [(1e-4, 3e-4), (2e-4, 6e-4), (4e-4, 1.2e-3)]
        fit = slope_fit(pts)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_exact_cubic(self):
        pts = [(p, 5 * p**3) for p in (1e-4, 3e-4, 9e-4)]
        fit = slope_fit(pts)
        assert fit.slope == pytest.approx(3.0, abs=1e-12)

    def test_noisy_quadratic(self):
        rng = random.Random(8)
        pts = [(p, 2 * p**2 * math.exp(rng.gauss(0, 0.05))) for p in (1e-4, 2e-4, 4e-4, 8e-4)]
        fit = slope_fit(pts)
        assert abs(fit.slope - 2.0) < 3 * max(fit.stderr, 0.05)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            slope_fit([(1e-4, 0.0), (2e-4, 1e-5)])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            slope_fit([(1e-4, 1e-5)])


class TestYields:
    def test_naive_t3(self):
        s = PStats(p=0.0)
        _, naive = yields(s, {"k_c1": 7, "k_c2": 7, "n_c1": 15, "n_c2": 15}, t=3)
        assert naive == pytest.approx(1 / 12)

    def test_ft_no_rejection(self):
        s = PStats(p=0.0, cand1=10, rej1=0, cand2=10, rej2=0)
        y, _ = yields(s, {"k_c1": 7, "k_c2": 7, "n_c1": 15, "n_c2": 15}, t=3)
        assert y == pytest.approx(49 / 225)

    def test_ft_formula(self):
        s = PStats(p=0.0, cand1=100, rej1=10, cand2=100, rej2=20)
        y, _ = yields(s, {"k_c1": 7, "k_c2": 7, "n_c1": 15, "n_c2": 15}, t=3)
        assert y == pytest.approx((49 / 225) * 0.9 * 0.8)
