"""Unit tests for the simulation oracle: reproducibility, substream
independence and quick statistical sanity checks."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import COMBO_BASE, EVAL_BASE, params_at
from fasttrack import montecarlo as mc_mod
from fasttrack.combination import branch_metrics, build_combination
from fasttrack.design import cond_registration_power
from fasttrack.montecarlo import SimConfig, SimReport, simulate
from fasttrack.power import build_fasttrack, stage2_info
from reference_formulas import simulate_one_stream

REPS = 200_000
SEED = 20260823


@pytest.fixture(scope="module")
def fasttrack_design():
    return build_fasttrack(params_at(EVAL_BASE, 0.6), "fisher")


@pytest.fixture(scope="module")
def combo_design():
    return build_combination(params_at(COMBO_BASE, 0.5), "z_combination")


class TestDeterminism:
    def test_bit_identical_reruns(self, fasttrack_design):
        cfg = SimConfig(n_reps=10_000, seed=SEED, theta=0.5)
        a = simulate(fasttrack_design, cfg)
        b = simulate(fasttrack_design, cfg)
        assert a == b

    def test_substreams_differ(self, fasttrack_design):
        cfg = SimConfig(n_reps=10_000, seed=SEED, theta=0.5)
        a = simulate(fasttrack_design, cfg, substream=0)
        b = simulate(fasttrack_design, cfg, substream=1)
        assert a != b

    def test_seeds_differ(self, fasttrack_design):
        a = simulate(fasttrack_design, SimConfig(n_reps=10_000, seed=1, theta=0.5))
        b = simulate(fasttrack_design, SimConfig(n_reps=10_000, seed=2, theta=0.5))
        assert a != b

    def test_each_stream_is_named_by_seed_substream_span_and_part(self):
        def draws(seed=SEED, substream=1, span=2, part=1):
            key = mc_mod._key(seed, substream)
            return mc_mod._stream(key, span, part).standard_normal(8)

        same = draws()
        assert np.array_equal(same, draws())
        for change in ({"seed": SEED + 1}, {"substream": 2}, {"span": 3},
                       {"part": 2}):
            other = draws(**change)
            assert not np.any(other == same), change

    def test_pinned_reports(self, fasttrack_design, combo_design):
        # Recorded under numpy 2.4.6 when each span began to draw ziggurat
        # normals from its own Philox streams: numpy does not promise that
        # Generator streams stay the same across versions.  Each p_hat lies
        # within 1.5 SE of its quadrature value.  The information values
        # were re-recorded when panels took the G7-K15 rule; they moved by
        # under 1e-15 relative.  The fast-track mean_i2_hat was re-recorded
        # when Fisher's floor kink on its capped stretch became z_beta / slope
        # in closed form: I2min moved by 1.4e-15 relative.
        want = {
            "fasttrack": SimReport(
                p_cond_reg_hat=0.8651, p_cond_reg_se=0.00341616729684013,
                p_reject_hat=0.8047, p_reject_se=0.003964314694874765,
                mean_i2_hat=1.080917423722061,
                max_i2_observed=5.878729244517691, n_reps=10_000,
            ),
            "combination": SimReport(
                p_cond_reg_hat=0.6605, p_cond_reg_se=0.0047353959707716105,
                p_reject_hat=0.806, p_reject_se=0.00395428881089887,
                mean_i2_hat=1.2915851372433576,
                max_i2_observed=2.315610284709433, n_reps=10_000,
            ),
        }
        for name, design in (("fasttrack", fasttrack_design),
                             ("combination", combo_design)):
            cfg = SimConfig(n_reps=10_000, seed=SEED, theta=design.params.delta)
            assert simulate(design, cfg, substream=3) == want[name], name

    def test_pinned_empty_branches(self, combo_design):
        # Far below z_f no replication continues to the adaptive branch; far
        # above it none is waived.  An empty branch draws no variates.  The
        # information values were re-recorded when quadrature started from
        # panels at most two sds wide, and again when panels took the G7-K15
        # rule; each time they moved by under 1e-14 relative.
        assert combo_design.i2_const == 2.315610284709433
        want = {
            -5.0: SimReport(
                p_cond_reg_hat=0.0, p_cond_reg_se=0.0, p_reject_hat=0.0,
                p_reject_se=0.0, mean_i2_hat=2.315610284709433,
                max_i2_observed=2.315610284709433, n_reps=50,
            ),
            5.0: SimReport(
                p_cond_reg_hat=1.0, p_cond_reg_se=0.0, p_reject_hat=1.0,
                p_reject_se=0.0, mean_i2_hat=0.3949864440129131,
                max_i2_observed=0.39498644401291305, n_reps=50,
            ),
        }
        for theta, report in want.items():
            cfg = SimConfig(n_reps=50, seed=SEED, theta=theta)
            assert simulate(combo_design, cfg) == report, theta


class TestSpans:
    """``simulate`` cuts the replications into spans of ``_CHUNK`` that read
    their own streams; it must equal one thread over full-length arrays."""

    @pytest.mark.parametrize("name", ["fasttrack_design", "combo_design"])
    @pytest.mark.parametrize("theta", [-5.0, "delta", 5.0])
    def test_equals_one_stream_across_spans(self, request, name, theta):
        # 3 spans and 5 more: the last span is short.  theta = -5 empties
        # the adaptive branch, theta = 5 the lower one.
        design = request.getfixturevalue(name)
        theta = design.params.delta if theta == "delta" else theta
        cfg = SimConfig(n_reps=3 * mc_mod._CHUNK + 5, seed=SEED, theta=theta)
        assert simulate(design, cfg, substream=1) == simulate_one_stream(
            design, cfg, substream=1
        )

    @pytest.mark.parametrize("chunk, n", [(1, 203), (4099, 20_000)])
    def test_small_spans_equal_one_stream(self, monkeypatch, fasttrack_design,
                                          combo_design, chunk, n):
        monkeypatch.setattr(mc_mod, "_CHUNK", chunk)
        for design in (fasttrack_design, combo_design):
            cfg = SimConfig(n_reps=n, seed=SEED, theta=design.params.delta)
            assert simulate(design, cfg) == simulate_one_stream(design, cfg)

    @pytest.mark.parametrize("name", ["fasttrack_design", "combo_design"])
    @pytest.mark.parametrize("theta", [-5.0, "delta", 5.0])
    @pytest.mark.parametrize("chunk, block, n", [
        (503, 1, 1_200), (4099, 97, 10_000),
        (mc_mod._CHUNK, 5_000, mc_mod._CHUNK + 5_003),
        (mc_mod._CHUNK, mc_mod._CHUNK, mc_mod._CHUNK + 5_003),
    ])
    def test_blocks_do_not_change_the_report(self, request, monkeypatch, name,
                                             theta, chunk, block, n):
        # A span draws its streams block after block, in replication order,
        # and sums its informations once.  Neither 97 nor 5,000 divides its
        # span or the short last one; a block of a whole span is the span.
        design = request.getfixturevalue(name)
        theta = design.params.delta if theta == "delta" else theta
        monkeypatch.setattr(mc_mod, "_CHUNK", chunk)
        monkeypatch.setattr(mc_mod, "_BLOCK", block)
        cfg = SimConfig(n_reps=n, seed=SEED, theta=theta)
        assert simulate(design, cfg, substream=2) == simulate_one_stream(
            design, cfg, substream=2
        )

    def test_more_threads_than_cores(self, monkeypatch, combo_design):
        # Spans finish in any order; their sums must be combined in span
        # order.
        monkeypatch.setattr(mc_mod, "_CHUNK", 97)
        monkeypatch.setattr(mc_mod, "_workers", lambda: 8)
        cfg = SimConfig(n_reps=5_000, seed=SEED, theta=0.5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = simulate(combo_design, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert got == simulate_one_stream(combo_design, cfg)


class TestMemory:
    # One worker, so that whether two threads' peaks overlap does not move
    # the figures.
    @staticmethod
    def peak(design, spans):
        cfg = SimConfig(n_reps=spans * mc_mod._CHUNK, seed=SEED,
                        theta=design.params.delta)
        tracemalloc.start()
        try:
            simulate(design, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name", ["fasttrack_design", "combo_design"])
    def test_peak_does_not_grow_with_replications(self, request, monkeypatch,
                                                  name):
        # A span holds only its own arrays, so the peak is one span's per
        # thread.
        design = request.getfixturevalue(name)
        monkeypatch.setattr(mc_mod, "_workers", lambda: 1)
        assert self.peak(design, 8) <= 1.1 * self.peak(design, 2)

    @pytest.mark.parametrize("name", ["fasttrack_design", "combo_design"])
    def test_a_span_holds_blocks_not_span_arrays(self, request, monkeypatch,
                                                  name):
        # The worker's buffer of a span's used informations (1 MiB) and one
        # block's temporaries.  Arrays of a whole span, each 1 MiB, would
        # pass 2.5 MiB.
        design = request.getfixturevalue(name)
        monkeypatch.setattr(mc_mod, "_workers", lambda: 1)
        monkeypatch.setattr(mc_mod, "_BLOCK", 2**12)
        assert self.peak(design, 2) <= 2.5 * 2**20


class TestStatisticalSanity:
    def test_type_one_error_fasttrack(self, fasttrack_design):
        rep = simulate(
            fasttrack_design, SimConfig(n_reps=REPS, seed=SEED, theta=0.0)
        )
        se = math.sqrt(0.025 * 0.975 / REPS)
        assert rep.p_reject_hat <= 0.025 + 3.0 * se

    def test_type_one_error_combination(self, combo_design):
        rep = simulate(combo_design, SimConfig(n_reps=REPS, seed=SEED, theta=0.0))
        se = math.sqrt(0.025 * 0.975 / REPS)
        assert rep.p_reject_hat <= 0.025 + 3.0 * se

    def test_power_at_assumed_effect(self, fasttrack_design):
        theta = fasttrack_design.params.delta
        rep = simulate(
            fasttrack_design, SimConfig(n_reps=REPS, seed=SEED, theta=theta)
        )
        assert abs(rep.p_reject_hat - 0.8) <= 4.0 * rep.p_reject_se

    def test_conditional_registration_rate(self, combo_design):
        theta = combo_design.params.delta
        rep = simulate(combo_design, SimConfig(n_reps=REPS, seed=SEED, theta=theta))
        want = cond_registration_power(combo_design.params)
        assert abs(rep.p_cond_reg_hat - want) <= 4.0 * rep.p_cond_reg_se

    def test_mean_information_matches_quadrature(self, combo_design):
        # Every combination-design replication runs a second stage, so the
        # observed mean equals the two-branch expectation.
        theta = combo_design.params.delta
        rep = simulate(combo_design, SimConfig(n_reps=REPS, seed=SEED, theta=theta))
        want = branch_metrics(combo_design).e_i2_both
        assert rep.mean_i2_hat == pytest.approx(want, rel=0.02)


class TestInvariants:
    def test_observed_information_respects_floor_and_max(self, fasttrack_design):
        rep = simulate(
            fasttrack_design,
            SimConfig(n_reps=50_000, seed=SEED, theta=fasttrack_design.params.delta),
        )
        from fasttrack.power import max_stage2_info

        rule = fasttrack_design.rule
        hi = max_stage2_info(fasttrack_design.params, rule)
        assert rep.max_i2_observed <= hi + 1e-9

    def test_stage2_info_vectorized_floor(self, fasttrack_design):
        rule = fasttrack_design.rule
        z = np.linspace(fasttrack_design.branch_boundary, 8.0, 1000)
        out = stage2_info(z, fasttrack_design.params, rule)
        assert np.all(out >= rule.i2_min - 1e-12)

    def test_report_shape(self, fasttrack_design):
        rep = simulate(fasttrack_design, SimConfig(n_reps=100, seed=1, theta=0.0))
        assert isinstance(rep, SimReport)
        assert rep.n_reps == 100
        assert 0.0 <= rep.p_reject_hat <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_reps=0, seed=1, theta=0.0)
        with pytest.raises(ValueError):
            SimConfig(n_reps=10, seed=-1, theta=0.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_config_rejects_non_finite_theta(self, theta):
        # NaN compares false everywhere: simulate would report no rejection.
        with pytest.raises(ValueError, match="theta"):
            SimConfig(n_reps=10, seed=1, theta=theta)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", 1.9), ("seed", True), ("seed", "1"),
        ("n_reps", 1000.0), ("n_reps", True),
    ])
    def test_config_rejects_non_integers(self, field, value):
        # A float seed would run another seed's stream: with substream 1 the
        # key 1.5 + 2**64 rounds to 2**64, which is seed 0's.
        with pytest.raises(ValueError, match=field):
            SimConfig(**{"n_reps": 10, "seed": 1, "theta": 0.0, field: value})

    def test_numpy_integers_run_as_ints(self, fasttrack_design):
        cfg = SimConfig(n_reps=np.int64(300), seed=np.uint64(7), theta=0.5)
        assert cfg == SimConfig(n_reps=300, seed=7, theta=0.5)
        assert simulate(fasttrack_design, cfg, substream=1) == simulate(
            fasttrack_design, SimConfig(n_reps=300, seed=7, theta=0.5), substream=1
        )

    def test_seed_fits_the_philox_key(self, fasttrack_design):
        # Seeds fill the low 64 bits of the key and substreams the high
        # bits, so a larger seed would collide with another (seed, substream).
        with pytest.raises(ValueError):
            SimConfig(n_reps=10, seed=2**64, theta=0.0)
        top = SimConfig(n_reps=100, seed=2**64 - 1, theta=0.0)
        assert simulate(fasttrack_design, top) != simulate(
            fasttrack_design, SimConfig(n_reps=100, seed=2**64 - 2, theta=0.0)
        )
