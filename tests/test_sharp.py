import numpy as np
import pytest

import ptychokit as pk
from ptychokit.fields import NumericalFailure, extract_stack
from ptychokit.sharp import (
    SharpParams,
    block_steps,
    p_a,
    p_q,
    sharp_coupling,
    sharp_iterate,
    stitch_frames,
)

from conftest import full_support_probe


def truth_frames(inst):
    return inst["probe"][None, :, :] * extract_stack(inst["truth"], inst["grid"])


def random_stack(grid, seed):
    rng = np.random.default_rng(seed)
    shape = (len(grid), grid.patch_size, grid.patch_size)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def projected(s, probe, grid):
    """P_Q applied to a whole stack of frames."""
    coupling = sharp_coupling(probe, grid)
    return p_q(stitch_frames(s, coupling, grid), coupling, grid)


def two_projection_update(s, y, probe, grid, beta, variant):
    """The SHARP update as written, with P_Q applied to P_a s and to s."""
    sign = -1.0 if variant == "sharp_plus" else 1.0
    pa = p_a(s, y)
    return (
        2 * beta * projected(pa, probe, grid)
        + (1 - 2 * beta) * pa
        + sign * beta * (projected(s, probe, grid) - s)
    )


class TestMagnitudeProjection:
    def test_consistent_frames_unchanged(self, small):
        s = truth_frames(small)
        np.testing.assert_allclose(p_a(s, small["y"]), s, atol=1e-10)

    def test_scalar_magnitude_replacement(self):
        s = np.array([[[2j]]])
        y = np.array([[[5.0]]])
        assert np.isclose(p_a(s, y)[0, 0, 0], 5j, atol=1e-12)

    def test_idempotent(self, small):
        s = random_stack(small["grid"], seed=0)
        once = p_a(s, small["y"])
        twice = p_a(once, small["y"])
        assert np.max(np.abs(twice - once)) < 1e-12


class TestConsistencyProjection:
    def test_consistent_frames_unchanged(self, small):
        s = truth_frames(small)
        out = projected(s, small["probe"], small["grid"])
        assert np.max(np.abs(out - s)) < 1e-12

    def test_single_frame_identity_with_full_support_probe(self):
        grid = pk.make_scan_grid((16, 16), 16, (1, 1), 1)
        d = full_support_probe(16, seed=1)
        s = random_stack(grid, seed=2)
        out = projected(s, d, grid)
        assert np.max(np.abs(out - s)) < 1e-12

    def test_idempotent(self, small):
        s = random_stack(small["grid"], seed=3)
        once = projected(s, small["probe"], small["grid"])
        twice = projected(once, small["probe"], small["grid"])
        assert np.max(np.abs(twice - once)) < 1e-12

    def test_output_frames_mutually_consistent(self, small):
        # re-illuminating the stitched image must reproduce the frames
        s = random_stack(small["grid"], seed=4)
        out = projected(s, small["probe"], small["grid"])
        image = stitch_frames(out, sharp_coupling(small["probe"], small["grid"]), small["grid"])
        again = small["probe"][None] * extract_stack(image, small["grid"])
        assert np.max(np.abs(again - out)) < 1e-12


class TestSharpIterate:
    @pytest.mark.parametrize("variant", ["sharp", "sharp_plus"])
    def test_truth_frames_fixed_by_one_update(self, small, variant):
        s = truth_frames(small)
        new = two_projection_update(s, small["y"], small["probe"], small["grid"], 0.45, variant)
        assert np.linalg.norm(new - s) / np.linalg.norm(s) < 1e-12

    @pytest.mark.parametrize("variant", ["sharp", "sharp_plus"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fused_step_matches_two_projection_update(self, small, variant, seed):
        # frames off the consistent set, so the P_Q(s) - s term is not 0
        s = random_stack(small["grid"], seed=20 + seed)
        probe, grid, beta = small["probe"], small["grid"], 0.45
        expected = two_projection_update(s, small["y"], probe, grid, beta, variant)
        fused, a = s.copy(), np.empty_like(s)
        first, second = block_steps(beta, variant)
        # blocks of unequal length, as the last block of a solve can be
        blocks = [slice(0, 5), slice(5, None)]
        for k in blocks:
            first(fused[k], a[k], small["y"][k])
        coupling = sharp_coupling(probe, grid)
        p_q(stitch_frames(a, coupling, grid), coupling, grid, out=a)
        for k in blocks:
            second(fused[k], a[k])
        assert np.linalg.norm(fused - expected) / np.linalg.norm(expected) < 1e-12

    @pytest.mark.parametrize("variant", ["sharp", "sharp_plus"])
    def test_truth_init_stays_put(self, small, variant):
        params = SharpParams(beta=0.45, max_iters=20, variant=variant)
        _, rows = sharp_iterate(
            small["y"], small["probe"], small["grid"], params,
            init=small["truth"], trace_target=small["truth"],
        )
        assert max(err for _, err, _ in rows) < 1e-8

    @pytest.mark.parametrize("variant", ["sharp", "sharp_plus"])
    @pytest.mark.parametrize("beta", [0.3, 0.5])
    def test_single_position_magnitude_fit(self, variant, beta):
        # J=1 with a unit probe makes P_Q the identity, so one update
        # returns P_a s regardless of beta or variant
        grid = pk.make_scan_grid((1, 1), 1, (1, 1), 1)
        probe = np.ones((1, 1), complex)
        y = np.array([[[3.0]]])
        init = np.full((1, 1), 2.0 + 0j)
        params = SharpParams(beta=beta, max_iters=1, variant=variant)
        recon, _ = sharp_iterate(y, probe, grid, params, init=init)
        assert np.isclose(recon[0, 0], 3.0, atol=1e-12)

    def test_plus_variant_wins_at_matched_beta(self, desk):
        final = {}
        for variant in ("sharp", "sharp_plus"):
            params = SharpParams(beta=0.6, max_iters=100, variant=variant)
            _, rows = sharp_iterate(
                desk["y"], desk["probe"], desk["grid"], params,
                init=np.ones(desk["truth"].shape, complex),
                trace_target=desk["truth"],
            )
            final[variant] = rows[-1][1]
        assert final["sharp_plus"] < 1e-1
        assert final["sharp_plus"] < final["sharp"]

    def test_deterministic_across_runs_and_workers(self, small):
        params = SharpParams(beta=0.45, max_iters=10)
        init = np.ones(small["truth"].shape, complex)
        args = (small["y"], small["probe"], small["grid"], params)
        r1, rows1 = sharp_iterate(*args, init=init, trace_target=small["truth"])
        r2, rows2 = sharp_iterate(*args, init=init, trace_target=small["truth"])
        r8, rows8 = sharp_iterate(*args, init=init, trace_target=small["truth"], workers=8)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(r1, r8)
        assert [(i, e) for i, e, _ in rows1] == [(i, e) for i, e, _ in rows2]
        assert [(i, e) for i, e, _ in rows1] == [(i, e) for i, e, _ in rows8]

    def test_descale_divides_output(self, small):
        init = pk.synth_object(small["truth"].shape, seed=5)
        params = SharpParams(max_iters=0)
        full, _ = sharp_iterate(
            small["y"], small["probe"], small["grid"], params, init=init
        )
        halved, _ = sharp_iterate(
            small["y"], small["probe"], small["grid"], params, init=init, descale=2.0
        )
        np.testing.assert_allclose(halved, full / 2.0, atol=1e-14)

    def test_non_finite_data_raises_numerical_failure(self, small):
        bad = small["y"].copy()
        bad[0, 0, 0] = np.inf
        params = SharpParams(max_iters=5)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalFailure) as exc:
                sharp_iterate(
                    bad, small["probe"], small["grid"], params,
                    init=np.ones(small["truth"].shape, complex),
                )
        assert exc.value.iteration == 1

    def test_trace_rows_follow_eval_every(self, small):
        params = SharpParams(max_iters=20, eval_every=7)
        _, rows = sharp_iterate(
            small["y"], small["probe"], small["grid"], params,
            init=np.ones(small["truth"].shape, complex), trace_target=small["truth"],
        )
        assert [it for it, _, _ in rows] == [0, 7, 14, 20]

    def test_shape_mismatches_rejected(self, small):
        params = SharpParams(max_iters=1)
        with pytest.raises(ValueError):
            sharp_iterate(
                small["y"], small["probe"], small["grid"], params,
                init=np.ones((8, 8), complex),
            )
        with pytest.raises(ValueError):
            sharp_iterate(
                small["y"][:3], small["probe"], small["grid"], params,
                init=np.ones(small["truth"].shape, complex),
            )
        # an (N_p, 1) probe would broadcast across every frame column; the
        # shape check runs before the coupling is built from the probe
        for probe in (small["probe"][:, :1], np.ones((20, 20), complex),
                      np.ones((8, 8), complex)):
            with pytest.raises(ValueError, match="probe shape"):
                sharp_iterate(
                    small["y"], probe, small["grid"], params,
                    init=np.ones(small["truth"].shape, complex),
                )

    @pytest.mark.parametrize("variant", ["sharp", "sharp_plus"])
    def test_zero_probe_rejected(self, small, variant):
        # without the check the solver returns an all-zero image
        with pytest.raises(ValueError, match="probe is zero"):
            sharp_iterate(
                small["y"], np.zeros_like(small["probe"]), small["grid"],
                SharpParams(max_iters=1, variant=variant),
                init=np.ones(small["truth"].shape, complex),
            )


class TestSharpParams:
    def test_valid_defaults(self):
        p = SharpParams()
        assert p.beta == 0.5 and p.variant == "sharp_plus"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.0},
            {"beta": 1.0},
            {"beta": float("nan")},
            {"variant": "raar"},
            {"max_iters": -1},
            {"eval_every": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SharpParams(**kwargs)
