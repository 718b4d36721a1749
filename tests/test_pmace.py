import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptychokit as pk
from ptychokit.fields import (
    NumericalFailure,
    accumulate_stack,
    build_coverage,
    extract_stack,
    fft2_orthonormal,
    ifft2_orthonormal,
)
from ptychokit.pmace import (
    PmaceParams,
    agent_update,
    phase_factor,
    pmace_coupling,
    regularized_reciprocal,
    stitch_weighted,
)

from conftest import coupled_stack, full_support_probe


def random_stack(grid, seed):
    rng = np.random.default_rng(seed)
    shape = (len(grid), grid.patch_size, grid.patch_size)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestPhaseFactor:
    def test_unit_modulus_on_support(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        p = phase_factor(z)
        np.testing.assert_allclose(np.abs(p), 1.0, atol=1e-12)
        np.testing.assert_allclose(p * np.abs(z), z, atol=1e-12)

    def test_zero_maps_to_zero(self):
        z = np.array([[0.0 + 0j, 3.0 + 4j]])
        p = phase_factor(z)
        assert p[0, 0] == 0
        assert np.isclose(p[0, 1], 0.6 + 0.8j)


class TestRegularizedReciprocal:
    def test_inverts_bright_pixels(self):
        d = full_support_probe(16, seed=0)
        np.testing.assert_allclose(regularized_reciprocal(d) * d, 1.0, atol=1e-10)

    def test_finite_and_small_at_zeros(self):
        d = pk.synth_probe(16, seed=1)  # dark exterior
        r = regularized_reciprocal(d)
        assert np.isfinite(r).all()
        assert np.all(np.abs(r)[np.abs(d) == 0] == 0)


class TestAgentUpdate:
    def test_scalar_closed_form(self):
        # one-point DFT is the identity, so the data-fitting point is y
        d = np.ones((1, 1), complex)
        x = np.full((1, 1), 2.0 + 0j)
        y = np.full((1, 1), 3.0)
        assert np.isclose(agent_update(x, y, d, alpha=0.0)[0, 0], 3.0, atol=1e-9)
        assert np.isclose(agent_update(x, y, d, alpha=1.0)[0, 0], 2.5, atol=1e-9)

    def test_consistent_input_is_fixed_for_every_alpha(self):
        grid = pk.make_scan_grid((40, 40), 16, (2, 2), 12)
        x = pk.synth_object((40, 40), seed=2)
        d = full_support_probe(16, seed=3)
        stack = extract_stack(x, grid)
        y = pk.forward_amplitude(x, d, grid)
        for alpha in (0.0, 0.5, 1.0, 10.0):
            out = agent_update(stack, y, d, alpha)
            assert np.max(np.abs(out - stack)) < 1e-9

    def test_large_alpha_returns_input(self, small):
        stack = random_stack(small["grid"], seed=4)
        out = agent_update(stack, small["y"], small["probe"], alpha=1e8)
        assert np.linalg.norm(out - stack) / np.linalg.norm(stack) < 1e-6

    def test_convex_interpolation_in_alpha(self, small):
        stack = random_stack(small["grid"], seed=5)
        fit = agent_update(stack, small["y"], small["probe"], alpha=0.0)
        for alpha in (0.25, 1.0, 4.0):
            expected = (alpha * stack + fit) / (1 + alpha)
            out = agent_update(stack, small["y"], small["probe"], alpha)
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_step_size_nonincreasing_in_alpha(self, small):
        stack = random_stack(small["grid"], seed=6)
        moves = [
            np.linalg.norm(agent_update(stack, small["y"], small["probe"], a) - stack)
            for a in (0.0, 0.1, 0.5, 1.0, 5.0, 50.0)
        ]
        assert all(m1 >= m2 - 1e-12 for m1, m2 in zip(moves, moves[1:]))

    def test_single_patch_matches_stack_slice(self, small):
        stack = random_stack(small["grid"], seed=7)
        whole = agent_update(stack, small["y"], small["probe"], alpha=0.3)
        one = agent_update(stack[4], small["y"][4], small["probe"], alpha=0.3)
        np.testing.assert_array_equal(whole[4], one)


class TestConsensus:
    def test_identity_on_consistent_stack_uniform_probe(self):
        grid = pk.make_scan_grid((40, 40), 16, (2, 2), 12)
        d = np.ones((16, 16), complex)
        coupling = pmace_coupling(d, grid, 1.25)
        stack = extract_stack(pk.synth_object((40, 40), seed=8), grid)
        np.testing.assert_allclose(coupled_stack(stack, coupling, grid), stack, atol=1e-12)

    def test_overlap_pixels_average_with_unit_weights(self):
        # patches at columns 0..3 and 1..4 share columns 1..3; kappa=0
        # weights average the two constant values there
        grid = pk.ScanGrid(offsets=((0, 0), (0, 1)), patch_size=4, image_shape=(4, 5))
        d = np.ones((4, 4), complex)
        coupling = pmace_coupling(d, grid, 0.0)
        a = np.full((4, 4), 1.0 + 2j)
        b = np.full((4, 4), 3.0 - 4j)
        out = coupled_stack(np.stack([a, b]), coupling, grid)
        avg = (1.0 + 2j + 3.0 - 4j) / 2
        np.testing.assert_allclose(out[0][:, 1:], avg, atol=1e-12)
        np.testing.assert_allclose(out[1][:, :3], avg, atol=1e-12)
        np.testing.assert_allclose(out[0][:, 0], 1.0 + 2j, atol=1e-12)
        np.testing.assert_allclose(out[1][:, 3], 3.0 - 4j, atol=1e-12)

    def test_idempotent(self, small):
        coupling = pmace_coupling(small["probe"], small["grid"], 1.25)
        s = random_stack(small["grid"], seed=9)
        once = coupled_stack(s, coupling, small["grid"])
        twice = coupled_stack(once, coupling, small["grid"])
        assert np.max(np.abs(twice - once)) < 1e-12

    def test_self_adjoint_in_weighted_inner_product(self, small):
        # <G s, t>_w = <s, G t>_w with per-pixel weights |d|^kappa
        kappa = 1.25
        coupling = pmace_coupling(small["probe"], small["grid"], kappa)
        wk = pk.amplitude_power(small["probe"], kappa)
        s = random_stack(small["grid"], seed=10)
        t = random_stack(small["grid"], seed=11)
        gs = coupled_stack(s, coupling, small["grid"])
        gt = coupled_stack(t, coupling, small["grid"])
        lhs = np.sum(np.conj(gs) * t * wk[None])
        rhs = np.sum(np.conj(s) * gt * wk[None])
        assert abs(lhs - rhs) / abs(lhs) < 1e-12

    def test_stitch_recovers_image_on_covered_region(self, small):
        coupling = pmace_coupling(small["probe"], small["grid"], 1.25)
        stack = extract_stack(small["truth"], small["grid"])
        image = stitch_weighted(stack, coupling, small["grid"])
        np.testing.assert_allclose(
            image[small["mask"]], small["truth"][small["mask"]], atol=1e-12
        )
        assert np.all(image[~small["mask"]] == 0)

    def test_non_finite_frame_value_stays_nan_on_an_uncovered_pixel(self):
        # weight 0 times inf is NaN, and the product with the inverse coverage
        # keeps it, so the NaN guard sees it rather than a 0
        grid = pk.ScanGrid(offsets=((0, 0),), patch_size=2, image_shape=(2, 2))
        coupling = pmace_coupling(np.array([[0, 1], [2, 0]], dtype=complex), grid, 1.0)
        stack = np.full((1, 2, 2), 6.0 + 0j)
        stack[0, 0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            image = stitch_weighted(stack, coupling, grid)
        assert np.isnan(image[0, 0])
        np.testing.assert_array_equal(image.ravel()[1:], [6, 6, 0])


class TestMannIterate:
    def test_ground_truth_is_fixed_point_of_reflected_map(self):
        # T = (2G - I)(2F - I) fixes the truth stack when the probe has
        # full support, so the regularized reciprocal really inverts d
        grid = pk.make_scan_grid((40, 40), 16, (2, 2), 12)
        x = pk.synth_object((40, 40), seed=12)
        d = full_support_probe(16, seed=13)
        y = pk.forward_amplitude(x, d, grid)
        coupling = pmace_coupling(d, grid, 1.25)
        v = extract_stack(x, grid)
        w = agent_update(v, y, d, alpha=0.0)
        tv = 2 * coupled_stack(2 * w - v, coupling, grid) - (2 * w - v)
        assert np.linalg.norm(tv - v) / np.linalg.norm(v) < 1e-10

    def test_truth_init_stays_put(self, small):
        params = PmaceParams(alpha=0.0, rho=0.5, kappa=1.25, max_iters=20)
        _, rows = pk.mann_iterate(
            small["y"], small["probe"], small["grid"], params,
            init=small["truth"], trace_target=small["truth"],
        )
        assert max(err for _, err, _ in rows) < 1e-10

    def test_faint_probe_pixels_with_subnormal_weights_solve(self, small):
        # 1e-250^1.25 is subnormal, so the coverage is too on pixels only the
        # faint pixels light; its reciprocal would be inf and the image NaN
        probe = small["probe"].copy()
        probe[probe == 0] = 1e-250
        params = PmaceParams(alpha=0.1, kappa=1.25, max_iters=3)
        recon, rows = pk.mann_iterate(
            small["y"], probe, small["grid"], params,
            init=np.ones(small["truth"].shape, complex), trace_target=small["truth"],
        )
        assert np.isfinite(recon).all() and np.isfinite(rows[-1][1])

    def test_rho_changes_path_but_not_solution(self, desk):
        # long runs at different Mann weights land on the same image
        recons = {}
        for rho in (0.3, 0.7):
            params = PmaceParams(alpha=0.1, rho=rho, kappa=1.25, max_iters=300)
            recons[rho], _ = pk.mann_iterate(
                desk["y"], desk["probe"], desk["grid"], params,
                init=np.ones(desk["truth"].shape, complex),
            )
        gap = pk.nrmse_phase_aligned(recons[0.3], recons[0.7], desk["mask"])
        assert gap < 1e-6

    def test_desk_scale_recovery_from_ones(self, desk):
        params = PmaceParams(alpha=0.0, rho=0.5, kappa=1.25, max_iters=100, eval_every=1)
        _, rows = pk.mann_iterate(
            desk["y"], desk["probe"], desk["grid"], params,
            init=np.ones(desk["truth"].shape, complex),
            trace_target=desk["truth"],
        )
        err = {it: e for it, e, _ in rows}
        assert err[100] < 1e-2
        assert err[50] < err[10] < err[1]

    def test_deterministic_across_runs_and_workers(self, small):
        params = PmaceParams(alpha=0.2, rho=0.5, kappa=1.25, max_iters=10)
        init = np.ones(small["truth"].shape, complex)
        args = (small["y"], small["probe"], small["grid"], params)
        r1, rows1 = pk.mann_iterate(*args, init=init, trace_target=small["truth"])
        r2, rows2 = pk.mann_iterate(*args, init=init, trace_target=small["truth"])
        r8, rows8 = pk.mann_iterate(*args, init=init, trace_target=small["truth"], workers=8)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(r1, r8)
        assert [(i, e) for i, e, _ in rows1] == [(i, e) for i, e, _ in rows2]
        assert [(i, e) for i, e, _ in rows1] == [(i, e) for i, e, _ in rows8]

    def test_descale_divides_output(self, small):
        params = PmaceParams(max_iters=0)
        init = pk.synth_object(small["truth"].shape, seed=14)
        full, _ = pk.mann_iterate(
            small["y"], small["probe"], small["grid"], params, init=init
        )
        halved, _ = pk.mann_iterate(
            small["y"], small["probe"], small["grid"], params, init=init, descale=2.0
        )
        np.testing.assert_allclose(halved, full / 2.0, atol=1e-14)

    def test_non_finite_data_raises_numerical_failure(self, small):
        bad = small["y"].copy()
        bad[0, 0, 0] = np.nan
        params = PmaceParams(max_iters=5)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalFailure) as exc:
                pk.mann_iterate(
                    bad, small["probe"], small["grid"], params,
                    init=np.ones(small["truth"].shape, complex),
                )
        assert exc.value.iteration == 1

    def test_trace_rows_follow_eval_every(self, small):
        params = PmaceParams(max_iters=20, eval_every=7)
        _, rows = pk.mann_iterate(
            small["y"], small["probe"], small["grid"], params,
            init=np.ones(small["truth"].shape, complex), trace_target=small["truth"],
        )
        assert [it for it, _, _ in rows] == [0, 7, 14, 20]

    def test_trace_without_target_records_nan(self, small):
        params = PmaceParams(max_iters=2)
        _, rows = pk.mann_iterate(
            small["y"], small["probe"], small["grid"], params,
            init=np.ones(small["truth"].shape, complex),
        )
        assert all(np.isnan(err) for _, err, _ in rows)

    def test_shape_mismatches_rejected(self, small):
        params = PmaceParams(max_iters=1)
        with pytest.raises(ValueError):
            pk.mann_iterate(
                small["y"], small["probe"], small["grid"], params,
                init=np.ones((8, 8), complex),
            )
        with pytest.raises(ValueError):
            pk.mann_iterate(
                small["y"][:3], small["probe"], small["grid"], params,
                init=np.ones(small["truth"].shape, complex),
            )
        # an (N_p, 1) probe would broadcast across every patch column; the
        # shape check runs before the coupling is built from the probe
        for probe in (small["probe"][:, :1], np.ones((20, 20), complex),
                      np.ones((8, 8), complex)):
            with pytest.raises(ValueError, match="probe shape"):
                pk.mann_iterate(
                    small["y"], probe, small["grid"], params,
                    init=np.ones(small["truth"].shape, complex),
                )

    def test_zero_probe_rejected(self, small):
        # eps = 1e-6 max|d| is 0 for this probe, so D^reginv would be 0/0
        with pytest.raises(ValueError, match="probe is zero"):
            pk.mann_iterate(
                small["y"], np.zeros_like(small["probe"]), small["grid"],
                PmaceParams(max_iters=1), init=np.ones(small["truth"].shape, complex),
            )

    def test_matches_allocating_reference_loop(self, small):
        # The solver runs in place on a two-stack workspace; this loop
        # spells out the same arithmetic with a fresh array per expression,
        # operand order and grouping included, so the two must agree to
        # the last bit.
        y, d, grid = small["y"], small["probe"], small["grid"]
        alpha, rho, kappa = 0.2, 0.5, 1.25
        params = PmaceParams(alpha=alpha, rho=rho, kappa=kappa, max_iters=10)
        init = pk.synth_object(small["truth"].shape, seed=15)
        recon, rows = pk.mann_iterate(
            y, d, grid, params, init=init, trace_target=small["truth"], descale=1.5
        )

        cov = build_coverage(d, grid, kappa)
        wk = pk.amplitude_power(d, kappa)
        dinv = regularized_reciprocal(d)

        def stitch(stack):
            return np.divide(accumulate_stack(wk[None, :, :] * stack, grid), cov,
                             out=np.zeros(grid.image_shape, complex), where=cov > 0)

        def phase(z):
            az = np.abs(z)
            out = np.zeros_like(z)
            np.divide(z, az, out=out, where=az > 0)
            return out

        v = extract_stack(init, grid)
        errs = [pk.nrmse_phase_aligned(stitch(v) / 1.5, small["truth"], small["mask"])]
        for _ in range(params.max_iters):
            fx = fft2_orthonormal(d * v)
            w = (alpha * v + dinv * ifft2_orthonormal(y * phase(fx))) / (1 + alpha)
            z = extract_stack(stitch(2 * w - v), grid)
            v = (v - 2 * rho * w) + 2 * rho * z
            errs.append(pk.nrmse_phase_aligned(stitch(v) / 1.5, small["truth"], small["mask"]))
        np.testing.assert_array_equal(recon, stitch(v) / 1.5)
        assert [err for _, err, _ in rows] == errs


class TestPmaceParams:
    def test_valid_defaults(self):
        p = PmaceParams()
        assert p.alpha == 0.0 and p.rho == 0.5 and p.kappa == 1.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -0.1},
            {"alpha": float("nan")},
            {"alpha": float("inf")},
            {"rho": 0.0},
            {"rho": 1.0},
            {"rho": float("nan")},
            {"kappa": -1.0},
            {"kappa": float("nan")},
            {"kappa": float("inf")},
            {"max_iters": -1},
            {"eval_every": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PmaceParams(**kwargs)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([("pmace", 0.5), ("pmace", 1.25), ("pmace", 3.0),
                     ("sharp", None), ("sharp_plus", None)]),
    st.sampled_from([8, 12, 16]),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
    st.floats(0.25, 1.0),
    st.integers(0, 3),
    st.integers(0, 2),
    st.floats(-300, -163),
)
def test_trace_nrmse_is_taken_over_the_pixels_the_probe_lights(
    solver, n_p, dims, step, margin, iters, dark_exponent
):
    # the dark pixels get a faint amplitude whose |d|^kappa underflows to 0
    # at SHARP's kappa = 2 and at kappa = 3 (at 1.25 below about 1e-259), so
    # a region read from a coupling's coverage would drop pixels the scan lights
    name, kappa = solver
    spacing = max(1, round(step * n_p))
    shape = tuple((k - 1) * spacing + n_p + margin for k in dims)
    grid = pk.make_scan_grid(shape, n_p, dims, spacing)
    truth = pk.synth_object(shape, 3)
    probe = pk.synth_probe(n_p, 5)
    probe[probe == 0] = 10.0**dark_exponent
    y = pk.forward_amplitude(truth, probe, grid)
    init = np.ones(shape, dtype=np.complex128)
    if name == "pmace":
        params = PmaceParams(alpha=0.1, kappa=kappa, max_iters=iters)
        recon, rows = pk.mann_iterate(y, probe, grid, params, init, trace_target=truth)
    else:
        params = pk.SharpParams(beta=0.45, max_iters=iters, variant=name)
        recon, rows = pk.sharp_iterate(y, probe, grid, params, init, trace_target=truth)
    lit = build_coverage(probe, grid, 0) > 0
    assert rows[-1][1] == pk.nrmse_phase_aligned(recon, truth, lit)
