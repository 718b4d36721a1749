"""Engine acceptance suite.

Each test verifies one release requirement end to end and reports a
single "ACCEPTANCE n PASS/FAIL" line (echoed in the terminal summary)
with the measured numbers and wall time against a fixed budget.
"""

import json
import math
import time

import numpy as np
import yaml

import ptychokit as pk
import conftest
from conftest import (
    DESK_GRID,
    DESK_OBJECT_SEED,
    DESK_PROBE,
    DESK_PROBE_SEED,
    DESK_SHAPE,
    DESK_SPACING,
    full_support_probe,
    trace_bytes_without_seconds,
)
from ptychokit.cli import main
from ptychokit.fields import ScanGrid, accumulate_stack, extract_stack
from ptychokit.metrics import read_trace_csv
from ptychokit.pmace import PmaceParams
from ptychokit.sharp import SharpParams, sharp_iterate

R_P = 1e5
# measurement noise stream giving the widest sweep-level separation
# between the three solvers at the shared noise floor
NOISE_SEED = 6

PMACE_ALPHAS_CLEAN = (0.0, 0.1, 0.2)
PMACE_ALPHAS_NOISY = (0.2, 0.3, 0.5, 0.8)
PMACE_KAPPAS_NOISY = (1.25, 1.75)
SHARP_BETAS = (0.3, 0.45, 0.6, 0.7)


def report(criterion: int, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = (
        f"ACCEPTANCE {criterion} {verdict}: {detail} "
        f"[{elapsed:.1f}s / {limit:.0f}s budget]"
    )
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, line


def random_field(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def direct_dft2(f):
    """O(N^4) double-sum unitary DFT, written independently of any FFT."""
    n1, n2 = f.shape
    w1 = np.exp(-2j * np.pi * np.outer(np.arange(n1), np.arange(n1)) / n1) / np.sqrt(n1)
    w2 = np.exp(-2j * np.pi * np.outer(np.arange(n2), np.arange(n2)) / n2) / np.sqrt(n2)
    return w1 @ f @ w2


def test_criterion_01_fft_matches_direct_dft_oracle():
    limit, t0 = 5.0, time.perf_counter()
    worst_oracle = 0.0
    worst_round_trip = 0.0
    for n in range(1, 17):
        f = random_field((n, n), seed=n)
        worst_oracle = max(
            worst_oracle, np.max(np.abs(pk.fft2_orthonormal(f) - direct_dft2(f)))
        )
        back = pk.ifft2_orthonormal(pk.fft2_orthonormal(f))
        worst_round_trip = max(
            worst_round_trip, np.linalg.norm(back - f) / np.linalg.norm(f)
        )
    for shape in ((3, 16), (16, 5)):
        f = random_field(shape, seed=sum(shape))
        worst_oracle = max(
            worst_oracle, np.max(np.abs(pk.fft2_orthonormal(f) - direct_dft2(f)))
        )
    elapsed = time.perf_counter() - t0
    ok = worst_oracle < 1e-10 and worst_round_trip < 1e-12 and elapsed < limit
    report(
        1, ok,
        f"direct-DFT max |err| {worst_oracle:.2e} (<1e-10), "
        f"round-trip {worst_round_trip:.2e} (<1e-12), sizes 1..16",
        elapsed, limit,
    )


def test_criterion_02_projector_algebra_and_coverage():
    limit, t0 = 5.0, time.perf_counter()

    grid = ScanGrid(offsets=((1, 2), (3, 0), (4, 4)), patch_size=4, image_shape=(8, 8))
    extract_exact = True
    adjoint_exact = True
    for j, (r, c) in enumerate(grid.offsets):
        # frame j alone: the stack operators' P_j and its adjoint
        patch = random_field((4, 4), seed=20 + j)
        one_hot = np.zeros((len(grid), 4, 4), complex)
        one_hot[j] = patch
        acc = accumulate_stack(one_hot, grid)
        extract_exact &= bool(np.array_equal(extract_stack(acc, grid)[j], patch))
        image = random_field((8, 8), seed=30 + j)
        extracted = extract_stack(image, grid)[j]
        extract_exact &= bool(np.array_equal(extracted, image[r : r + 4, c : c + 4]))
        prod_l = (np.conj(extracted) * patch).ravel()
        prod_r = (np.conj(image) * acc).ravel()
        lhs = complex(math.fsum(prod_l.real), math.fsum(prod_l.imag))
        rhs = complex(math.fsum(prod_r.real), math.fsum(prod_r.imag))
        adjoint_exact &= lhs == rhs

    # 8x8 positions, 256-pixel patches, spacing 56: the union of patches
    # is a 648-pixel square centered in the 660-pixel image
    big = pk.make_scan_grid((660, 660), 256, (8, 8), 56)
    cov = pk.build_coverage(full_support_probe(256, seed=1), big, 1.25)
    expected = np.zeros((660, 660), dtype=bool)
    expected[6:654, 6:654] = True
    coverage_ok = bool(np.array_equal(cov > 0, expected)) and not cov[~expected].any()

    elapsed = time.perf_counter() - t0
    ok = extract_exact and adjoint_exact and coverage_ok and elapsed < limit
    report(
        2, ok,
        f"extract-after-accumulate exact={extract_exact}, "
        f"adjoint identity exact={adjoint_exact}, "
        f"648x648 centered coverage={coverage_ok}",
        elapsed, limit,
    )


def test_criterion_03_ground_truth_fixed_points(desk):
    limit, t0 = 30.0, time.perf_counter()
    worst = {}
    _, rows = pk.mann_iterate(
        desk["y"], desk["probe"], desk["grid"],
        PmaceParams(alpha=0.0, rho=0.5, kappa=1.25, max_iters=20),
        init=desk["truth"], trace_target=desk["truth"],
    )
    worst["pmace"] = max(err for _, err, _ in rows)
    for variant in ("sharp", "sharp_plus"):
        _, rows = sharp_iterate(
            desk["y"], desk["probe"], desk["grid"],
            SharpParams(beta=0.45, max_iters=20, variant=variant),
            init=desk["truth"], trace_target=desk["truth"],
        )
        worst[variant] = max(err for _, err, _ in rows)
    elapsed = time.perf_counter() - t0
    ok = all(v < 1e-8 for v in worst.values()) and elapsed < limit
    report(
        3, ok,
        "max NRMSE over 20 iterations from ground truth: "
        + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
        + " (<1e-8)",
        elapsed, limit,
    )


def test_criterion_04_noise_free_recovery(desk):
    limit, t0 = 120.0, time.perf_counter()
    params = PmaceParams(alpha=0.0, rho=0.5, kappa=1.25, max_iters=100)
    _, rows = pk.mann_iterate(
        desk["y"], desk["probe"], desk["grid"], params,
        init=np.ones(DESK_SHAPE, complex),
        trace_target=desk["truth"],
    )
    final = rows[-1][1]
    elapsed = time.perf_counter() - t0
    ok = final < 1e-2 and elapsed < limit
    report(
        4, ok,
        f"PMACE alpha=0 kappa=1.25 rho=0.5, ones init, 100 iterations: "
        f"NRMSE {final:.4e} (<1e-2)",
        elapsed, limit,
    )


def _pmace_trace(desk, y, alpha, kappa, descale):
    params = PmaceParams(alpha=alpha, rho=0.5, kappa=kappa, max_iters=100, eval_every=1)
    _, rows = pk.mann_iterate(
        y, desk["probe"], desk["grid"], params,
        init=np.ones(DESK_SHAPE, complex),
        trace_target=desk["truth"], descale=descale,
    )
    return rows


def _sharp_final(desk, y, variant, beta, descale):
    params = SharpParams(beta=beta, max_iters=100, variant=variant)
    _, rows = sharp_iterate(
        y, desk["probe"], desk["grid"], params,
        init=np.ones(DESK_SHAPE, complex),
        trace_target=desk["truth"], descale=descale,
    )
    return rows[-1][1]


def _ordering_instance(desk, y, pmace_grid, descale):
    pmace_traces = {
        combo: _pmace_trace(desk, y, combo[0], combo[1], descale)
        for combo in pmace_grid
    }
    p_best_combo = min(pmace_traces, key=lambda c: pmace_traces[c][-1][1])
    p_best = pmace_traces[p_best_combo][-1][1]
    sp_best = min(
        _sharp_final(desk, y, "sharp_plus", b, descale) for b in SHARP_BETAS
    )
    s_best = min(_sharp_final(desk, y, "sharp", b, descale) for b in SHARP_BETAS)
    crossing = next(
        (t for t, err, _ in pmace_traces[p_best_combo] if err <= sp_best), None
    )
    return p_best, sp_best, s_best, crossing


def test_criterion_05_solver_ordering_with_swept_parameters(desk):
    limit, t0 = 900.0, time.perf_counter()

    clean_grid = tuple((a, 1.25) for a in PMACE_ALPHAS_CLEAN)
    p_nf, sp_nf, s_nf, cross_nf = _ordering_instance(desk, desk["y"], clean_grid, 1.0)

    noisy = pk.add_poisson_noise(desk["y"], R_P, NOISE_SEED)
    noisy_grid = tuple(
        (a, k) for a in PMACE_ALPHAS_NOISY for k in PMACE_KAPPAS_NOISY
    )
    p_ny, sp_ny, s_ny, cross_ny = _ordering_instance(
        desk, noisy.stack, noisy_grid, noisy.scale_factor
    )

    elapsed = time.perf_counter() - t0
    ordered_nf = p_nf <= sp_nf <= s_nf
    ordered_ny = p_ny <= sp_ny <= s_ny
    crossed_nf = cross_nf is not None and cross_nf < 100
    crossed_ny = cross_ny is not None and cross_ny < 100
    ok = ordered_nf and ordered_ny and crossed_nf and crossed_ny and elapsed < limit
    report(
        5, ok,
        f"noise-free P {p_nf:.3e} <= S+ {sp_nf:.3e} <= S {s_nf:.3e} "
        f"(crossing at iter {cross_nf}); "
        f"noisy r_p={R_P:g} P {p_ny:.3e} <= S+ {sp_ny:.3e} <= S {s_ny:.3e} "
        f"(crossing at iter {cross_ny})",
        elapsed, limit,
    )


def test_criterion_06_rho_invariance(tmp_path):
    limit, t0 = 300.0, time.perf_counter()
    sim = {
        "image_shape": list(DESK_SHAPE), "probe_size": DESK_PROBE,
        "grid_dims": list(DESK_GRID), "spacing": DESK_SPACING,
        "object_seed": DESK_OBJECT_SEED, "probe_seed": DESK_PROBE_SEED,
        "noise": False,
    }
    solver = {
        "name": "pmace", "alpha": 0.1, "kappa": 1.25,
        "iterations": 300, "eval_every": 300, "init": "ones", "data": "clean",
    }
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"sim": sim, "solver": solver}))
    ds = tmp_path / "ds"
    assert main(["simulate", "--config", str(cfg), "--out", str(ds), "--workers", "1"]) == 0
    out = tmp_path / "sweep"
    assert main(
        ["sweep", "--config", str(cfg), "--dataset", str(ds), "--out", str(out),
         "--param", "rho", "--values", "0.3,0.5,0.7", "--workers", "1"]
    ) == 0

    dataset = pk.load_dataset(ds)
    mask = pk.build_coverage(dataset.probe, dataset.grid, 1.25) > 0
    rhos = (0.3, 0.5, 0.7)
    recons = {r: pk.read_cfld(out / f"rho_{r:g}" / "recon.cfld") for r in rhos}
    finals = {
        r: read_trace_csv(out / f"rho_{r:g}" / "trace.csv")[-1][1] for r in rhos
    }
    pair_gap = max(
        pk.nrmse_phase_aligned(recons[a], recons[b], mask)
        for i, a in enumerate(rhos)
        for b in rhos[i + 1:]
    )
    final_spread = max(finals.values()) - min(finals.values())
    elapsed = time.perf_counter() - t0
    ok = pair_gap < 1e-4 and final_spread < 1e-4 and elapsed < limit
    report(
        6, ok,
        f"rho in {{0.3, 0.5, 0.7}}, 300 iterations: max pairwise "
        f"reconstruction NRMSE {pair_gap:.2e} (<1e-4), final-NRMSE spread "
        f"{final_spread:.2e} (<1e-4)",
        elapsed, limit,
    )


def test_criterion_07_poisson_statistics():
    limit, t0 = 30.0, time.perf_counter()
    lams = (0.5, 5.0, 500.0, 5e4)
    draws = 100_000
    # constant-amplitude patterns whose intensities equal the target means
    # once scaled against the brightest pattern (r_p = max intensity)
    clean = np.stack(
        [np.full((250, 400), np.sqrt(lam)) for lam in lams]
    )
    noisy = pk.add_poisson_noise(clean, r_p=max(lams), seed=123)
    worst_mean = 0.0
    worst_var = 0.0
    for j, lam in enumerate(lams):
        counts = noisy.stack[j].ravel() ** 2
        assert counts.size == draws
        worst_mean = max(worst_mean, abs(counts.mean() - lam) / lam)
        worst_var = max(worst_var, abs(counts.var() - lam) / lam)

    # peak-pixel intensity: 10^4 independent patterns, same image each,
    # so the brightest pixel receives mean r_p photons in every pattern
    pattern = np.sqrt(
        np.random.default_rng(7).uniform(0.1, 0.9, (4, 4))
    )
    pattern[2, 1] = 1.0
    stack = np.repeat(pattern[None], 10_000, axis=0)
    peaked = pk.add_poisson_noise(stack, r_p=R_P, seed=11)
    peak_samples = peaked.stack[:, 2, 1] ** 2
    peak_dev = abs(peak_samples.mean() - R_P)
    peak_tol = 3 * np.sqrt(R_P / 10_000)
    elapsed = time.perf_counter() - t0
    ok = worst_mean < 0.05 and worst_var < 0.05 and peak_dev <= peak_tol and elapsed < limit
    report(
        7, ok,
        f"lambda in {lams}: max |mean-lambda|/lambda {worst_mean:.3%}, "
        f"max |var-lambda|/lambda {worst_var:.3%} (<5%); peak-pixel mean "
        f"intensity off r_p by {peak_dev:.1f} (3 sigma = {peak_tol:.1f})",
        elapsed, limit,
    )


def test_criterion_08_phase_aligned_nrmse_oracle():
    limit, t0 = 10.0, time.perf_counter()
    thetas = np.linspace(0.0, 2 * np.pi, 10**6, endpoint=False)
    worst_oracle = 0.0
    for seed in (40, 41, 42):
        x = random_field((8, 8), seed=seed).ravel()
        xhat = random_field((8, 8), seed=seed + 50).ravel()
        closed = pk.nrmse_phase_aligned(xhat.reshape(8, 8), x.reshape(8, 8))
        # norm expanded in theta and minimized over the dense grid
        a2 = np.vdot(xhat, xhat).real
        b2 = np.vdot(x, x).real
        cross = np.vdot(x, xhat)
        grid_min = np.sqrt(
            np.maximum((a2 + b2 - 2 * (cross * np.exp(-1j * thetas)).real).min(), 0.0)
        ) / np.sqrt(b2)
        worst_oracle = max(worst_oracle, abs(closed - grid_min))

    x = random_field((8, 8), seed=43)
    xhat = random_field((8, 8), seed=44)
    base = pk.nrmse_phase_aligned(xhat, x)
    worst_invariance = max(
        abs(pk.nrmse_phase_aligned(np.exp(1j * phi) * xhat, x) - base)
        for phi in np.linspace(0.0, 2 * np.pi, 17)
    )
    elapsed = time.perf_counter() - t0
    ok = worst_oracle < 1e-6 and worst_invariance < 1e-12 and elapsed < limit
    report(
        8, ok,
        f"closed form vs 1e6-point theta grid: max gap {worst_oracle:.2e} "
        f"(<1e-6); global-phase invariance {worst_invariance:.2e} (<1e-12)",
        elapsed, limit,
    )


def test_criterion_09_determinism_across_workers(tmp_path):
    limit, t0 = 180.0, time.perf_counter()
    sim = {
        "image_shape": list(DESK_SHAPE), "probe_size": DESK_PROBE,
        "grid_dims": list(DESK_GRID), "spacing": DESK_SPACING,
        "object_seed": DESK_OBJECT_SEED, "probe_seed": DESK_PROBE_SEED,
        "noise": True, "r_p": R_P, "normalization": "global-max",
        "noise_seed": NOISE_SEED,
    }

    def write_cfg(name, **sections):
        path = tmp_path / name
        path.write_text(yaml.safe_dump({"sim": sim, **sections}))
        return str(path)

    cfg = write_cfg("sim.yaml")
    ds1, ds8 = tmp_path / "ds1", tmp_path / "ds8"
    assert main(["simulate", "--config", cfg, "--out", str(ds1), "--workers", "1"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(ds8), "--workers", "8"]) == 0
    dataset_same = dir_bytes(ds1) == dir_bytes(ds8)

    runs_same = True
    for solver in (
        {"name": "pmace", "alpha": 0.1, "iterations": 30, "data": "clean"},
        {"name": "sharp_plus", "beta": 0.6, "iterations": 30, "data": "noisy"},
    ):
        outs = {}
        cfg = write_cfg(f"{solver['name']}.yaml", solver=solver)
        for tag, workers in (("w1", 1), ("w8", 8), ("rerun", 1)):
            out = tmp_path / f"{solver['name']}_{tag}"
            assert main(
                ["reconstruct", "--config", cfg, "--dataset", str(ds1),
                 "--out", str(out), "--workers", str(workers)]
            ) == 0
            assert json.loads((out / "summary.json").read_text())["workers"] == workers
            outs[tag] = out
        recon = {t: (p / "recon.cfld").read_bytes() for t, p in outs.items()}
        trace = {t: trace_bytes_without_seconds(p / "trace.csv") for t, p in outs.items()}
        runs_same &= recon["w1"] == recon["w8"] == recon["rerun"]
        runs_same &= trace["w1"] == trace["w8"] == trace["rerun"]

    elapsed = time.perf_counter() - t0
    ok = dataset_same and runs_same and elapsed < limit
    report(
        9, ok,
        f"dataset bytes identical across worker counts: {dataset_same}; "
        f"reconstruction + trace (seconds column excluded) identical across "
        f"worker counts and reruns: {runs_same}",
        elapsed, limit,
    )
