"""PMACE solver: probe-weighted proximal agents, a probe-exponent consensus
operator, and the Mann iteration that drives their composition to a fixed
point.

The agents act per probe position on a stack of image patches,

    F_j(x_j) = (alpha x_j + D^reginv F*(y_j phase(F D x_j))) / (1 + alpha),

pulling each patch toward agreement with its measured amplitudes while
alpha (a noise-to-signal ratio) damps the step. The consensus operator
re-extracts every patch from the |d|^kappa-weighted average image, making
the stack consistent. The Mann loop relaxes the reflected composition
T = (2G - I)(2F - I) with weight rho.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
import numpy as np

from .fields import (
    CoverageMap,
    NumericalFailure,
    ScanGrid,
    accumulate_stack,
    amplitude_power,
    build_coverage,
    divide_where_covered,
    extract_stack,
    fft2_orthonormal,
    ifft2_orthonormal,
)
from .metrics import nrmse_phase_aligned

RECIPROCAL_EPS_FRAC = 1e-6
# Frames per block of the solvers' per-frame work: 2 MiB at N_p = 64.
BLOCK_FRAMES = 32


@dataclass(frozen=True)
class PmaceParams:
    """Solver parameters.

    :param alpha: noise-to-signal ratio weighting the current estimate in
        the agent update; 0 means pure data fitting.
    :param rho: Mann averaging weight in (0, 1); changes the convergence
        rate but not the noise-free solution.
    :param kappa: probe amplitude exponent for the consensus weights.
    :param max_iters: exact number of iterations to run.
    :param eval_every: trace recording period in iterations.
    """

    alpha: float = 0.0
    rho: float = 0.5
    kappa: float = 1.25
    max_iters: int = 100
    eval_every: int = 1

    def __post_init__(self):
        # NaN fails every comparison, so each check is written to reject it
        if not 0 <= self.alpha < np.inf:
            raise ValueError("alpha must be finite and nonnegative")
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")
        if not 0 <= self.kappa < np.inf:
            raise ValueError("kappa must be finite and nonnegative")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.eval_every < 1:
            raise ValueError("eval_every must be at least 1")


def phase_factor(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise z/|z| with the convention phase(0) = 0; NaN stays NaN.

    z * (1/|z|) has the bits of NumPy's z/|z| up to the sign of a zero.
    ``out`` may be ``z`` itself.
    """
    inv = np.abs(z)
    np.divide(1.0, inv, out=inv, where=inv > 0)
    return np.multiply(z, inv, out=out)


def regularized_reciprocal(probe: np.ndarray) -> np.ndarray:
    """conj(d) / (|d|^2 + eps^2) with eps = 1e-6 * max|d|.

    Equals 1/d wherever the probe is meaningfully illuminated and stays
    finite (near zero) on the dark exterior, so the agent update is total.
    """
    a = np.abs(probe)
    eps = RECIPROCAL_EPS_FRAC * a.max()
    return np.conj(probe) / (a**2 + eps**2)


def p_a(
    frames: np.ndarray,
    y: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fourier-magnitude projection: F*(y phase(F s)) per frame.

    The forward transform reads ``frames`` and writes ``out``, which may be
    ``frames`` itself; the rest runs in place in ``out``.
    """
    f = fft2_orthonormal(frames, out=out)
    phase_factor(f, out=f)
    np.multiply(y, f, out=f)
    return ifft2_orthonormal(f, out=f)


def agent_update(
    x: np.ndarray,
    y: np.ndarray,
    probe: np.ndarray,
    alpha: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Probe-weighted proximal agent applied to a patch or patch stack.

    Interpolates between the input and the data-fitting point
    D^reginv p_a(D x, y) with weights alpha/(1+alpha) and 1/(1+alpha).
    The Fourier-side work runs in place in ``out``.

    :param x: (N_p, N_p) patch or (J, N_p, N_p) stack.
    :param y: measured amplitudes with matching shape.
    :param out: complex128 array of x's shape for the result; must not
        share memory with x.
    """
    if out is None:
        out = np.empty(x.shape, dtype=np.complex128)
    np.multiply(probe, x, out=out)
    p_a(out, y, out=out)
    np.multiply(regularized_reciprocal(probe), out, out=out)
    np.add(alpha * x, out, out=out)
    return np.multiply(out, 1 / (1 + alpha), out=out)


def stitch_weighted(
    stack: np.ndarray,
    probe: np.ndarray,
    coverage: CoverageMap,
    grid: ScanGrid,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """|d|^kappa-weighted back-projection normalized on the covered region.

    Uncovered pixels are 0; the exponent is taken from the coverage map.

    :param out: complex128 image to write the result into.
    """
    weight = amplitude_power(probe, coverage.kappa)
    image = accumulate_stack(stack, grid, weight=weight, out=out)
    return divide_where_covered(image, coverage, out=image)


def consensus(
    stack: np.ndarray,
    probe: np.ndarray,
    coverage: CoverageMap,
    grid: ScanGrid,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted-average projection onto mutually consistent patch stacks.

    ``out`` may be ``stack`` itself.
    """
    image = stitch_weighted(stack, probe, coverage, grid)
    return extract_stack(image, grid, out=out)


def check_solver_inputs(
    y: np.ndarray, probe: np.ndarray, grid: ScanGrid, init: np.ndarray
) -> None:
    """Reject solver inputs that do not fit the grid, before any work."""
    n = grid.patch_size
    if init.shape != grid.image_shape:
        raise ValueError(
            f"init shape {init.shape} does not match image {grid.image_shape}"
        )
    if y.shape != (len(grid), n, n):
        raise ValueError(
            f"amplitude stack shape {y.shape} does not match grid "
            f"({len(grid)}, {n}, {n})"
        )
    if probe.shape != (n, n):
        raise ValueError(f"probe shape {probe.shape} does not match patch size ({n}, {n})")
    if not np.any(probe):
        raise ValueError("probe is zero everywhere")


@contextmanager
def frame_blocks(frames: int, workers: int):
    """Yield (blocks, run): slices of BLOCK_FRAMES frames covering ``frames``
    frames, and a map that runs a function over them on min(workers,
    blocks) threads.

    Each thread starts with the caller's np.errstate, which is per thread.
    """
    blocks = [slice(i, i + BLOCK_FRAMES) for i in range(0, frames, BLOCK_FRAMES)]
    threads = min(workers, len(blocks))
    err = np.geterr()
    with ThreadPoolExecutor(threads, initializer=lambda: np.seterr(**err)) as pool:
        yield blocks, (pool.map if threads > 1 else map)


def iterate_stack(
    first, couple, second, stitch, s: np.ndarray, y: np.ndarray, coverage: CoverageMap,
    probe: np.ndarray, grid: ScanGrid, params, trace_target: np.ndarray | None,
    descale: float, workers: int = 1,
) -> tuple[np.ndarray, list[tuple[int, float, float]]]:
    """The loop both solvers share: workspace, frame blocks, trace and NaN guard.

    ``s``, the solver's starting (J, N_p, N_p) stack, is updated in place
    with two scratch stacks a and b. An iteration runs ``first(s[k], a[k],
    b[k], y[k])`` on every block k of BLOCK_FRAMES frames, ``couple(b)`` on
    the whole stack, then ``second(s[k], a[k], b[k])`` and the NaN guard per
    block. Blocks run on min(workers, blocks) threads and touch only their
    own frames; the coupling runs on the calling thread, so results do not
    depend on ``workers``. ``stitch(s, probe, coverage, grid, out=image)``
    gives the result and the image whose NRMSE over the covered region is traced.
    """
    a, b = np.empty_like(s), np.empty_like(s)
    image = np.empty(grid.image_shape, dtype=np.complex128)
    start = time.perf_counter()
    rows: list[tuple[int, float, float]] = []

    def second_block(k: slice) -> bool:
        second(s[k], a[k], b[k])
        return bool(np.isfinite(s[k]).all())

    def descaled_image() -> np.ndarray:
        return np.multiply(stitch(s, probe, coverage, grid, out=image), 1 / descale, out=image)

    target = None if trace_target is None else trace_target[coverage.covered_mask]

    def record(iteration: int) -> None:
        err = float("nan")
        if target is not None:
            err = nrmse_phase_aligned(descaled_image()[coverage.covered_mask], target)
        rows.append((iteration, err, time.perf_counter() - start))

    with frame_blocks(len(s), workers) as (blocks, run):
        record(0)
        for t in range(1, params.max_iters + 1):
            list(run(lambda k: first(s[k], a[k], b[k], y[k]), blocks))
            couple(b)
            if not all(list(run(second_block, blocks))):
                raise NumericalFailure(t)
            if t % params.eval_every == 0 or t == params.max_iters:
                record(t)
    # the last iteration is always recorded, so with a target image holds the result
    return (image if target is not None else descaled_image()), rows


def mann_iterate(
    y: np.ndarray,
    probe: np.ndarray,
    grid: ScanGrid,
    params: PmaceParams,
    init: np.ndarray,
    trace_target: np.ndarray | None = None,
    descale: float = 1.0,
    workers: int = 1,
) -> tuple[np.ndarray, list[tuple[int, float, float]]]:
    """Run the PMACE Mann iteration and return (reconstruction, trace).

    The loop body per iteration is

        w <- F(v);  z <- G(2w - v);  v <- v + 2 rho (z - w)

    starting from v_j = P_j(init). The reconstruction is the weighted
    back-projection of the final v, divided by `descale` (the simulator's
    amplitude scale factor for noisy data; 1 for noise-free data). The
    trace records phase-aligned NRMSE against `trace_target` (after the
    same de-scaling) over the probe-covered region every `eval_every`
    iterations plus iterations 0 and max_iters; without a target the NRMSE
    column is NaN.

    Raises :class:`NumericalFailure` if an iterate stops being finite.
    """
    check_solver_inputs(y, probe, grid, init)
    coverage = build_coverage(probe, grid, params.kappa)

    def first(v, w, z, y):
        agent_update(v, y, probe, params.alpha, out=w)
        np.multiply(2, w, out=z)
        np.subtract(z, v, out=z)

    def couple(z):
        consensus(z, probe, coverage, grid, out=z)

    def second(v, w, z):
        np.subtract(z, w, out=z)
        np.multiply(2 * params.rho, z, out=z)
        np.add(v, z, out=v)

    return iterate_stack(
        first, couple, second, stitch_weighted, extract_stack(init, grid), y, coverage,
        probe, grid, params, trace_target, descale, workers,
    )
