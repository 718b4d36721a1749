"""SHARP and SHARP+ solvers over frame stacks s_j = d * P_j x.

Both iterate a relaxed combination of two projections: P_a replaces each
frame's Fourier magnitudes with the measured ones, and P_Q makes the
overlapping frames consistent with a single image through a
|d|^2-weighted back-projection. The two variants differ only in the sign
of the beta (P_Q - I) term, which is what the comparison here isolates:

    sharp_plus:  s <- 2 beta P_Q P_a s + (1 - 2 beta) P_a s - beta (P_Q - I) s
    sharp:       s <- 2 beta P_Q P_a s + (1 - 2 beta) P_a s + beta (P_Q - I) s

P_Q is linear, so each update applies it once, to 2 beta P_a s +- beta s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScanGrid, build_coverage
from .pmace import (
    Coupling,
    check_solver_inputs,
    consensus as p_q,
    iterate_stack,
    p_a,
    stitch_weighted as stitch_frames,
)

VARIANTS = ("sharp", "sharp_plus")


@dataclass(frozen=True)
class SharpParams:
    """Solver parameters.

    :param beta: relaxation weight in (0, 1).
    :param max_iters: exact number of iterations to run.
    :param variant: "sharp" or "sharp_plus" (sign of the beta (P_Q - I) term).
    :param eval_every: trace recording period in iterations.
    """

    beta: float = 0.5
    max_iters: int = 100
    variant: str = "sharp_plus"
    eval_every: int = 1

    def __post_init__(self):
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.eval_every < 1:
            raise ValueError("eval_every must be at least 1")


def sharp_coupling(probe: np.ndarray, grid: ScanGrid) -> Coupling:
    """SHARP's P_Q: weights conj d, the |d|^2 coverage, re-illumination by d."""
    return Coupling(np.conj(probe), build_coverage(probe, grid, 2.0), probe)


def block_step(beta: float, variant: str):
    """One in-place SHARP update on any run of frames s, a and y share, all
    but the driver's s <- s + P_Q(a):

        step(s, a, y):  a <- P_a s;  t <- sign beta s;  s <- (1 - 2 beta) a - t;
                        a <- 2 beta a + t

    So s <- P_Q(2 beta P_a s + sign beta s) + ((1 - 2 beta) P_a s - sign beta s),
    with sign -1 for SHARP+ and +1 for SHARP; t is block-sized.
    """
    sign = -1.0 if variant == "sharp_plus" else 1.0

    def step(s, a, y):
        p_a(s, y, out=a)
        t = np.multiply(sign * beta, s)
        np.subtract(np.multiply(1 - 2 * beta, a, out=s), t, out=s)
        np.add(np.multiply(2 * beta, a, out=a), t, out=a)

    return step


def sharp_iterate(
    y: np.ndarray, probe: np.ndarray, grid: ScanGrid, params: SharpParams, init: np.ndarray,
    trace_target: np.ndarray | None = None, descale: float = 1.0, workers: int = 1,
) -> tuple[np.ndarray, list[tuple[int, float, float]]]:
    """Run the selected SHARP variant and return (reconstruction, trace).

    Frames start as s_j = probe * P_j(init). The reconstruction is the
    weighted back-projection of the final frames divided by `descale`;
    trace semantics match the PMACE solver (rows at iteration 0, every
    `eval_every`, and max_iters; NRMSE against the de-scaled target).

    Raises :class:`NumericalFailure` if an iterate stops being finite.
    """
    check_solver_inputs(y, probe, grid, init)
    return iterate_stack(
        block_step(params.beta, params.variant), p_q, stitch_frames, sharp_coupling(probe, grid),
        None, init, y, grid, params, trace_target, descale, workers,
    )
