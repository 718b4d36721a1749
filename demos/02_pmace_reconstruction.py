"""
PMACE reconstruction walk-through
=================================

Reconstructs a noise-free scan with the Mann iteration over
probe-weighted proximal agents, then shows the two parameter effects
that matter in practice: the noise-to-signal weight alpha damps the
slowly-converging error modes, and the Mann weight rho changes the
path but not the solution.
"""

import numpy as np

import ptychokit as pk
from ptychokit.pmace import PmaceParams

# Simulate the desk-scale instance
image_shape = (176, 176)
grid = pk.make_scan_grid(image_shape, 64, (8, 8), 14)
truth = pk.synth_object(image_shape, seed=7)
probe = pk.synth_probe(64, seed=11)
y = pk.forward_amplitude(truth, probe, grid)
mask = pk.build_coverage(probe, grid, 0) > 0
ones = np.ones(image_shape, complex)

# A plain run: pure data fitting (alpha=0), default weights
params = PmaceParams(alpha=0.0, rho=0.5, kappa=1.25, max_iters=100, eval_every=10)
recon, trace = pk.mann_iterate(
    y, probe, grid, params, init=ones, trace_target=truth
)
print("iter   NRMSE")
for it, err, _ in trace:
    print(f"{it:4d}   {err:.3e}")

# Alpha damping: a little interpolation toward the current estimate
# suppresses the slow modes left over at alpha=0
print("\nfinal NRMSE after 100 iterations vs alpha:")
for alpha in (0.0, 0.1, 0.2):
    params = PmaceParams(alpha=alpha, rho=0.5, kappa=1.25, max_iters=100)
    _, trace = pk.mann_iterate(
        y, probe, grid, params, init=ones, trace_target=truth
    )
    print(f"  alpha={alpha:<4}  {trace[-1][1]:.3e}")

# Rho invariance: the Mann weight trades per-iteration progress for
# stability, but long runs land on the same image
recons = {}
for rho in (0.3, 0.7):
    params = PmaceParams(alpha=0.1, rho=rho, kappa=1.25, max_iters=300)
    recons[rho], _ = pk.mann_iterate(y, probe, grid, params, init=ones)
gap = pk.nrmse_phase_aligned(recons[0.3][mask], recons[0.7][mask])
print(f"\nrho=0.3 vs rho=0.7 after 300 iterations: "
      f"reconstructions differ by NRMSE {gap:.2e}")
