import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptychokit as pk
from ptychokit.metrics import (
    nrmse_phase_aligned,
    read_trace_csv,
    write_trace_csv,
)

from conftest import trace_bytes_without_seconds


def random_field(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def grid_oracle(xhat, x, points):
    """Brute-force minimum of ||xhat - e^{i theta} x|| / ||x|| over a theta grid."""
    thetas = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    # expand the squared norm so the grid scan is a closed form in theta
    a2 = np.vdot(xhat, xhat).real
    b2 = np.vdot(x, x).real
    cross = np.vdot(x, xhat)  # sum conj(x) * xhat
    vals = a2 + b2 - 2 * (cross * np.exp(-1j * thetas)).real
    return np.sqrt(np.maximum(vals.min(), 0.0)) / np.sqrt(b2)


class TestPhaseAlignedNrmse:
    def test_self_error_is_zero(self):
        x = random_field((12, 12), seed=0)
        assert nrmse_phase_aligned(x, x) < 1e-14

    def test_global_phase_quotiented_out(self):
        x = random_field((9, 9), seed=1)
        for phi in (0.3, 1.2, np.pi, 5.1):
            assert nrmse_phase_aligned(np.exp(1j * phi) * x, x) < 1e-12

    def test_double_amplitude_gives_one(self):
        x = random_field((8, 8), seed=2)
        assert abs(nrmse_phase_aligned(2 * x, x) - 1.0) < 1e-12

    def test_matches_dense_theta_grid_oracle(self):
        for seed in (3, 4, 5):
            x = random_field((8, 8), seed=seed)
            xhat = random_field((8, 8), seed=seed + 100)
            closed = nrmse_phase_aligned(xhat, x)
            brute = grid_oracle(xhat.ravel(), x.ravel(), 10**6)
            assert abs(closed - brute) < 1e-6

    def test_closed_form_is_optimal(self):
        x = random_field((6, 6), seed=6)
        xhat = random_field((6, 6), seed=7)
        closed = nrmse_phase_aligned(xhat, x)
        for theta in np.linspace(0, 2 * np.pi, 97):
            sampled = np.linalg.norm(xhat - np.exp(1j * theta) * x) / np.linalg.norm(x)
            assert closed <= sampled + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(phi=st.floats(min_value=0, max_value=2 * np.pi), seed=st.integers(0, 2**20))
    def test_invariance_property(self, phi, seed):
        x = random_field((5, 5), seed=seed)
        xhat = random_field((5, 5), seed=seed + 1)
        base = nrmse_phase_aligned(xhat, x)
        rotated = nrmse_phase_aligned(np.exp(1j * phi) * xhat, x)
        assert abs(base - rotated) < 1e-12

    def test_mask_restricts_evaluation(self):
        x = np.ones((4, 4), complex)
        xhat = x.copy()
        xhat[0, 0] = 100.0  # outside the mask; must not affect the result
        mask = np.ones((4, 4), bool)
        mask[0, 0] = False
        assert nrmse_phase_aligned(xhat, x, mask) < 1e-14

    def test_orthogonal_pair_uses_theta_zero(self):
        x = np.array([[1.0 + 0j, 1.0 + 0j]])
        xhat = np.array([[1.0 + 0j, -1.0 + 0j]])
        # cross sum is 0, so theta = 0 and the error is ||xhat - x|| / ||x||
        assert abs(nrmse_phase_aligned(xhat, x) - np.sqrt(2)) < 1e-12

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            nrmse_phase_aligned(np.ones((2, 2), complex), np.zeros((2, 2), complex))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nrmse_phase_aligned(np.ones((2, 2), complex), np.ones((3, 3), complex))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 300),
        seed=st.integers(0, 2**20),
        masked=st.booleans(),
        magnitude=st.sampled_from([1e-150, 1e-8, 1.0, 1e150]),
    )
    def test_residual_in_one_temporary_keeps_the_bits(self, n, seed, masked, magnitude):
        rng = np.random.default_rng(seed)
        x = magnitude * random_field((n,), seed)
        xhat = x * np.exp(1j * rng.uniform(-np.pi, np.pi)) + random_field((n,), seed + 1)
        mask = None
        if masked:
            mask = rng.random(n) < 0.6
            mask[0] = True
        xm, xhm = (x, xhat) if mask is None else (x[mask], xhat[mask])
        # the BLAS expression the function evaluated before: np.vdot and the
        # scaled sums of np.linalg.norm, which round differently from einsum.
        # Forming the residual loses about eps * ||x|| whatever the sums do,
        # so the NRMSE is known to eps * (1 + NRMSE): relative where it is
        # large (x at 1e-150), absolute where it is pure rounding (x at 1e150)
        cross = np.vdot(xm, xhm)
        theta = 0.0 if cross == 0 else np.angle(cross)
        expected = float(np.linalg.norm(xhm - np.exp(1j * theta) * xm) / np.linalg.norm(xm))
        assert abs(nrmse_phase_aligned(xhat, x, mask) - expected) <= 1e-14 * (1 + expected)


# OpenBLAS splits a complex dot product over its threads only above this
# many elements: an NRMSE taken with np.vdot gave the same repr at 1 and 2
# threads up to n = 10,000 and differed from n = 10,001 on.
OPENBLAS_THREADING_THRESHOLD = 10_000

# A field against a perturbed, rotated copy of itself on the pixels the
# desk-scale scan covers (23,412 of the 176x176 image), the region over
# which trace.csv's and evaluate's NRMSE are taken.
DESK_NRMSE_SCRIPT = """
import numpy as np
import ptychokit as pk
grid = pk.make_scan_grid((176, 176), 64, (8, 8), 14)
mask = pk.build_coverage(pk.synth_probe(64, 11), grid, 1.25) > 0
rng = np.random.default_rng(5)
r = rng.standard_normal((4, 176, 176))
x = r[0] + 1j * r[1]
xhat = x * np.exp(0.7j) + 0.1 * (r[2] + 1j * r[3])
print(int(mask.sum()), repr(pk.nrmse_phase_aligned(xhat, x, mask)))
"""


class TestBlasThreads:
    def test_nrmse_does_not_depend_on_the_blas_thread_count(self):
        src = str(Path(pk.__file__).resolve().parents[1])
        printed = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", DESK_NRMSE_SCRIPT],
                                  capture_output=True, text=True, env=env, check=True)
            printed.append(proc.stdout)
        covered = int(printed[0].split()[0])
        assert covered > OPENBLAS_THREADING_THRESHOLD
        assert printed[0] == printed[1]


class TestTraceCsv:
    ROWS = [(0, 0.5, 0.0), (10, 0.25, 1.5), (20, 0.125, 3.25)]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, self.ROWS)
        assert read_trace_csv(path) == self.ROWS

    def test_header_and_lf_endings(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, self.ROWS)
        raw = path.read_bytes()
        assert raw.startswith(b"iter,nrmse,seconds\n")
        assert b"\r" not in raw

    def test_rejects_unexpected_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_seconds_column_stripped_for_comparison(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_trace_csv(a, self.ROWS)
        write_trace_csv(b, [(it, err, sec + 7.7) for it, err, sec in self.ROWS])
        assert trace_bytes_without_seconds(a) == trace_bytes_without_seconds(b)
        assert a.read_bytes() != b.read_bytes()
