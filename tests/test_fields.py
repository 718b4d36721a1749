import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptychokit.fields import (
    ScanGrid,
    accumulate_patch,
    accumulate_stack,
    amplitude_power,
    build_coverage,
    divide_where_covered,
    extract_patch,
    extract_stack,
    fft2_orthonormal,
    ifft2_orthonormal,
    read_cfld,
    write_cfld,
)


def direct_dft2(f: np.ndarray) -> np.ndarray:
    """O(N^2 M^2) double-sum unitary DFT, the oracle for the fast transform."""
    n, m = f.shape
    wr = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    wc = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
    return wr @ f @ wc.T


def random_field(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestOrthonormalFFT:
    def test_matches_direct_dft_oracle(self):
        for n in (1, 2, 3, 5, 8, 13, 16):
            f = random_field((n, n), seed=n)
            np.testing.assert_allclose(
                fft2_orthonormal(f), direct_dft2(f), atol=1e-10
            )

    def test_constant_field_concentrates_at_dc(self):
        n = 8
        out = fft2_orthonormal(np.full((n, n), 3.0 - 1.0j))
        assert abs(out[0, 0] - (3.0 - 1.0j) * n) < 1e-12
        out[0, 0] = 0
        assert np.abs(out).max() < 1e-12

    def test_single_point_is_identity(self):
        z = np.array([[2.0 + 1.5j]])
        np.testing.assert_array_equal(fft2_orthonormal(z), z)
        np.testing.assert_array_equal(ifft2_orthonormal(z), z)

    def test_dc_delta_inverts_to_constant(self):
        n = 6
        delta = np.zeros((n, n), dtype=complex)
        delta[0, 0] = n
        np.testing.assert_allclose(ifft2_orthonormal(delta), np.ones((n, n)), atol=1e-12)

    def test_round_trip(self):
        f = random_field((16, 16), seed=42)
        back = ifft2_orthonormal(fft2_orthonormal(f))
        assert np.linalg.norm(back - f) / np.linalg.norm(f) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=24),
        m=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_unitarity_property(self, n, m, seed):
        f = random_field((n, m), seed=seed)
        ratio = np.linalg.norm(fft2_orthonormal(f)) / np.linalg.norm(f)
        assert abs(ratio - 1) < 1e-12

    def test_batched_equals_per_slice(self):
        stack = np.stack([random_field((8, 8), seed=s) for s in range(5)])
        batched = fft2_orthonormal(stack)
        for j in range(5):
            np.testing.assert_array_equal(batched[j], fft2_orthonormal(stack[j]))


# Shapes whose scale 1/sqrt(n1 n2) takes the general path: non-square fields.
NON_SQUARE = ((1, 2), (2, 1), (5, 1), (1, 7), (3, 4), (37, 53), (53, 37), (64, 32), (100, 17))


class TestScipyParity:
    """The NumPy transforms keep the bits of scipy.fft's 2D transforms,
    which earlier datasets and reconstructions were written with."""

    @pytest.fixture(autouse=True)
    def scipy_fft(self):
        return pytest.importorskip("scipy.fft")

    def assert_same_bits(self, scipy_fft, f):
        for ours, theirs in ((fft2_orthonormal, scipy_fft.fft2),
                             (ifft2_orthonormal, scipy_fft.ifft2)):
            expected = theirs(f, norm="ortho").tobytes()
            assert ours(f).tobytes() == expected, f.shape
            work = f.copy()
            assert ours(work, out=work).tobytes() == expected, f.shape

    def test_square_sizes(self, scipy_fft):
        for n in range(1, 130):
            self.assert_same_bits(scipy_fft, random_field((n, n), seed=n))

    def test_non_square_shapes(self, scipy_fft):
        for shape in NON_SQUARE:
            self.assert_same_bits(scipy_fft, random_field(shape, seed=sum(shape)))

    def test_stacks(self, scipy_fft):
        for shape in ((3, 64, 64), (2, 3, 5, 5), (4, 6, 10)):
            self.assert_same_bits(scipy_fft, random_field(shape, seed=len(shape)))


class TestScanGridAndPatches:
    def grid(self):
        return ScanGrid(offsets=((0, 0), (1, 1), (2, 0)), patch_size=2, image_shape=(4, 4))

    def test_offsets_must_fit(self):
        with pytest.raises(ValueError):
            ScanGrid(offsets=((3, 3),), patch_size=2, image_shape=(4, 4))

    def test_offsets_must_be_distinct(self):
        with pytest.raises(ValueError):
            ScanGrid(offsets=((0, 0), (0, 0)), patch_size=2, image_shape=(4, 4))

    def test_extract_hand_indexed(self):
        image = np.arange(16, dtype=complex).reshape(4, 4)
        grid = self.grid()
        np.testing.assert_array_equal(
            extract_patch(image, grid, 1), np.array([[5, 6], [9, 10]], dtype=complex)
        )

    def test_extract_then_accumulate_round_trip(self):
        grid = self.grid()
        patch = random_field((2, 2), seed=1)
        target = accumulate_patch(np.zeros((4, 4), complex), patch, grid, 2)
        np.testing.assert_array_equal(extract_patch(target, grid, 2), patch)

    def test_extract_returns_copy(self):
        image = np.zeros((4, 4), complex)
        grid = self.grid()
        patch = extract_patch(image, grid, 0)
        patch += 1
        assert image[0, 0] == 0

    def test_overlap_adds(self):
        grid = ScanGrid(offsets=((0, 0), (0, 1)), patch_size=2, image_shape=(2, 3))
        target = np.zeros((2, 3), complex)
        accumulate_patch(target, np.ones((2, 2), complex), grid, 0)
        accumulate_patch(target, np.ones((2, 2), complex), grid, 1)
        np.testing.assert_array_equal(target, [[1, 2, 1], [1, 2, 1]])

    def test_adjoint_identity_exact(self):
        # under correctly-rounded summation the two inner products reduce
        # to the same multiset of products (plus exact zeros), so the
        # adjoint identity holds with equality, not just to tolerance
        def exact_vdot(a, b):
            prod = np.conj(a).ravel() * b.ravel()
            return complex(math.fsum(prod.real), math.fsum(prod.imag))

        grid = ScanGrid(offsets=((1, 2), (3, 0)), patch_size=4, image_shape=(10, 10))
        image = random_field((10, 10), seed=9)
        for j in range(2):
            patch = random_field((4, 4), seed=10 + j)
            lhs = exact_vdot(extract_patch(image, grid, j), patch)
            rhs = exact_vdot(image, accumulate_patch(np.zeros((10, 10), complex), patch, grid, j))
            assert lhs == rhs

    def test_index_out_of_range(self):
        grid = self.grid()
        with pytest.raises(IndexError):
            extract_patch(np.zeros((4, 4), complex), grid, 3)
        with pytest.raises(IndexError):
            accumulate_patch(np.zeros((4, 4), complex), np.zeros((2, 2), complex), grid, 3)

    def test_stack_round_trip_matches_per_patch(self):
        grid = self.grid()
        image = random_field((4, 4), seed=2)
        stack = extract_stack(image, grid)
        for j in range(len(grid)):
            np.testing.assert_array_equal(stack[j], extract_patch(image, grid, j))
        scattered = accumulate_stack(stack, grid)
        expected = np.zeros((4, 4), complex)
        for j in range(len(grid)):
            accumulate_patch(expected, stack[j], grid, j)
        np.testing.assert_array_equal(scattered, expected)


class TestCoverage:
    def test_kappa_zero_counts_patches(self):
        probe = random_field((2, 2), seed=0)
        grid = ScanGrid(offsets=((1, 1),), patch_size=2, image_shape=(4, 4))
        cov = build_coverage(probe, grid, 0.0)
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = 1.0
        np.testing.assert_array_equal(cov.weights, expected)
        np.testing.assert_array_equal(cov.covered_mask, expected > 0)

    def test_two_coincident_offsets_double_weight(self):
        # distinct rows that overlap fully in one pixel column band
        probe = np.full((2, 2), 2.0, dtype=complex)
        grid = ScanGrid(offsets=((0, 0), (0, 1)), patch_size=2, image_shape=(2, 3))
        cov = build_coverage(probe, grid, 2.0)
        np.testing.assert_allclose(cov.weights[:, 1], 8.0)  # |2|^2 twice
        np.testing.assert_allclose(cov.weights[:, 0], 4.0)

    def test_zero_amplitude_never_gains_weight(self):
        assert amplitude_power(np.zeros((2, 2), complex), 0.0).max() == 0.0
        assert amplitude_power(np.zeros((2, 2), complex), 1.25).max() == 0.0

    def test_mask_matches_positive_weights(self):
        probe = np.array([[0, 1], [2, 0]], dtype=complex)
        grid = ScanGrid(offsets=((0, 0),), patch_size=2, image_shape=(2, 2))
        cov = build_coverage(probe, grid, 1.25)
        np.testing.assert_array_equal(cov.covered_mask, np.abs(probe) > 0)

    def test_negative_kappa_rejected(self):
        grid = ScanGrid(offsets=((0, 0),), patch_size=2, image_shape=(2, 2))
        with pytest.raises(ValueError):
            build_coverage(np.ones((2, 2), complex), grid, -1.0)

    def test_divide_where_covered(self):
        probe = np.array([[0, 1], [2, 0]], dtype=complex)
        grid = ScanGrid(offsets=((0, 0),), patch_size=2, image_shape=(2, 2))
        cov = build_coverage(probe, grid, 1.0)
        out = divide_where_covered(np.full((2, 2), 6.0 + 0j), cov)
        np.testing.assert_allclose(out, [[0, 6], [3, 0]])


class TestCfldFormat:
    def test_round_trip_exact(self, tmp_path):
        f = random_field((5, 7), seed=3)
        path = tmp_path / "f.cfld"
        write_cfld(path, f)
        np.testing.assert_array_equal(read_cfld(path), f)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "f.cfld"
        write_cfld(path, np.zeros((2, 3), complex))
        raw = path.read_bytes()
        assert raw[:4] == b"CFLD"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:16], "little") == 2
        assert int.from_bytes(raw[16:24], "little") == 3
        assert len(raw) == 24 + 2 * 3 * 16

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "f.cfld"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError, match="magic"):
            read_cfld(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "f.cfld"
        write_cfld(path, np.zeros((4, 4), complex))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_cfld(path)

    def test_rejects_header_larger_than_file(self, tmp_path):
        path = tmp_path / "f.cfld"
        path.write_bytes(b"CFLD" + (1).to_bytes(4, "little") + (2**31).to_bytes(8, "little") * 2)
        with pytest.raises(ValueError, match="truncated CFLD payload"):
            read_cfld(path)

    def test_rejects_bytes_after_payload(self, tmp_path):
        path = tmp_path / "f.cfld"
        write_cfld(path, np.zeros((4, 4), complex))
        path.write_bytes(path.read_bytes() + bytes(16))
        with pytest.raises(ValueError, match="16 bytes after the CFLD payload"):
            read_cfld(path)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_cfld(tmp_path / "f.cfld", np.zeros((2, 2, 2), complex))
