import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptychokit.fields import (
    ScanGrid,
    accumulate_stack,
    amplitude_power,
    build_coverage,
    extract_stack,
    fft2_orthonormal,
    ifft2_orthonormal,
    read_cfld,
    write_cfld,
)
from ptychokit.pmace import pmace_coupling


def direct_dft2(f: np.ndarray) -> np.ndarray:
    """O(N^2 M^2) double-sum unitary DFT, the oracle for the fast transform."""
    n, m = f.shape
    wr = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    wc = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
    return wr @ f @ wc.T


def random_field(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def per_frame_slices(image, grid):
    """The oracle for extract_stack: each frame a plain slice of the image."""
    n = grid.patch_size
    return np.array([image[r : r + n, c : c + n] for r, c in grid.offsets])


def slice_adds(stack, grid):
    """The oracle for accumulate_stack: frames added into zeros by slice, in j order."""
    n = grid.patch_size
    out = np.zeros(grid.image_shape, complex)
    for (r, c), frame in zip(grid.offsets, stack):
        out[r : r + n, c : c + n] += frame
    return out


def one_hot(frame, frames, j):
    """A stack of ``frames`` zero frames with ``frame`` at index j."""
    stack = np.zeros((frames, *frame.shape), complex)
    stack[j] = frame
    return stack


def exact_vdot(a, b):
    """<a, b> summed with math.fsum, so the result is correctly rounded."""
    prod = np.conj(a).ravel() * b.ravel()
    return complex(math.fsum(prod.real), math.fsum(prod.imag))


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


NON_SQUARE = ((1, 2), (2, 1), (5, 1), (1, 7), (3, 4), (37, 53), (53, 37), (64, 32), (100, 17),
              (64, 16), (16, 64))


def power_of_4(n: int) -> bool:
    return n & (n - 1) == 0 and n.bit_length() % 2 == 1


class TestScipyParity:
    """The NumPy transforms agree with scipy.fft's 2D transforms, which
    earlier datasets and reconstructions were written with: bit for bit
    where both transformed axis lengths are powers of 4 (each pass's
    scale 1/sqrt(n) is then a power of 2, so no rounding depends on when
    it is applied), and to 1e-15 of max|F| elsewhere."""

    @pytest.fixture(autouse=True)
    def scipy_fft(self):
        return pytest.importorskip("scipy.fft")

    def assert_agrees(self, scipy_fft, f):
        exact = all(map(power_of_4, f.shape[-2:]))
        for ours, theirs in ((fft2_orthonormal, scipy_fft.fft2),
                             (ifft2_orthonormal, scipy_fft.ifft2)):
            expected = theirs(f, norm="ortho")
            work = f.copy()
            for got in (ours(f), ours(work, out=work)):
                if exact:
                    assert got.tobytes() == expected.tobytes(), f.shape
                else:
                    gap = np.abs(got - expected).max() / np.abs(expected).max()
                    assert gap <= 1e-15, (f.shape, gap)

    def test_square_sizes(self, scipy_fft):
        for n in range(1, 130):
            self.assert_agrees(scipy_fft, random_field((n, n), seed=n))
        self.assert_agrees(scipy_fft, random_field((256, 256), seed=256))

    def test_non_square_shapes(self, scipy_fft):
        for shape in NON_SQUARE:
            self.assert_agrees(scipy_fft, random_field(shape, seed=sum(shape)))

    def test_stacks(self, scipy_fft):
        for shape in ((3, 64, 64), (2, 3, 5, 5), (4, 6, 10)):
            self.assert_agrees(scipy_fft, random_field(shape, seed=len(shape)))


class TestPinnedBytes:
    """On 64x64 frames, the solvers' frame size on every benchmark workload,
    the transforms keep the bytes they had when the first pass was scaled
    by 1/sqrt(n1 n2) in long double; the SHA-256 values were taken from
    that version with NumPy 2.4.6."""

    NUMPY = "2.4.6"
    SHA256 = {
        "fft2_orthonormal": "6bc9abc5dbb3356774b248b21b5f170906fe0b60aafd37be0e269564e439415e",
        "ifft2_orthonormal": "cc1b24086d5bd0d464de1c778c256596e6d9bafce0013bcc0920d5321dcabccd",
    }

    @pytest.mark.parametrize("transform", [fft2_orthonormal, ifft2_orthonormal],
                             ids=lambda t: t.__name__)
    def test_64x64_stack_keeps_its_bytes(self, transform):
        if np.__version__ != self.NUMPY:
            pytest.skip(f"hashes recorded with NumPy {self.NUMPY}, running {np.__version__}")
        rng = np.random.default_rng(64)
        f = rng.standard_normal((4, 64, 64)) + 1j * rng.standard_normal((4, 64, 64))
        expected = self.SHA256[transform.__name__]
        assert hashlib.sha256(transform(f).tobytes()).hexdigest() == expected
        assert hashlib.sha256(transform(f, out=f).tobytes()).hexdigest() == expected


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
            extract_stack(image, grid)[1], np.array([[5, 6], [9, 10]], dtype=complex)
        )

    def test_extract_then_accumulate_round_trip(self):
        grid = self.grid()
        stack = one_hot(random_field((2, 2), seed=1), len(grid), 2)
        target = accumulate_stack(stack, grid)
        np.testing.assert_array_equal(extract_stack(target, grid)[2], stack[2])

    def test_extract_returns_copy(self):
        image = np.zeros((4, 4), complex)
        grid = self.grid()
        stack = extract_stack(image, grid)
        stack += 1
        assert not image.any()

    def test_overlap_adds(self):
        grid = ScanGrid(offsets=((0, 0), (0, 1)), patch_size=2, image_shape=(2, 3))
        target = accumulate_stack(np.ones((2, 2, 2), complex), grid)
        np.testing.assert_array_equal(target, [[1, 2, 1], [1, 2, 1]])

    def test_adjoint_identity_exact(self):
        # under correctly-rounded summation the two inner products reduce
        # to the same multiset of products (plus exact zeros), so the
        # adjoint identity holds with equality, not just to tolerance
        grid = ScanGrid(offsets=((1, 2), (3, 0)), patch_size=4, image_shape=(10, 10))
        image = random_field((10, 10), seed=9)
        for j in range(2):
            stack = one_hot(random_field((4, 4), seed=10 + j), len(grid), j)
            lhs = exact_vdot(extract_stack(image, grid)[j], stack[j])
            rhs = exact_vdot(image, accumulate_stack(stack, grid))
            assert lhs == rhs

    def test_stack_round_trip_matches_per_patch(self):
        grid = self.grid()
        image = random_field((4, 4), seed=2)
        stack = extract_stack(image, grid)
        np.testing.assert_array_equal(stack, per_frame_slices(image, grid))
        np.testing.assert_array_equal(accumulate_stack(stack, grid), slice_adds(stack, grid))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
           seed=st.integers(0, 2**32 - 1))
    def test_stack_operators_match_per_frame_slices(self, data, shape, seed):
        n = data.draw(st.integers(1, min(shape)), label="patch_size")
        offsets = data.draw(st.lists(
            st.tuples(st.integers(0, shape[0] - n), st.integers(0, shape[1] - n)),
            min_size=1, max_size=8, unique=True), label="offsets")
        grid = ScanGrid(offsets=tuple(offsets), patch_size=n, image_shape=shape)
        image = random_field(shape, seed)
        stack = random_field((len(grid), n, n), seed + 1)
        extracted = extract_stack(image, grid)
        assert extracted.tobytes() == per_frame_slices(image, grid).tobytes()
        assert accumulate_stack(stack, grid).tobytes() == slice_adds(stack, grid).tobytes()
        for j in range(len(grid)):
            adjoint = accumulate_stack(one_hot(stack[j], len(grid), j), grid)
            assert exact_vdot(extracted[j], stack[j]) == exact_vdot(image, adjoint)


class TestCoverage:
    def test_kappa_zero_counts_patches(self):
        probe = random_field((2, 2), seed=0)
        grid = ScanGrid(offsets=((1, 1),), patch_size=2, image_shape=(4, 4))
        cov = build_coverage(probe, grid, 0.0)
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = 1.0
        np.testing.assert_array_equal(cov, expected)
        assert cov.dtype == np.float64

    def test_two_coincident_offsets_double_weight(self):
        # distinct rows that overlap fully in one pixel column band
        probe = np.full((2, 2), 2.0, dtype=complex)
        grid = ScanGrid(offsets=((0, 0), (0, 1)), patch_size=2, image_shape=(2, 3))
        cov = build_coverage(probe, grid, 2.0)
        np.testing.assert_allclose(cov[:, 1], 8.0)  # |2|^2 twice
        np.testing.assert_allclose(cov[:, 0], 4.0)

    def test_zero_amplitude_never_gains_weight(self):
        assert amplitude_power(np.zeros((2, 2), complex), 0.0).max() == 0.0
        assert amplitude_power(np.zeros((2, 2), complex), 1.25).max() == 0.0

    def test_mask_matches_positive_weights(self):
        probe = np.array([[0, 1], [2, 0]], dtype=complex)
        grid = ScanGrid(offsets=((0, 0),), patch_size=2, image_shape=(2, 2))
        cov = build_coverage(probe, grid, 1.25)
        np.testing.assert_array_equal(cov > 0, np.abs(probe) > 0)

    def test_negative_kappa_rejected(self):
        grid = ScanGrid(offsets=((0, 0),), patch_size=2, image_shape=(2, 2))
        with pytest.raises(ValueError):
            build_coverage(np.ones((2, 2), complex), grid, -1.0)

    def test_coupling_inverse_is_the_reciprocal_where_covered(self):
        probe = np.array([[0, 1], [2, 0]], dtype=complex)
        grid = ScanGrid(offsets=((0, 0),), patch_size=2, image_shape=(2, 2))
        inverse = pmace_coupling(probe, grid, 1.0).inverse
        assert inverse.tobytes() == np.array([[0.0, 1.0], [0.5, 0.0]]).tobytes()
        out = np.multiply(np.full((2, 2), 6.0 + 0j), inverse)
        np.testing.assert_array_equal(out, [[0, 6], [3, 0]])

    def test_coupling_inverse_is_zero_where_the_coverage_is_subnormal(self):
        # 1e-250^1.25 is subnormal and its reciprocal overflows to inf
        probe = np.array([[0, 1], [1e-250, 0]], dtype=complex)
        grid = ScanGrid(offsets=((0, 0),), patch_size=2, image_shape=(2, 2))
        coupling = pmace_coupling(probe, grid, 1.25)
        assert 0 < coupling.coverage[1, 0] < np.finfo(np.float64).smallest_normal
        assert coupling.inverse.tobytes() == np.array([[0.0, 1.0], [0.0, 0.0]]).tobytes()


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

    @pytest.mark.parametrize("dtype, conversions", [(np.complex128, 0), (np.float64, 1)])
    def test_writes_from_at_most_one_conversion(self, tmp_path, dtype, conversions):
        # the payload is the array's own buffer, so a complex128 field is not
        # copied and a real frame is converted once (512² complex is 4 MiB)
        field = np.random.default_rng(0).standard_normal((512, 512)).astype(dtype)
        path = tmp_path / "f.cfld"
        tracemalloc.start()
        try:
            write_cfld(path, field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (conversions + 0.25) * field.size * 16
        assert path.read_bytes()[24:] == field.astype("<c16").tobytes()

    @pytest.mark.parametrize("view", [lambda f: f[:, ::2], lambda f: f.astype(">c16")])
    def test_strided_and_big_endian_fields_write_little_endian_payload(self, tmp_path, view):
        field = view(random_field((4, 6), seed=5))
        write_cfld(tmp_path / "f.cfld", field)
        assert (tmp_path / "f.cfld").read_bytes()[24:] == field.astype("<c16").tobytes()

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
