"""Tensor kernels: deterministic arithmetic, statistics, QTNS io."""

import numpy as np
import pytest

import onegraph as og
from onegraph import tensor as tz
from onegraph.errors import FormatError, RangeError, ShapeError
from onegraph.rng import Rng


def naive_matmul(a, b):
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.float32)
    for i in range(m):
        for j in range(n):
            acc = np.float32(0.0)
            for kk in range(k):
                acc = np.float32(acc + np.float32(a[i, kk] * b[kk, j]))
            out[i, j] = acc
    return out


def per_k_matmul(a, b):
    """The one-k-at-a-time fp32 loop that tensor.matmul blocks."""
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.float32)
    for kk in range(k):
        out += a[:, kk, None] * b[None, kk, :]
    return out


class ReferenceRng:
    """``rng.Rng``'s streams as expressions on fresh arrays."""

    def __init__(self, seed):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._counter = 0

    @staticmethod
    def mix(x):
        with np.errstate(over="ignore"):
            x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            return x ^ (x >> np.uint64(31))

    def raw(self, n):
        with np.errstate(over="ignore"):
            ctr = np.arange(self._counter, self._counter + n, dtype=np.uint64)
            words = self.mix(np.uint64(self.seed) + ctr * np.uint64(0x9E3779B97F4A7C15))
        self._counter += n
        return words

    def unit(self, n):
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def uniform(self, shape, lo=0.0, hi=1.0):
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return (lo + (hi - lo) * self.unit(n)).astype(np.float32).reshape(shape)

    def normal(self, shape):
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        pairs = (n + 1) // 2
        r = np.sqrt(-2.0 * np.log(1.0 - self.unit(pairs)))
        theta = 2.0 * np.pi * self.unit(pairs)
        return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n].astype(np.float32).reshape(shape)

    def integers(self, lo, hi, shape):
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return ((self.raw(n) % np.uint64(hi - lo)).astype(np.int64) + lo).reshape(shape)

    def child(self, tag):
        h = np.uint64(self.seed)
        with np.errstate(over="ignore"):
            for b in tag.encode("utf-8"):
                h = self.mix(np.uint64((int(h) + b + 1) & 0xFFFFFFFFFFFFFFFF))
        return ReferenceRng(int(h))


def spy_empty(monkeypatch):
    """The shapes of every ``np.empty`` from here on."""
    shapes = []
    empty = np.empty

    def spy(shape, *args, **kwargs):
        shapes.append(shape)
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", spy)
    return shapes


def spy_einsum(monkeypatch):
    """The output of every ``np.einsum`` from here on."""
    outs = []
    einsum = np.einsum

    def spy(*args, **kwargs):
        outs.append(einsum(*args, **kwargs))
        return outs[-1]

    monkeypatch.setattr(np, "einsum", spy)
    return outs


def assert_same_bits(a, b):
    got = og.matmul(a, b)
    want = per_k_matmul(a, b)
    assert got.dtype == np.float32 and got.shape == want.shape
    assert got.flags.c_contiguous and got.flags.owndata
    assert got.tobytes() == want.tobytes(), f"{a.shape} x {b.shape}"


EXTENTS = (1, 2, 3, 4, 5, 6, 8, 16, 128, 256)


class TestMatmulBlocked:
    @pytest.mark.parametrize("k", (1, 2, 3, 33, 256, 700))
    def test_grid_matches_per_k_loop(self, k):
        rng = Rng(100 + k)
        for m in EXTENTS:
            for n in EXTENTS:
                assert_same_bits(rng.uniform((m, k), -2, 2), rng.uniform((k, n), -2, 2))

    def test_fortran_and_negative_strides(self):
        rng = Rng(21)
        for m, k, n in ((1, 300, 1), (3, 33, 5), (128, 64, 8), (8, 64, 128), (256, 40, 256)):
            a = rng.uniform((m, k), -1, 1)
            b = rng.uniform((k, n), -1, 1)
            for aa, bb in ((np.asfortranarray(a), np.asfortranarray(b)),
                           (a[::-1, ::-1], b[::-1, ::-1]),
                           (np.asfortranarray(a)[:, ::-1], b[:, ::-1])):
                assert_same_bits(aa, bb)

    @pytest.mark.parametrize("m", (32, 128, 256))
    @pytest.mark.parametrize("n", (2, 8, 16))
    def test_one_block_rank_products(self, m, n):
        """An adapter's A (B x): every k fits one block."""
        rng = Rng(300 + m + n)
        a = rng.uniform((m, 8), -2, 2)
        b = rng.uniform((8, n), -2, 2)
        for aa, bb in ((a, b), (np.asfortranarray(a), np.asfortranarray(b))):
            assert_same_bits(aa, bb)

    @pytest.mark.parametrize("m, k, n", ((256, 300, 32), (300, 100, 60), (60, 100, 300)))
    def test_fortran_and_negative_strides_through_the_blocks(self, m, k, n):
        """Products that take k in blocks, in one plane or sliced by rows
        or columns, from a C, Fortran, reversed or column-reversed ``a``:
        through its transpose in C order, or read in place."""
        rng = Rng(23 + m)
        a = rng.uniform((m, k), -1, 1)
        b = rng.uniform((k, n), -1, 1)
        for aa, bb in ((a, b), (np.asfortranarray(a), np.asfortranarray(b)), (a[::-1, ::-1], b[::-1, ::-1]),
                       (np.asfortranarray(a)[:, ::-1], b[::-1]), (np.asfortranarray(a[::-1]), b[:, ::-1])):
            assert_same_bits(aa, bb)

    @pytest.mark.parametrize("k, kb", ((7, 4), (8, 4), (9, 5), (11, 6), (12, 6), (13, 5)))
    def test_equal_blocks_match_triple_loop(self, k, kb, monkeypatch):
        """Under a budget of 7 product slices of 256 x 16, which leaves room
        for 6 k in a block, these k take the fewest blocks that fit, of as
        equal a size as they can be (k = 8: 4 + 4 and a [5, 16, 256]
        buffer, not 6 + 2), with the loop's bits.  The real budget's
        blocks are pinned below."""
        rng = Rng(400 + k)
        a = rng.uniform((256, k), -2, 2)
        b = rng.uniform((k, 16), -2, 2)
        monkeypatch.setattr(tz, "_BLOCK_FLOATS", 7 * 256 * 16)
        shapes = spy_empty(monkeypatch)
        got = og.matmul(a, b)
        monkeypatch.undo()
        assert got.tobytes() == naive_matmul(a, b).tobytes()
        assert shapes[0] == (kb + 1, 16, 256)

    @pytest.mark.parametrize("k, kb", ((256, 29), (272, 31)))
    def test_scratch_fits_the_block_budget(self, k, kb, monkeypatch):
        """serve_wide's W x over two samples, 256 x 256 times 256 x 32, has
        room for 31 k in a block and takes 9 blocks of at most 29 (not 8
        of 31 and one of 8), and a k of 272 fills the budget to the byte:
        every buffer the kernel makes holds at most
        ``PRODUCT_BLOCK_BYTES``."""
        rng = Rng(500 + k)
        a = rng.uniform((256, k), -2, 2)
        b = rng.uniform((k, 32), -2, 2)
        shapes = spy_empty(monkeypatch)
        got = og.matmul(a, b)
        monkeypatch.undo()
        assert shapes[0] == (kb + 1, 32, 256)
        assert max(4 * np.prod(shape) for shape in shapes) <= tz.PRODUCT_BLOCK_BYTES
        assert got.tobytes() == per_k_matmul(a, b).tobytes()

    @pytest.mark.parametrize("k, short, long", ((8, 2, 32), (43, 3, 127), (16, 16, 64), (29, 5, 113)))
    @pytest.mark.parametrize("wide", (True, False))
    def test_one_einsum_writes_the_one_block(self, k, short, long, wide, monkeypatch):
        """When one block holds every k, one einsum writes its products,
        small or large, with the loop's bits, wide (m <= n) or tall.  k
        is 8 or more, so products that landed with k innermost, as
        unordered einsum output does from a C-order ``a`` and a
        Fortran-order ``b``, would be summed pairwise."""
        m, n = (short, long) if wide else (long, short)
        rng = Rng(600 + k * short + wide)
        a = rng.uniform((m, k), -2, 2)
        b = rng.uniform((k, n), -2, 2)
        calls = spy_einsum(monkeypatch)
        got = og.matmul(a, b)
        monkeypatch.undo()
        assert [call.shape for call in calls] == [(k, short, long)]
        assert got.tobytes() == per_k_matmul(a, b).tobytes()
        for aa, bb in ((np.asfortranarray(a), b[:, ::-1]), (a, np.asfortranarray(b))):
            assert_same_bits(aa, bb)

    @pytest.mark.parametrize("c, short, long", ((1, 1, 1), (2, 2, 32), (3, 43, 127), (5, 29, 113)))
    @pytest.mark.parametrize("wide", (True, False))
    def test_one_einsum_writes_each_block(self, c, short, long, wide, monkeypatch):
        """Under a budget of c + 1 product slices, 3c k take three blocks
        of c, each written by one einsum into the buffer.  A 1 x 1 plane
        takes one k a block whatever the budget."""
        m, n = (short, long) if wide else (long, short)
        rng = Rng(700 + c * short + wide)
        a = rng.uniform((m, 3 * c), -2, 2)
        b = rng.uniform((3 * c, n), -2, 2)
        monkeypatch.setattr(tz, "_BLOCK_FLOATS", (c + 1) * short * long)
        calls = spy_einsum(monkeypatch)
        got = og.matmul(a, b)
        monkeypatch.undo()
        assert [call.shape for call in calls] == [(c, short, long)] * 3
        assert got.tobytes() == per_k_matmul(a, b).tobytes()

    @pytest.mark.parametrize("m, k, n", ((128, 40, 4), (4, 40, 128), (256, 300, 32), (32, 300, 256)))
    def test_einsum_subnormal_and_overflowing_products(self, m, k, n):
        """einsum's products keep the multiply's bits where they round to
        subnormals or to -0 and where they overflow to +-inf (and inf
        meets -inf in a sum as NaN), in one block or in several."""
        rng = Rng(800 + m + k)
        sign = np.where(rng.uniform((m, k), -1, 1) < 0, -1, 1).astype(np.float32)
        tiny = sign * np.float32(10) ** rng.uniform((m, k), -30, -19)
        small = rng.uniform((k, n), -1, 1) * np.float32(10) ** rng.uniform((k, n), -27, -19)
        huge = sign * rng.uniform((m, k), 1e19, 1e21)
        big = rng.uniform((k, n), -1e21, 1e21)
        with np.errstate(all="ignore"):
            products = tiny[:, :, None] * small[None]
            assert (products != 0).any() and (np.abs(products) < np.finfo(np.float32).tiny).all()
            assert np.signbit(products[products == 0]).any()
            assert_same_bits(tiny, small)
            assert np.isinf(huge[:, :, None] * big[None]).any()
            assert np.isnan(og.matmul(huge, big)).any()
            assert_same_bits(huge, big)

    def test_signed_zero(self):
        for m, k, n in ((1, 1, 1), (1, 40, 1), (2, 40, 3), (64, 40, 4), (4, 40, 64),
                        (128, 40, 4), (4, 40, 128), (256, 300, 64)):
            a = np.full((m, k), -1.0, dtype=np.float32)
            b = np.zeros((k, n), dtype=np.float32)
            out = og.matmul(a, b)
            assert not np.signbit(out).any()
            assert_same_bits(a, b)

    def test_inf_and_nan(self):
        rng = Rng(22)
        for m, k, n in ((1, 50, 1), (1, 50, 2), (5, 50, 3), (128, 50, 16), (16, 50, 128),
                        (256, 40, 256)):
            for i, j in ((3, 11), (11, 3)):
                a = rng.uniform((m, k), -1, 1)
                b = rng.uniform((k, n), -1, 1)
                a[-1, i] = -np.inf
                b[i, -1] = 0.0          # -inf * 0 is the default NaN
                b[20, 0] = np.inf
                if m * n > 1:           # NaN inputs meeting that NaN, see below
                    b[j, -1] = np.nan
                    a[0, 30] = np.array(0xFFC12345, dtype=np.uint32).view(np.float32)
                with np.errstate(invalid="ignore"):
                    assert_same_bits(a, b)

    def test_nan_payloads_meeting_in_a_single_output(self):
        # When two NaNs with different payloads are added, IEEE 754 leaves
        # open which payload the sum carries.  numpy's length-1 add loop and
        # its reduction loop choose differently, so for a 1x1 output only
        # NaN-ness is pinned; every larger output keeps the payload too.
        a = np.ones((1, 20), dtype=np.float32)
        b = np.ones((20, 1), dtype=np.float32)
        a[0, 3] = -np.inf
        b[3, 0] = 0.0
        b[11, 0] = np.nan
        with np.errstate(invalid="ignore"):
            assert np.isnan(og.matmul(a, b)).all() and np.isnan(per_k_matmul(a, b)).all()

    def test_empty_extents(self):
        for m, k, n in ((0, 3, 2), (2, 0, 3), (2, 3, 0), (0, 0, 0)):
            assert_same_bits(np.ones((m, k), np.float32), np.ones((k, n), np.float32))


class TestMatmul:
    def test_identity(self):
        x = np.array([[1, 2], [3, 4]], dtype=np.float32)
        eye = np.eye(2, dtype=np.float32)
        assert np.array_equal(og.matmul(eye, x), x)

    def test_annihilator(self):
        eye = np.eye(2, dtype=np.float32)
        z = np.zeros((2, 3), dtype=np.float32)
        assert np.array_equal(og.matmul(eye, z), z)

    def test_matches_triple_loop(self):
        rng = Rng(1234)
        a = rng.uniform((3, 4), -2, 2)
        b = rng.uniform((4, 2), -2, 2)
        assert np.array_equal(og.matmul(a, b), naive_matmul(a, b))

    def test_matches_triple_loop_many(self):
        for seed in range(10):
            rng = Rng(seed)
            a = rng.uniform((5, 7), -3, 3)
            b = rng.uniform((7, 4), -3, 3)
            assert np.array_equal(og.matmul(a, b), naive_matmul(a, b))

    def test_shape_mismatch(self):
        a = np.zeros((2, 3), dtype=np.float32)
        with pytest.raises(ShapeError):
            og.matmul(a, a)

    def test_rejects_non_fp32(self):
        a = np.zeros((2, 2), dtype=np.int8)
        with pytest.raises(ShapeError):
            og.matmul(a, a.astype(np.float32))


class TestActivation:
    def test_relu(self):
        x = np.array([-1.0, 2.0], dtype=np.float32)
        assert np.array_equal(og.activation(x, "relu"), np.array([0.0, 2.0], dtype=np.float32))

    def test_silu_zero(self):
        x = np.zeros((1,), dtype=np.float32)
        assert og.activation(x, "silu")[0] == 0.0

    def test_silu_formula(self):
        x = Rng(6).uniform((100,), -4, 4)
        expected = (x * (1.0 / (1.0 + np.exp(-x.astype(np.float64))))).astype(np.float32)
        assert np.allclose(og.activation(x, "silu"), expected, atol=1e-6)


class TestHistogram:
    def test_constant_tensor_single_bin(self):
        x = np.full((50,), 0.25, dtype=np.float32)
        h = og.histogram(x, 4, 0.0, 1.0)
        assert h.total == 50
        assert h.counts[1] == 50

    def test_two_bins(self):
        x = np.array([0.0, 1.0], dtype=np.float32)
        h = og.histogram(x, 2, 0.0, 1.0)
        assert list(h.counts) == [1, 1]

    def test_uniform_four_bins(self):
        x = Rng(2024).uniform((10_000,), 0.0, 1.0)
        h = og.histogram(x, 4, 0.0, 1.0)
        # counting oracle
        manual = [0, 0, 0, 0]
        for v in x:
            idx = min(int(v * 4), 3)
            manual[idx] += 1
        assert list(h.counts) == manual
        for c in h.counts:
            assert abs(c - 2500) < 0.05 * 2500

    def test_total_preserved_with_outliers(self):
        x = np.array([-5.0, 0.5, 9.0], dtype=np.float32)
        h = og.histogram(x, 3, 0.0, 1.0)
        assert h.total == 3

    def test_degenerate_range(self):
        with pytest.raises(RangeError):
            og.histogram(np.zeros((3,), np.float32), 4, 1.0, 1.0)

    def test_too_few_bins(self):
        with pytest.raises(RangeError):
            og.histogram(np.zeros((3,), np.float32), 1, 0.0, 1.0)

    def test_nan_raises_naming_the_count(self):
        x = np.array([0.25, np.nan, 0.5, np.nan], dtype=np.float32)
        with pytest.raises(RangeError, match="2 NaN"):
            og.histogram(x, 4, 0.0, 1.0)

    def test_infinities_clamp_into_the_end_bins(self):
        x = np.array([-np.inf, 0.5, np.inf], dtype=np.float32)
        h = og.histogram(x, 2, 0.0, 1.0)
        assert list(h.counts) == [1, 2]


class TestPsnr:
    def test_identical_capped(self):
        x = Rng(10).uniform((16,), 0, 1)
        assert og.psnr(x, x, 1.0) == 99.0

    def test_full_scale_error(self):
        ref = np.zeros((1,), dtype=np.float32)
        test = np.full((1,), 2.0, dtype=np.float32)
        assert og.psnr(ref, test, 2.0) == pytest.approx(0.0, abs=1e-9)

    def test_matches_direct_formula(self):
        rng = Rng(11)
        ref = rng.uniform((64,), 0, 1)
        test = ref + rng.uniform((64,), -0.05, 0.05)
        mse = float(np.mean((ref.astype(np.float64) - test.astype(np.float64)) ** 2))
        expected = 10.0 * np.log10(1.0 / mse)
        assert og.psnr(ref, test, 1.0) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("side", ("ref", "test"))
    def test_non_finite_input_raises(self, value, side):
        x = Rng(12).uniform((16,), 0, 1)
        y = x.copy()
        (x if side == "ref" else y)[5] = value
        with pytest.raises(RangeError, match=side):
            og.psnr(x, y, 1.0)

    @pytest.mark.parametrize("peak", (np.nan, np.inf, 0.0, -1.0))
    def test_peak_must_be_positive_and_finite(self, peak):
        x = Rng(13).uniform((16,), 0, 1)
        with pytest.raises(RangeError, match="peak"):
            og.psnr(x, x, peak)


class TestRng:
    def test_deterministic(self):
        assert np.array_equal(Rng(42).normal((100,)), Rng(42).normal((100,)))
        assert np.array_equal(Rng(42).uniform((100,)), Rng(42).uniform((100,)))

    def test_child_streams_differ(self):
        base = Rng(42)
        a = base.child("a").uniform((50,))
        b = base.child("b").uniform((50,))
        assert not np.array_equal(a, b)

    def test_normal_moments(self):
        z = Rng(1).normal((200_000,))
        assert abs(float(z.mean())) < 0.01
        assert abs(float(z.std()) - 1.0) < 0.01

    @pytest.mark.parametrize("seed", (0, 1, 42, 0x9E3779B97F4A7C15, 2 ** 64 - 1, -3))
    def test_streams_follow_the_splitmix64_formulas(self, seed):
        """Each draw, at counters from 0 on past several earlier draws,
        carries the bits of splitmix64 written out as expressions."""
        got, want = Rng(seed), ReferenceRng(seed)
        for rng in (got, want):
            rng.draws = [rng.uniform((7,)), rng.normal((5,)), rng.integers(-3, 1000, (2, 3)),
                         rng.uniform((3, 4), -2.5, 0.75), rng.normal((2, 2)), rng.uniform(()),
                         rng.integers(0, 2 ** 40, (9,)), rng.uniform((1000,), -1.0, 1.0)]
            rng.draws += [rng.child("adapter").uniform((6,), -0.1, 0.1), rng.child("é").normal((3,)),
                          rng.child("").integers(5, 9, (4,))]
        assert got._counter == want._counter
        for g, w in zip(got.draws, want.draws):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


class TestQtns:
    def test_roundtrip(self, tmp_path):
        for dtype in (np.float32, np.int8, np.int16, np.int32):
            arr = (Rng(12).uniform((3, 4, 2), -100, 100)).astype(dtype)
            path = tmp_path / f"{np.dtype(dtype).name}.qtns"
            og.write_qtns(path, arr)
            back = og.read_qtns(path)
            assert back.dtype == arr.dtype
            assert np.array_equal(back, arr)

    def test_header_layout(self):
        arr = np.zeros((2, 3), dtype=np.int8)
        raw = tz.qtns_bytes(arr)
        assert raw[:4] == b"QTNS"
        assert raw[4:6] == b"\x01\x00"   # version 1, little-endian
        assert raw[6] == 1               # dtype code i8
        assert raw[7] == 2               # rank

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.qtns"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            og.read_qtns(p)

    def test_truncated(self, tmp_path):
        arr = np.zeros((4, 4), dtype=np.float32)
        raw = tz.qtns_bytes(arr)
        p = tmp_path / "trunc.qtns"
        p.write_bytes(raw[:-8])
        with pytest.raises(FormatError):
            og.read_qtns(p)

    def test_every_truncation_raises_format_error(self):
        raw = tz.qtns_bytes(Rng(13).uniform((2, 3), -1, 1))
        for cut in range(len(raw)):
            with pytest.raises(FormatError):
                tz.qtns_from_bytes(raw[:cut])
        arr, end = tz.qtns_from_bytes(raw)
        assert end == len(raw) and arr.shape == (2, 3)

    def test_truncated_at_offset(self):
        raw = tz.qtns_bytes(np.zeros((3,), dtype=np.int16))
        with pytest.raises(FormatError):
            tz.qtns_from_bytes(b"xx" + raw[:6], offset=2)
