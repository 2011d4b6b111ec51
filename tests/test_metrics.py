import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortblock import (
    ConfigError,
    ImageView,
    Rng,
    ShapeError,
    kendall_tau,
    latent_pair_to_images,
    psnr,
    relative_l2,
    ssim,
    standard_normal,
)
from sortblock.metrics import SSIM_C1, SSIM_C2, SSIM_WINDOW


def _img(arr):
    return ImageView.from_array(np.asarray(arr, dtype=np.float64))


def _random_image(seed, h=16, w=16):
    vals = standard_normal(Rng(seed), h, w).astype(np.float64)
    lo, hi = vals.min(), vals.max()
    return _img((vals - lo) / (hi - lo))


class TestPsnr:
    def test_identical_images_capped(self):
        img = _random_image(0)
        assert psnr(img, img) == 100.0

    def test_mse_point_zero_one(self):
        a = _img(np.zeros((8, 8)))
        b = _img(np.full((8, 8), 0.1))
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    def test_mse_one(self):
        a = _img(np.zeros((8, 8)))
        b = _img(np.ones((8, 8)))
        assert psnr(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_strictly_decreasing_in_mse(self):
        a = _img(np.zeros((8, 8)))
        values = [psnr(a, _img(np.full((8, 8), err))) for err in (0.01, 0.05, 0.2, 0.5, 1.0)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(_img(np.zeros((8, 8))), _img(np.zeros((9, 9))))


class TestSsim:
    def test_identical_images(self):
        img = _random_image(1, 32, 32)
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_constant_images_closed_form(self):
        # luminance term only; variance terms cancel to 1 through C2
        a = _img(np.full((16, 16), 0.2))
        b = _img(np.full((16, 16), 0.8))
        expected = (2 * 0.2 * 0.8 + SSIM_C1) / (0.2**2 + 0.8**2 + SSIM_C1)
        assert expected == pytest.approx(0.470666, abs=1e-6)
        assert ssim(a, b) == pytest.approx(expected, abs=1e-3)

    def test_symmetry(self):
        for seed in (2, 3, 4):
            a, b = _random_image(seed, 24, 24), _random_image(seed + 100, 24, 24)
            assert abs(ssim(a, b) - ssim(b, a)) < 1e-9

    def test_bounded_above_by_one(self):
        for seed in (5, 6):
            a, b = _random_image(seed), _random_image(seed + 10)
            assert ssim(a, b) <= 1.0 + 1e-12

    def test_image_smaller_than_window(self):
        tiny = _img(np.zeros((3, 3)))
        with pytest.raises(ConfigError):
            ssim(tiny, tiny)


def _reference_ssim(a, b, uniform_filter):
    """SSIM as computed with scipy.ndimage.uniform_filter (mode "reflect")."""
    x, y = a.pixels, b.pixels
    mu_x = uniform_filter(x, size=SSIM_WINDOW)
    mu_y = uniform_filter(y, size=SSIM_WINDOW)
    xx = uniform_filter(x * x, size=SSIM_WINDOW) - mu_x * mu_x
    yy = uniform_filter(y * y, size=SSIM_WINDOW) - mu_y * mu_y
    xy = uniform_filter(x * y, size=SSIM_WINDOW) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * xy + SSIM_C2)
    den = (mu_x * mu_x + mu_y * mu_y + SSIM_C1) * (xx + yy + SSIM_C2)
    return float(np.mean(num / den))


class TestSsimAgainstScipy:
    """The numpy box filter replaced scipy.ndimage.uniform_filter; SSIM must
    agree with the scipy formulation to 1e-12 wherever scipy is installed."""

    def _pairs(self):
        rng = np.random.default_rng(11)
        for h, w in ((7, 7), (7, 30), (16, 16), (64, 64), (41, 23)):
            x = rng.random((h, w))
            yield _img(x), _img(np.clip(x + rng.normal(0, 0.2, (h, w)), 0, 1))
        flat = np.full((32, 32), 0.37) + 1e-9 * rng.random((32, 32))
        yield _img(flat), _img(np.clip(flat + rng.normal(0, 1e-6, flat.shape), 0, 1))
        steps = np.round(rng.random((24, 40)) * 4) / 4
        yield _img(steps), _img(np.clip(steps + rng.normal(0, 0.01, steps.shape), 0, 1))
        for seed in (0, 1):
            latent = standard_normal(Rng(seed), 64, 64)
            yield latent_pair_to_images(latent, latent * np.float32(0.9) + np.float32(0.05))

    def test_matches_uniform_filter_to_1e12(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        for a, b in self._pairs():
            assert abs(ssim(a, b) - _reference_ssim(a, b, ndimage.uniform_filter)) < 1e-12
            assert abs(ssim(b, a) - _reference_ssim(b, a, ndimage.uniform_filter)) < 1e-12

    def test_identical_images_exactly_one(self):
        for a, b in self._pairs():
            assert ssim(a, a) == 1.0
            assert ssim(b, b) == 1.0


class TestKendallTau:
    def test_identical_rankings(self):
        assert kendall_tau([0, 1, 2, 3], [0, 1, 2, 3]) == 1.0

    def test_reversed_rankings(self):
        assert kendall_tau([0, 1, 2, 3], [3, 2, 1, 0]) == -1.0

    def test_single_swap(self):
        assert kendall_tau([0, 1, 2], [0, 2, 1]) == pytest.approx(1 / 3)

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau([0, 1, 1], [0, 1, 2])
        with pytest.raises(ValueError):
            kendall_tau([0, 1], [0, 1, 2])

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(6))), st.permutations(list(range(6))), st.permutations(list(range(6))))
    def test_relabeling_invariance(self, rank_a, rank_b, relabel):
        tau = kendall_tau(rank_a, rank_b)
        relabeled_a = [relabel[i] for i in rank_a]
        relabeled_b = [relabel[i] for i in rank_b]
        assert kendall_tau(relabeled_a, relabeled_b) == pytest.approx(tau, abs=1e-12)


class TestRelativeL2:
    def test_equal_tensors(self):
        a = standard_normal(Rng(7), 8, 8)
        assert relative_l2(a, a) == 0.0

    def test_double(self):
        b = standard_normal(Rng(8), 8, 8)
        assert relative_l2(np.float32(2.0) * b, b) == pytest.approx(1.0, abs=1e-6)

    def test_zero_against_nonzero(self):
        b = standard_normal(Rng(9), 8, 8)
        assert relative_l2(np.zeros_like(b), b) == pytest.approx(1.0, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            relative_l2(np.zeros((2, 2), dtype=np.float32), np.zeros((3, 3), dtype=np.float32))


class TestLatentPairMapping:
    def test_identical_latents_map_identically(self):
        z = standard_normal(Rng(10), 64, 64)
        a, b = latent_pair_to_images(z, z.copy())
        assert np.array_equal(a.pixels, b.pixels)
        assert a.pixels.min() >= 0.0 and a.pixels.max() <= 1.0

    def test_joint_scale_uses_both(self):
        lo = np.full((8, 8), -2.0, dtype=np.float32)
        hi = np.full((8, 8), 6.0, dtype=np.float32)
        a, b = latent_pair_to_images(lo, hi)
        assert np.allclose(a.pixels, 0.0)
        assert np.allclose(b.pixels, 1.0)

    def test_constant_equal_pair(self):
        z = np.full((8, 8), 3.0, dtype=np.float32)
        a, b = latent_pair_to_images(z, z)
        assert np.array_equal(a.pixels, b.pixels)

    def test_view_properties(self):
        view = ImageView.from_array(np.zeros((4, 6)))
        assert (view.height, view.width) == (4, 6)

    @pytest.mark.parametrize("shape", [(4, 6, 3), (4, 6, 1), (6,), ()])
    def test_only_two_dimensional_arrays_are_images(self, shape):
        """Latents are 2-D, so an image is: a 3-D array (an RGB image, or
        one channel of one) is refused, as is a 1-D or 0-D array."""
        with pytest.raises(ShapeError, match="2-D"):
            ImageView.from_array(np.zeros(shape))
