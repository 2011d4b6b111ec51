"""Fidelity metrics for comparing accelerated runs against their baselines:
PSNR, SSIM, relative L2, and Kendall rank correlation.

Latents are mapped to image range by an affine rescale over the joint min/max
of the pair being compared, so comparisons need no decoder.  All conclusions
drawn from these numbers are relative (run vs. baseline under one metric),
never absolute quality claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import Matrix

PSNR_CAP_DB = 100.0
SSIM_WINDOW = 7
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


@dataclass(frozen=True)
class ImageView:
    """Pixel array in [0, 1]: (height, width) or (height, width, channels)."""

    pixels: np.ndarray

    @classmethod
    def from_array(cls, arr) -> "ImageView":
        pixels = np.asarray(arr, dtype=np.float64)
        if pixels.ndim not in (2, 3):
            raise ShapeError("image arrays must be 2-D or 3-D")
        return cls(np.clip(pixels, 0.0, 1.0))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else self.pixels.shape[2]


def latent_pair_to_images(a: Matrix, b: Matrix) -> tuple[ImageView, ImageView]:
    """View two same-shape latents as grayscale images on a shared [0,1] scale.

    The affine map uses the joint min/max of the pair, so identical latents map
    to identical images and the comparison is self-contained.
    """
    if a.shape != b.shape:
        raise ShapeError(f"latent shapes differ: {a.shape} vs {b.shape}")
    lo = min(float(a.min()), float(b.min()))
    hi = max(float(a.max()), float(b.max()))
    span = hi - lo
    if span <= 0.0:
        zero = np.zeros(a.shape, dtype=np.float64)
        return ImageView.from_array(zero), ImageView.from_array(zero)
    return (
        ImageView.from_array((a.astype(np.float64) - lo) / span),
        ImageView.from_array((b.astype(np.float64) - lo) / span),
    )


def _check_pair(a: ImageView, b: ImageView) -> None:
    if a.pixels.shape != b.pixels.shape:
        raise ShapeError(f"image shapes differ: {a.pixels.shape} vs {b.pixels.shape}")


def psnr(a: ImageView, b: ImageView) -> float:
    """Peak signal-to-noise ratio in dB with MAX=1; capped at 100 dB."""
    _check_pair(a, b)
    mse = float(np.mean((a.pixels - b.pixels) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(1.0 / mse), PSNR_CAP_DB)


def _box_mean(a: np.ndarray) -> np.ndarray:
    """Mean over the SSIM_WINDOW x SSIM_WINDOW window centred on each pixel,
    the border mirrored (d c b a | a b c d); scipy.ndimage.uniform_filter with
    mode "reflect" up to rounding."""
    size = SSIM_WINDOW
    h, w = a.shape
    padded = np.pad(a, size // 2, mode="symmetric")
    # sliding sums of `size` shifted slices: every window sums few terms of
    # the same magnitude, unlike differences of running sums along a row
    cols = sum(padded[i : i + h] for i in range(size))
    return sum(cols[:, j : j + w] for j in range(size)) / (size * size)


def _ssim_channel(x: np.ndarray, y: np.ndarray) -> float:
    mu_x = _box_mean(x)
    mu_y = _box_mean(y)
    xx = _box_mean(x * x) - mu_x * mu_x
    yy = _box_mean(y * y) - mu_y * mu_y
    xy = _box_mean(x * y) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * xy + SSIM_C2)
    den = (mu_x * mu_x + mu_y * mu_y + SSIM_C1) * (xx + yy + SSIM_C2)
    return float(np.mean(num / den))


def ssim(a: ImageView, b: ImageView) -> float:
    """Mean local SSIM over a 7x7 uniform window, averaged across channels."""
    _check_pair(a, b)
    if min(a.height, a.width) < SSIM_WINDOW:
        raise ConfigError(f"image smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
    if a.pixels.ndim == 2:
        return _ssim_channel(a.pixels, b.pixels)
    return float(
        np.mean([_ssim_channel(a.pixels[..., c], b.pixels[..., c]) for c in range(a.channels)])
    )


def kendall_tau(ranking_a, ranking_b) -> float:
    """Kendall rank correlation between two orderings of items 0..N-1."""
    n = len(ranking_a)
    ids = set(range(n))
    if set(ranking_a) != ids or set(ranking_b) != ids or len(ranking_b) != n:
        raise ValueError("rankings must both be permutations of 0..N-1")
    if n < 2:
        return 1.0
    pos_a = [0] * n
    pos_b = [0] * n
    for pos, item in enumerate(ranking_a):
        pos_a[item] = pos
    for pos, item in enumerate(ranking_b):
        pos_b[item] = pos
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            s = (pos_a[i] - pos_a[j]) * (pos_b[i] - pos_b[j])
            if s > 0:
                concordant += 1
            else:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


def relative_l2(a: Matrix, b: Matrix) -> float:
    """||a - b|| / (||b|| + 1e-12), flattened Euclidean norms in float64."""
    if a.shape != b.shape:
        raise ShapeError(f"shapes differ: {a.shape} vs {b.shape}")
    diff = a.astype(np.float64) - b.astype(np.float64)
    return float(np.linalg.norm(diff) / (np.linalg.norm(b.astype(np.float64)) + 1e-12))
