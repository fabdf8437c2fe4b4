"""Forward models mapping (signal, noise) to measurements, with closed-form
feasibility predicates for bounded noise.

Three built-in model families:

* ``LinearModel``     -- y = A x (+ noise)
* ``DownsampleModel`` -- band-wise antialiased bilinear downsampling (+ noise)
* ``MicroscopyModel`` -- pixel-integrated Gaussian PSF camera image of a single
  emitter, parameterised by (x, y, z, C, h) (+ noise)

Noise enters additively, multiplicatively, or as the mixed form
``mu * (1 + e1) + e2``. Noise sets are componentwise (inf-norm) balls by
default; an l2 ball is available for the additive and multiplicative kinds.
Feasibility -- "does some admissible noise map x onto y exactly" -- reduces to
closed-form interval tests, so sampler acceptance is exact rather than
tolerance-fragile.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Mapping

import numpy as np
from scipy.special import erf

from .core import DataError, UsageError, as_vector, check_keys

__all__ = [
    "NoiseSpec",
    "ForwardModel",
    "LinearModel",
    "DownsampleModel",
    "MicroscopyModel",
    "downsample_matrix_1d",
    "model_from_dict",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Bounded noise set: radii of the additive and multiplicative balls.

    ``kind`` selects how noise enters the forward map. ``ball`` chooses the
    ball shape ('inf' componentwise or 'l2'); the mixed kind supports 'inf'
    only, where the set is the product of the two componentwise balls.
    """

    kind: str = "additive"
    eps_additive: float = 0.0
    eps_multiplicative: float = 0.0
    ball: str = "inf"

    def __post_init__(self):
        if self.kind not in ("additive", "multiplicative", "mixed"):
            raise UsageError(f"unknown noise kind {self.kind!r}")
        if self.ball not in ("inf", "l2"):
            raise UsageError(f"unknown noise ball {self.ball!r}")
        if self.eps_additive < 0 or self.eps_multiplicative < 0:
            raise UsageError("noise radii must be nonnegative")
        if self.kind == "additive" and self.eps_multiplicative != 0:
            raise UsageError("additive noise must have eps_multiplicative = 0")
        if self.kind == "multiplicative" and self.eps_additive != 0:
            raise UsageError("multiplicative noise must have eps_additive = 0")
        if self.kind == "mixed" and self.ball != "inf":
            raise UsageError("mixed noise supports the inf ball only")

    def dim(self, d2: int) -> int:
        """Noise dimension d3 for a measurement dimension d2."""
        return 2 * d2 if self.kind == "mixed" else d2

    def row_norms(self, E: np.ndarray) -> np.ndarray:
        """Ball norm of each row of the (n, d) array E: max |e| for the inf
        ball, the square root of the sum of squares for the l2 ball."""
        if self.ball == "inf":
            return np.abs(E).max(axis=1, initial=0.0)
        return np.sqrt((E * E).sum(axis=1))

    def contains(self, e: np.ndarray, d2: int) -> bool:
        """Exact membership of a noise vector in the noise set."""
        e = np.asarray(e, dtype=np.float64)
        if e.shape != (self.dim(d2),):
            raise UsageError(f"noise vector must have length {self.dim(d2)}")
        if self.kind == "mixed":  # the product of two inf balls
            return bool(np.all(self.row_norms(e.reshape(2, d2))
                               <= (self.eps_multiplicative, self.eps_additive)))
        eps = self.eps_additive if self.kind == "additive" else self.eps_multiplicative
        return bool(self.row_norms(e[None, :])[0] <= eps)

    def sample(self, rng: np.random.Generator, d2: int) -> np.ndarray:
        """One noise vector drawn uniformly from the noise set."""
        if self.kind == "mixed":
            e1 = rng.uniform(-self.eps_multiplicative, self.eps_multiplicative, d2)
            e2 = rng.uniform(-self.eps_additive, self.eps_additive, d2)
            return np.concatenate([e1, e2])
        eps = self.eps_additive if self.kind == "additive" else self.eps_multiplicative
        if self.ball == "inf":
            return rng.uniform(-eps, eps, d2)
        direction = rng.standard_normal(d2)
        nrm = np.linalg.norm(direction)
        if nrm == 0.0:
            return np.zeros(d2)
        radius = eps * rng.uniform() ** (1.0 / d2)
        return direction * (radius / nrm)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "NoiseSpec":
        """Noise set from its document; every field is optional."""
        d = check_keys(
            d, [f.name for f in fields(cls)], "model.noise",
            {"eps_additive": float, "eps_multiplicative": float},
        )
        return cls(**d)


class ForwardModel:
    """Base class: noise composition, feasibility, bounds bookkeeping.

    Subclasses provide the noise-free component via ``noiseless_batch`` and
    the dimensions/bounds; everything else is shared.
    """

    noise: NoiseSpec
    d1: int
    d2: int

    @property
    def d3(self) -> int:
        return self.noise.dim(self.d2)

    # -- noise-free component -------------------------------------------------

    def noiseless_batch(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def noiseless(self, x) -> np.ndarray:
        """Noise-free measurement of a single signal."""
        x = as_vector(x, "signal")
        if x.shape[0] != self.d1:
            raise UsageError(f"signal length {x.shape[0]} != d1={self.d1}")
        if not self.within_bounds(x[None, :])[0]:
            warnings.warn("signal lies outside signal_bounds", stacklevel=2)
        return self.noiseless_batch(x[None, :])[0]

    # -- noisy application ----------------------------------------------------

    def apply(self, x, e) -> np.ndarray:
        """Apply the forward model with an explicit admissible noise vector."""
        x = as_vector(x, "signal")
        e = as_vector(e, "noise")
        if not self.noise.contains(e, self.d2):
            raise DataError("noise vector lies outside the noise set")
        g = self.noiseless(x)
        kind = self.noise.kind
        if kind == "additive":
            return g + e
        if kind == "multiplicative":
            return g * e
        return g * (1.0 + e[: self.d2]) + e[self.d2 :]

    # -- feasibility ----------------------------------------------------------

    def feasible_batch(self, X: np.ndarray, y: np.ndarray, atol: float = 0.0) -> np.ndarray:
        """Vectorized feasibility of each row of X against its measurement.

        ``y`` is one measurement of shape (d2,) shared by every row, or one
        measurement per row of X, of shape (n, d2). ``atol`` widens the
        acceptance intervals by an absolute amount; the default 0 keeps the
        predicate exact. A tiny atol absorbs float roundoff when re-checking
        points produced by ``apply``.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        if X.shape[1] != self.d1:
            raise UsageError(f"signal length {X.shape[1]} != d1={self.d1}")
        if y.shape == (self.d2,):
            y = y[None, :]
        elif y.shape != (X.shape[0], self.d2):
            raise UsageError(
                f"measurement shape {y.shape} is neither ({self.d2},) "
                f"nor ({X.shape[0]}, {self.d2})"
            )
        g = self.noiseless_batch(X)
        kind, ns = self.noise.kind, self.noise
        if kind == "additive":
            return ns.row_norms(y - g) <= ns.eps_additive + atol
        if kind == "multiplicative":
            zero = g == 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(zero, 0.0, y / np.where(zero, 1.0, g))
            ok_zero = (np.abs(y) <= atol) | ~zero
            return (ns.row_norms(ratio) <= ns.eps_multiplicative + atol) & ok_zero.all(axis=1)
        bound = np.abs(g) * ns.eps_multiplicative + ns.eps_additive + atol
        return (np.abs(y - g) <= bound).all(axis=1)

    def feasibility(self, x, y, atol: float = 0.0) -> bool:
        """True iff some admissible noise maps x exactly onto y."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise UsageError("feasibility expects a single signal vector")
        return bool(self.feasible_batch(x[None, :], np.asarray(y, dtype=np.float64), atol)[0])

    # -- signal bounds ---------------------------------------------------------

    @property
    def signal_bounds(self) -> np.ndarray:
        raise NotImplementedError

    def within_bounds(self, X: np.ndarray) -> np.ndarray:
        """True for each row of the (n, d1) array X that lies in the signal box."""
        b = self.signal_bounds
        return ((X >= b[:, 0]) & (X <= b[:, 1])).all(axis=1)

    def to_dict(self) -> dict:
        raise NotImplementedError


class LinearModel(ForwardModel):
    """y = A x composed with the configured noise."""

    def __init__(self, matrix, noise: NoiseSpec, signal_bounds):
        A = np.asarray(matrix, dtype=np.float64)
        if A.ndim != 2:
            raise UsageError("matrix must be 2-D")
        if not np.all(np.isfinite(A)):
            raise DataError("matrix has non-finite entries")
        b = np.asarray(signal_bounds, dtype=np.float64)
        if b.shape != (A.shape[1], 2):
            raise UsageError(f"signal_bounds must have shape ({A.shape[1]}, 2)")
        if np.any(b[:, 0] > b[:, 1]):
            raise UsageError("signal_bounds must satisfy lo <= hi")
        self.matrix = A.copy()
        self.matrix.setflags(write=False)
        self._bounds = b.copy()
        self._bounds.setflags(write=False)
        self.noise = noise
        self.d2, self.d1 = A.shape

    @property
    def signal_bounds(self) -> np.ndarray:
        return self._bounds

    def noiseless_batch(self, X: np.ndarray) -> np.ndarray:
        return np.atleast_2d(X) @ self.matrix.T

    def to_dict(self) -> dict:
        return {
            "variant": "linear_additive",
            "matrix": self.matrix.tolist(),
            "noise": self.noise.to_dict(),
            "signal_bounds": self._bounds.tolist(),
        }


def downsample_matrix_1d(n: int, factor: int) -> np.ndarray:
    """1-D antialiased bilinear downsampling matrix (n/factor x n).

    Triangle kernel of half-width ``factor`` centred on each output cell,
    weights normalised to sum 1, clamp-to-edge boundary handling. Every output
    sample depends on inputs within two output cells of its centre.
    """
    if factor < 2 or int(factor) != factor:
        raise UsageError("factor must be an integer >= 2")
    if n % factor != 0:
        raise UsageError(f"length {n} not divisible by factor {factor}")
    f = int(factor)
    n_out = n // f
    D = np.zeros((n_out, n))
    for j in range(n_out):
        center = f * j + (f - 1) / 2.0
        lo = int(math.floor(center - f)) + 1
        total = 0.0
        weights = []
        for i in range(lo, lo + 2 * f):
            w = 1.0 - abs(i - center) / f
            if w <= 0.0:
                continue
            weights.append((min(max(i, 0), n - 1), w))
            total += w
        for i, w in weights:
            D[j, i] += w / total
    D.setflags(write=False)
    return D


class DownsampleModel(ForwardModel):
    """Band-wise antialiased bilinear downsampling of multi-band images.

    Signals are images of shape (bands, height, width) flattened band-major,
    row-major; measurements are the factor-f downsampled images flattened the
    same way. Pixel values live in [0, r_max].
    """

    def __init__(self, bands: int, height: int, width: int, factor: int,
                 r_max: float, noise: NoiseSpec):
        if bands < 1 or height < 1 or width < 1:
            raise UsageError("bands, height, width must be positive")
        if r_max <= 0:
            raise UsageError("r_max must be positive")
        if noise.kind != "additive":
            raise UsageError("the downsampling model uses additive noise")
        self.bands = int(bands)
        self.height = int(height)
        self.width = int(width)
        self.factor = int(factor)
        self.r_max = float(r_max)
        self.noise = noise
        self._dh = downsample_matrix_1d(self.height, self.factor)
        self._dw = downsample_matrix_1d(self.width, self.factor)
        self.d1 = self.bands * self.height * self.width
        self.d2 = self.bands * (self.height // self.factor) * (self.width // self.factor)
        b = np.zeros((self.d1, 2))
        b[:, 1] = self.r_max
        b.setflags(write=False)
        self._bounds = b

    @property
    def signal_bounds(self) -> np.ndarray:
        return self._bounds

    @property
    def out_shape(self) -> tuple:
        return (self.bands, self.height // self.factor, self.width // self.factor)

    def noiseless_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        imgs = X.reshape(X.shape[0], self.bands, self.height, self.width)
        t = np.einsum("oi,nbiw->nbow", self._dh, imgs)
        out = np.einsum("pw,nbow->nbop", self._dw, t)
        return out.reshape(X.shape[0], self.d2)

    def band_matrix(self) -> np.ndarray:
        """Explicit downsampling matrix of a single band (dense)."""
        return np.kron(self._dh, self._dw)

    def matrix(self) -> np.ndarray:
        """Explicit matrix of the full multi-band operator (block diagonal)."""
        band = self.band_matrix()
        out = np.zeros((self.d2, self.d1))
        rb, cb = band.shape
        for b in range(self.bands):
            out[b * rb : (b + 1) * rb, b * cb : (b + 1) * cb] = band
        return out

    def to_dict(self) -> dict:
        return {
            "variant": "downsample_additive",
            "bands": self.bands,
            "height": self.height,
            "width": self.width,
            "factor": self.factor,
            "r_max": self.r_max,
            "noise": self.noise.to_dict(),
        }


class MicroscopyModel(ForwardModel):
    """Single-emitter localization camera model.

    The signal is (x, y, z, C, h): position in a volume [nm], background
    photon flux C and emission rate h. The expected count in pixel (px, py) is

        C*T + h*T * mass_x(px) * mass_y(py)

    where the per-axis masses integrate a Gaussian of width
    sigma(z) = psf_sigma0 * sqrt(1 + (z/psf_z0)^2) over the pixel, T is the
    exposure and pixels have side ``pixel_size``. Images are flattened
    px-major.
    """

    def __init__(self, pixels, pixel_size: float, psf_sigma0: float, psf_z0: float,
                 c_max: float, h_max: float, exposure: float, volume,
                 noise: NoiseSpec):
        self.npx, self.npy = int(pixels[0]), int(pixels[1])
        if self.npx < 1 or self.npy < 1:
            raise UsageError("pixel counts must be positive")
        for name, v in (("pixel_size", pixel_size), ("psf_sigma0", psf_sigma0),
                        ("psf_z0", psf_z0), ("c_max", c_max), ("h_max", h_max),
                        ("exposure", exposure)):
            if v <= 0:
                raise UsageError(f"{name} must be positive")
        vol = np.asarray(volume, dtype=np.float64)
        if vol.shape != (3, 2) or np.any(vol[:, 0] > vol[:, 1]):
            raise UsageError("volume must be a (3, 2) array of [lo, hi] rows")
        self.pixel_size = float(pixel_size)
        self.psf_sigma0 = float(psf_sigma0)
        self.psf_z0 = float(psf_z0)
        self.c_max = float(c_max)
        self.h_max = float(h_max)
        self.exposure = float(exposure)
        self.noise = noise
        self.d1 = 5
        self.d2 = self.npx * self.npy
        b = np.vstack([vol, [0.0, self.c_max], [0.0, self.h_max]])
        b.setflags(write=False)
        self._bounds = b
        self._edges_x = self.pixel_size * np.arange(self.npx + 1)
        self._edges_y = self.pixel_size * np.arange(self.npy + 1)

    @property
    def signal_bounds(self) -> np.ndarray:
        return self._bounds

    def psf_sigma(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        return self.psf_sigma0 * np.sqrt(1.0 + (z / self.psf_z0) ** 2)

    def _axis_mass(self, edges: np.ndarray, pos: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        # Gaussian mass per pixel via erf differences; erf is odd bitwise, so a
        # centred emitter yields an exactly symmetric image.
        a = (edges[None, :] - pos[:, None]) / (sigma[:, None] * _SQRT2)
        e = erf(a)
        return 0.5 * (e[:, 1:] - e[:, :-1])

    def intensity_batch(self, T: np.ndarray) -> np.ndarray:
        T = np.atleast_2d(np.asarray(T, dtype=np.float64))
        if T.shape[1] != 5:
            raise UsageError("microscopy signals have 5 components (x, y, z, C, h)")
        x, y, z, c, h = (T[:, i] for i in range(5))
        sigma = self.psf_sigma(z)
        mx = self._axis_mass(self._edges_x, x, sigma)
        my = self._axis_mass(self._edges_y, y, sigma)
        t = self.exposure
        mu = c[:, None, None] * t + (h[:, None, None] * t) * (mx[:, :, None] * my[:, None, :])
        return mu.reshape(T.shape[0], self.d2)

    def intensity(self, theta) -> np.ndarray:
        """Expected pixel intensities for a single (x, y, z, C, h)."""
        return self.intensity_batch(np.asarray(theta, dtype=np.float64)[None, :])[0]

    noiseless_batch = intensity_batch

    def to_dict(self) -> dict:
        return {
            "variant": "microscopy",
            "pixels": [self.npx, self.npy],
            "pixel_size": self.pixel_size,
            "psf_sigma0": self.psf_sigma0,
            "psf_z0": self.psf_z0,
            "c_max": self.c_max,
            "h_max": self.h_max,
            "exposure": self.exposure,
            "volume": self._bounds[:3].tolist(),
            "noise": self.noise.to_dict(),
        }


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _pixels(value) -> tuple:
    npx, npy = value
    return int(npx), int(npy)


# Per variant: the model class and the type of each required field of its
# document. The constructors check the values; "noise" is optional.
_MODEL_FIELDS = {
    "linear_additive": (LinearModel, {"matrix": _floats, "signal_bounds": _floats}),
    "downsample_additive": (DownsampleModel, {
        "bands": int, "height": int, "width": int, "factor": int, "r_max": float,
    }),
    "microscopy": (MicroscopyModel, {
        "pixels": _pixels, "pixel_size": float, "psf_sigma0": float, "psf_z0": float,
        "c_max": float, "h_max": float, "exposure": float, "volume": _floats,
    }),
}


def model_from_dict(d: Mapping) -> ForwardModel:
    """Build a forward model from its JSON document form.

    A malformed document (not an object, an unknown variant, an unknown or
    missing field, a value of the wrong type) raises DataError; a well-typed
    value out of range raises the model's UsageError.
    """
    variant = d.get("variant") if isinstance(d, Mapping) else None
    if not isinstance(variant, str) or variant not in _MODEL_FIELDS:
        raise DataError(f"model document needs a known 'variant', got {variant!r}")
    model_cls, types = _MODEL_FIELDS[variant]
    doc = check_keys(d, {"variant", "noise", *types}, "model", types, required=types)
    del doc["variant"]
    doc["noise"] = NoiseSpec.from_dict(doc.get("noise", {}))
    return model_cls(**doc)
