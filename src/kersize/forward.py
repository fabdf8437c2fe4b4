"""Forward models mapping (signal, noise) to measurements, with closed-form
feasibility predicates for bounded noise.

Three built-in model families:

* ``LinearModel``     -- y = A x (+ noise)
* ``DownsampleModel`` -- band-wise antialiased bilinear downsampling (+ noise)
* ``MicroscopyModel`` -- pixel-integrated Gaussian PSF camera image of a single
  emitter, parameterised by (x, y, z, C, h) (+ noise)

A model computes only its noise-free rows g = ``noiseless_batch(X)``, and
row i of g is bit for bit the one-row call on X[i], whatever the batch and
the memory layout of X, so a batched measurement or feasibility test decides
each row as its one-row call does. ``LinearModel`` takes a row whose product
overflows float64 again from the signal scaled by a power of two, so only a
row whose exact image leaves the range is non-finite (a downsampling model's
rows are weighted means of the signal, which stay in range).
``NoiseSpec`` owns how noise enters: additively (g + e), multiplicatively
(g * e) or mixed, g * (1 + e1) + e2, in componentwise (inf-norm) balls by
default or an l2 ball for the pure kinds, whose norm is ``core.vector_norms``
(with its l2 overflow rescue). It tests noise membership, composes
measurements and decides feasibility -- "does some admissible noise map g
onto y exactly" -- by closed-form interval tests with no tolerance, so
sampler acceptance is exact rather than tolerance-fragile.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Mapping

import numpy as np

from .core import DataError, NormSpec, UsageError, check_keys, vector_norms, whole

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
_BALL_NORMS = {"inf": NormSpec(q=np.inf), "l2": NormSpec(q=2)}


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
        for name in ("eps_additive", "eps_multiplicative"):
            eps = getattr(self, name)
            if not (math.isfinite(eps) and eps >= 0):  # NaN fails both
                raise UsageError(f"{name} must be finite and nonnegative, got {eps!r}")
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
        """Ball norm of each row of the (n, d) array E, by ``core.vector_norms``
        (q = inf or 2, with its l2 overflow rescue)."""
        return vector_norms(E, _BALL_NORMS[self.ball])

    def contains(self, E: np.ndarray) -> np.ndarray:
        """True for each row of the (n, d3) noise E that lies in the noise
        set: one ball per d2 entries, mixed noise being the product of the
        multiplicative and the additive inf ball."""
        radii = {"additive": [self.eps_additive], "multiplicative": [self.eps_multiplicative],
                 "mixed": [self.eps_multiplicative, self.eps_additive]}[self.kind]
        norms = self.row_norms(E.reshape(-1, E.shape[1] // len(radii)))
        return (norms.reshape(-1, len(radii)) <= radii).all(axis=1)

    def compose(self, g: np.ndarray, E: np.ndarray) -> np.ndarray:
        """Measurements of the (n, d2) noise-free rows g under the matching
        rows of the (n, d3) noise E."""
        if self.kind == "additive":
            return g + E
        if self.kind == "multiplicative":
            return g * E
        d2 = g.shape[-1]
        return g * (1.0 + E[:, :d2]) + E[:, d2:]

    def halfwidth(self, g: np.ndarray) -> np.ndarray:
        """eps_additive + eps_multiplicative·|g|: half the width of the values each
        entry of g reaches under inf-ball noise, centred on g (on 0 if multiplicative)."""
        return self.eps_additive + self.eps_multiplicative * np.abs(g)

    def feasible(self, y: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Whether some noise in the set composes each (n, d2) noise-free row
        g into y, exactly: y is one measurement (d2,) or one per row (n, d2).

        A difference or ratio past the float64 range is infeasible, since the
        radii are finite. The mixed test decides each entry where both sides
        overflow from y/2 and g/2 instead: halving is exact in the normal
        range, and the halved difference cannot overflow."""
        if self.kind == "additive":
            with np.errstate(over="ignore"):  # an infinite difference is infeasible
                return self.row_norms(y - g) <= self.eps_additive
        if self.kind == "multiplicative":
            zero = g == 0.0  # an entry with g = 0 is reached only by y = 0
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ratio = np.where(zero, 0.0, y / np.where(zero, 1.0, g))
            return ((self.row_norms(ratio) <= self.eps_multiplicative)
                    & ((y == 0.0) | ~zero).all(axis=1))
        # inf <= inf alone is undecided: redone at half; 0·inf in the width is
        # NaN, and infeasible, as g past the range is
        with np.errstate(over="ignore", invalid="ignore"):
            diff, width = np.abs(y - g), self.halfwidth(g)
            ok = diff <= width
            big = np.isinf(diff) & np.isinf(width)
            if big.any():
                y2, g2 = np.broadcast_to(y, g.shape)[big] / 2, g[big] / 2
                ok[big] = (np.abs(y2 - g2)
                           <= self.eps_additive / 2 + self.eps_multiplicative * np.abs(g2))
        return ok.all(axis=1)

    def sample(self, rng: np.random.Generator, d2: int) -> np.ndarray:
        """One noise vector drawn uniformly from the noise set.

        A radius above half the largest float is refused: the width 2·eps of
        its interval [-eps, eps] is not a float.
        """
        for name in ("eps_additive", "eps_multiplicative"):
            eps = getattr(self, name)
            if not math.isfinite(2.0 * eps):
                raise UsageError(f"{name} = {eps!r} is too large to sample from: "
                                 f"the width of [-{name}, {name}] exceeds the float range")
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
    """Base class: measurement and feasibility through ``noise``, bounds bookkeeping.

    Subclasses provide the noise-free component via ``noiseless_batch`` and
    the dimensions/bounds; everything else is shared. A subclass keeps the
    row contract of ``noiseless_batch``, which every built-in model keeps:
    row i is bit for bit the one-row call on X[i], whatever the batch and
    the memory layout of X. So row i of ``apply_batch`` and of
    ``feasible_batch`` is their one-row call too.
    """

    noise: NoiseSpec
    d1: int
    d2: int

    def noiseless_batch(self, X: np.ndarray) -> np.ndarray:
        """Noise-free measurement of each row of the (n, d1) signals X; row i
        is bit for bit ``noiseless_batch(X[i : i + 1])[0]``."""
        raise NotImplementedError

    def apply_batch(self, X, E) -> np.ndarray:
        """Measure each row of the (n, d1) signals X with the matching row of
        the (n, d3) noise E; row i is bit for bit the one-row call on
        (X[i], E[i]). A noise row outside the noise set raises DataError; a
        signal outside the signal box warns."""
        X = np.asarray(X, dtype=np.float64)
        E = np.asarray(E, dtype=np.float64)
        if not np.isfinite(X).all():
            raise DataError("signal contains non-finite entries")
        if not np.isfinite(E).all():
            raise DataError("noise contains non-finite entries")
        d3 = self.noise.dim(self.d2)
        if E.shape != (X.shape[0], d3):
            raise UsageError(f"noise vector must have length {d3}")
        if not self.noise.contains(E).all():
            raise DataError("noise vector lies outside the noise set")
        if X.ndim != 2 or X.shape[1] != self.d1:
            raise UsageError(f"signal length {X.shape[-1]} != d1={self.d1}")
        if not self.within_bounds(X).all():
            warnings.warn("signal lies outside signal_bounds", stacklevel=2)
        return self.noise.compose(self.noiseless_batch(X), E)

    # -- feasibility ----------------------------------------------------------

    def feasible_batch(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Exact feasibility of each row of X against y: one measurement (d2,)
        shared by every row, or one per row of X, (n, d2)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        if X.shape[1] != self.d1:
            raise UsageError(f"signal length {X.shape[1]} != d1={self.d1}")
        if y.shape != (self.d2,) and y.shape != (X.shape[0], self.d2):
            raise UsageError(
                f"measurement shape {y.shape} is neither ({self.d2},) "
                f"nor ({X.shape[0]}, {self.d2})"
            )
        return self.noise.feasible(y, self.noiseless_batch(X))

    # -- signal bounds ---------------------------------------------------------

    @property
    def signal_bounds(self) -> np.ndarray:
        raise NotImplementedError

    def within_bounds(self, X: np.ndarray) -> np.ndarray:
        """True for each row of the (n, d1) array X that lies in the signal box."""
        b = self.signal_bounds
        return ((X >= b[:, 0]) & (X <= b[:, 1])).all(axis=1)

    def to_dict(self) -> dict:
        """The model's document: its variant, its noise and each field that
        ``model_from_dict`` reads for that variant (``_MODEL_FIELDS``), arrays
        as nested lists, so ``model_from_dict(m.to_dict())`` rebuilds m."""
        for variant, (model_cls, types) in _MODEL_FIELDS.items():
            if isinstance(self, model_cls):
                break
        else:
            raise UsageError(f"{type(self).__name__} is no model variant and has no document")
        doc = {"variant": variant, "noise": self.noise.to_dict()}
        for name in types:
            value = getattr(self, name)
            doc[name] = value.tolist() if isinstance(value, np.ndarray) else value
        return doc


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
        if not np.all(b[:, 0] <= b[:, 1]):  # NaN fails too
            raise UsageError("signal_bounds must satisfy lo <= hi, with no NaN")
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
        """A x for each row x of X, one einsum sum per entry. On a C-ordered
        X the sum runs in the same order for every row, so each row keeps the
        bits of its one-row call; a BLAS X @ Aᵀ does not, and einsum's order
        follows the strides of X, hence the copy of any other layout. A row
        past the float64 range is taken again as 2^s A (2^-s x), exactly,
        with no partial sum past 2^1022, so only a row whose exact A x leaves
        the range is non-finite; the finite rows keep their bits."""
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):  # such rows are redone below
            g = np.einsum("nj,ij->ni", X, self.matrix)
            if np.isfinite(g).all():
                return g
            lost = np.flatnonzero(~np.isfinite(g).all(axis=1))
            _, e_a = np.frexp(np.abs(self.matrix).sum(axis=1).max())
            _, e_x = np.frexp(np.abs(X[lost]).max(axis=1))
            s = (e_a + e_x - 1022)[:, None]
            g[lost] = np.ldexp(np.einsum("nj,ij->ni", np.ldexp(X[lost], -s), self.matrix), s)
        return g


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
        if not r_max > 0:  # NaN fails too
            raise UsageError(f"r_max must be positive, got {r_max!r}")
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
        X = np.ascontiguousarray(np.atleast_2d(X))  # einsum's order follows the strides
        imgs = X.reshape(X.shape[0], self.bands, self.height, self.width)
        t = np.einsum("oi,nbiw->nbow", self._dh, imgs)
        out = np.einsum("pw,nbow->nbop", self._dw, t)
        return out.reshape(X.shape[0], self.d2)

    def band_matrix(self) -> np.ndarray:
        """Explicit downsampling matrix of a single band (dense)."""
        return np.kron(self._dh, self._dw)


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
            if not v > 0:  # NaN fails too
                raise UsageError(f"{name} must be positive, got {v!r}")
        vol = np.asarray(volume, dtype=np.float64)
        if vol.shape != (3, 2) or not np.all(vol[:, 0] <= vol[:, 1]):
            raise UsageError("volume must be a (3, 2) array of [lo, hi] rows, with no NaN")
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

    @property
    def pixels(self) -> list:
        return [self.npx, self.npy]

    @property
    def volume(self) -> np.ndarray:
        return self._bounds[:3]

    def psf_sigma(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        return self.psf_sigma0 * np.sqrt(1.0 + (z / self.psf_z0) ** 2)

    def _axis_mass(self, edges: np.ndarray, pos: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        # Gaussian mass per pixel via erf differences; erf is odd bitwise, so a
        # centred emitter yields an exactly symmetric image. scipy is imported
        # here, its only use, so that the other models never load it.
        from scipy.special import erf

        a = (edges[None, :] - pos[:, None]) / (sigma[:, None] * _SQRT2)
        e = erf(a)
        return 0.5 * (e[:, 1:] - e[:, :-1])

    def noiseless_batch(self, T: np.ndarray) -> np.ndarray:
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


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _pixels(value) -> tuple:
    npx, npy = value
    return whole(npx), whole(npy)


# Per variant: the model class and the type of each required field of its
# document, which ``ForwardModel.to_dict`` writes from the model's attribute
# of the same name. The constructors check the values; "noise" is optional.
_MODEL_FIELDS = {
    "linear_additive": (LinearModel, {"matrix": _floats, "signal_bounds": _floats}),
    "downsample_additive": (DownsampleModel, {
        "bands": whole, "height": whole, "width": whole, "factor": whole, "r_max": float,
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
