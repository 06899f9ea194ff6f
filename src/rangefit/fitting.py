"""Least-squares plane fitting in four formulations, over two backends.

Formulations (``FORMULATIONS``):

* ``implicit-standard``: minimize sum((a*X + b*Y + c*Z + d)^2) over unit
  coefficient vectors: the smallest eigenvector of the 4x4 scatter of
  monomials [X, Y, Z, 1].
* ``implicit-rgbd``: the same plane equation divided through by Z, on
  monomials [tan_x, tan_y, 1, 1/Z], its eigenvector read directly as
  (a, b, c, d); the upper-left 3x3 block is a camera constant.
* ``explicit-standard``: minimize sum((a*X + b*Y + c - Z)^2).
* ``explicit-rgbd``: minimize sum((a*tan_x + b*tan_y + c - 1/Z)^2), whose
  camera-constant matrix has a Cholesky factor cached per window.

An explicit system is its space's scatter with the target, Z or 1/Z, moved
to the right-hand side (``integral.SCATTERS``), so a frame stack serves
both formulations of its space.

Backends: ``naive`` accumulates monomials directly over the window's samples;
``integral`` assembles every scatter entry from one sum each, and the two
agree to rounding.  This module only assembles and solves: a window's sums
are read by one function, ``integral.window_sums``, which owns the count,
camera-constant and hole rules, so a window's scatter is always the exact
Gram matrix of its valid samples.  A pinhole camera's tan sums are
products of its axes' prefix sums, which keep their digits to the far
corner of a frame, so the tan block of a window whose samples lie on one
row or one column stays singular to rounding, and its fit is flagged
degenerate as the naive oracle's is.

Implicit fits take the smallest eigenvector from LAPACK's symmetric solver
(``np.linalg.eigh``); explicit fits use a hand-unrolled 3x3 Cholesky
factorization, which ``ExplicitRgbdFitter`` caches per window; the
camera's own one serves every explicit-rgbd integral :func:`fit_rect`.  One
scalar explicit solve serves ``fit_explicit_*`` and the fitter alike, and an
explicit plane's implicit form is written in one place, which the
conversions and the near-centre tests all read.
:func:`fit_rect` fits one window from one read of its stack, its sums and
its one system's diagnostics as floats; :func:`fit_rects` fits many
windows of one frame at once, reading every sum with one batched read and
solving the whole batch with array operations in :func:`fit_sums`, which
also fits windows whose sums come from elsewhere.
A batch comes back as a :class:`FitBatch` of arrays, its canonical implicit
coefficients formed in one vectorised pass; a :class:`FitResult` is built
only for the rows a caller asks for.  A per-window solve or result object in
pure Python would cost more than the box sums the camera-constant channels
save.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .camera import TanAngleMaps
from .errors import DegenerateFitError, InsufficientSamplesError
from .integral import (
    COUNT_CHANNEL,
    EXPLICIT_RGBD,
    EXPLICIT_STANDARD,
    FORMULATION_CHANNELS,
    FORMULATIONS,
    IMPLICIT_RGBD,
    IMPLICIT_STANDARD,
    SPACE_RGBD,
    SPACE_STANDARD,
    TARGET,
    AxisSums,
    ChannelSet,
    ChannelStack,
    Rect,
    _check_rect,
    _check_rects,
    build_constant_channels,
    tan_sums,
    window_sums,
)
from .synth import DepthImage

# Below this count a scatter system is under-determined by construction.
MIN_SAMPLES = {f: spec.size for f, spec in FORMULATION_CHANNELS.items()}

# Sign threshold for choosing the canonical representative of a unit
# coefficient vector: components smaller than this are treated as zero so
# rounding noise cannot flip the sign.
_CANONICAL_EPS = 1e-9

# Eigenvalue-gap threshold (relative to the Frobenius norm) below which the
# smallest eigenvector is ambiguous and the fit is flagged degenerate.
_EIGEN_TIE_REL = 1e-9

_PIVOT_REL = 1e-12

# A plane nearer the camera centre than this fraction of its window's depth
# is flagged degenerate: it fits the samples of one image row or column (a
# 1-px window) exactly, and is no surface.  Rounding leaves such fits up to
# 1.5e-5 off (summed-area sums at 1920x1080); steep box faces in cluttered
# scenes sit 2e-3 away.
_CENTRE_REL = 1e-4

CSV_HEADER = "formulation,backend,x0,y0,x1,y1,a,b,c,d,lambda,rms,n_points,degenerate"


def canonicalize_implicit(coefficients: np.ndarray) -> np.ndarray:
    """Unit-normalize and fix the sign of implicit plane coefficients.

    The representative makes the first non-negligible component, checked in
    the order (c, b, a, d), positive; this gives every geometric plane a
    single deterministic coefficient vector so fits are comparable across
    formulations and backends.
    """
    coef = np.asarray(coefficients, dtype=np.float64)
    if coef.shape != (4,):
        raise ValueError(f"expected 4 coefficients, got shape {coef.shape}")
    # Scaled by a power of two, so the squares neither overflow nor underflow;
    # the unit vector is unchanged bit for bit.
    coef = np.ldexp(coef, -math.frexp(max(map(abs, coef.tolist())))[1])
    norm = math.sqrt(coef.dot(coef))  # np.linalg.norm of a vector, bit for bit
    if norm == 0 or not math.isfinite(norm):
        raise ValueError("cannot canonicalize a zero or non-finite coefficient vector")
    unit = coef / norm
    a, b, c, d = unit.tolist()
    for u in (c, b, a, d):
        if abs(u) > _CANONICAL_EPS:
            return unit if u > 0 else -unit
    return unit


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair of two (N, k) arrays.

    On contiguous rows ``matmul`` forms each one with the dot kernel that
    ``a[i] @ b[i]`` and ``np.linalg.norm`` use on one vector, so the rows
    round like them.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _first_sign(values: np.ndarray, order: tuple[int, ...], eps: float) -> np.ndarray:
    """Per row, -1.0 when the first entry in ``order`` of magnitude over ``eps`` is
    negative, else 1.0 (no such entry included)."""
    cols = values[:, order]
    big = np.abs(cols) > eps
    first = cols[np.arange(len(cols)), big.argmax(axis=1)]
    return np.where(big.any(axis=1) & (first < 0), -1.0, 1.0)


def canonicalize_implicit_rows(coefficients: np.ndarray) -> np.ndarray:
    """:func:`canonicalize_implicit` of every row of an (N, 4) array in one pass.

    Rows of zero or non-finite norm come back NaN instead of raising.
    """
    coef = np.asarray(coefficients, dtype=np.float64)
    if coef.ndim != 2 or coef.shape[1] != 4:
        raise ValueError(f"expected (N, 4) coefficients, got shape {coef.shape}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coef = np.ldexp(coef, -np.frexp(np.abs(coef).max(axis=1))[1][:, None])  # as above
        norm = np.sqrt(_row_dot(coef, coef))
        unit = coef / norm[:, None]
    unit[(norm == 0) | ~np.isfinite(norm)] = np.nan
    return unit * _first_sign(unit, (2, 1, 0, 3), _CANONICAL_EPS)[:, None]


@dataclass(frozen=True)
class ImplicitPlane:
    """Implicit plane a*X + b*Y + c*Z + d = 0, unit norm, canonical sign."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", canonicalize_implicit(self.coefficients))

    @property
    def normal(self) -> np.ndarray:
        return self.coefficients[:3]

    @property
    def offset(self) -> float:
        return float(self.coefficients[3])


@dataclass(frozen=True)
class ExplicitPlane:
    """Explicit plane coefficients with their interpretation space.

    ``standard`` space: Z = a*X + b*Y + c.  ``rgbd`` space:
    1/Z = a*tan_x + b*tan_y + c.
    """

    coefficients: np.ndarray
    space: str

    def __post_init__(self) -> None:
        coef = np.asarray(self.coefficients, dtype=np.float64)
        if coef.shape != (3,):
            raise ValueError(f"expected 3 coefficients, got shape {coef.shape}")
        if self.space not in TARGET:
            raise ValueError(f"unknown plane space {self.space!r}")
        object.__setattr__(self, "coefficients", coef)


@dataclass(frozen=True)
class Scatter4:
    """Symmetric 4x4 scatter matrix (sum of outer products) and sample count."""

    matrix: np.ndarray
    n: int


@dataclass(frozen=True)
class Scatter3:
    """3x3 normal-equation system: matrix, right-hand side, sample count.

    ``target_sq`` is the sum of squared regression targets; it is only needed
    to report an rms residual and may be absent when the backing channel
    stack was built without the residual diagnostic channel.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    n: int
    target_sq: float | None = None


@dataclass(frozen=True)
class FitResult:
    """A fitted plane plus the fit's quality diagnostics.

    ``rms_residual`` is the root-mean-square of the fitted objective's own
    residual (algebraic, formulation-specific); None when the inputs did not
    carry enough information to compute it.  ``eigenvalue`` is the smallest
    scatter eigenvalue for implicit fits.  ``degenerate`` marks ambiguous or
    rank-deficient systems and planes through the camera centre; the
    coefficients should then not be trusted.
    """

    plane: ImplicitPlane | ExplicitPlane
    n_points: int
    rms_residual: float | None
    eigenvalue: float | None = None
    degenerate: bool = False


@dataclass(frozen=True)
class FitBatch:
    """Fits of N windows as arrays, one row per window.

    ``coefficients`` holds each fit's native coefficients: (N, 4) implicit
    or (N, 3) explicit, read in ``space``.  ``rms`` is NaN where there is
    none, ``eigenvalue`` NaN for explicit fits; ``n_points`` and
    ``degenerate`` are as in :class:`FitResult`.  ``fitted`` is False for a
    window that held too few samples; its other entries are NaN, 0 or False.
    ``batch[i]`` builds row i's :class:`FitResult`, or None where it is not
    fitted; slices, ``len`` and iteration make the batch read like a list of
    them.
    """

    coefficients: np.ndarray
    rms: np.ndarray
    eigenvalue: np.ndarray
    n_points: np.ndarray
    degenerate: np.ndarray
    space: str

    @property
    def fitted(self) -> np.ndarray:
        return self.n_points > 0

    @cached_property
    def canonical(self) -> np.ndarray:
        """(N, 4) canonical implicit coefficients; NaN rows where not fitted."""
        if self.coefficients.shape[1] == 4:
            return canonicalize_implicit_rows(self.coefficients)
        return explicit_to_implicit_rows(self.coefficients, self.space)

    def __len__(self) -> int:
        return len(self.n_points)

    def __iter__(self) -> Iterator[FitResult | None]:
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i: int | slice) -> FitResult | None | list[FitResult | None]:
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        if not self.fitted[i]:
            return None
        rms = float(self.rms[i])
        if self.coefficients.shape[1] == 4:
            plane: ImplicitPlane | ExplicitPlane = ImplicitPlane(self.coefficients[i])
            eigenvalue: float | None = float(self.eigenvalue[i])
        else:
            plane, eigenvalue = ExplicitPlane(self.coefficients[i], self.space), None
        return FitResult(
            plane=plane,
            n_points=int(self.n_points[i]),
            rms_residual=None if math.isnan(rms) else rms,
            eigenvalue=eigenvalue,
            degenerate=bool(self.degenerate[i]),
        )

    def _arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _UNFITTED}

    def take(self, rows: np.ndarray) -> FitBatch:
        """The batch of the given rows, in their order."""
        return FitBatch(**{k: a[rows] for k, a in self._arrays().items()}, space=self.space)

    def expand(self, rows: np.ndarray, size: int) -> FitBatch:
        """A batch of ``size`` rows holding this one's at ``rows``, unfitted elsewhere."""
        out = _unfitted(size, self.coefficients.shape[1], self.space)
        for name, a in self._arrays().items():
            getattr(out, name)[rows] = a
        return out

    @staticmethod
    def concatenate(batches: list[FitBatch]) -> FitBatch:
        """One batch of the given batches' rows, in order; they share a space."""
        arrays = [b._arrays() for b in batches]
        return FitBatch(
            **{k: np.concatenate([a[k] for a in arrays]) for k in _UNFITTED},
            space=batches[0].space,
        )


# What each row array of a FitBatch holds where a window is not fitted.
_UNFITTED = {
    "coefficients": np.nan,
    "rms": np.nan,
    "eigenvalue": np.nan,
    "n_points": 0,
    "degenerate": False,
}


def _unfitted(size: int, width: int, space: str) -> FitBatch:
    """A batch of ``size`` unfitted rows of ``width`` coefficients."""
    shape = {"coefficients": (size, width)}
    return FitBatch(
        **{k: np.full(shape.get(k, size), fill) for k, fill in _UNFITTED.items()}, space=space
    )


class CholeskyFactor(NamedTuple):
    """Lower-triangular factor of a 3x3 SPD matrix, unpacked for fast solves."""

    l00: float
    l10: float
    l11: float
    l20: float
    l21: float
    l22: float


# ---------------------------------------------------------------------------
# Dense kernels
# ---------------------------------------------------------------------------


def _checked(matrices: np.ndarray) -> np.ndarray:
    """A caller's (..., n, n) stack as float64, checked square, finite and symmetric.

    Raises ``ValueError`` otherwise: ``np.linalg.eigh`` would read an
    asymmetric matrix silently from its lower triangle.  Only matrices a
    caller hands in are checked; the scatters this module assembles
    (``_SYMMETRIC_INDEX``, ``_symmetrize``) are symmetric by construction.
    """
    a = np.asarray(matrices, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    scale = float(np.abs(a).max())  # NaN or inf when any entry is
    if not math.isfinite(scale):
        raise ValueError("matrix holds non-finite entries")
    if np.abs(a - np.swapaxes(a, -1, -2)).max() > 1e-12 * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    return a


def smallest_eigenvector(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit eigenvector for the smallest eigenvalue of a symmetric matrix.

    Raises ``ValueError`` when the matrix is not square, finite and symmetric.
    """
    values, vectors = np.linalg.eigh(_checked(matrix))
    if values.ndim != 1:
        raise ValueError(f"expected one square matrix, got shape {np.shape(matrix)}")
    vector = vectors[:, 0]
    return vector / float(np.linalg.norm(vector)), float(values[0])


def cholesky3(matrix: np.ndarray) -> CholeskyFactor:
    """Cholesky factor of a symmetric positive-definite 3x3 matrix.

    Raises :class:`DegenerateFitError` when a pivot falls below 1e-12 of the
    trace, which signals collinear or otherwise rank-deficient samples.
    """
    s = np.asarray(matrix, dtype=np.float64)
    if s.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {s.shape}")
    trace = float(s[0, 0] + s[1, 1] + s[2, 2])
    floor = _PIVOT_REL * trace
    if not np.isfinite(trace) or trace <= 0.0:
        raise DegenerateFitError("scatter matrix has non-positive trace")

    p0 = float(s[0, 0])
    if p0 <= floor:
        raise DegenerateFitError("rank-deficient scatter matrix (pivot 1)")
    l00 = math.sqrt(p0)
    l10 = float(s[1, 0]) / l00
    l20 = float(s[2, 0]) / l00
    p1 = float(s[1, 1]) - l10 * l10
    if p1 <= floor:
        raise DegenerateFitError("rank-deficient scatter matrix (pivot 2)")
    l11 = math.sqrt(p1)
    l21 = (float(s[2, 1]) - l20 * l10) / l11
    p2 = float(s[2, 2]) - l20 * l20 - l21 * l21
    if p2 <= floor:
        raise DegenerateFitError("rank-deficient scatter matrix (pivot 3)")
    l22 = math.sqrt(p2)
    return CholeskyFactor(l00, l10, l11, l20, l21, l22)


def _cholesky3_batch(s: np.ndarray) -> tuple[CholeskyFactor, np.ndarray]:
    """``cholesky3`` over an (N, 3, 3) stack, with the same operations per entry.

    Returns the factor as a ``CholeskyFactor`` of (N,) arrays and a mask of
    the rows ``cholesky3`` would accept; the other rows hold garbage.
    """
    trace = s[:, 0, 0] + s[:, 1, 1] + s[:, 2, 2]
    floor = _PIVOT_REL * trace
    with np.errstate(invalid="ignore", divide="ignore"):
        p0 = s[:, 0, 0]
        l00 = np.sqrt(p0)
        l10 = s[:, 1, 0] / l00
        l20 = s[:, 2, 0] / l00
        p1 = s[:, 1, 1] - l10 * l10
        l11 = np.sqrt(p1)
        l21 = (s[:, 2, 1] - l20 * l10) / l11
        p2 = s[:, 2, 2] - l20 * l20 - l21 * l21
        l22 = np.sqrt(p2)
        ok = np.isfinite(trace) & (trace > 0.0) & (p0 > floor) & (p1 > floor) & (p2 > floor)
    return CholeskyFactor(l00, l10, l11, l20, l21, l22), ok


def _cholesky_substitute(factor: CholeskyFactor, b0, b1, b2):
    """Forward and back substitution; works on floats and on arrays alike."""
    y0 = b0 / factor.l00
    y1 = (b1 - factor.l10 * y0) / factor.l11
    y2 = (b2 - factor.l20 * y0 - factor.l21 * y1) / factor.l22
    x2 = y2 / factor.l22
    x1 = (y1 - factor.l21 * x2) / factor.l11
    x0 = (y0 - factor.l10 * x1 - factor.l20 * x2) / factor.l00
    return x0, x1, x2


def solve_cholesky3(factor: CholeskyFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T x = rhs by forward and back substitution."""
    return np.array(_cholesky_substitute(factor, float(rhs[0]), float(rhs[1]), float(rhs[2])))


def solve_spd3(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a 3x3 symmetric positive-definite system via Cholesky."""
    return solve_cholesky3(cholesky3(matrix), rhs)


def _pinv_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution for a rank-deficient symmetric system."""
    values, vectors = np.linalg.eigh(matrix)
    tol = _PIVOT_REL * max(float(np.trace(matrix)), 0.0)
    kept = values > tol
    u = vectors[:, kept]
    return u @ ((u.T @ rhs) / values[kept])


# ---------------------------------------------------------------------------
# Scatter accumulation
# ---------------------------------------------------------------------------


def _check_formulation(formulation: str) -> None:
    if formulation not in FORMULATIONS:
        raise ValueError(f"unknown formulation {formulation!r}; expected one of {FORMULATIONS}")


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    return (matrix + matrix.T) * 0.5


def accumulate_scatter_naive(
    samples: np.ndarray, formulation: str
) -> Scatter4 | Scatter3:
    """Accumulate a scatter system directly from per-sample monomials.

    ``samples`` is (N, 3): rows of (X, Y, Z) for the standard formulations,
    (tan_x, tan_y, Z) for the rgbd formulations (Z strictly positive; the
    single per-sample division by Z happens here).
    """
    _check_formulation(formulation)
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != 3:
        raise ValueError(f"samples must be (N, 3), got shape {samples.shape}")
    n = samples.shape[0]
    if n < MIN_SAMPLES[formulation]:
        raise InsufficientSamplesError(
            f"{formulation} needs at least {MIN_SAMPLES[formulation]} samples, got {n}"
        )
    m, target = _monomial_rows(samples, formulation)
    if target is None:
        return Scatter4(matrix=_symmetrize(m.T @ m), n=n)
    return Scatter3(
        matrix=_symmetrize(m.T @ m),
        rhs=m.T @ target,
        n=n,
        target_sq=float(target @ target),
    )


def _monomial_rows(samples: np.ndarray, formulation: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Each sample's monomial row and, for explicit formulations, its regression target.

    ``samples`` are :func:`gather_window_samples` rows.  A fit's residual is
    ``rows @ coefficients``, less ``target`` for an explicit fit.
    """
    u, v, z = samples[:, 0], samples[:, 1], samples[:, 2]
    if formulation in (IMPLICIT_RGBD, EXPLICIT_RGBD):
        if np.any(z <= 0):
            raise ValueError("rgbd formulations require strictly positive depths")
        inv_z = 1.0 / z
    ones = np.ones(len(samples))
    if formulation == IMPLICIT_STANDARD:
        return np.column_stack((u, v, z, ones)), None
    if formulation == IMPLICIT_RGBD:
        return np.column_stack((u, v, ones, inv_z)), None
    return np.column_stack((u, v, ones)), z if formulation == EXPLICIT_STANDARD else inv_z


def gather_window_samples(
    depth: DepthImage, maps: TanAngleMaps, rect: Rect, formulation: str
) -> np.ndarray:
    """Collect the valid samples of a window for the naive backend.

    Standard formulations get back-projected (X, Y, Z) rows (two multiplies
    per sample); rgbd formulations get (tan_x, tan_y, Z) rows straight from
    the precomputed maps.
    """
    _check_formulation(formulation)
    _check_rect(rect, depth.width, depth.height)
    sl = (slice(rect.y0, rect.y1), slice(rect.x0, rect.x1))
    valid = depth.valid[sl]
    z = depth.values[sl][valid]
    tx = maps.tan_x[sl][valid]
    ty = maps.tan_y[sl][valid]
    if FORMULATION_CHANNELS[formulation].space == SPACE_STANDARD:
        return np.column_stack((z * tx, z * ty, z))
    return np.column_stack((tx, ty, z))


def _symmetric_index(size: int) -> np.ndarray:
    index = np.empty((size, size), dtype=np.intp)
    for k, (i, j) in enumerate(zip(*np.triu_indices(size))):
        index[i, j] = index[j, i] = k
    return index


# Maps an upper-triangle entry list onto the symmetric matrix of each system size.
_SYMMETRIC_INDEX = {s.size: _symmetric_index(s.size) for s in FORMULATION_CHANNELS.values()}


def _scatter_matrix(sums: dict[str, float | np.ndarray], spec: ChannelSet) -> np.ndarray:
    """The symmetric matrix of ``spec``'s layout entries, batched like ``sums``."""
    return np.array([sums[k] for k in spec.layout]).T[..., _SYMMETRIC_INDEX[spec.size]]


def _system(
    sums: dict[str, float | np.ndarray], spec: ChannelSet
) -> tuple[np.ndarray, np.ndarray | None, float | np.ndarray | None]:
    """``spec``'s (matrix, rhs, target_sq), batched like ``sums``.

    ``rhs`` is None for implicit formulations, ``target_sq`` when ``sums``
    lacks the residual channel.
    """
    matrix = _scatter_matrix(sums, spec)
    if not spec.rhs:
        return matrix, None, None
    return matrix, np.array([sums[k] for k in spec.rhs]).T, sums.get(spec.residual)


def scatter_from_integrals(stack: ChannelStack, rect: Rect, formulation: str) -> Scatter4 | Scatter3:
    """Assemble a window's scatter system from one sum per unique entry.

    The sums are read by :func:`~rangefit.integral.window_sums`: ``stack``
    holds the frame's depth-dependent channels, the rgbd formulations' tan
    sums are its maps' camera constant's less the window's holes', and the
    sample count is the window's valid-pixel count.
    """
    _check_formulation(formulation)
    _check_rect(rect, stack.width, stack.height)
    spec = FORMULATION_CHANNELS[formulation]
    sums = window_sums(stack, rect, spec.entries)
    n = int(sums[COUNT_CHANNEL])
    if n < MIN_SAMPLES[formulation]:
        raise InsufficientSamplesError(
            f"window {rect} holds {n} valid samples; "
            f"{formulation} needs {MIN_SAMPLES[formulation]}"
        )
    matrix, rhs, target_sq = _system(sums, spec)
    if rhs is None:
        return Scatter4(matrix=matrix, n=n)
    return Scatter3(matrix=matrix, rhs=rhs, n=n, target_sq=target_sq)


# ---------------------------------------------------------------------------
# Fits
# ---------------------------------------------------------------------------


def _require_n(n: int, matrix: np.ndarray) -> None:
    if n < len(matrix):
        raise InsufficientSamplesError(f"fit needs at least {len(matrix)} samples, got {n}")


def _near_centre(offset, normal, mean, space: str):
    """Whether planes ``normal . P + offset = 0`` lie within ``_CENTRE_REL`` of
    their windows' depth of the camera centre.

    ``mean`` is the mean depth in standard space and the mean inverse depth
    in rgbd space.  Works on floats and on arrays alike.
    """
    if space == SPACE_RGBD:
        return abs(offset) * mean <= _CENTRE_REL * normal
    return abs(offset) <= _CENTRE_REL * mean * normal


def _implicit_degenerate(lam, second, fro, offset, normal, mean, space: str):
    """Whether implicit fits are degenerate: a zero scatter (Frobenius norm
    ``fro``), a smallest eigenvalue ``lam`` tied with the next, ``second``, so
    that its eigenvector is ambiguous, or a plane through the camera centre
    (see :func:`_near_centre`).  Works on floats and on arrays alike."""
    return (
        (fro == 0.0)
        | (second - lam <= _EIGEN_TIE_REL * fro)
        | _near_centre(offset, normal, mean, space)
    )


def _implicit_fits(
    matrices: np.ndarray, counts: np.ndarray, space: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Implicit fits of an (N, 4, 4) scatter stack with N sample counts.

    Returns the (N, 4) eigenvectors and the (N,) rms, smallest eigenvalues
    and degenerate flags.
    """
    values, vectors = np.linalg.eigh(matrices)
    lam = values[:, 0]
    fro = np.linalg.norm(values, axis=1)  # Frobenius norm of a symmetric matrix
    v = vectors[:, :, 0]
    # scatter entry (2, 3) sums the depths (standard) or inverse depths (rgbd)
    mean = matrices[:, 2, 3] / counts
    normal = np.linalg.norm(v[:, :3], axis=1)
    degenerate = _implicit_degenerate(lam, values[:, 1], fro, v[:, 3], normal, mean, space)
    rms = np.sqrt(np.maximum(lam, 0.0) / counts)
    return v, rms, lam, degenerate


def _fit_implicit(scatter: Scatter4, space: str) -> FitResult:
    # one system solved on its own, its diagnostics on floats: the batch
    # set-up of _implicit_fits costs more than the solve here
    n = scatter.n
    _require_n(n, scatter.matrix)
    values, vectors = np.linalg.eigh(scatter.matrix)
    lam, second, *rest = values.tolist()
    v = vectors[:, 0]
    a, b, c, d = v.tolist()
    mean = float(scatter.matrix[2, 3]) / n  # as in _implicit_fits
    degenerate = _implicit_degenerate(
        lam, second, math.hypot(lam, second, *rest), d, math.hypot(a, b, c), mean, space
    )
    return FitResult(
        plane=ImplicitPlane(v),
        n_points=n,
        rms_residual=math.sqrt(max(lam, 0.0) / n),
        eigenvalue=lam,
        degenerate=degenerate,
    )


def _checked_scatter(scatter: Scatter4 | Scatter3) -> Scatter4 | Scatter3:
    """A caller's ``scatter``, once :func:`_checked` accepts its matrix."""
    _checked(scatter.matrix)
    return scatter


def fit_implicit_standard(scatter: Scatter4) -> FitResult:
    """Implicit fit on [X, Y, Z, 1] monomials: smallest scatter eigenvector.

    The rms residual is the algebraic residual sqrt(lambda / N) under the
    unit-coefficient constraint.
    """
    return _fit_implicit(_checked_scatter(scatter), SPACE_STANDARD)


def fit_implicit_rgbd(scatter: Scatter4) -> FitResult:
    """Implicit fit on [tan_x, tan_y, 1, 1/Z] monomials.

    The eigenvector is already the implicit plane (a, b, c, d): multiplying
    a*tan_x + b*tan_y + c + d/Z = 0 through by Z recovers
    a*X + b*Y + c*Z + d = 0.  The rms residual lives in the inverse-depth
    algebraic metric, not in meters.
    """
    return _fit_implicit(_checked_scatter(scatter), SPACE_RGBD)


def _factor_or_none(matrix: np.ndarray) -> CholeskyFactor | None:
    """:func:`cholesky3` of ``matrix``, or None when it is singular."""
    try:
        return cholesky3(matrix)
    except DegenerateFitError:
        return None


def _explicit_fit(matrix, factor, rhs, n: int, target_sq, space: str) -> FitResult:
    """The explicit fit of ``matrix @ alpha = rhs`` over ``n`` samples, a
    :class:`Scatter3`'s system, ``target_sq`` as there.

    ``factor`` is ``matrix``'s Cholesky factor, or None when it is singular:
    the fit then takes the minimum-norm solution and is flagged degenerate.
    """
    _require_n(n, matrix)
    alpha = _pinv_solve(matrix, rhs) if factor is None else solve_cholesky3(factor, rhs)
    rms = None
    if target_sq is not None:
        # At the least-squares solution the residual reduces to
        # sum(b^2) - alpha . (M^t b).  Differencing aggregated sums puts a
        # noise floor of about sqrt(eps * mean(b^2)) under the rms; clamp the
        # tiny negatives the same rounding can produce.
        sq = max(float(target_sq) - float(alpha.dot(rhs)), 0.0)  # rounds as alpha @ rhs
        rms = math.sqrt(sq / n)
    # rhs[2] sums the depths (standard) or inverse depths (rgbd)
    *normal, offset = _implicit_form(*alpha.tolist(), space)
    degenerate = factor is None or _near_centre(
        offset, math.hypot(*normal), float(rhs[2]) / n, space
    )
    plane = ExplicitPlane(coefficients=alpha, space=space)
    return FitResult(plane=plane, n_points=n, rms_residual=rms, degenerate=bool(degenerate))


def _fit_explicit(scatter: Scatter3, space: str) -> FitResult:
    s = scatter
    return _explicit_fit(s.matrix, _factor_or_none(s.matrix), s.rhs, s.n, s.target_sq, space)


def fit_explicit_standard(scatter: Scatter3) -> FitResult:
    """Explicit fit Z = a*X + b*Y + c via the normal equations.

    Planes near-parallel to the optical axis have no finite slope in this
    form; their scatter goes rank deficient and the result comes back with
    the degenerate flag set and minimum-norm coefficients.
    """
    return _fit_explicit(_checked_scatter(scatter), SPACE_STANDARD)


def fit_explicit_rgbd(scatter: Scatter3) -> FitResult:
    """Explicit fit 1/Z = a*tan_x + b*tan_y + c via the normal equations.

    Planes through the camera origin have no finite representation here (the
    regression targets 1/Z become unconstrained by the tan monomials); such
    windows yield a degenerate-flagged result.  An integral
    :func:`fit_rect` reuses the window's cached factor instead.
    """
    return _fit_explicit(_checked_scatter(scatter), SPACE_RGBD)


# The fit of each formulation's scatter as fit_rect or the fitter builds it:
# symmetric by construction, so unchecked, where ``fit_*`` check a caller's.
# (Lambdas, not keyword partials: those leave a kwargs dict per call in
# CPython's free list, which tracemalloc counts.)
FIT_BY_FORMULATION: dict[str, Callable[..., FitResult]] = {
    IMPLICIT_STANDARD: lambda scatter: _fit_implicit(scatter, SPACE_STANDARD),
    IMPLICIT_RGBD: lambda scatter: _fit_implicit(scatter, SPACE_RGBD),
    EXPLICIT_STANDARD: lambda scatter: _fit_explicit(scatter, SPACE_STANDARD),
    EXPLICIT_RGBD: lambda scatter: _fit_explicit(scatter, SPACE_RGBD),
}


class _Window(NamedTuple):
    """A window's camera-constant matrix and its factor (None: singular)."""

    matrix: np.ndarray
    factor: CholeskyFactor | None


class ExplicitRgbdFitter:
    """Explicit inverse-depth fits with per-window factor caching.

    The normal-equation matrix depends only on the camera constants and the
    window, so one record per window (:class:`_Window`) holds its matrix
    (from ``integral.tan_sums``) and Cholesky factor, computed once and
    reused for every frame; each fit then costs one read of the window's
    per-frame sums (``integral.window_sums``) and two triangular solves.
    ``constant`` is :func:`~rangefit.integral.build_constant_channels`'s,
    and the fitter fits only stacks of that camera.  A camera's own fitter
    (:func:`camera_fitter`) holds one record per distinct window it has
    fitted for as long as its maps live.
    """

    _spec = FORMULATION_CHANNELS[EXPLICIT_RGBD]

    def __init__(self, constant: AxisSums | ChannelStack):
        self.constant = constant
        self._windows: dict[Rect, _Window] = {}

    def _window(self, rect: Rect) -> _Window:
        """The window's record, built on first use, once its rect is checked."""
        window = self._windows.get(rect)
        if window is None:
            _check_rect(rect, self.constant.width, self.constant.height)
            sums = tan_sums(self.constant, rect)
            sums[COUNT_CHANNEL] = rect.area
            matrix = _scatter_matrix(sums, self._spec)
            window = self._windows[rect] = _Window(matrix, _factor_or_none(matrix))
        return window

    def matrix_for(self, rect: Rect) -> np.ndarray:
        """The window's camera-constant normal-equation matrix, cached."""
        return self._window(rect).matrix

    def factor_for(self, rect: Rect) -> CholeskyFactor | None:
        """The cached factor, or None when the window's system is singular."""
        return self._window(rect).factor

    def fit(self, stack: ChannelStack, rect: Rect) -> FitResult:
        """Fit one window of one frame.

        Hole-free windows reuse the window's cached camera-constant factor;
        windows containing invalid pixels go through
        :func:`scatter_from_integrals`, which reads the stack's camera
        constant less their holes' sums (they are frame-specific, so there
        is nothing to cache).  A stack of another camera raises
        ``ValueError``: its windows are fitted by that camera's fitter.
        """
        if build_constant_channels(stack.maps) is not self.constant:
            raise ValueError(
                "the per-frame stack is of another camera than this fitter's constant; "
                "fit it with fitting.camera_fitter(stack.maps)"
            )
        window = self._window(rect)
        sums = window_sums(stack, rect, self._spec.scatter)
        n = int(sums[COUNT_CHANNEL])
        if n != rect.area or n < self._spec.size:
            scatter = scatter_from_integrals(stack, rect, formulation=EXPLICIT_RGBD)
            return FIT_BY_FORMULATION[EXPLICIT_RGBD](scatter)
        rhs = np.array([sums[name] for name in self._spec.rhs])
        target_sq = sums.get(self._spec.residual)
        return _explicit_fit(window.matrix, window.factor, rhs, n, target_sq, self._spec.space)


def camera_fitter(maps: TanAngleMaps) -> ExplicitRgbdFitter:
    """The camera's :class:`ExplicitRgbdFitter`, made on first use and kept
    with ``maps`` (``TanAngleMaps.derive``), freed with them."""
    return maps.derive(EXPLICIT_RGBD, lambda m: ExplicitRgbdFitter(build_constant_channels(m)))


def _implicit_form(a, b, c, space: str) -> tuple:
    """The implicit coefficients of the explicit plane (a, b, c) of ``space``
    (see :func:`explicit_to_implicit`): -1 at the target's place in the
    scatter's variables, on floats and on arrays alike, a float either way."""
    coef, t = (a, b, c), TARGET[space]
    return coef[:t] + (-1.0,) + coef[t:]


def explicit_to_implicit(plane: ExplicitPlane) -> ImplicitPlane:
    """Rewrite an explicit fit as a canonical implicit plane.

    Standard space: Z = a*X + b*Y + c becomes (a, b, -1, c).  Rgbd space:
    multiplying 1/Z = a*tan_x + b*tan_y + c through by Z gives
    a*X + b*Y + c*Z - 1 = 0, i.e. (a, b, c, -1).
    """
    return ImplicitPlane(np.array(_implicit_form(*plane.coefficients.tolist(), plane.space)))


def explicit_to_implicit_rows(coefficients: np.ndarray, space: str) -> np.ndarray:
    """:func:`explicit_to_implicit` of every row of an (N, 3) array, as (N, 4)
    canonical coefficients (see :func:`canonicalize_implicit_rows`)."""
    coef = np.asarray(coefficients, dtype=np.float64)
    if coef.ndim != 2 or coef.shape[1] != 3:
        raise ValueError(f"expected (N, 3) coefficients, got shape {coef.shape}")
    if space not in TARGET:
        raise ValueError(f"unknown plane space {space!r}")
    implicit = np.broadcast_arrays(*_implicit_form(*coef.T, space))
    return canonicalize_implicit_rows(np.stack(implicit, axis=1))


def normal_angle(p: ImplicitPlane, q: ImplicitPlane) -> float:
    """Angle in radians between two planes' normals (orientation-blind).

    Uses atan2 of the cross/dot pair, which stays accurate for tiny angles
    where arccos of the dot product loses half the significant digits.
    """
    np_, nq = p.normal, q.normal
    denom = float(np.linalg.norm(np_) * np.linalg.norm(nq))
    if denom == 0:
        raise ValueError("degenerate normal")
    cross = float(np.linalg.norm(np.cross(np_, nq)))
    dot = abs(float(np_ @ nq))
    return math.atan2(cross, dot)


def fit_rect(
    depth: DepthImage,
    maps: TanAngleMaps,
    rect: Rect,
    formulation: str,
    backend: str,
    stack: ChannelStack | None = None,
    constant: AxisSums | ChannelStack | None = None,
    rgbd_fitter: ExplicitRgbdFitter | None = None,
) -> FitResult:
    """Fit one window with the chosen formulation and backend.

    ``naive`` gathers the window's samples and accumulates monomials
    directly; ``integral`` assembles the scatter from the prebuilt channel
    stack (``stack`` required; see :func:`scatter_from_integrals`), an
    explicit-rgbd one through the camera's cached factor
    (:func:`camera_fitter`, one record per distinct window for as long as
    the maps live).  ``constant`` and ``rgbd_fitter`` are accepted and not
    read: the result is the same with or without them.  framebench is their
    only caller, and they are deleted once it stops passing them.
    """
    if backend == "naive":
        samples = gather_window_samples(depth, maps, rect, formulation)
        scatter = accumulate_scatter_naive(samples, formulation)
    elif backend == "integral":
        if stack is None:
            raise ValueError("integral backend requires a per-frame channel stack")
        if formulation == EXPLICIT_RGBD:
            return camera_fitter(stack.maps).fit(stack, rect)
        scatter = scatter_from_integrals(stack, rect, formulation=formulation)
    else:
        raise ValueError(f"unknown backend {backend!r}; expected 'naive' or 'integral'")
    return FIT_BY_FORMULATION[formulation](scatter)


def fit_rects(stack: ChannelStack, rects: np.ndarray, formulation: str) -> FitBatch:
    """Fit many windows of one frame on the integral backend at once.

    ``rects`` is an (N, 4) integer array of (x0, y0, x1, y1) rows.  Returns
    one row per rect; ``batch[i]`` equals what :func:`fit_rect` gives for
    that window up to rounding in the eigensolver, or is None (``fitted``
    False) where the window holds too few valid samples.  Raises
    ``ValueError`` for an out-of-bounds or inverted rect, and under the same
    conditions as :func:`scatter_from_integrals`.
    """
    _check_formulation(formulation)
    rects = _check_rects(rects, stack.width, stack.height)
    sums = window_sums(stack, rects, FORMULATION_CHANNELS[formulation].entries)
    fitted = np.flatnonzero(sums[COUNT_CHANNEL] >= MIN_SAMPLES[formulation])
    sums = {name: s[fitted] for name, s in sums.items()}
    return fit_sums(sums, formulation).expand(fitted, len(rects))


def fit_sums(sums: dict[str, np.ndarray], formulation: str) -> FitBatch:
    """Fit many windows at once from their channel sums, with one batched solve.

    ``sums`` maps every entry of the formulation's system
    (``FORMULATION_CHANNELS``), ``"n"`` being the sample count, to an (N,)
    array; the residual channel is optional.  Every window must hold at
    least ``MIN_SAMPLES`` samples.  Implicit systems go to one batched
    ``eigh``; explicit ones to one batched Cholesky solve, with the
    minimum-norm solution for the windows it rejects, flagged degenerate.
    """
    _check_formulation(formulation)
    spec = FORMULATION_CHANNELS[formulation]
    n = np.asarray(sums["n"], dtype=np.float64)
    if len(n) == 0:
        return _unfitted(0, spec.size, spec.space)
    matrices, rhs, target_sq = _system(sums, spec)
    if rhs is None:
        v, rms, lam, degenerate = _implicit_fits(matrices, n, spec.space)
        return FitBatch(v, rms, lam, n.astype(np.int64), degenerate, spec.space)
    factor, solvable = _cholesky3_batch(matrices)
    with np.errstate(invalid="ignore", divide="ignore"):
        alpha = np.stack(_cholesky_substitute(factor, rhs[:, 0], rhs[:, 1], rhs[:, 2]), axis=1)
    for i in np.flatnonzero(~solvable):
        alpha[i] = _pinv_solve(matrices[i], rhs[i])
    # as in _explicit_fit, row by row
    rms = np.full(len(n), np.nan)
    if target_sq is not None:
        rms = np.sqrt(np.maximum(target_sq - _row_dot(alpha, rhs), 0.0) / n)
    nx, ny, nz, offset = _implicit_form(*alpha.T, spec.space)
    normal = np.hypot(np.hypot(nx, ny), nz)
    degenerate = ~solvable | _near_centre(offset, normal, rhs[:, 2] / n, spec.space)
    eigenvalue = np.full(len(n), np.nan)
    return FitBatch(alpha, rms, eigenvalue, n.astype(np.int64), degenerate, spec.space)


def fit_result_csv_row(
    result: FitResult, formulation: str, backend: str, rect: Rect
) -> str:
    """One CSV row per fit; explicit fits are reported in implicit form, and
    the last column says whether the fit is degenerate (``True``/``False``)."""
    if isinstance(result.plane, ExplicitPlane):
        coef = explicit_to_implicit(result.plane).coefficients
    else:
        coef = result.plane.coefficients
    lam = "" if result.eigenvalue is None else repr(result.eigenvalue)
    rms = "" if result.rms_residual is None else repr(result.rms_residual)
    fields = [
        formulation,
        backend,
        str(rect.x0),
        str(rect.y0),
        str(rect.x1),
        str(rect.y1),
        repr(float(coef[0])),
        repr(float(coef[1])),
        repr(float(coef[2])),
        repr(float(coef[3])),
        lam,
        rms,
        str(result.n_points),
        str(result.degenerate),
    ]
    return ",".join(fields)
