"""Least-squares plane fitting in four formulations, over two backends.

Formulations (``FORMULATIONS``):

* ``implicit-standard``: minimize sum((a*X + b*Y + c*Z + d)^2) subject to the
  coefficient vector having unit norm; solved by the smallest eigenvector of
  the 4x4 scatter matrix of monomials [X, Y, Z, 1].
* ``implicit-rgbd``: the same plane equation divided through by Z, giving
  monomials [tan_x, tan_y, 1, 1/Z].  The eigenvector is read directly as
  (a, b, c, d); only the scatter entries involving 1/Z depend on the frame,
  the upper-left 3x3 block is a camera constant.
* ``explicit-standard``: minimize sum((a*X + b*Y + c - Z)^2), normal
  equations on monomials [X, Y, 1].
* ``explicit-rgbd``: minimize sum((a*tan_x + b*tan_y + c - 1/Z)^2).  The
  whole normal-equation matrix is camera-constant, so its Cholesky factor can
  be cached per window and reused across frames; only the right-hand side
  needs fresh sums.

Backends: ``naive`` accumulates monomials directly over the window's samples;
``integral`` assembles every scatter entry from one box sum each, and the two
agree to rounding.  Invalid pixels contribute nothing anywhere: the rgbd
formulations read their camera-constant block from the shared precomputed
stack on hole-free frames, while the stack of a frame with holes carries
masked copies of those tan tables under the same names (the builders add
them) and every window reads those, so a window's scatter is always the
exact Gram matrix of its valid samples.

Implicit fits take the smallest eigenvector from LAPACK's symmetric solver
(``np.linalg.eigh``); explicit fits use a hand-unrolled 3x3 Cholesky
factorization, which ``ExplicitRgbdFitter`` caches per window.
:func:`fit_rect` fits one window with scalar box sums; :func:`fit_rects`
fits many windows of one frame at once, gathering every box sum with one
indexed read per channel and solving the whole batch with array operations.
A per-window solve in pure Python would cost more than the box sums the
camera-constant channels save.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .camera import TanAngleMaps
from .errors import DegenerateFitError, InsufficientSamplesError
from .integral import (
    CONSTANT_CHANNELS,
    COUNT_CHANNEL,
    EXPLICIT_RGBD,
    EXPLICIT_STANDARD,
    FORMULATION_CHANNELS,
    FORMULATIONS,
    IMPLICIT_RGBD,
    IMPLICIT_STANDARD,
    ChannelSet,
    ChannelStack,
    Rect,
    _box,
    _box_corners,
    _box_sums,
    _check_rect,
    _check_rects,
)
from .synth import DepthImage

SPACE_STANDARD = "standard"
SPACE_RGBD = "rgbd"

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

CSV_HEADER = "formulation,backend,x0,y0,x1,y1,a,b,c,d,lambda,rms,n_points"


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
    norm = float(np.linalg.norm(coef))
    if norm == 0 or not np.isfinite(norm):
        raise ValueError("cannot canonicalize a zero or non-finite coefficient vector")
    unit = coef / norm
    for idx in (2, 1, 0, 3):
        if abs(unit[idx]) > _CANONICAL_EPS:
            return unit if unit[idx] > 0 else -unit
    return unit


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
        if self.space not in (SPACE_STANDARD, SPACE_RGBD):
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
    rank-deficient systems; the coefficients are then a minimum-norm choice
    and should not be trusted.
    """

    plane: ImplicitPlane | ExplicitPlane
    n_points: int
    rms_residual: float | None
    eigenvalue: float | None = None
    degenerate: bool = False


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


def _eigh(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` over a (..., n, n) stack after checking its input.

    Eigenvalues come back ascending, eigenvectors in columns.  Raises
    ``ValueError`` on non-finite or asymmetric input, which LAPACK would
    otherwise read silently from the lower triangle.
    """
    a = np.asarray(matrices, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    scale = float(np.abs(a).max())  # NaN or inf when any entry is
    if not math.isfinite(scale):
        raise ValueError("matrix holds non-finite entries")
    if np.abs(a - np.swapaxes(a, -1, -2)).max() > 1e-12 * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigh(a)


def smallest_eigenvector(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit eigenvector for the smallest eigenvalue of a symmetric matrix.

    Raises ``ValueError`` when the matrix is not square, finite and symmetric.
    """
    values, vectors = _eigh(matrix)
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
    values, vectors = _eigh(matrix)
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
    if formulation in (IMPLICIT_STANDARD, EXPLICIT_STANDARD):
        return np.column_stack((z * tx, z * ty, z))
    return np.column_stack((tx, ty, z))


def _require_channels(stack: ChannelStack, names: tuple[str, ...], what: str) -> None:
    missing = [name for name in names if name not in stack.channels]
    if missing:
        raise ValueError(f"{what} stack is missing channels: {', '.join(missing)}")


def _symmetric_index(size: int) -> np.ndarray:
    index = np.empty((size, size), dtype=np.intp)
    for k, (i, j) in enumerate(zip(*np.triu_indices(size))):
        index[i, j] = index[j, i] = k
    return index


# Maps an upper-triangle entry list onto the symmetric matrix of each system size.
_SYMMETRIC_INDEX = {s.size: _symmetric_index(s.size) for s in FORMULATION_CHANNELS.values()}


def _gather(stack: ChannelStack, corners: np.ndarray) -> dict[str, float | np.ndarray]:
    """Every channel's box sums from one indexed read of the stack's tensor.

    ``corners`` holds flat table indices from ``_box_corners``: (4, N) for a
    batch, giving (N,) sums per channel, or (4,) for one window.  The sums
    are formed in the same order of operations as ``_box_sums``.
    """
    t = stack.tensor.reshape(len(stack.index), -1).take(corners, axis=1)
    sums = t[:, 0] - t[:, 1] - t[:, 2] + t[:, 3]
    return {name: sums[i] for name, i in stack.index.items()}


def _scatter_matrix(sums: dict[str, float | np.ndarray], spec: ChannelSet) -> np.ndarray:
    """The symmetric matrix of ``spec``'s layout entries, batched like ``sums``."""
    return np.array([sums[k] for k in spec.layout]).T[..., _SYMMETRIC_INDEX[spec.size]]


def _assemble(
    stack: ChannelStack,
    constant: ChannelStack | None,
    formulation: str,
    corners: np.ndarray,
    n: float | np.ndarray,
    full: bool | np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None, float | np.ndarray | None]:
    """A formulation's (matrix, rhs, target_sq) from box sums over its channels.

    ``corners`` are the windows' flat corner indices (see :func:`_gather`):
    for a batch every output gains a leading N axis.  ``full`` marks the
    hole-free windows.  ``rhs`` is None for implicit formulations,
    ``target_sq`` when the residual channel is absent.  Every camera-constant
    entry the frame stack lacks is read from ``constant``; a frame with holes
    carries its own masked copies of them.
    """
    spec = FORMULATION_CHANNELS[formulation]
    _require_channels(stack, spec.scatter, "per-frame")
    sums = _gather(stack, corners)
    sums["n"] = n
    lacking = [name for name in spec.layout + spec.rhs if name not in sums]
    if lacking:
        if not np.all(full):
            raise ValueError(
                "a window contains invalid pixels but the frame stack carries no masked "
                "tan channels (was it built from a different frame?)"
            )
        if constant is None:
            raise ValueError(f"{formulation} requires the camera-constant channel stack")
        if constant.tensor.shape[1:] != stack.tensor.shape[1:]:
            raise ValueError("constant stack dimensions do not match the per-frame stack")
        _require_channels(constant, lacking, "constant")
        const = _gather(constant, corners)
        sums.update((name, const[name]) for name in lacking)
    matrix = _scatter_matrix(sums, spec)
    if not spec.rhs:
        return matrix, None, None
    rhs = np.array([sums[k] for k in spec.rhs]).T
    return matrix, rhs, sums.get(spec.residual)


def scatter_from_integrals(
    stack: ChannelStack,
    constant: ChannelStack | None,
    rect: Rect,
    formulation: str,
) -> Scatter4 | Scatter3:
    """Assemble a window's scatter system with one box sum per unique entry.

    ``stack`` holds the frame's depth-dependent channels; ``constant`` holds
    the camera-constant tan channels and is required by the rgbd
    formulations on a hole-free frame (a frame with holes carries masked
    copies of them).  The sample count is always the window's valid-pixel
    count from the per-frame count channel.
    """
    _check_formulation(formulation)
    _check_rect(rect, stack.width, stack.height)
    n = int(round(_box(stack.count.table, rect)))
    if n < MIN_SAMPLES[formulation]:
        raise InsufficientSamplesError(
            f"window {rect} holds {n} valid samples; "
            f"{formulation} needs {MIN_SAMPLES[formulation]}"
        )
    corners = _box_corners(rect, stack.width)
    matrix, rhs, target_sq = _assemble(
        stack, constant, formulation, corners, float(n), n == rect.area
    )
    if rhs is None:
        return Scatter4(matrix=matrix, n=n)
    return Scatter3(matrix=matrix, rhs=rhs, n=n, target_sq=target_sq)


# ---------------------------------------------------------------------------
# Fits
# ---------------------------------------------------------------------------


def _require_n(n: int, minimum: int) -> None:
    if n < minimum:
        raise InsufficientSamplesError(f"fit needs at least {minimum} samples, got {n}")


def _implicit_fits(matrices: np.ndarray, counts: np.ndarray) -> list[FitResult]:
    """Implicit fits of an (N, 4, 4) scatter stack with N sample counts."""
    values, vectors = _eigh(matrices)
    lam = values[:, 0]
    fro = np.linalg.norm(values, axis=1)  # Frobenius norm of a symmetric matrix
    degenerate = (fro == 0.0) | (values[:, 1] - lam <= _EIGEN_TIE_REL * fro)
    rms = np.sqrt(np.maximum(lam, 0.0) / counts)
    return [
        FitResult(
            plane=ImplicitPlane(vectors[i, :, 0]),
            n_points=int(counts[i]),
            rms_residual=float(rms[i]),
            eigenvalue=float(lam[i]),
            degenerate=bool(degenerate[i]),
        )
        for i in range(len(counts))
    ]


def _fit_implicit(scatter: Scatter4) -> FitResult:
    _require_n(scatter.n, 4)
    return _implicit_fits(scatter.matrix[None], np.array([scatter.n]))[0]


def fit_implicit_standard(scatter: Scatter4) -> FitResult:
    """Implicit fit on [X, Y, Z, 1] monomials: smallest scatter eigenvector.

    The rms residual is the algebraic residual sqrt(lambda / N) under the
    unit-coefficient constraint.
    """
    return _fit_implicit(scatter)


def fit_implicit_rgbd(scatter: Scatter4) -> FitResult:
    """Implicit fit on [tan_x, tan_y, 1, 1/Z] monomials.

    The eigenvector is already the implicit plane (a, b, c, d): multiplying
    a*tan_x + b*tan_y + c + d/Z = 0 through by Z recovers
    a*X + b*Y + c*Z + d = 0.  The rms residual lives in the inverse-depth
    algebraic metric, not in meters.
    """
    return _fit_implicit(scatter)


def _explicit_result(
    alpha: np.ndarray,
    rhs: np.ndarray,
    n: int,
    target_sq: float | None,
    space: str,
    degenerate: bool,
) -> FitResult:
    rms = None
    if target_sq is not None:
        # At the least-squares solution the residual reduces to
        # sum(b^2) - alpha . (M^t b).  Differencing aggregated sums puts a
        # noise floor of about sqrt(eps * mean(b^2)) under the rms; clamp the
        # tiny negatives the same rounding can produce.
        sq = max(float(target_sq) - float(alpha @ rhs), 0.0)
        rms = math.sqrt(sq / n)
    plane = ExplicitPlane(coefficients=alpha, space=space)
    return FitResult(plane=plane, n_points=n, rms_residual=rms, degenerate=degenerate)


def _fit_explicit(scatter: Scatter3, space: str) -> FitResult:
    _require_n(scatter.n, 3)
    degenerate = False
    try:
        alpha = solve_cholesky3(cholesky3(scatter.matrix), scatter.rhs)
    except DegenerateFitError:
        alpha = _pinv_solve(scatter.matrix, scatter.rhs)
        degenerate = True
    return _explicit_result(alpha, scatter.rhs, scatter.n, scatter.target_sq, space, degenerate)


def fit_explicit_standard(scatter: Scatter3) -> FitResult:
    """Explicit fit Z = a*X + b*Y + c via the normal equations.

    Planes near-parallel to the optical axis have no finite slope in this
    form; their scatter goes rank deficient and the result comes back with
    the degenerate flag set and minimum-norm coefficients.
    """
    return _fit_explicit(scatter, SPACE_STANDARD)


def fit_explicit_rgbd(scatter: Scatter3) -> FitResult:
    """Explicit fit 1/Z = a*tan_x + b*tan_y + c via the normal equations.

    Planes through the camera origin have no finite representation here (the
    regression targets 1/Z become unconstrained by the tan monomials); such
    windows yield a degenerate-flagged result.  For repeated fits over the
    same window prefer :class:`ExplicitRgbdFitter`, which caches the
    camera-constant Cholesky factor.
    """
    return _fit_explicit(scatter, SPACE_RGBD)


FIT_BY_FORMULATION: dict[str, Callable[..., FitResult]] = {
    IMPLICIT_STANDARD: fit_implicit_standard,
    IMPLICIT_RGBD: fit_implicit_rgbd,
    EXPLICIT_STANDARD: fit_explicit_standard,
    EXPLICIT_RGBD: fit_explicit_rgbd,
}


class ExplicitRgbdFitter:
    """Explicit inverse-depth fits with per-window factor caching.

    The normal-equation matrix depends only on the camera constants and the
    window, so its Cholesky factor is computed once per window and reused
    for every frame; each fit then costs three right-hand-side box sums and
    two triangular solves.
    """

    _spec = FORMULATION_CHANNELS[EXPLICIT_RGBD]

    def __init__(self, constant: ChannelStack):
        _require_channels(constant, CONSTANT_CHANNELS, "constant")
        self.constant = constant
        self._factors: dict[Rect, CholeskyFactor | None] = {}
        self._matrices: dict[Rect, np.ndarray] = {}

    def matrix_for(self, rect: Rect) -> np.ndarray:
        """The window's camera-constant normal-equation matrix, cached."""
        matrix = self._matrices.get(rect)
        if matrix is None:
            _check_rect(rect, self.constant.width, self.constant.height)
            sums = _gather(self.constant, _box_corners(rect, self.constant.width))
            sums["n"] = sums[COUNT_CHANNEL]
            matrix = self._matrices[rect] = _scatter_matrix(sums, self._spec)
        return matrix

    def factor_for(self, rect: Rect) -> CholeskyFactor | None:
        """The cached factor, or None when the window's system is singular."""
        if rect not in self._factors:
            try:
                self._factors[rect] = cholesky3(self.matrix_for(rect))
            except DegenerateFitError:
                self._factors[rect] = None
        return self._factors[rect]

    def fit(self, stack: ChannelStack, rect: Rect) -> FitResult:
        """Fit one window of one frame.

        Hole-free windows reuse the window's cached camera-constant factor;
        windows containing invalid pixels go through
        :func:`scatter_from_integrals`, which assembles the frame's masked
        normal equations (they are frame-specific, so there is nothing to
        cache).
        """
        _check_rect(rect, stack.width, stack.height)
        if stack.count.table.shape != self.constant.count.table.shape:
            raise ValueError("constant stack dimensions do not match the per-frame stack")
        _require_channels(stack, self._spec.scatter, "per-frame")
        n = int(round(_box(stack.count.table, rect)))
        if n != rect.area or n < self._spec.size:
            return fit_explicit_rgbd(
                scatter_from_integrals(stack, self.constant, rect, EXPLICIT_RGBD)
            )
        # scalar reads: one gather over every channel of the stack costs more
        ch = stack.channels
        rhs = np.array([_box(ch[name].table, rect) for name in self._spec.rhs])
        factor = self.factor_for(rect)
        if factor is None:
            alpha = _pinv_solve(self.matrix_for(rect), rhs)
        else:
            alpha = solve_cholesky3(factor, rhs)
        residual = self._spec.residual
        target_sq = _box(ch[residual].table, rect) if residual in ch else None
        return _explicit_result(alpha, rhs, n, target_sq, SPACE_RGBD, factor is None)


def explicit_to_implicit(plane: ExplicitPlane) -> ImplicitPlane:
    """Rewrite an explicit fit as a canonical implicit plane.

    Standard space: Z = a*X + b*Y + c becomes (a, b, -1, c).  Rgbd space:
    multiplying 1/Z = a*tan_x + b*tan_y + c through by Z gives
    a*X + b*Y + c*Z - 1 = 0, i.e. (a, b, c, -1).
    """
    a, b, c = (float(v) for v in plane.coefficients)
    if plane.space == SPACE_STANDARD:
        return ImplicitPlane(np.array([a, b, -1.0, c]))
    return ImplicitPlane(np.array([a, b, c, -1.0]))


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
    constant: ChannelStack | None = None,
    rgbd_fitter: ExplicitRgbdFitter | None = None,
) -> FitResult:
    """Fit one window with the chosen formulation and backend.

    ``naive`` gathers the window's samples and accumulates monomials
    directly; ``integral`` assembles the scatter from the prebuilt channel
    stacks (``stack`` required; ``constant`` as for
    :func:`scatter_from_integrals`).  Passing ``rgbd_fitter`` routes
    explicit-rgbd integral fits through the factor cache.
    """
    if backend == "naive":
        samples = gather_window_samples(depth, maps, rect, formulation)
        scatter = accumulate_scatter_naive(samples, formulation)
    elif backend == "integral":
        if stack is None:
            raise ValueError("integral backend requires a per-frame channel stack")
        if formulation == EXPLICIT_RGBD and rgbd_fitter is not None:
            return rgbd_fitter.fit(stack, rect)
        scatter = scatter_from_integrals(stack, constant, rect, formulation)
    else:
        raise ValueError(f"unknown backend {backend!r}; expected 'naive' or 'integral'")
    return FIT_BY_FORMULATION[formulation](scatter)


def fit_rects(
    stack: ChannelStack,
    constant: ChannelStack | None,
    rects: np.ndarray,
    formulation: str,
) -> list[FitResult | None]:
    """Fit many windows of one frame on the integral backend at once.

    ``rects`` is an (N, 4) integer array of (x0, y0, x1, y1) rows.  Returns
    one result per row, equal to what :func:`fit_rect` gives for that window
    up to rounding in the eigensolver, or None where the window holds too few
    valid samples.  Raises ``ValueError`` for an out-of-bounds or inverted
    rect, and under the same conditions as :func:`scatter_from_integrals`.
    """
    _check_formulation(formulation)
    rects = _check_rects(rects, stack.width, stack.height)
    results: list[FitResult | None] = [None] * len(rects)
    corners = _box_corners(rects, stack.width)
    n = np.rint(_box_sums(stack.count.table, corners)).astype(np.int64)
    fitted = np.flatnonzero(n >= MIN_SAMPLES[formulation])
    if fitted.size == 0:
        return results
    corners, n = corners[:, fitted], n[fitted]
    x0, y0, x1, y1 = rects[fitted].T
    matrices, rhs, target_sq = _assemble(
        stack, constant, formulation, corners, n.astype(np.float64), n == (x1 - x0) * (y1 - y0)
    )

    if rhs is None:
        for i, result in zip(fitted, _implicit_fits(matrices, n)):
            results[i] = result
        return results

    if target_sq is None:
        target_sq = [None] * len(n)
    factor, solvable = _cholesky3_batch(matrices)
    with np.errstate(invalid="ignore", divide="ignore"):
        alpha = np.stack(_cholesky_substitute(factor, rhs[:, 0], rhs[:, 1], rhs[:, 2]), axis=1)
    for i in np.flatnonzero(~solvable):
        alpha[i] = _pinv_solve(matrices[i], rhs[i])
    space = SPACE_STANDARD if formulation == EXPLICIT_STANDARD else SPACE_RGBD
    for i, j in enumerate(fitted):
        results[j] = _explicit_result(
            alpha[i], rhs[i], int(n[i]), target_sq[i], space, not solvable[i]
        )
    return results


def fit_result_csv_row(
    result: FitResult, formulation: str, backend: str, rect: Rect
) -> str:
    """One CSV row per fit; explicit fits are reported in implicit form."""
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
    ]
    return ",".join(fields)
