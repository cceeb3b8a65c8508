"""Matrix Lie group kernel.

Every group used by this library is realized as a closed subgroup of
``GL(k, R)`` for a size ``k`` fixed by its tag, so group and algebra elements
are plain square numpy arrays together with a tag naming the defining
relations they satisfy.

Supported families:

* ``GL(n)``        invertible ``n x n`` matrices
* ``SO(n)``        rotations
* ``O(p,q)``       matrices preserving the indefinite form
                   ``eta = diag(-1 (q times), +1 (p times))``; the minus
                   block comes first so that for signature ``(n+1, 1)`` the
                   preserved quadratic form is ``-x0^2 + x1^2 + ...``,
                   matching the conformal models in :mod:`cartanconn.models`
* ``Aff(n)``       affine maps of R^n as ``(n+1) x (n+1)`` matrices whose
                   last row is ``(0, ..., 0, 1)``
* ``Galileo(m)``   boosts and translations of m-dimensional spacetime,
                   ``(t, x) -> (t + a, x + b + v t)``; ``Galileo(2)`` is the
                   3 x 3 realization ``[[1, 0, a], [v, 1, b], [0, 0, 1]]``
                   acting on column vectors ``(t, x, 1)``
* ``PGL(n)``       projective transformations, stored as ``(n+1) x (n+1)``
                   representatives normalized so that the entry of largest
                   magnitude equals ``+1`` (first such entry in row-major
                   order when tied), which fixes a deterministic pick from
                   the homothety class

Elements are produced by the factories :func:`group_element` and
:func:`algebra_element`, which validate the defining relations and can
re-project matrices that drifted off the group under floating arithmetic
(generalized polar projection for ``O(p,q)``, pattern rebuilds for the
structured groups).

The kernels on raw matrices take one matrix or a stack ``(..., n, n)``
and are plain numpy. :func:`expm_matrix` is a truncated Taylor series with
scaling and squaring chosen per matrix, summed exactly on the nilpotent
Galileo algebras; :func:`log_matrix` is the principal logarithm, in closed
form for Galileo and by inverse scaling and squaring elsewhere. :func:`exp`
and :func:`log` are their validated single-element cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache, reduce
from typing import Iterable

import numpy as np

from .errors import (
    InvalidElementError,
    NoPrincipalLogarithmError,
    TagMismatchError,
)
from .settings import STRUCTURAL


class GroupKind(Enum):
    GL = "GL"
    SO = "SO"
    ORTHOGONAL = "O"
    AFF = "Aff"
    GALILEO = "Galileo"
    PGL = "PGL"


@dataclass(frozen=True)
class GroupTag:
    """Name of a matrix group together with its dimension parameters."""

    kind: GroupKind
    dims: tuple[int, ...] = ()

    @cached_property
    def size(self) -> int:
        """Size of the square matrices realizing this group (cached)."""
        if self.kind is GroupKind.GL or self.kind is GroupKind.SO:
            return self.dims[0]
        if self.kind is GroupKind.ORTHOGONAL:
            return self.dims[0] + self.dims[1]
        return self.dims[0] + 1   # Aff, Galileo, PGL

    @property
    def name(self) -> str:
        if self.kind is GroupKind.ORTHOGONAL:
            return f"O({self.dims[0]},{self.dims[1]})"
        if self.kind is GroupKind.GALILEO:
            return f"Galileo{self.dims[0]}"
        return f"{self.kind.value}({self.dims[0]})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def gl_tag(n: int) -> GroupTag:
    return GroupTag(GroupKind.GL, (n,))


def so_tag(n: int) -> GroupTag:
    return GroupTag(GroupKind.SO, (n,))


def orthogonal_tag(p: int, q: int) -> GroupTag:
    """Tag of O(p, q); matrices preserve eta = diag(-1 x q, +1 x p)."""
    return GroupTag(GroupKind.ORTHOGONAL, (p, q))


def aff_tag(n: int) -> GroupTag:
    return GroupTag(GroupKind.AFF, (n,))


def galileo_tag(spacetime_dim: int = 2) -> GroupTag:
    """Galileo group of ``spacetime_dim``-dimensional spacetime (no rotations).

    ``spacetime_dim = 2`` is the group of maps (t, x) -> (t + a, x + b + v t)
    with one space dimension; higher values add space dimensions, each with
    its own boost and translation parameter.
    """
    if spacetime_dim < 2:
        raise ValueError("Galileo group needs spacetime dimension >= 2")
    return GroupTag(GroupKind.GALILEO, (spacetime_dim,))


def pgl_tag(n: int) -> GroupTag:
    return GroupTag(GroupKind.PGL, (n,))


GALILEO2 = galileo_tag(2)


@dataclass(frozen=True, eq=False)
class GroupElement:
    """An element of the matrix group named by ``tag``.

    Build instances through :func:`group_element`, which validates the
    defining relations; the raw constructor performs no checks. Matrices
    are made read-only, so elements are immutable and safe to share.
    """

    tag: GroupTag
    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return compose(self, other)

    def inv(self) -> "GroupElement":
        return inverse(self)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"GroupElement({self.tag.name}, {np.array2string(self.mat, precision=6)})"


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An element of the Lie algebra of the group named by ``tag``."""

    tag: GroupTag
    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @classmethod
    def _holding(cls, tag: GroupTag, mat: np.ndarray) -> "AlgebraElement":
        """The element of the float array ``mat``, made read-only and held without
        the copy: for a stack that its caller has just built and keeps no other hold on."""
        mat.setflags(write=False)
        element = object.__new__(cls)
        object.__setattr__(element, "tag", tag)
        object.__setattr__(element, "mat", mat)
        return element

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _require_same_tag(self.tag, other.tag)
        return AlgebraElement(self.tag, self.mat + other.mat)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _require_same_tag(self.tag, other.tag)
        return AlgebraElement(self.tag, self.mat - other.mat)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.tag, -self.mat)

    def __rmul__(self, scalar: float) -> "AlgebraElement":
        return AlgebraElement(self.tag, float(scalar) * self.mat)

    def norm(self) -> float:
        return float(np.linalg.norm(self.mat))

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"AlgebraElement({self.tag.name}, {np.array2string(self.mat, precision=6)})"


def _require_same_tag(tag1: GroupTag, tag2: GroupTag) -> None:
    if tag1 != tag2:
        raise TagMismatchError(f"cannot combine elements of {tag1.name} and {tag2.name}")


@lru_cache(maxsize=None)
def eta_matrix(tag: GroupTag) -> np.ndarray:
    """Indefinite form preserved by O(p, q): diag(-1 x q, +1 x p)."""
    if tag.kind is not GroupKind.ORTHOGONAL:
        raise ValueError("eta is only defined for O(p, q) tags")
    p, q = tag.dims
    eta = np.diag(np.concatenate([-np.ones(q), np.ones(p)]))
    eta.setflags(write=False)
    return eta


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


# ---------------------------------------------------------------------------
# Defining relations, projections, factories
# ---------------------------------------------------------------------------

def group_defect(tag: GroupTag, mat: np.ndarray):
    """Max-norm residual of the tag's defining relations at ``mat`` (each
    matrix of a stack ``(..., n, n)``): inf if not finite, or singular in GL/PGL."""
    mat = np.asarray(mat, dtype=float)
    n = tag.size
    if mat.shape[-2:] != (n, n):
        raise InvalidElementError(f"expected {n} x {n} matrices for {tag.name}, got {mat.shape}")
    kind = tag.kind
    valid = np.isfinite(mat)   # count_nonzero: the cheap all() on small arrays
    if np.count_nonzero(valid) < valid.size:
        valid = valid.all(axis=(-2, -1))
    elif kind is GroupKind.GL or kind is GroupKind.PGL:
        valid = np.abs(np.linalg.det(mat)) > np.finfo(float).tiny
    if np.count_nonzero(valid) < valid.size:
        if mat.ndim == 2:
            return np.inf
        out = np.full(valid.shape, np.inf)
        out[valid] = group_defect(tag, mat[valid])
        return out
    if kind is GroupKind.GL:
        return 0.0 if mat.ndim == 2 else np.zeros(mat.shape[:-2])
    if kind is GroupKind.SO:
        ortho = _entry_max(np.abs(mat.swapaxes(-1, -2) @ mat - _eye(n)))
        return np.maximum(ortho, np.abs(np.linalg.det(mat) - 1.0))
    if kind is GroupKind.ORTHOGONAL:
        eta = eta_matrix(tag)
        return _entry_max(np.abs(mat.swapaxes(-1, -2) @ eta @ mat - eta))
    if kind is GroupKind.AFF:
        return _entry_max(np.abs(mat[..., -1:, :] - _eye(n)[-1]))
    if kind is GroupKind.GALILEO:
        return _entry_max(np.abs(mat - _eye(n) - project_to_algebra(tag, mat)))
    return np.abs(_pivots(mat) - 1.0)   # PGL: = max |mat - normalize_projective(mat)|


def _entry_max(a: np.ndarray):
    """``a.max(axis=(-2, -1))``; on a stack ``np.maximum`` over the entries, several times faster."""
    flat = a.reshape(*a.shape[:-2], a.shape[-2] * a.shape[-1])
    return flat.max() if a.ndim == 2 else reduce(np.maximum, np.moveaxis(flat, -1, 0))


def _pivots(mat: np.ndarray) -> np.ndarray:
    """Largest-|entry| of each matrix (the first in row-major order on ties)."""
    size = mat.shape[-2] * mat.shape[-1]
    flat = mat.reshape(-1, size)
    index = np.abs(flat).argmax(axis=1) + np.arange(0, flat.size, size)
    return flat.take(index).reshape(mat.shape[:-2])


def normalize_projective(mat: np.ndarray) -> np.ndarray:
    """Scale projective representatives (one, or a stack) so that the
    largest-|entry| is +1; the first one on ties, so the representative of
    a homothety class is deterministic."""
    pivot = _pivots(mat)
    if np.count_nonzero(pivot) < pivot.size:
        raise InvalidElementError("zero matrix cannot represent a projective element")
    return mat / pivot[..., None, None]


def project_to_group(tag: GroupTag, mat: np.ndarray) -> np.ndarray:
    """Re-project a matrix that drifted off the group under floating arithmetic.

    O(p, q) uses the generalized polar (Newton) iteration with respect to
    eta, raising :class:`InvalidElementError` when an iterate is singular or
    the last residual exceeds ``settings.STRUCTURAL``; SO(n) the
    orthogonal polar factor; the structured groups rebuild their exact
    patterns; PGL normalizes the representative.
    """
    mat = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise InvalidElementError(f"non-finite matrix cannot lie in {tag.name}")
    kind = tag.kind
    if kind is GroupKind.GL:
        return mat
    if kind is GroupKind.SO:
        u, _, vt = np.linalg.svd(mat)
        r = u @ vt
        if np.linalg.det(r) < 0:
            u[:, -1] *= -1.0
            r = u @ vt
        return r
    if kind is GroupKind.ORTHOGONAL:
        eta = eta_matrix(tag)
        x = mat
        residual = np.max(np.abs(x.T @ eta @ x - eta))
        for _ in range(50):
            if residual < 1e-15:
                break
            try:
                x = 0.5 * (x + eta @ np.linalg.inv(x).T @ eta)
            except np.linalg.LinAlgError as exc:
                raise InvalidElementError(
                    f"polar projection onto {tag.name} hit a singular iterate"
                ) from exc
            residual = np.max(np.abs(x.T @ eta @ x - eta))
        if not residual <= STRUCTURAL:
            raise InvalidElementError(
                f"polar projection onto {tag.name} did not converge: residual {residual:.3e}"
            )
        return x
    if kind is GroupKind.AFF:
        out = mat.copy()
        out[-1, :] = 0.0
        out[-1, -1] = 1.0
        return out
    if kind is GroupKind.GALILEO:
        return _eye(tag.size) + project_to_algebra(tag, mat)
    return normalize_projective(mat)   # PGL


def group_element(tag: GroupTag, mat: np.ndarray, *, project: bool = False) -> GroupElement:
    """Validated construction of a group element.

    With ``project=True`` the matrix is first re-projected onto the group,
    which is the right call whenever it comes out of non-exact arithmetic.
    """
    mat = np.asarray(mat, dtype=float)
    if project:
        mat = project_to_group(tag, mat)
    defect = group_defect(tag, mat)
    if not defect <= STRUCTURAL:
        raise InvalidElementError(
            f"matrix violates the defining relations of {tag.name}: residual {defect:.3e}"
        )
    return GroupElement(tag, mat)


def identity(tag: GroupTag) -> GroupElement:
    return GroupElement(tag, np.eye(tag.size))


def algebra_defect(tag: GroupTag, mat: np.ndarray):
    """Max-norm distance of ``mat`` (each matrix of a stack) from the algebra pattern."""
    mat = np.asarray(mat, dtype=float)
    return np.abs(mat - project_to_algebra(tag, mat)).max(axis=(-2, -1))


def project_to_algebra(tag: GroupTag, mat: np.ndarray) -> np.ndarray:
    """Project a matrix (each of a stack) onto the tag's Lie algebra pattern."""
    mat = np.asarray(mat, dtype=float)
    kind = tag.kind
    if kind is GroupKind.GL:
        return mat
    if kind is GroupKind.SO:
        return 0.5 * (mat - mat.swapaxes(-1, -2))
    if kind is GroupKind.ORTHOGONAL:
        eta = eta_matrix(tag)
        return 0.5 * (mat - eta @ mat.swapaxes(-1, -2) @ eta)
    if kind is GroupKind.AFF:
        out = mat.copy()
        out[..., -1, :] = 0.0
        return out
    if kind is GroupKind.GALILEO:
        out = np.zeros_like(mat)
        out[..., 1:-1, 0] = mat[..., 1:-1, 0]
        out[..., 0, -1] = mat[..., 0, -1]
        out[..., 1:-1, -1] = mat[..., 1:-1, -1]
        return out
    n = tag.size   # PGL: traceless part
    return mat - (np.trace(mat, axis1=-2, axis2=-1) / n)[..., None, None] * _eye(n)


def algebra_element(tag: GroupTag, mat: np.ndarray, *, project: bool = False) -> AlgebraElement:
    mat = np.asarray(mat, dtype=float)
    if project:
        mat = project_to_algebra(tag, mat)
    defect = algebra_defect(tag, mat)
    if not defect <= STRUCTURAL:
        raise InvalidElementError(
            f"matrix violates the algebra pattern of {tag.name}: residual {defect:.3e}"
        )
    return AlgebraElement(tag, mat)


def zero_algebra(tag: GroupTag) -> AlgebraElement:
    return AlgebraElement(tag, np.zeros((tag.size, tag.size)))


# ---------------------------------------------------------------------------
# Group operations
# ---------------------------------------------------------------------------

def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group product ``g1 g2``, re-projected onto the group manifold."""
    _require_same_tag(g1.tag, g2.tag)
    return group_element(g1.tag, g1.mat @ g2.mat, project=True)


def inverse_matrix(tag: GroupTag, mat: np.ndarray) -> np.ndarray:
    """Matrix inverse (of each matrix of a stack), closed-form where it can."""
    kind = tag.kind
    if kind is GroupKind.SO:
        return mat.swapaxes(-1, -2).copy()
    if kind is GroupKind.ORTHOGONAL:
        eta = eta_matrix(tag)
        return eta @ mat.swapaxes(-1, -2) @ eta
    if kind is GroupKind.GALILEO:   # v -> -v, a -> -a, b -> v a - b
        out = 2 * _eye(tag.size) - mat
        out[..., 1:-1, -1] += mat[..., 1:-1, 0] * mat[..., 0, -1, None]
        return out
    try:
        return np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:
        raise InvalidElementError(f"singular matrix has no inverse in {tag.name}") from exc


def inverse(g: GroupElement) -> GroupElement:
    return group_element(g.tag, inverse_matrix(g.tag, g.mat), project=True)


# Taylor degrees q p of the exponential, evaluated by Paterson-Stockmeyer from
# the powers A^0..A^q, and the 1-norm theta up to which each has backward
# error below the unit roundoff: the bound of Al-Mohy & Higham (SIAM J.
# Matrix Anal. Appl. 31, 2009) for the Taylor polynomial, rounded down.
_TAYLOR = ((2, 2, 3.39e-4), (3, 3, 8.95e-2), (4, 4, 0.780), (5, 4, 1.43))


@lru_cache(maxsize=None)
def _taylor_blocks(q: int, p: int) -> np.ndarray:
    """Coefficients 1/k! of the degree q p Taylor polynomial as ``(p, q + 1)``
    rows: row j multiplies the powers A^0..A^q inside the block of (A^q)^j."""
    coeffs = np.array([1.0 / math.factorial(k) for k in range(q * p + 1)])
    rows = np.zeros((p, q + 1))
    for j in range(p):
        rows[j, :q] = coeffs[j * q:(j + 1) * q]
    rows[-1, q] = coeffs[-1]
    rows.setflags(write=False)
    return rows


def _taylor(mats: np.ndarray, q: int, p: int) -> np.ndarray:
    """Degree q p Taylor polynomial of exp at each matrix of a stack."""
    powers = np.empty((q + 1, *mats.shape))
    powers[0] = _eye(mats.shape[-1])
    powers[1] = mats
    for j in range(2, q + 1):
        powers[j] = powers[j - 1] @ mats
    blocks = (_taylor_blocks(q, p) @ powers.reshape(q + 1, -1)).reshape(p, *mats.shape)
    out = blocks[-1]
    for j in range(p - 2, -1, -1):
        out = out @ powers[q] + blocks[j]
    return out


def _norm1(mats: np.ndarray) -> np.ndarray:
    """1-norm (largest absolute column sum) of each matrix of a stack."""
    return np.abs(mats).sum(axis=-2).max(axis=-1)


def expm_matrix(tag: GroupTag, mat: np.ndarray) -> np.ndarray:
    """Matrix exponential of an algebra matrix of ``tag``, or of each
    matrix of a stack ``(..., n, n)``, without checks.

    A truncated Taylor series with scaling and squaring. The degree is the
    lowest that covers the largest 1-norm of the stack, up to 20; past
    that, each matrix is scaled by its own power of two to 1-norm 1.43 and
    squared back as often as it needs, so a large matrix makes no other pay
    for its squarings. On the nilpotent Galileo algebra, where ``A^3 = 0``,
    the series terminates and is summed exactly, without scaling.
    Non-finite matrices give non-finite exponentials and leave the others
    alone.
    """
    mat = np.asarray(mat, dtype=float)
    if tag.kind is GroupKind.GALILEO:   # I + A + A^2 / 2
        return _taylor(mat, 2, 1)
    norms = _norm1(mat)
    norms = np.where(np.isfinite(norms), norms, 0.0)
    largest = norms.max(initial=0.0)
    for q, p, theta in _TAYLOR:
        if largest <= theta:
            return _taylor(mat, q, p)
    # degree 20 and scaling: theta is the last entry's
    squarings = np.ceil(np.log2(np.maximum(norms, theta) / theta)).astype(int)
    out = _taylor(mat * np.exp2(-squarings)[..., None, None], q, p)
    for j in range(squarings.max()):
        need = squarings > j
        if need.all():
            out = out @ out
        else:
            part = out[need]
            out[need] = part @ part
    return out


def exp(xi: AlgebraElement) -> GroupElement:
    """Exponential map onto the group: the single-matrix case of
    :func:`expm_matrix`, followed by re-projection."""
    return group_element(xi.tag, expm_matrix(xi.tag, xi.mat), project=True)


# Gauss-Legendre nodes and weights on [0, 1]. The m-point rule for
# log(I + X) = int_0^1 X (I + t X)^{-1} dt is the [m/m] Pade approximant; at
# m = 12 its error is below the unit roundoff for ||X||_1 <= 0.58 (Higham,
# "Functions of Matrices", 2008, Table 11.1).
_LOG_NODES, _LOG_WEIGHTS = np.polynomial.legendre.leggauss(12)
_LOG_NODES, _LOG_WEIGHTS = (_LOG_NODES + 1) / 2, _LOG_WEIGHTS / 2
_LOG_THETA = 0.58


def _sqrtm(mats: np.ndarray) -> np.ndarray:
    """Principal square root of each matrix of a stack ``(N, n, n)`` with no
    eigenvalue on the closed negative real axis: the Denman-Beavers
    iteration with determinant scaling (Higham 2008, 6.28), in the coupled
    form, which inverts no product of the iterates and so stays regular
    near the axis (a rotation by nearly pi). Each matrix stops at its own
    convergence, so a row of a stack gets the root it gets alone."""
    n = mats.shape[-1]
    y, z, out, todo = mats, np.broadcast_to(_eye(n), mats.shape), mats.copy(), np.arange(len(mats))
    for _ in range(30):
        mu = (np.abs(np.linalg.det(y) * np.linalg.det(z)) ** (-0.5 / n))[:, None, None]
        y, z, previous = 0.5 * (mu * y + np.linalg.inv(z) / mu), 0.5 * (mu * z + np.linalg.inv(y) / mu), y
        out[todo] = y
        moving = np.abs(y - previous).max(axis=(1, 2)) > 1e-15 * np.abs(y).max(axis=(1, 2))
        if not moving.all():   # the converged matrices keep this iterate
            y, z, todo = y[moving], z[moving], todo[moving]
            if not len(todo):
                break
    return out


def _logm_iss(mats: np.ndarray) -> np.ndarray:
    """Principal logarithm of each matrix of a stack ``(N, n, n)``, which it
    overwrites, by inverse scaling and squaring (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 34, 2012): square roots, per matrix, until
    ``||M - I||_1 <= 0.58``, then the partial-fraction Pade approximant of
    ``log(I + X)``, its terms summed in a fixed order, so a row of a stack
    gets the logarithm it gets alone."""
    eye = _eye(mats.shape[-1])
    roots = np.zeros(len(mats))
    for _ in range(64):   # each root halves the logarithm
        far = _norm1(mats - eye) > _LOG_THETA
        if not far.any():
            break
        mats[far] = _sqrtm(mats[far])
        roots[far] += 1
    x = mats - eye
    shifted = eye + _LOG_NODES[:, None, None, None] * x
    terms = np.linalg.solve(shifted, np.broadcast_to(x, shifted.shape))
    return np.exp2(roots)[:, None, None] * np.einsum("k,k...->...", _LOG_WEIGHTS, terms)


def log_matrix(tag: GroupTag, mat: np.ndarray) -> np.ndarray:
    """Principal logarithm of a group matrix of ``tag``, or of each matrix of
    a stack ``(..., n, n)``, not projected onto the algebra.

    Galileo uses its closed form ``X - X^2 / 2`` with ``X = M - I``; every
    other family goes through inverse scaling and squaring on the whole
    stack. Raises :class:`NoPrincipalLogarithmError` if a finite matrix has
    an eigenvalue on the closed negative real axis; for PGL, whose ``M``
    and ``-M`` represent the same element, such a matrix is replaced by
    ``-M`` unless that has one too. Non-finite matrices give NaN and leave
    the others alone. The check is skipped, exactly, if every finite ``||M - I||_1 < 1/2``: then
    ``|lam - 1| < 1/2`` even after rounding, so no ``lam`` is on the cut and no PGL flip.
    """
    mat = np.asarray(mat, dtype=float)
    n = tag.size
    if tag.kind is GroupKind.GALILEO:
        x = mat - _eye(n)
        return x - 0.5 * (x @ x)
    flat = mat.reshape(-1, n, n)
    finite = np.isfinite(flat).all(axis=(1, 2))
    good = flat[finite]
    if len(good) and _norm1(good - _eye(n)).max() >= 0.5:   # else no eigenvalue is near the cut
        lam = np.linalg.eigvals(good)
        real = np.abs(lam.imag) <= 1e-12 * np.maximum(1.0, np.abs(lam))
        cut = (real & (lam.real <= 0)).any(axis=-1)
        if tag.kind is GroupKind.PGL:   # -M has eigenvalues -lam
            flip = cut & ~(real & (lam.real >= 0)).any(axis=-1)
            good[flip] *= -1.0
            cut &= ~flip
        if cut.any():
            i = int(np.argmax(cut))
            bad = lam[i][real[i] & (lam[i].real <= 0)][0]
            raise NoPrincipalLogarithmError(
                f"no principal logarithm: eigenvalue {bad:.6g} lies on the closed negative real axis"
            )
    out = np.full(flat.shape, np.nan)
    out[finite] = _logm_iss(good)
    return out.reshape(mat.shape)


def log(g: GroupElement) -> AlgebraElement:
    """Principal logarithm into the algebra (:func:`log_matrix`), the
    inverse of :func:`exp` on the principal branch: no eigenvalue of ``g``
    may lie on the closed negative real axis (for PGL, of ``g`` or ``-g``).

    Raises :class:`NoPrincipalLogarithmError` outside the principal branch
    (e.g. for an O(p, q) element with an eigenvalue on the negative real
    axis).
    """
    return algebra_element(g.tag, log_matrix(g.tag, g.mat), project=True)


def Ad(g: GroupElement, xi: AlgebraElement) -> AlgebraElement:
    """Adjoint action ``g xi g^{-1}``, projected back to the algebra pattern."""
    _require_same_tag(g.tag, xi.tag)
    conj = g.mat @ xi.mat @ inverse_matrix(g.tag, g.mat)
    return algebra_element(g.tag, conj, project=True)


def bracket(xi: AlgebraElement, eta: AlgebraElement) -> AlgebraElement:
    """Lie bracket ``xi eta - eta xi``."""
    _require_same_tag(xi.tag, eta.tag)
    return algebra_element(xi.tag, xi.mat @ eta.mat - eta.mat @ xi.mat, project=True)


def maurer_cartan(g: GroupElement, dg: np.ndarray) -> AlgebraElement:
    """Left Maurer-Cartan pairing ``g^{-1} dg`` of a tangent matrix at ``g``."""
    dg = np.asarray(dg, dtype=float)
    if dg.shape != g.mat.shape:
        raise InvalidElementError(
            f"tangent matrix shape {dg.shape} does not match element shape {g.mat.shape}"
        )
    return algebra_element(g.tag, inverse_matrix(g.tag, g.mat) @ dg, project=True)


# ---------------------------------------------------------------------------
# Algebra bases and coordinates
# ---------------------------------------------------------------------------

def _single_entry(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


@lru_cache(maxsize=None)
def algebra_basis(tag: GroupTag) -> tuple[AlgebraElement, ...]:
    """Fixed ordered basis of the tag's Lie algebra.

    Galileo ordering is (boosts, time translation, space translations),
    i.e. ``(eps_v..., eps_a, eps_b...)`` with ``eps_v = E_{1,0}``,
    ``eps_a = E_{0,last}`` and ``eps_b = E_{1,last}`` in the 2-dimensional
    case, so coefficient extraction on this basis is exact.
    """
    n = tag.size
    kind = tag.kind
    if kind is GroupKind.GL:
        mats = [_single_entry(n, i, j) for i in range(n) for j in range(n)]
    elif kind is GroupKind.SO:
        mats = [
            _single_entry(n, i, j) - _single_entry(n, j, i)
            for i in range(n)
            for j in range(i + 1, n)
        ]
    elif kind is GroupKind.ORTHOGONAL:
        eta = eta_matrix(tag)
        mats = [
            eta @ (_single_entry(n, i, j) - _single_entry(n, j, i))
            for i in range(n)
            for j in range(i + 1, n)
        ]
    elif kind is GroupKind.AFF:
        d = tag.dims[0]
        mats = [_single_entry(n, i, j) for i in range(d) for j in range(d)]
        mats += [_single_entry(n, i, d) for i in range(d)]
    elif kind is GroupKind.GALILEO:
        s = tag.dims[0] - 1
        mats = [_single_entry(n, 1 + i, 0) for i in range(s)]       # boosts
        mats += [_single_entry(n, 0, n - 1)]                         # time translation
        mats += [_single_entry(n, 1 + i, n - 1) for i in range(s)]   # space translations
    else:   # PGL
        mats = [_single_entry(n, i, j) for i in range(n) for j in range(n) if i != j]
        mats += [
            _single_entry(n, i, i) - _single_entry(n, i + 1, i + 1)
            for i in range(n - 1)
        ]
    return tuple(AlgebraElement(tag, m) for m in mats)


def algebra_dim(tag: GroupTag) -> int:
    return len(algebra_basis(tag))


@lru_cache(maxsize=None)
def algebra_basis_matrices(tag: GroupTag) -> np.ndarray:
    """:func:`algebra_basis` as one read-only stack ``(k, n, n)``."""
    stack = np.stack([b.mat for b in algebra_basis(tag)])
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=None)
def _coords_operator(tag: GroupTag) -> np.ndarray:
    basis = algebra_basis_matrices(tag)
    return np.linalg.pinv(basis.reshape(len(basis), -1).T)  # (k, n*n)


def _matrix_coords(tag: GroupTag, m: np.ndarray) -> np.ndarray:
    """Coefficients on :func:`algebra_basis` of ``tag`` (exact for Galileo)
    of raw algebra matrices ``(..., n, n)``, as ``(..., k)``."""
    if tag.kind is GroupKind.GALILEO:
        return np.concatenate([m[..., 1:-1, 0], m[..., 0, -1:], m[..., 1:-1, -1]], axis=-1)
    return (_coords_operator(tag) @ m.reshape(*m.shape[:-2], -1, 1))[..., 0]


def algebra_coords(xi: AlgebraElement) -> np.ndarray:
    """Coefficients of ``xi`` on :func:`algebra_basis` (exact for Galileo),
    ``(..., k)`` when ``xi.mat`` is a stack ``(..., n, n)``."""
    return _matrix_coords(xi.tag, xi.mat)


def algebra_from_coords(tag: GroupTag, coords: Iterable[float]) -> AlgebraElement:
    coords = np.asarray(list(coords), dtype=float)
    basis = algebra_basis_matrices(tag)
    if coords.shape != (len(basis),):
        raise InvalidElementError(
            f"expected {len(basis)} coefficients for {tag.name}, got {coords.shape}"
        )
    return AlgebraElement(tag, np.tensordot(coords, basis, axes=1))


# ---------------------------------------------------------------------------
# Random sampling (tests, audits)
# ---------------------------------------------------------------------------

def random_algebra(tag: GroupTag, rng: np.random.Generator, scale: float = 0.5) -> AlgebraElement:
    """Random algebra element with Frobenius norm ``scale``."""
    xi = algebra_from_coords(tag, rng.standard_normal(algebra_dim(tag)))
    n = xi.norm()
    if n > 0:
        xi = (scale / n) * xi
    return xi


def random_element(tag: GroupTag, rng: np.random.Generator, scale: float = 0.5) -> GroupElement:
    """Random group element, sampled as ``exp`` of a random algebra element."""
    return exp(random_algebra(tag, rng, scale))


# ---------------------------------------------------------------------------
# Galileo conveniences
# ---------------------------------------------------------------------------

def galileo_element(v, a: float, b, tag: GroupTag = GALILEO2) -> GroupElement:
    """Galileo element with boost ``v``, time shift ``a``, space shift ``b``.

    ``v`` and ``b`` are scalars for ``Galileo(2)`` and arrays of length
    ``spacetime_dim - 1`` in general.
    """
    s = tag.dims[0] - 1
    v = np.atleast_1d(np.asarray(v, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if v.shape != (s,) or b.shape != (s,):
        raise InvalidElementError(f"{tag.name} needs {s} boost and {s} translation entries")
    mat = np.eye(tag.size)
    mat[1:-1, 0] = v
    mat[0, -1] = a
    mat[1:-1, -1] = b
    return GroupElement(tag, mat)


def galileo_triple(g: GroupElement):
    """Extract ``(v, a, b)`` from a Galileo element (bit-exact reads)."""
    if g.tag.kind is not GroupKind.GALILEO:
        raise TagMismatchError("galileo_triple needs a Galileo element")
    s = g.tag.dims[0] - 1
    v = g.mat[1:-1, 0]
    b = g.mat[1:-1, -1]
    a = g.mat[0, -1]
    if s == 1:
        return float(v[0]), float(a), float(b[0])
    return v.copy(), float(a), b.copy()


def galileo_algebra(cv, ca: float, cb, tag: GroupTag = GALILEO2) -> AlgebraElement:
    """Algebra element ``cv . eps_v + ca eps_a + cb . eps_b``."""
    s = tag.dims[0] - 1
    cv = np.atleast_1d(np.asarray(cv, dtype=float))
    cb = np.atleast_1d(np.asarray(cb, dtype=float))
    if cv.shape != (s,) or cb.shape != (s,):
        raise InvalidElementError(f"{tag.name} needs {s} boost and {s} translation coefficients")
    mat = np.zeros((tag.size, tag.size))
    mat[1:-1, 0] = cv
    mat[0, -1] = ca
    mat[1:-1, -1] = cb
    return AlgebraElement(tag, mat)
