"""Lowest eigenpairs of sector Hamiltonians, with convergence diagnostics.

Small problems (dimension <= 4096) go through a dense Hermitian
eigendecomposition.  Larger ones use Lanczos, on one of two paths
chosen by memory (``_stores_basis``).  While min(max_iter, dim) vectors
fit in ``_LANCZOS_MEMORY_BUDGET`` (dimension <= 187,500 at max_iter
2000, so every half-filled sector up to L = 10) the loop keeps every
vector and reorthogonalizes fully: the stored basis is one 2-D array,
projected out 64 rows at a time, twice when the first pass cancels
heavily (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 772 (1976)).
Above that (the half-filled L = 12 sector, dimension 853,776, where the
basis would take 6.8 MB per iteration) a two-pass solve holds about five
vectors: pass 1 runs the three-term recurrence until the lowest Ritz
value settles, pass 2 replays it from the same start vector to sum the
eigenvector (Cullum & Willoughby, Lanczos Algorithms for Large
Symmetric Eigenvalue Computations, 1985).  The solvers take any
``Operator``; ``ground_state`` gives the two-pass path in real space the
product-form Hamiltonian (``hamiltonian.SpeciesHamiltonian``), whose
products read two 924 x 924 species matrices at L = 12 instead of a
12M-nonzero CSR matrix, and maps the start vector into its frame and
the eigenvector back once each.  Both Lanczos paths are real-only,
call LAPACK's tridiagonal bisection and inverse iteration (dstebz,
dstein) directly and stop on the lowest Ritz value alone; the second
one, which gives the gap, is tracked but not converged.  The start
vector comes from a seeded linear congruential stream, so runs are
reproducible bit for bit for one BLAS build at one BLAS thread count;
the thread count can move the last printed digit (the
reorthogonalization products and dot products are BLAS calls, whose
summation order can depend on it).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite, sqrt
from typing import Protocol

import numpy as np
from scipy.linalg.lapack import dstebz, dstein

from .fock import Sector, enumerate_sector
from .hamiltonian import (
    ModelParams,
    SparseHamiltonian,
    SpeciesHamiltonian,
    build_real_hamiltonian,
    build_species_hamiltonian,
)

DENSE_LIMIT = 4096
DEGENERACY_GAP = 1e-8
_N_TRACK = 2  # levels tracked: the ground level and the next, for the gap
_LANCZOS_MEMORY_BUDGET = 3_000_000_000  # bytes of stored basis vectors; two passes above
_BLOCK_ROWS = 64  # stored vectors per projection and combination product


@dataclass(frozen=True)
class SolverOptions:
    """Lanczos settings, checked once here: tol > 0 and finite, max_iter >= 1,
    and a seed that is a 64-bit unsigned word."""

    tol: float = 1e-10
    max_iter: int = 2000
    seed: int = 1

    def __post_init__(self) -> None:
        if not (isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must satisfy 0 <= seed < 2**64, got {self.seed}")

    def kwargs(self) -> dict:
        return {"tol": self.tol, "max_iter": self.max_iter, "seed": self.seed}


class Operator(Protocol):
    """What the Lanczos solvers need of a Hamiltonian: its size, its dtype and H x."""

    @property
    def dimension(self) -> int: ...

    @property
    def dtype(self) -> np.dtype: ...

    def matvec(self, x: np.ndarray) -> np.ndarray: ...


def _stores_basis(dim: int, max_iter: int) -> bool:
    """True when min(max_iter, dim) Lanczos vectors fit in ``_LANCZOS_MEMORY_BUDGET``."""
    return min(max_iter, dim) * dim * 8 <= _LANCZOS_MEMORY_BUDGET


class ConvergenceError(RuntimeError):
    """Lanczos failed to converge; carries the best estimate found."""

    def __init__(self, message: str, best_energy: float, residual: float, iterations: int):
        super().__init__(message)
        self.best_energy = best_energy
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class GroundStateResult:
    """Lowest eigenvalues and the ground eigenvector of one sector."""

    energies: np.ndarray  # the two lowest, ascending (one for a 1x1 matrix)
    amplitudes: np.ndarray  # eigenvector of energies[0], unit norm
    residual: float
    gap: float
    degenerate: bool
    method: str
    iterations: int

    @property
    def energy(self) -> float:
        return float(self.energies[0])


def _result(tracked, vector, residual, method, iterations) -> GroundStateResult:
    tracked = np.asarray(tracked, dtype=np.float64)
    gap = float(tracked[1] - tracked[0]) if tracked.size > 1 else np.inf
    return GroundStateResult(
        energies=tracked,
        amplitudes=vector,
        residual=float(residual),
        gap=gap,
        degenerate=bool(gap < DEGENERACY_GAP),
        method=method,
        iterations=iterations,
    )


def dense_ground(H: SparseHamiltonian) -> GroundStateResult:
    """Full Hermitian eigendecomposition; the ground vector and the two lowest levels."""
    dim = H.dimension
    if dim > DENSE_LIMIT:
        raise ValueError(f"dimension {dim} exceeds dense solver limit {DENSE_LIMIT}")
    w, v = np.linalg.eigh(H.toarray())
    x = np.ascontiguousarray(v[:, 0])
    residual = float(np.linalg.norm(H.matvec(x) - w[0] * x))
    return _result(w[:_N_TRACK], x, residual, "dense", iterations=1)


def _lcg_start_vector(n: int, seed: int, dtype: np.dtype) -> np.ndarray:
    """Deterministic pseudo-random start vector from a 64-bit LCG stream."""
    a = np.uint64(6364136223846793005)
    c = np.uint64(1442695040888963407)
    x0 = np.uint64(seed if seed else 0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        powers = np.multiply.accumulate(np.full(n, a, dtype=np.uint64))
        geom = np.cumsum(np.concatenate(([np.uint64(1)], powers[:-1])), dtype=np.uint64)
        states = powers * x0 + c * geom
    v = (states >> np.uint64(11)).astype(np.float64) * 2.0**-53 - 0.5
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        v = np.zeros(n)
        v[0] = 1.0
        nrm = 1.0
    return np.asarray(v / nrm, dtype=dtype)


def _orthogonalize(basis: np.ndarray, w: np.ndarray) -> None:
    """Project out every stored vector in 64-row blocks: w <- w - sum_i q_i (q_i . w)."""
    for i in range(0, basis.shape[0], _BLOCK_ROWS):
        q = basis[i : i + _BLOCK_ROWS]
        w -= (q @ w) @ q


def lanczos_ground(
    H: Operator,
    tol: float = 1e-10,
    max_iter: int = 2000,
    seed: int = 1,
) -> GroundStateResult:
    """Lanczos with full reorthogonalization against all stored vectors,
    or in two passes without a stored basis when that would not fit in
    ``_LANCZOS_MEMORY_BUDGET``.

    Converged when the change of the lowest Ritz value between
    successive iterations drops below ``tol`` and the residual estimate
    is below ``10 * tol``.  Raises ConvergenceError (carrying the best
    estimate and residual) if ``max_iter`` steps do not get there.
    Real matrices only: a complex one raises TypeError.
    """
    SolverOptions(tol=tol, max_iter=max_iter, seed=seed)  # raises ValueError out of range
    dim = H.dimension
    if dim < 2:
        raise ValueError("Lanczos needs dimension >= 2")
    if H.dtype.kind == "c":
        raise TypeError(f"lanczos_ground takes a real matrix, got dtype {H.dtype}")
    n_iter = min(max_iter, dim)
    n_track = min(_N_TRACK, dim)
    if not _stores_basis(dim, max_iter):
        return _two_pass_ground(H, _lcg_start_vector(dim, seed, np.float64), tol, n_iter, n_track)

    # rows are touched only as they are written, so unused ones cost no memory
    basis = np.empty((n_iter, dim))
    alpha = np.empty(n_iter)
    beta = np.empty(n_iter)
    v = _lcg_start_vector(dim, seed, np.float64)
    scale = 1.0
    prev_low = None
    converged = False
    exhausted = False

    w = H.matvec(v)
    for k in range(n_iter):
        a = float(v.dot(w))
        w -= a * v
        basis[k] = v
        alpha[k] = a
        pre_norm = sqrt(w.dot(w))
        _orthogonalize(basis[: k + 1], w)
        b = sqrt(w.dot(w))
        if b < 0.7 * pre_norm:  # heavy cancellation: orthogonalize once more
            _orthogonalize(basis[: k + 1], w)
            b = sqrt(w.dot(w))
        if not (isfinite(a) and isfinite(b)):
            raise ValueError(f"non-finite Lanczos coefficient at iteration {k + 1}")
        scale = max(scale, abs(a), b)

        low = _ritz_values(alpha[: k + 1], beta[:k], n_track)[0]
        if prev_low is not None and abs(low - prev_low) < tol:
            _, y = _ritz_pairs(alpha[: k + 1], beta[:k], 1)
            if b * abs(float(y[-1, 0])) < 10.0 * tol:
                converged = True
        prev_low = low
        if b <= 1e-13 * max(1.0, scale):
            exhausted = True  # Krylov space is an exact invariant subspace
        if converged or exhausted:
            break
        beta[k] = b
        v_next = w / b
        w = H.matvec(v_next)
        v = v_next

    iterations = k + 1
    theta, y = _ritz_pairs(alpha[:iterations], beta[: iterations - 1], n_track)
    coeffs = y[:, 0].copy()
    stored = basis[:iterations]
    x = np.zeros(dim)
    for i in range(0, iterations, _BLOCK_ROWS):
        x += coeffs[i : i + _BLOCK_ROWS] @ stored[i : i + _BLOCK_ROWS]
    nrm = np.linalg.norm(x)
    if nrm > 0:
        x = x / nrm
    residual = float(np.linalg.norm(H.matvec(x) - theta[0] * x))
    if not (converged or exhausted):
        raise ConvergenceError(
            f"Lanczos did not converge in {iterations} iterations "
            f"(best E0={theta[0]:.12g}, residual={residual:.3e})",
            best_energy=float(theta[0]),
            residual=residual,
            iterations=iterations,
        )
    return _result(theta, x, residual, "lanczos", iterations)


def _two_pass_ground(
    H: Operator, start: np.ndarray, tol: float, n_iter: int, n_track: int
) -> GroundStateResult:
    """Lanczos without a stored basis, for sectors whose basis would not fit.

    Pass 1 runs the three-term recurrence w = H v - beta v_prev - alpha v
    from the unit vector ``start`` (alpha taken after the beta term is
    removed, Paige's order) and stops by the stored loop's rule.  Pass 2
    replays it from ``start`` with the kept alpha and beta, which
    regenerates every vector bit for bit, and sums x = sum_k y_k v_k.
    The vectors are not reorthogonalized; the stop comes as the lowest
    Ritz value settles, before lost orthogonality can grow ghost copies
    of it.
    """
    alpha = np.empty(n_iter)
    beta = np.empty(n_iter)
    scale = 1.0
    prev_low = None
    converged = False
    exhausted = False

    v_prev = None
    v = start
    w = H.matvec(v)
    for k in range(n_iter):
        if k:
            w -= beta[k - 1] * v_prev
        a = float(v.dot(w))
        w -= a * v
        alpha[k] = a
        b = sqrt(w.dot(w))
        if not (isfinite(a) and isfinite(b)):
            raise ValueError(f"non-finite Lanczos coefficient at iteration {k + 1}")
        scale = max(scale, abs(a), b)

        low = _ritz_values(alpha[: k + 1], beta[:k], n_track)[0]
        if prev_low is not None and abs(low - prev_low) < tol:
            _, y = _ritz_pairs(alpha[: k + 1], beta[:k], 1)
            if b * abs(float(y[-1, 0])) < 10.0 * tol:
                converged = True
        prev_low = low
        if b <= 1e-13 * max(1.0, scale):
            exhausted = True  # Krylov space is an exact invariant subspace
        if converged or exhausted:
            break
        beta[k] = b
        w /= b
        v_prev, v = v, w
        w = H.matvec(v)

    iterations = k + 1
    theta, y = _ritz_pairs(alpha[:iterations], beta[: iterations - 1], n_track)
    coeffs = y[:, 0]
    v_prev = None
    v = start
    x = coeffs[0] * v
    for k in range(iterations - 1):
        w = H.matvec(v)
        if k:
            w -= beta[k - 1] * v_prev
        w -= alpha[k] * v
        w /= beta[k]
        v_prev, v = v, w
        x += coeffs[k + 1] * v

    nrm = np.linalg.norm(x)
    if nrm > 0:
        x = x / nrm
    residual = float(np.linalg.norm(H.matvec(x) - theta[0] * x))
    if not (converged or exhausted):
        raise ConvergenceError(
            f"Lanczos did not converge in {iterations} iterations "
            f"(best E0={theta[0]:.12g}, residual={residual:.3e})",
            best_energy=float(theta[0]),
            residual=residual,
            iterations=iterations,
        )
    return _result(theta, x, residual, "lanczos", iterations)


def _stebz(alpha, beta, n_track, order):
    """Lowest min(n_track, k) eigenvalues of the k x k tridiagonal, by bisection."""
    m, w, iblock, isplit, info = dstebz(
        alpha, beta, 2, 0.0, 1.0, 1, min(n_track, alpha.size), 0.0, order
    )
    if info != 0:
        raise ValueError(f"LAPACK dstebz failed (info={info})")
    return w[:m], iblock, isplit


def _ritz_values(alpha, beta, n_track) -> np.ndarray:
    if alpha.size == 1:
        return alpha.copy()
    return _stebz(alpha, beta, n_track, "E")[0]


def _ritz_pairs(alpha, beta, n_track):
    """Lowest Ritz values, ascending, and their tridiagonal eigenvectors (columns)."""
    if alpha.size == 1:
        return alpha.copy(), np.ones((1, 1))
    w, iblock, isplit = _stebz(alpha, beta, n_track, "B")
    y, info = dstein(alpha, beta, w, iblock, isplit)
    if info != 0:
        raise ValueError(f"LAPACK dstein failed (info={info})")
    order = np.argsort(w)
    return w[order], y[:, order]


def _product_ground(
    H: SpeciesHamiltonian, tol: float, max_iter: int, seed: int
) -> GroundStateResult:
    """The two-pass solve on the product-form Hamiltonian, in its frame.

    The seeded start vector is mapped into product order and gauge once
    and the eigenvector back once, so the result is in the sector basis
    like that of every other path.
    """
    SolverOptions(tol=tol, max_iter=max_iter, seed=seed)  # raises ValueError out of range
    dim = H.dimension
    start = H.to_product(_lcg_start_vector(dim, seed, np.float64))
    result = _two_pass_ground(H, start, tol, min(max_iter, dim), min(_N_TRACK, dim))
    return replace(result, amplitudes=H.from_product(result.amplitudes))


def ground_state(
    params: ModelParams,
    sector: Sector | None = None,
    space: str = "real",
    tol: float = 1e-10,
    max_iter: int = 2000,
    seed: int = 1,
) -> GroundStateResult:
    """Build the sector basis and Hamiltonian, then solve for the ground state.

    Dispatches to the dense solver for dimensions up to 4096 and to
    Lanczos above that.  A real-space sector whose Lanczos basis would
    not fit in ``_LANCZOS_MEMORY_BUDGET`` is solved in two passes on the
    product-form Hamiltonian (``hamiltonian.build_species_hamiltonian``),
    so its CSR matrix is never built.  A degenerate result is still
    returned, only flagged (block entropies of a degenerate ground state
    are not well defined).
    """
    if sector is None:
        sector = Sector.half_filled(params.L)
    if params.L != sector.L:
        raise ValueError(f"parameter L={params.L} does not match sector L={sector.L}")
    basis = enumerate_sector(sector)
    dim = len(basis)
    if space == "real":
        if dim > DENSE_LIMIT and not _stores_basis(dim, max_iter):
            return _product_ground(build_species_hamiltonian(params, basis), tol, max_iter, seed)
        H = build_real_hamiltonian(params, basis)
    elif space == "momentum":
        from .momentum import build_momentum_hamiltonian

        H = build_momentum_hamiltonian(params, basis)
    else:
        raise ValueError(f"space must be 'real' or 'momentum', got {space!r}")

    if dim <= DENSE_LIMIT:
        return dense_ground(H)
    return lanczos_ground(H, tol=tol, max_iter=max_iter, seed=seed)
