"""Exact diagonalization of the N-spin Hamiltonian on (C^2)^{tensor N}.

H = -(v/sqrt(N)) sum_{i<j} g_ij Sz_i Sz_j - b sum_i Sx_i, where Sz, Sx have
eigenvalues +-1 (Pauli convention).  Basis states are indexed by the bits of
the row index: bit k encodes spin k+1, bit value 0 meaning Sz eigenvalue +1.
The Sz-Sz part is diagonal; the transverse field contributes exactly one
off-diagonal entry -b per (row, flipped-bit) pair, so the matrix is
symmetric by construction (entries are assigned, never symmetrized).

Memory grows as 4^N; the builder refuses N beyond a configurable cap
(default 12, about 134 MB per matrix).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import logsumexp

from .constants import DEFAULT_MAX_SPINS, ModelParams
from .numerics import logcosh, normal_nodes, refine_once
from .streams import DOMAIN_DISORDER, batch_generator, batch_ranges

__all__ = [
    "DisorderSample",
    "DenseHamiltonian",
    "SpectrumResult",
    "draw_sample",
    "draw_couplings",
    "build_hamiltonian",
    "spectrum",
    "gibbs_zz",
    "gibbs_zz_matrix",
    "two_spin_scaled_spectrum",
    "f2_quenched_exact",
    "f2_annealed_exact",
]


@dataclass(frozen=True)
class DisorderSample:
    """One draw of the N(N-1)/2 standard-normal couplings g_ij (i < j).

    Couplings are stored in row-major upper-triangle order, matching
    ``numpy.triu_indices(n, k=1)``.
    """

    n_spins: int
    couplings: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        g = np.asarray(self.couplings, dtype=float)
        expected = self.n_spins * (self.n_spins - 1) // 2
        if g.shape != (expected,):
            raise ValueError(
                f"expected {expected} couplings for N={self.n_spins}, got {g.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise ValueError("couplings must be finite")
        object.__setattr__(self, "couplings", g)


def draw_couplings(n_spins, n_samples, seed):
    """(n_samples, N(N-1)/2) standard normal couplings, batch-deterministic."""
    n_pairs = n_spins * (n_spins - 1) // 2
    out = np.empty((n_samples, n_pairs))
    for b, start, stop in batch_ranges(n_samples):
        rng = batch_generator(seed, DOMAIN_DISORDER, b)
        out[start:stop] = rng.standard_normal((stop - start, n_pairs))
    return out


def draw_sample(n_spins, seed):
    """A single DisorderSample drawn from the disorder stream domain."""
    g = draw_couplings(n_spins, 1, seed)[0]
    return DisorderSample(n_spins=n_spins, couplings=g, seed=seed)


@lru_cache(maxsize=16)
def _z_table(n):
    """(2^n, n) matrix of Sz eigenvalues; bit value 0 maps to +1."""
    states = np.arange(2**n, dtype=np.int64)
    bits = (states[:, None] >> np.arange(n)[None, :]) & 1
    return (1.0 - 2.0 * bits).astype(float)


@lru_cache(maxsize=16)
def _pair_z_table(n):
    """(2^n, n(n-1)/2) products z_i z_j over upper-triangle pairs (integer +-1)."""
    z = _z_table(n)
    iu, ju = np.triu_indices(n, k=1)
    return z[:, iu] * z[:, ju]


@dataclass(frozen=True)
class DenseHamiltonian:
    """A dense symmetric Hamiltonian matrix with its defining data."""

    matrix: np.ndarray
    params: ModelParams
    sample: DisorderSample

    @property
    def dim(self):
        return self.matrix.shape[0]


def build_hamiltonian(params: ModelParams, sample: DisorderSample,
                      max_spins=DEFAULT_MAX_SPINS):
    """Assemble the dense 2^N x 2^N matrix for one disorder sample.

    The diagonal carries the Sz-Sz part (traceless: every pair product z_i z_j
    is +1 on exactly half the basis states), the transverse field contributes
    the N single-bit-flip entries -b per row, and nothing else.  Raises for
    mismatched sample size, non-finite couplings, or N over the cap.
    """
    n = params.n_spins
    if n != sample.n_spins:
        raise ValueError("sample was drawn for a different N")
    if n > max_spins:
        raise ValueError(
            f"N={n} exceeds the dense-diagonalization cap ({max_spins}); "
            "raise max_spins explicitly if you really want 4^N memory"
        )
    dim = 2**n
    weights = -(params.v / np.sqrt(n)) * sample.couplings
    h = np.zeros((dim, dim))
    np.fill_diagonal(h, _pair_z_table(n) @ weights)
    if params.b != 0.0:
        rows = np.arange(dim)
        for k in range(n):
            h[rows, rows ^ (1 << k)] = -params.b
    return DenseHamiltonian(matrix=h, params=params, sample=sample)


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues plus the derived log partition function and free energy."""

    eigenvalues: np.ndarray
    ln_z: float
    f_n: float
    beta: float


def spectrum(h: DenseHamiltonian, beta=None):
    """Full spectrum and f_N = -ln Z / (beta N) via a dense symmetric solve.

    ln Z is computed as a max-shifted log-sum-exp of -beta * eigenvalues, so
    it never overflows.  Eigensolver failures are re-raised with diagnostics
    (matrix norm and symmetry defect) attached.
    """
    beta = h.params.beta if beta is None else float(beta)
    if beta <= 0:
        raise ValueError("beta must be positive")
    try:
        evals = np.linalg.eigvalsh(h.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        defect = float(np.abs(h.matrix - h.matrix.T).max())
        raise RuntimeError(
            "eigensolver failed: dim=%d, max|H|=%.3e, symmetry defect=%.3e"
            % (h.dim, np.abs(h.matrix).max(), defect)
        ) from exc
    ln_z = float(logsumexp(-beta * evals))
    return SpectrumResult(
        eigenvalues=evals,
        ln_z=ln_z,
        f_n=-ln_z / (beta * h.params.n_spins),
        beta=beta,
    )


def _gibbs_weights(h, beta):
    evals, vecs = np.linalg.eigh(h.matrix)
    w = np.exp(-beta * (evals - evals.min()))
    w /= w.sum()
    # probability of each basis state under the Gibbs measure
    return np.square(vecs) @ w


def gibbs_zz(h: DenseHamiltonian, beta, i, j):
    """Thermal correlation <Sz_i Sz_j> for 1-based spin indices i != j."""
    n = h.params.n_spins
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError("spin indices must lie in [1, N]")
    if i == j:
        raise IndexError("spin indices must differ (the diagonal is trivially 1)")
    q = _gibbs_weights(h, float(beta))
    z = _z_table(n)
    val = float(q @ (z[:, i - 1] * z[:, j - 1]))
    assert abs(val) <= 1.0 + 1e-12
    return val


def gibbs_zz_matrix(h: DenseHamiltonian, beta):
    """Matrix of <Sz_i Sz_j> for all pairs (diagonal exactly 1)."""
    q = _gibbs_weights(h, float(beta))
    z = _z_table(h.params.n_spins)
    c = (z * q[:, None]).T @ z
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 1.0)
    return c


# -- the exactly solvable two-spin system ---------------------------------


def two_spin_scaled_spectrum(lam, beta_b, g):
    """The four eigenvalues of beta*H for N = 2, coupling realization g.

    beta*H in the Sz basis decouples into a 2x2 block on {++, --} and one on
    {+-, -+}, giving +-sqrt(2 lam) g and +-sqrt(2 lam g^2 + (2 beta_b)^2).
    Returned in ascending order.
    """
    a = np.sqrt(2.0 * lam) * g
    c = np.sqrt(2.0 * lam * g * g + 4.0 * beta_b * beta_b)
    return np.sort(np.array([-c, -abs(a), abs(a), c]))


def _f2_quenched_eval(lam, beta_b, nodes):
    y, lw = normal_nodes(nodes)
    # ln Z_2(g) = ln 2 + ln[cosh(sqrt(2 lam) g) + cosh(sqrt(2 lam g^2 + 4 bb^2))]
    a = np.sqrt(2.0 * lam) * y
    c = np.sqrt(2.0 * lam * y * y + 4.0 * beta_b * beta_b)
    ln_z = np.log(2.0) + np.logaddexp(logcosh(a), logcosh(c))
    return -0.5 * float(np.exp(lw) @ ln_z)


def f2_quenched_exact(lam, beta_b, quad_nodes=64):
    """E[beta f_2] by Gauss-Hermite quadrature over the single coupling.

    Deterministic reference for the N = 2 disorder average; node doubling is
    checked once (warning on non-convergence).
    """
    if quad_nodes < 40:
        raise ValueError("quad_nodes must be >= 40")
    if lam < 0 or beta_b < 0:
        raise ValueError("lam and beta_b must be >= 0")
    value, _ = refine_once(
        lambda k: _f2_quenched_eval(lam, beta_b, k), quad_nodes,
        label="f2_quenched_exact",
    )
    return value


def _f2_annealed_eval(lam, beta_b, nodes):
    y, lw = normal_nodes(nodes)
    c = np.sqrt(2.0 * lam * y * y + 4.0 * beta_b * beta_b)
    ln_expect = float(logsumexp(lw + logcosh(c)))
    # beta f_2^ann = -(1/2) ln(2 e^lam + 2 E cosh(...))
    return -0.5 * (np.log(2.0) + np.logaddexp(lam, ln_expect))


def f2_annealed_exact(lam, beta_b, quad_nodes=64):
    """beta f_2^ann = -(1/2) ln E[Z_2] by Gauss-Hermite quadrature.

    At lam = 0 this reduces to -ln(2 cosh(beta_b)); for lam > 0 it sits
    strictly below f2_quenched_exact (Jensen).
    """
    if quad_nodes < 40:
        raise ValueError("quad_nodes must be >= 40")
    if lam < 0 or beta_b < 0:
        raise ValueError("lam and beta_b must be >= 0")
    value, _ = refine_once(
        lambda k: _f2_annealed_eval(lam, beta_b, k), quad_nodes,
        label="f2_annealed_exact",
    )
    return value
