"""Exact diagonalization of the N-spin Hamiltonian on (C^2)^{tensor N}.

In units with beta = 1 the Hamiltonian is

    beta H = -(2 sqrt(lam)/sqrt(N)) sum_{i<j} g_ij Sz_i Sz_j - beta_b sum_i Sx_i,

where Sz, Sx have eigenvalues +-1 (Pauli convention), so every eigenvalue
here is one of beta H and Z = tr exp(-beta H).  Basis states are indexed by
the bits of the row index: bit k encodes spin k+1, bit value 0 meaning Sz
eigenvalue +1.

H commutes with the global spin flip prod_i Sx_i, so it is built and
diagonalized in the flip-parity basis (|s> +- |s-bar>)/sqrt(2), s ranging
over the 2^(N-1) representatives with spin N up and s-bar = s with every
bit flipped.  The Sz-Sz part is diagonal there with the same entries in
both blocks; the transverse field of spins 1..N-1 maps representatives to
representatives, and that of spin N maps s to J s = s XOR (2^(N-1) - 1)
with sign +-1 in the +- block.  Each off-diagonal entry is assigned, never
symmetrized, so both blocks are symmetric by construction.  Sz_i Sz_j
preserves the blocks, so ln Z and every <Sz_i Sz_j> come from one
eigendecomposition of the two blocks.  ``spectrum`` gives ln Z (beta f_N
is -ln Z / N), and ``gibbs_zz_matrix`` is the one correlation kernel:
``gibbs_zz`` reads its (1, 2) entry.  Both kernels check their invariants
on every sample: ``build_hamiltonian`` that each block is exactly symmetric
and traceless to rounding, ``gibbs_zz_matrix`` that |<Sz_i Sz_j>| <= 1; a
broken invariant raises ``RuntimeError``.

``build_hamiltonian``, ``spectrum`` and ``gibbs_zz_matrix`` also take a
stack of samples along a leading axis: a chunk of k samples is built in
one (k, 2, D, D) array, solved by one ``numpy.linalg.eigh`` call and
reduced by array operations over the stack.  Every step repeats the
one-sample arithmetic (one matrix-vector product per sample for the
diagonal, row-wise sums over C-ordered rows), so a sample's results do not
depend on the stack it was solved in.

Memory grows as 4^(N-1); the builder refuses N beyond ``MAX_SPINS_ED``.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import ModelParams
from .numerics import logcosh, logsumexp, normal_nodes, refine_once
from .streams import DOMAIN_DISORDER, batch_generator, batch_ranges

__all__ = [
    "Hamiltonian",
    "SpectrumResult",
    "draw_couplings",
    "build_hamiltonian",
    "spectrum",
    "gibbs_zz",
    "gibbs_zz_matrix",
    "two_spin_scaled_spectrum",
    "f2_annealed_exact",
]

#: the two blocks take 2 * 4^(N-1) * 8 B a sample: 67 MB at N = 12
MAX_SPINS_ED = 12


def draw_couplings(n_spins, n_samples, seed):
    """(n_samples, N(N-1)/2) standard normal couplings, batch-deterministic.

    Each row holds the couplings g_ij (i < j) of one draw in row-major
    upper-triangle order, matching ``numpy.triu_indices(n, k=1)``.
    """
    n_pairs = n_spins * (n_spins - 1) // 2
    out = np.empty((n_samples, n_pairs))
    for b, start, stop in batch_ranges(n_samples):
        rng = batch_generator(seed, DOMAIN_DISORDER, b)
        out[start:stop] = rng.standard_normal((stop - start, n_pairs))
    return out


@lru_cache(maxsize=16)
def _sign_patterns(n):
    """Read-only (2^n, n) Sz eigenvalues of the basis states; bit 0 maps to +1.

    The first 2^(n-1) rows are the representatives, the states with spin N
    up (top bit 0); their flipped partners carry the negated rows, so every
    product z_i z_j is the same on a state and its partner.
    """
    states = np.arange(2**n, dtype=np.int64)
    bits = (states[:, None] >> np.arange(n)[None, :]) & 1
    out = 1.0 - 2.0 * bits
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _pair_z_table(n):
    """(2^(n-1), n(n-1)/2) products z_i z_j over upper-triangle pairs (integer +-1)."""
    z = _sign_patterns(n)[: 2 ** (n - 1)]
    iu, ju = np.triu_indices(n, k=1)
    return z[:, iu] * z[:, ju]


@lru_cache(maxsize=4)
def _field_blocks(n, b):
    """Read-only (2, D, D) transverse-field part of the (+, -) blocks, D = 2^(n-1).

    -b (sum_{k<N-1} flip_k +- J) with J: s -> s XOR (D-1), the image of
    flipping spin N.  At N = 2, flip_0 and J hit the same entries and add.
    """
    dim = 2 ** (n - 1)
    out = np.zeros((2, dim, dim))
    rows = np.arange(dim)
    for k in range(n - 1):
        out[:, rows, rows ^ (1 << k)] = -b
    out[0, rows, rows ^ (dim - 1)] -= b
    out[1, rows, rows ^ (dim - 1)] += b
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Hamiltonian:
    """H in the flip-parity basis: its (+, -) blocks and model parameters.

    ``blocks[..., 0, :, :]`` and ``blocks[..., 1, :, :]`` act on
    (|s> + |s-bar>)/sqrt(2) and (|s> - |s-bar>)/sqrt(2) for the
    representatives s of ``_sign_patterns``; a stack of couplings gives a
    leading sample axis.
    """

    blocks: np.ndarray
    params: ModelParams

    @property
    def eigh(self):
        """(eigenvalues (..., 2, D), eigenvectors (..., 2, D, D)), one solve.

        Cached on the instance without a lock: ``functools.cached_property``
        holds one lock per class on Python < 3.12, which would run the solves
        of different samples in different threads one at a time.
        """
        cached = self.__dict__.get("_eigh")
        if cached is not None:
            return cached
        try:
            cached = np.linalg.eigh(self.blocks)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            defect = float(
                np.abs(self.blocks - self.blocks.swapaxes(-1, -2)).max())
            raise RuntimeError(
                "eigensolver failed: N=%d, max|H|=%.3e, symmetry defect=%.3e"
                % (self.params.n_spins, np.abs(self.blocks).max(), defect)
            ) from exc
        object.__setattr__(self, "_eigh", cached)
        return cached


def build_hamiltonian(params: ModelParams, couplings):
    """Assemble the two 2^(N-1) x 2^(N-1) flip-parity blocks of one sample.

    ``couplings`` is a row of ``draw_couplings``, or k rows for (k, 2, D, D)
    blocks.  The diagonal carries the Sz-Sz part (traceless in each block:
    every pair product z_i z_j is +1 on exactly half the representatives),
    the transverse field the off-diagonal entries of ``_field_blocks``.
    Raises ValueError for N over the cap, a wrong coupling count or
    non-finite ones, and RuntimeError when a built block is not exactly
    symmetric or its trace is not zero to rounding.
    """
    n = params.n_spins
    if n > MAX_SPINS_ED:
        raise ValueError(f"N={n} exceeds the exact-diagonalization cap "
                         f"({MAX_SPINS_ED}): memory grows as 4^(N-1)")
    g = np.asarray(couplings, dtype=float)
    if g.ndim not in (1, 2) or g.shape[-1] != n * (n - 1) // 2:
        raise ValueError(
            f"expected {n * (n - 1) // 2} couplings for N={n}, got {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("couplings must be finite")
    dim = 2 ** (n - 1)
    weights = -(2.0 * np.sqrt(params.lam) / np.sqrt(n)) * g
    lead = weights.shape[:-1]
    blocks = np.broadcast_to(_field_blocks(n, params.beta_b),
                             lead + (2, dim, dim)).copy()
    # one matrix-vector product per sample: a (samples x pairs) @ table.T
    # product rounds differently from N = 4 on
    diag = (_pair_z_table(n) @ weights[..., None])[..., 0]
    blocks.reshape(lead + (2, dim * dim))[..., :: dim + 1] = diag[..., None, :]
    if not np.array_equal(blocks, blocks.swapaxes(-1, -2)):
        raise RuntimeError("Hamiltonian block is not symmetric")
    on_diag = np.diagonal(blocks, axis1=-2, axis2=-1)
    scale = 1.0 + np.abs(on_diag).max(axis=(-2, -1))
    if np.any(np.abs(on_diag.sum(axis=-1)).max(axis=-1) >= 1e-10 * scale):
        raise RuntimeError("Hamiltonian block diagonal does not sum to zero")
    return Hamiltonian(blocks=blocks, params=params)


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues plus the derived log partition function.

    For a stack of samples ``eigenvalues`` is (k, 2^N) and ``ln_z`` a
    length-k array; for one sample ``ln_z`` is a float.  beta f_N is
    -ln Z / N.
    """

    eigenvalues: np.ndarray
    ln_z: float | np.ndarray


def spectrum(h: Hamiltonian):
    """Sorted spectrum and ln Z from both blocks, per sample.

    ln Z is a log-sum-exp of the negated eigenvalues of beta H, shifted by
    its largest term (minus the ground eigenvalue), so it never overflows.
    Eigensolver failures are re-raised with diagnostics (block norm and
    symmetry defect) attached.
    """
    evals = h.eigh[0]
    evals = np.sort(evals.reshape(evals.shape[:-2] + (-1,)), axis=-1)
    excited = np.exp(-(evals[..., 1:] - evals[..., :1])).sum(axis=-1)
    ln_z = -evals[..., 0] + np.log1p(excited)
    if ln_z.ndim == 0:
        ln_z = float(ln_z)
    return SpectrumResult(eigenvalues=evals, ln_z=ln_z)


def _gibbs_weights(h):
    """Gibbs probability of each representative s plus its partner s-bar."""
    evals, vecs = h.eigh
    w = np.exp(-(evals - evals.min(axis=(-2, -1), keepdims=True)))
    w /= w.reshape(w.shape[:-2] + (-1,)).sum(axis=-1)[..., None, None]
    return (np.square(vecs) @ w[..., None]).sum(axis=-3)[..., 0]


def gibbs_zz(h: Hamiltonian):
    """<Sz_1 Sz_2> of one sample: the (1, 2) entry of ``gibbs_zz_matrix``."""
    return float(gibbs_zz_matrix(h)[0, 1])


def gibbs_zz_matrix(h: Hamiltonian):
    """Matrix of <Sz_i Sz_j> for all pairs (diagonal exactly 1), per sample.

    Raises RuntimeError when any |<Sz_i Sz_j>| exceeds 1 beyond rounding.
    """
    n = h.params.n_spins
    q = _gibbs_weights(h)
    z = _sign_patterns(n)[: 2 ** (n - 1)]
    c = (z * q[..., None]).swapaxes(-1, -2) @ z
    c = 0.5 * (c + c.swapaxes(-1, -2))
    diag = np.arange(n)
    c[..., diag, diag] = 1.0
    worst = np.abs(c).max()
    if worst > 1.0 + 1e-12:
        raise RuntimeError("|<Sz_i Sz_j>| = %.17g exceeds 1" % worst)
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


def _f2_annealed_eval(lam, beta_b, nodes):
    y, lw = normal_nodes(nodes)
    c = np.sqrt(2.0 * lam * y * y + 4.0 * beta_b * beta_b)
    ln_expect = float(logsumexp(lw + logcosh(c)))
    # beta f_2^ann = -(1/2) ln(2 e^lam + 2 E cosh(...))
    return -0.5 * (np.log(2.0) + np.logaddexp(lam, ln_expect))


def f2_annealed_exact(lam, beta_b):
    """beta f_2^ann = -(1/2) ln E[Z_2] by Gauss-Hermite quadrature.

    At lam = 0 this reduces to -ln(2 cosh(beta_b)); for lam > 0 it sits
    strictly below the quenched E[beta f_2] (Jensen).
    """
    if lam < 0 or beta_b < 0:
        raise ValueError("lam and beta_b must be >= 0")
    value, _ = refine_once(lambda k: _f2_annealed_eval(lam, beta_b, k),
                           "f2_annealed_exact")
    return value
