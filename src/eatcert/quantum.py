"""Exact small-dimension quantum state and measurement calculus.

Dense complex linear algebra used as the brute-force oracle against which all
analytic bounds in this package are validated.  Dimensions are expected to
stay small (the checks cap out at 64); nothing here is built for scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .numerics import binary_entropy

__all__ = [
    "DIM_CAP",
    "check_density_matrix",
    "check_projector",
    "check_povm",
    "partial_trace",
    "von_neumann_entropy",
    "conditional_entropy",
    "conditional_measurement_entropy",
    "purified_measurement_entropy",
    "purify",
    "trace_distance",
    "JordanBlock",
    "JordanBlocks",
    "jordan_decompose",
    "good_subspace_projector",
    "commutator_defect",
    "random_pure_state",
    "random_density_matrix",
    "random_projector",
    "random_ginibre",
    "density_from_ginibre",
    "projectors_from_ginibre",
]

DIM_CAP = 64
_HERM_TOL = 1e-10
_EIG_CUTOFF = 1e-12


def check_density_matrix(rho: np.ndarray, tol: float = _HERM_TOL) -> None:
    """Validate hermiticity, positivity and trace <= 1 (sub-normalized allowed)."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if rho.shape[0] > DIM_CAP:
        raise ValueError(f"dimension {rho.shape[0]} exceeds cap {DIM_CAP}")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise ValueError("density matrix is not Hermitian")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {evals.min()}")
    if np.real(np.trace(rho)) > 1.0 + tol:
        raise ValueError("density matrix trace exceeds 1")


def check_projector(p: np.ndarray, tol: float = _HERM_TOL) -> None:
    p = np.asarray(p)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("projector must be square")
    if np.max(np.abs(p - p.conj().T)) > tol:
        raise ValueError("projector is not Hermitian")
    if np.max(np.abs(p @ p - p)) > tol:
        raise ValueError("projector is not idempotent")


def check_povm(elements: Sequence[np.ndarray], tol: float = _HERM_TOL) -> None:
    total = sum(np.asarray(e) for e in elements)
    dim = total.shape[0]
    if np.max(np.abs(total - np.eye(dim))) > tol:
        raise ValueError("POVM elements do not sum to identity")
    for e in elements:
        if np.linalg.eigvalsh(np.asarray(e)).min() < -tol:
            raise ValueError("POVM element is not positive semidefinite")


def partial_trace(rho: np.ndarray, dims: Tuple[int, int], traced: int) -> np.ndarray:
    """Trace out one factor of a bipartite state; traced=0 removes A, 1 removes B.

    ``rho`` may also be a stack of states (leading axes), traced one by one.
    """
    da, db = dims
    rho = np.asarray(rho)
    if rho.shape[-2:] != (da * db, da * db):
        raise ValueError(f"shape {rho.shape} incompatible with dims {dims}")
    r = rho.reshape(rho.shape[:-2] + (da, db, da, db))
    if traced == 0:
        return np.einsum("...ijik->...jk", r)
    if traced == 1:
        return np.einsum("...ijkj->...ik", r)
    raise ValueError("traced must be 0 or 1")


def _entropy_of_eigenvalues(evals: np.ndarray):
    """-sum e log2 e over the eigenvalues above the cutoff: a float for one
    spectrum, an array with one entropy per spectrum (last axis) otherwise."""
    evals = np.real(evals)
    if evals.ndim == 1:
        evals = evals[evals > _EIG_CUTOFF]
        return float(-np.sum(evals * np.log2(evals)))
    rows = evals.reshape(-1, evals.shape[-1])
    full = np.all(rows > _EIG_CUTOFF, axis=1)
    out = np.empty(len(rows))
    kept = rows[full]
    out[full] = -np.sum(kept * np.log2(kept), axis=1)
    # Zeros in place of dropped eigenvalues would regroup numpy's summation
    # of the rest, so such spectra are summed one at a time.
    for i in np.flatnonzero(~full):
        out[i] = _entropy_of_eigenvalues(rows[i])
    return out.reshape(evals.shape[:-1])


def von_neumann_entropy(rho: np.ndarray):
    """-tr(rho log2 rho) via the spectrum, skipping near-zero eigenvalues.

    A stack of states gives an array with one entropy per state.
    """
    rho = np.asarray(rho)
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -_HERM_TOL:
        raise ValueError(f"state has negative eigenvalue {evals.min()}")
    return _entropy_of_eigenvalues(evals)


def conditional_entropy(rho: np.ndarray, dims: Tuple[int, int]):
    """H(A|B) = H(AB) - H(B) for a state (or a stack of states) on A (x) B."""
    rho_b = partial_trace(rho, dims, traced=0)
    return von_neumann_entropy(rho) - von_neumann_entropy(rho_b)


def conditional_measurement_entropy(
    rho: np.ndarray,
    povm: Sequence[np.ndarray],
    dims: Tuple[int, int],
) -> float:
    """Entropy of the measurement outcome on A given quantum side info B.

    Applies the measurement channel to the A factor and returns
    H(outcome, B) - H(B) of the resulting classical-quantum state.
    """
    da, db = dims
    rho = np.asarray(rho)
    if rho.shape != (da * db, da * db):
        raise ValueError(f"shape {rho.shape} incompatible with dims {dims}")
    r = rho.reshape(da, db, da, db)
    # cq-state blocks tr_A[(E_x (x) 1) rho]; their joint spectrum is the union.
    joint_evals = []
    for e in povm:
        block = np.einsum("ab,biaj->ij", np.asarray(e), r)
        joint_evals.append(np.linalg.eigvalsh((block + block.conj().T) / 2.0))
    h_xb = _entropy_of_eigenvalues(np.concatenate(joint_evals))
    h_b = von_neumann_entropy(partial_trace(rho, dims, traced=0))
    return h_xb - h_b


def purified_measurement_entropy(rho: np.ndarray, povm: Sequence[np.ndarray]) -> float:
    """H(X|R) for the outcome X of measuring ``povm`` on rho, where R holds a
    purification of rho.

    The outcome-x block of the classical-quantum state on R has the nonzero
    spectrum of rho^1/2 E_x rho^1/2, and R has the spectrum of rho, so
    H(X|R) = S(sum_x |x><x| (x) rho^1/2 E_x rho^1/2) - S(rho), all on rho's
    own space.  The elements E_x need not be projectors.
    """
    evals, vecs = np.linalg.eigh(np.asarray(rho))
    if evals.min() < -_HERM_TOL:
        raise ValueError(f"state has negative eigenvalue {evals.min()}")
    # root root^dagger = rho, so root^dagger E root is unitarily equivalent
    # to rho^1/2 E rho^1/2.
    root = vecs * np.sqrt(np.clip(evals, 0.0, None))
    blocks = root.conj().T @ np.asarray(povm) @ root
    return _entropy_of_eigenvalues(np.linalg.eigvalsh(blocks).ravel()) - (
        _entropy_of_eigenvalues(evals)
    )


def purify(rho: np.ndarray) -> np.ndarray:
    """Rank-1 extension on D (x) E with E the same dimension as D.

    Sub-normalization is preserved: tracing out E reproduces the input.
    Tests measure this state as the independent reference for
    purified_measurement_entropy.
    """
    evals, vecs = np.linalg.eigh(np.asarray(rho))
    vec = (vecs * np.sqrt(np.clip(evals, 0.0, None))).ravel()
    return np.outer(vec, vec.conj())


def trace_distance(rho: np.ndarray, sigma: np.ndarray):
    """Half the trace norm of rho - sigma; one value per pair of a stack."""
    diff = np.asarray(rho) - np.asarray(sigma)
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)
    return float(dist) if diff.ndim == 2 else dist


# ---------------------------------------------------------------------------
# Joint block structure of two projections
# ---------------------------------------------------------------------------

_SNAP_TOL = 1e-8


@dataclass
class JordanBlock:
    """A two-dimensional invariant block of a projector pair.

    In the stored orthonormal basis (columns of ``basis``) the first projector
    is diag(1, 0) and the second is [[c^2, c s], [c s, s^2]] with
    c = cos(angle / 2), s = sin(angle / 2).  ``angle`` is the Bloch angle
    between the two rank-1 directions, in [0, pi].
    """

    basis: np.ndarray  # (dim, 2), orthonormal columns
    angle: float

    @property
    def overlap(self) -> float:
        c2 = math.cos(self.angle / 2.0) ** 2
        return max(c2, 1.0 - c2)

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


@dataclass
class JordanBlocks:
    dim: int
    blocks: List[JordanBlock] = field(default_factory=list)
    # residual simultaneous eigenvectors: (vector, p_eigenvalue, m_eigenvalue)
    residuals: List[Tuple[np.ndarray, int, int]] = field(default_factory=list)

    def residual_projector(self) -> np.ndarray:
        g = np.zeros((self.dim, self.dim), dtype=complex)
        for v, _, _ in self.residuals:
            g += np.outer(v, v.conj())
        return g


def _snap_angle(theta: float) -> float:
    for target in (0.0, math.pi / 2.0, math.pi):
        if abs(theta - target) < _SNAP_TOL:
            return target
    return theta


def jordan_decompose(p: np.ndarray, m: np.ndarray, tol: float = 1e-9) -> JordanBlocks:
    """Simultaneous 2x2 block structure of two Hermitian projections.

    Constructive route: diagonalize M compressed to range(P).  Eigenvalues
    strictly inside (0, 1) generate genuine 2-dim blocks; eigenvalues at 0/1
    are simultaneous eigenvectors.  Commuting directions are paired into
    degenerate blocks (angle 0 or pi) where counts allow, matching the
    convention that identical projectors form a single angle-0 structure.
    """
    p = np.asarray(p, dtype=complex)
    m = np.asarray(m, dtype=complex)
    check_projector(p)
    check_projector(m)
    if p.shape != m.shape:
        raise ValueError("projectors must act on the same space")
    d = p.shape[0]
    one_minus_p = np.eye(d) - p

    blocks: List[JordanBlock] = []
    aligned = {(1, 1): [], (1, 0): [], (0, 0): [], (0, 1): []}

    # Orthonormal bases (columns) of range(P) and range(1-P).
    p_evals, p_vecs = np.linalg.eigh(p)
    vp = p_vecs[:, p_evals > 0.5]
    vq = p_vecs[:, p_evals <= 0.5]
    used_w = []
    if vp.shape[1] > 0:
        comp = vp.conj().T @ m @ vp
        evals, u = np.linalg.eigh((comp + comp.conj().T) / 2.0)
        for k in range(len(evals)):
            lam = float(np.clip(evals[k], 0.0, 1.0))
            v = vp @ u[:, k]
            if lam < tol:
                aligned[(1, 0)].append(v)
            elif lam > 1.0 - tol:
                aligned[(1, 1)].append(v)
            else:
                w = one_minus_p @ (m @ v)
                w = w / np.linalg.norm(w)
                theta = _snap_angle(2.0 * math.acos(math.sqrt(lam)))
                blocks.append(JordanBlock(np.column_stack([v, w]), theta))
                used_w.append(w)

    # Directions in range(1-P) not consumed by a 2-dim block.
    if vq.shape[1] > 0:
        if used_w:
            wmat = np.column_stack(used_w)
            proj = vq - wmat @ (wmat.conj().T @ vq)
        else:
            proj = vq
        # Orthonormalize the leftover span.
        q, r = np.linalg.qr(proj)
        keep = np.abs(np.diag(r)) > 1e-7
        rest = q[:, keep]
        if rest.shape[1] > 0:
            comp = rest.conj().T @ m @ rest
            evals, u = np.linalg.eigh((comp + comp.conj().T) / 2.0)
            for k in range(len(evals)):
                v = rest @ u[:, k]
                if evals[k] > 0.5:
                    aligned[(0, 1)].append(v)
                else:
                    aligned[(0, 0)].append(v)

    result = JordanBlocks(dim=d, blocks=blocks)
    # Pair commuting directions into degenerate blocks: (1,1)+(0,0) -> angle 0,
    # (1,0)+(0,1) -> angle pi.  Unpaired directions stay as residuals.
    for keys, theta in ((((1, 1), (0, 0)), 0.0), (((1, 0), (0, 1)), math.pi)):
        top, bot = aligned[keys[0]], aligned[keys[1]]
        while top and bot:
            v = top.pop()
            w = bot.pop()
            result.blocks.append(JordanBlock(np.column_stack([v, w]), theta))
    for (pe, me), vecs in aligned.items():
        for v in vecs:
            result.residuals.append((v, pe, me))
    return result


def good_subspace_projector(p: np.ndarray, m: np.ndarray, c: float) -> np.ndarray:
    """Projector onto the blocks whose square overlap is at most c.

    Residual one-dimensional simultaneous eigenspaces are included; commuting
    sectors only enlarge the projector, which keeps the trace bound valid.
    """
    if not (0.5 < c <= 1.0):
        raise ValueError(f"overlap threshold c={c} outside (1/2, 1]")
    jb = jordan_decompose(p, m)
    gamma = jb.residual_projector()
    for b in jb.blocks:
        if b.overlap <= c + 1e-12:
            gamma += b.projector()
    return gamma


def commutator_defect(
    pi3: Sequence[np.ndarray], m2: Sequence[np.ndarray], psi: np.ndarray
) -> float:
    """|1/2 - sum_b tr(M0 Pi_b psi Pi_b)| for the first two outcomes of pi3.

    ``psi`` must be normalized on the span of the first two elements of pi3.
    """
    psi = np.asarray(psi)
    good = np.asarray(pi3[0]) + np.asarray(pi3[1])
    if abs(np.real(np.trace(good @ psi)) - 1.0) > 1e-8:
        raise ValueError("state is not normalized on the first two outcomes")
    m0 = np.asarray(m2[0])
    total = 0.0
    for b in (0, 1):
        pb = np.asarray(pi3[b])
        total += np.real(np.trace(m0 @ pb @ psi @ pb))
    return abs(0.5 - total)


# ---------------------------------------------------------------------------
# Random instances for property and verification suites
# ---------------------------------------------------------------------------


def random_ginibre(shape, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian array: all real parts are drawn, then all imaginary."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def density_from_ginibre(g: np.ndarray) -> np.ndarray:
    """G G^dagger / tr(G G^dagger), for one matrix G or a stack of them."""
    rho = g @ np.swapaxes(g.conj(), -1, -2)
    return rho / np.real(np.trace(rho, axis1=-2, axis2=-1))[..., None, None]


def projectors_from_ginibre(g: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """For a stack of square G, the projector onto the first ranks[i] columns
    of the Q factor of G[i]."""
    q, _ = np.linalg.qr(g)
    out = np.empty_like(q)
    for rank in np.unique(ranks):
        sel = ranks == rank
        v = q[sel, :, :rank]
        out[sel] = v @ np.swapaxes(v.conj(), -1, -2)
    return out


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = random_ginibre(dim, rng)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_density_matrix(
    dim: int, rng: np.random.Generator, rank: Optional[int] = None
) -> np.ndarray:
    return density_from_ginibre(random_ginibre((dim, rank or dim), rng))


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    g = random_ginibre((1, dim, dim), rng)
    return projectors_from_ginibre(g, np.array([rank]))[0]
