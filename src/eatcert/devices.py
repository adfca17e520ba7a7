"""Simulated qubit-block devices.

A device is a convex mixture of orthogonal two-dimensional sectors, each
carrying a qubit state (possibly entangled with a qubit of side information
E), plus a one-dimensional junk sector on which the preimage test always
fails.  Within a block the preimage measurement is the computational basis
and the equation measurement is rotated by the block angle.  These devices
drive both the protocol simulator and the exact-entropy oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from . import quantum
from .bound import WinningStats

__all__ = [
    "DeviceBlock",
    "QubitBlockDevice",
    "ideal_device",
    "random_device",
    "device_stats",
    "device_operators",
    "exact_round_entropy",
    "exact_equation_entropy",
    "serialize_device",
    "parse_device",
]

_WEIGHT_TOL = 1e-10


def _equation_projector(angle: float) -> np.ndarray:
    """Winning equation-measurement element in the block basis."""
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    return np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)


def _named_state(token: str, angle: float) -> np.ndarray:
    """4-dim density matrix on D (x) E for a named block state."""
    e0 = np.zeros(2, dtype=complex)
    e0[0] = 1.0
    if token == "m0":
        c = math.cos(angle / 2.0)
        s = math.sin(angle / 2.0)
        v = np.kron(np.array([c, s], dtype=complex), e0)
    elif token == "pi0":
        v = np.kron(np.array([1.0, 0.0], dtype=complex), e0)
    elif token == "bell":
        v = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    else:
        raise ValueError(f"unknown state token {token!r}")
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class DeviceBlock:
    """One orthogonal sector: weight, measurement angle, joint state on D(x)E."""

    weight: float
    angle: float
    state: np.ndarray  # 4x4 density matrix on D (x) E

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"block weight {self.weight} outside [0, 1]")
        if not 0.0 <= self.angle <= math.pi / 2.0 + 1e-12:
            raise ValueError(f"block angle {self.angle} outside [0, pi/2]")
        state = np.asarray(self.state, dtype=complex)
        if state.shape != (4, 4):
            raise ValueError("block state must be 4x4 (device qubit with side info)")
        quantum.check_density_matrix(state)
        if abs(np.real(np.trace(state)) - 1.0) > 1e-8:
            raise ValueError("block state must be normalized")
        object.__setattr__(self, "state", state)

    # Computed once per block: the protocol simulator draws every round's
    # response against these.
    @cached_property
    def device_marginal(self) -> np.ndarray:
        return quantum.partial_trace(self.state, (2, 2), traced=1)

    @cached_property
    def preimage_zero_probability(self) -> float:
        return float(np.real(self.device_marginal[0, 0]))

    @cached_property
    def equation_win_probability(self) -> float:
        return float(
            np.real(np.trace(_equation_projector(self.angle) @ self.device_marginal))
        )


@dataclass(frozen=True)
class QubitBlockDevice:
    blocks: Tuple[DeviceBlock, ...]
    junk_weight: float = 0.0
    junk_equation_win: float = 0.0

    def __post_init__(self):
        blocks = tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not 0.0 <= self.junk_weight <= 1.0:
            raise ValueError("junk_weight outside [0, 1]")
        if not 0.0 <= self.junk_equation_win <= 1.0:
            raise ValueError("junk_equation_win outside [0, 1]")
        total = sum(b.weight for b in blocks) + self.junk_weight
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights sum to {total}, expected 1")

    # -- batched responses used by the protocol simulator -------------------
    # A round selects a sector with one uniform, u_block, and draws its
    # outcome with another, u_outcome; both arguments are arrays with one
    # entry per round.

    @cached_property
    def cumulative_weights(self) -> np.ndarray:
        """Running sums of the block weights, in block order.  A uniform
        selects the first block whose sum exceeds it, and the junk sector
        when none does."""
        return np.array(list(itertools.accumulate(b.weight for b in self.blocks)))

    def _sectors(self, u_block: np.ndarray) -> np.ndarray:
        """Block index per round, len(blocks) for the junk sector."""
        return np.searchsorted(self.cumulative_weights, u_block, side="right")

    def respond_preimage(self, u_block: np.ndarray, u_outcome: np.ndarray) -> np.ndarray:
        """Preimage outcomes: 2 in the junk sector (u_outcome unused there),
        otherwise 0 when u_outcome falls below the block's preimage-0
        probability and 1 when it does not."""
        p_zero = np.array([b.preimage_zero_probability for b in self.blocks] + [0.0])
        sector = self._sectors(u_block)
        outcome = np.where(sector == len(self.blocks), 2, u_outcome >= p_zero[sector])
        return outcome.astype(np.int8)

    def respond_equation(self, u_block: np.ndarray, u_outcome: np.ndarray) -> np.ndarray:
        """Equation outcomes, 0 for a win: a round wins when u_outcome falls
        below its block's equation-win probability (``junk_equation_win`` in
        the junk sector)."""
        p_win = np.array(
            [b.equation_win_probability for b in self.blocks] + [self.junk_equation_win]
        )
        return (u_outcome >= p_win[self._sectors(u_block)]).astype(np.int8)

    # -- exact operator picture, shared by device_stats and the oracles -----

    @cached_property
    def operators(self):
        """``device_operators(self)``, built once per device and read-only."""
        rho_de, pi3, m2, dims = device_operators(self)
        for op in (rho_de, *pi3, *m2):
            op.setflags(write=False)
        return rho_de, pi3, m2, dims

    @cached_property
    def device_marginal(self) -> np.ndarray:
        """rho_D: the device's state with the side information E traced out."""
        rho_de, _, _, dims = self.operators
        marginal = quantum.partial_trace(rho_de, dims, traced=1)
        marginal.setflags(write=False)
        return marginal


def ideal_device() -> QubitBlockDevice:
    """Single maximally incompatible block in the equation-winning state."""
    angle = math.pi / 2.0
    return QubitBlockDevice(
        blocks=(DeviceBlock(1.0, angle, _named_state("m0", angle)),)
    )


# ---------------------------------------------------------------------------
# Exact operator picture (oracle scale)
# ---------------------------------------------------------------------------


def device_operators(dev: QubitBlockDevice):
    """Global operators on the device Hilbert space D = (2 blocks each) + junk.

    Returns (rho_de, pi3, m2, dims) where rho_de lives on D (x) E with a
    2-dim E, pi3 is the 3-outcome preimage measurement on D and m2 the
    2-outcome equation POVM on D.
    """
    nb = len(dev.blocks)
    dd = 2 * nb + 1
    de = 2
    rho = np.zeros((dd * de, dd * de), dtype=complex)
    pi0 = np.zeros((dd, dd), dtype=complex)
    pi1 = np.zeros((dd, dd), dtype=complex)
    pi2 = np.zeros((dd, dd), dtype=complex)
    m0 = np.zeros((dd, dd), dtype=complex)
    for j, b in enumerate(dev.blocks):
        sl = slice(2 * j, 2 * j + 2)
        pi0[2 * j, 2 * j] = 1.0
        pi1[2 * j + 1, 2 * j + 1] = 1.0
        m0[sl, sl] = _equation_projector(b.angle)
        # Embed the block's 4x4 D(x)E state into the global D(x)E space.
        st = b.state.reshape(2, 2, 2, 2)
        full = rho.reshape(dd, de, dd, de)
        full[sl, :, sl, :] += b.weight * st
    pi2[dd - 1, dd - 1] = 1.0
    m0[dd - 1, dd - 1] = dev.junk_equation_win
    if dev.junk_weight > 0.0:
        full = rho.reshape(dd, de, dd, de)
        full[dd - 1, 0, dd - 1, 0] += dev.junk_weight
    m1 = np.eye(dd) - m0
    return rho, [pi0, pi1, pi2], [m0, m1], (dd, de)


def device_stats(dev: QubitBlockDevice) -> WinningStats:
    """Observable winning rates and exact commutator defect of a device."""
    omega_p = 1.0 - dev.junk_weight
    omega_m = dev.junk_weight * dev.junk_equation_win
    for b in dev.blocks:
        omega_m += b.weight * b.equation_win_probability
    if omega_p <= _WEIGHT_TOL:
        # No support on the good span; the defect is vacuous.
        return WinningStats(omega_p, min(omega_m, 1.0), 0.0)
    _, pi3, m2, _ = dev.operators
    good = pi3[0] + pi3[1]
    psi = (good @ dev.device_marginal @ good) / omega_p
    mu = quantum.commutator_defect(pi3, m2, psi)
    return WinningStats(omega_p, min(omega_m, 1.0), mu)


def exact_round_entropy(dev: QubitBlockDevice) -> float:
    """Exact conditional entropy of the preimage measurement outcome given
    all purifying side information."""
    _, pi3, _, _ = dev.operators
    return quantum.purified_measurement_entropy(dev.device_marginal, pi3)


def exact_equation_entropy(dev: QubitBlockDevice) -> float:
    """Same as exact_round_entropy for the equation measurement."""
    _, _, m2, _ = dev.operators
    return quantum.purified_measurement_entropy(dev.device_marginal, m2)


def random_device(
    rng: np.random.Generator,
    max_blocks: int = 3,
    max_junk: float = 0.3,
) -> QubitBlockDevice:
    nb = int(rng.integers(1, max_blocks + 1))
    junk = float(rng.uniform(0.0, max_junk))
    raw = rng.dirichlet(np.ones(nb))
    weights = raw * (1.0 - junk)
    blocks = []
    for j in range(nb):
        angle = float(rng.uniform(0.0, math.pi / 2.0))
        if rng.random() < 0.5:
            state = quantum.random_density_matrix(4, rng, rank=int(rng.integers(1, 5)))
        else:
            state = quantum.random_pure_state(4, rng)
        blocks.append(DeviceBlock(float(weights[j]), angle, state))
    # Absorb rounding drift into the first block so weights sum to one.
    drift = 1.0 - (sum(b.weight for b in blocks) + junk)
    if abs(drift) > 0.0:
        b0 = blocks[0]
        blocks[0] = DeviceBlock(b0.weight + drift, b0.angle, b0.state)
    junk_win = float(rng.uniform(0.0, 1.0)) if junk > 0 else 0.0
    return QubitBlockDevice(tuple(blocks), junk, junk_win)


# ---------------------------------------------------------------------------
# Flat key-value device files
# ---------------------------------------------------------------------------


def serialize_device(dev: QubitBlockDevice) -> str:
    lines = [
        f"blocks = {len(dev.blocks)}",
        f"junk_weight = {dev.junk_weight!r}",
        f"junk_equation_win = {dev.junk_equation_win!r}",
    ]
    for j, b in enumerate(dev.blocks):
        lines.append(f"block{j}.weight = {b.weight!r}")
        lines.append(f"block{j}.angle = {b.angle!r}")
        evals, vecs = np.linalg.eigh(b.state)
        if evals[-1] < 1.0 - 1e-10:
            raise ValueError("only pure block states can be serialized")
        v = vecs[:, -1]
        comps = []
        for amp in v:
            comps.append(repr(float(np.real(amp))))
            comps.append(repr(float(np.imag(amp))))
        lines.append(f"block{j}.state = pure:{','.join(comps)}")
    return "\n".join(lines) + "\n"


def _parse_state(token: str, angle: float) -> np.ndarray:
    token = token.strip()
    if token.startswith("pure:"):
        parts = [float(x) for x in token[len("pure:"):].split(",")]
        if len(parts) != 8:
            raise ValueError("pure state needs 8 comma-separated floats")
        v = np.array(
            [complex(parts[2 * i], parts[2 * i + 1]) for i in range(4)]
        )
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise ValueError("pure state vector is zero")
        v = v / norm
        return np.outer(v, v.conj())
    return _named_state(token, angle)


def parse_device(text: str) -> QubitBlockDevice:
    kv = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        kv[key.strip()] = val.strip()
    try:
        nb = int(kv.pop("blocks"))
    except KeyError:
        raise ValueError("missing required key 'blocks'") from None
    junk = float(kv.pop("junk_weight", "0"))
    junk_win = float(kv.pop("junk_equation_win", "0"))
    blocks = []
    for j in range(nb):
        weight = float(kv.pop(f"block{j}.weight"))
        angle = float(kv.pop(f"block{j}.angle"))
        state_tok = kv.pop(f"block{j}.state", "m0")
        blocks.append(DeviceBlock(weight, angle, _parse_state(state_tok, angle)))
    if kv:
        raise ValueError(f"unknown device keys: {sorted(kv)}")
    return QubitBlockDevice(tuple(blocks), junk, junk_win)
