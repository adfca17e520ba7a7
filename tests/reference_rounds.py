"""Round-by-round reference simulator for the columnar ``run_protocol``.

This is the per-round loop the library used before transcripts became
columns: one generator call per decision, and each round's response
probability taken afresh from the block's device marginal (a partial trace
per round) instead of the block's stored probabilities.  Tests require the
library's transcripts to equal this runner's byte for byte.
"""

import numpy as np

from eatcert import quantum
from eatcert.devices import _equation_projector
from eatcert.protocol import BOT, RoundRecord, Transcript


def _sample_block(device, rng):
    """Block index, or -1 for the junk sector."""
    u = rng.random()
    acc = 0.0
    for j, b in enumerate(device.blocks):
        acc += b.weight
        if u < acc:
            return j
    return -1


def _marginal(block):
    return quantum.partial_trace(block.state, (2, 2), traced=1)


def respond_preimage(device, rng):
    j = _sample_block(device, rng)
    if j < 0:
        return 2
    p0 = float(np.real(_marginal(device.blocks[j])[0, 0]))
    return 0 if rng.random() < p0 else 1


def respond_equation(device, rng):
    j = _sample_block(device, rng)
    if j < 0:
        win = rng.random() < device.junk_equation_win
    else:
        b = device.blocks[j]
        p_win = float(np.real(np.trace(_equation_projector(b.angle) @ _marginal(b))))
        win = rng.random() < p_win
    return 0 if win else 1


def run_protocol_per_round(device, params, seed):
    """The test/generation split draws one uniform per round, the challenge
    split one more in test rounds, then the device consumes the generator."""
    rng = np.random.default_rng(seed)
    rounds = []
    for i in range(params.n):
        key = f"k{i:08d}"
        if not rng.random() < params.gamma:
            pi_hat = respond_preimage(device, rng)
            rounds.append(RoundRecord(i, key, 1, 0, pi_hat, BOT, BOT))
        elif rng.random() < params.beta:
            m_hat = respond_equation(device, rng)
            rounds.append(RoundRecord(i, key, 0, 1, BOT, m_hat, 1 if m_hat == 0 else 0))
        else:
            pi_hat = respond_preimage(device, rng)
            rounds.append(RoundRecord(i, key, 0, 0, pi_hat, BOT, 1 if pi_hat != 2 else 0))
    wins = sum(r.w for r in rounds if r.g == 0)
    threshold = (params.omega_exp * params.gamma - params.delta_est) * params.n
    return Transcript.from_rounds(params, seed, rounds, aborted=wins < threshold)
