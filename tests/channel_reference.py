"""Test-only reference: the 1 -> 2 cloner as one bilinear formula read off the splitter.

The input and the ancilla enter on different paths, so the post-selected clone is
linear in the input rho and in the ancilla sigma.  With M_a and M_b the blocks of the
checked splitter from paths a and b to a port, rows and columns in label order,
X = M_a rho M_a^dag and P = M_b sigma M_b^dag, the unnormalized clone on the port is

    L(rho, sigma) = [tr(P) X + X P + P X + tr(X) P] / 2,

and p = tr L is the port's success probability.  It holds for every d, both ports and
any ancilla ensemble through its sigma.  It reads the package only through the public
``elements.splitter``, ``cloning.label_basis`` and ``cloning.label_modes``, and shares
none of the Fock-space kernels.
"""

import numpy as np

from oamclone import cloning, elements


def port_blocks(d: int, port: str):
    """(M_a, M_b): the d x d blocks of ``elements.splitter(cloning.label_basis(d))``
    from paths a and b to ``port``, in label order."""
    basis = cloning.label_basis(d)
    matrix = elements.splitter(basis).matrix

    def index(path):
        return [basis.index(mode) for mode in cloning.label_modes(d, path)]

    return tuple(matrix[np.ix_(index(port), index(path))] for path in ("a", "b"))


def clone(rho, sigma, port: str):
    """(the clone L / tr L, its success probability tr L) on ``port`` for the d x d
    input rho and ancilla sigma, both in label order."""
    m_a, m_b = port_blocks(len(rho), port)
    x = m_a @ rho @ m_a.conj().T
    p = m_b @ sigma @ m_b.conj().T
    unnormalized = (np.trace(p) * x + x @ p + p @ x + np.trace(x) * p) / 2.0
    prob = float(np.trace(unnormalized).real)
    return unnormalized / prob, prob


def projector(amps):
    """|phi><phi| of the normalized ``amps``."""
    phi = np.asarray(amps, dtype=complex)
    phi = phi / np.linalg.norm(phi)
    return np.outer(phi, phi.conj())


def sampled_sigma(n: int, seed):
    """The sampled I/2 ancilla as documented by ``cloning.run_cloner_full``: n real qubits
    (cos 2t, sin 2t) on (+2, -2), t from ``default_rng(seed).uniform(0, pi, n)``, each of
    weight 1/n."""
    t = np.random.default_rng(seed).uniform(0.0, np.pi, n)
    chi = np.stack([np.cos(2 * t), np.sin(2 * t)])
    return chi @ chi.T / n
