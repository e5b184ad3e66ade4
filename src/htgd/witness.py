"""Exact factor sets built from known model parameters.

These closed-form witnesses land on the global minimum of the
corresponding objective under full observation: the lifted products
reproduce the weighted signal exactly and every structure and coupling
penalty vanishes.  They back the self-test command and the test suite;
they are not part of the public solver API.
"""

from __future__ import annotations

import numpy as np

from .chtgd import FactorSetC
from .mhtgd import FactorSetM
from .signals import ProblemDims, SpectralModel, steering


def factor_witness_general(model: SpectralModel, dims: ProblemDims):
    """Factor pairs (z1, z2), each (L, n, K), with z2 z1^H = H x_l exactly.

    With S the complex coefficients, row powers p_k = ||S[k, :]|| / sqrt(L)
    and unit phases phi = S / |S|, channel l uses

        z1 = conj(A) diag(|S[:, l]| / sqrt(p)),
        z2 = A diag(sqrt(p) * phi[:, l]).
    """
    n = dims.n
    A = steering(model.freqs, n)
    S = model.coefficients()
    row_power = np.linalg.norm(S, axis=1) / np.sqrt(dims.L)
    phases = S / np.abs(S)
    z1 = np.empty((dims.L, n, dims.K), dtype=complex)
    z2 = np.empty((dims.L, n, dims.K), dtype=complex)
    for l in range(dims.L):
        z1[l] = A.conj() * (np.abs(S[:, l]) / np.sqrt(row_power))
        z2[l] = A * (np.sqrt(row_power) * phases[:, l])
    return FactorSetM(z1=z1, z2=z2)


def factor_witness_ca(model: SpectralModel, dims: ProblemDims):
    """Symmetric factors z (L, n, K) with z z^T = H x_l and z z^H shared.

    Valid for constant-amplitude models: z_l = A diag(sqrt(b) * exp(i phi[:, l] / 2)).
    """
    if not model.is_ca:
        raise ValueError("witness requires a constant-amplitude model")
    n = dims.n
    A = steering(model.freqs, n)
    b = model.amps[:, 0]
    z = np.empty((dims.L, n, dims.K), dtype=complex)
    for l in range(dims.L):
        z[l] = A * (np.sqrt(b) * np.exp(0.5j * model.phases[:, l]))
    return FactorSetC(z=z)
