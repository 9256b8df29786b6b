"""Seeded, numpy-only generator for the ``spectral`` workload's scenario files.

The distribution matches ``qworklab.audit.sample_scenario`` (coherent,
undriven): each Hamiltonian is a Haar rotation of a unit-spaced ladder with
0.4 jitter, the evolution is a Haar unitary and the state is a normalised
Wishart matrix.  The generator uses numpy only, so the benchmark's inputs do
not depend on the code being measured.
"""

from __future__ import annotations

import json

import numpy as np

SPECTRAL_DIMS = (16, 32, 64)

# Reserved for confirming a claimed gain after the change is written; never
# tune against it.
HELD_OUT_SEED = 7919


def _rng(seed: int, dim: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, dim]))


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """QR factor of a complex Ginibre matrix with a positive-real R diagonal."""
    q, r = np.linalg.qr(_ginibre(dim, rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ladder_hamiltonian(dim: int, rng: np.random.Generator) -> np.ndarray:
    u = haar_unitary(dim, rng)
    h = (u * (np.arange(dim, dtype=float) + 0.4 * rng.random(dim))) @ u.conj().T
    return (h + h.conj().T) / 2.0


def wishart_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = _ginibre(dim, rng)
    w = g @ g.conj().T
    w = (w + w.conj().T) / 2.0
    return w / np.trace(w).real


def _pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def scenario_arrays(seed: int, dim: int):
    """(H, H_final, U, rho) of the seeded scenario at one dimension."""
    rng = _rng(seed, dim)
    h = ladder_hamiltonian(dim, rng)
    hf = ladder_hamiltonian(dim, rng)
    return h, hf, haar_unitary(dim, rng), wishart_density(dim, rng)


def scenario_document(seed: int, dim: int) -> str:
    """JSON text of the seeded scenario at one dimension."""
    h, hf, u, rho = scenario_arrays(seed, dim)
    doc = {
        "dim": dim,
        "label": f"spectral-d{dim}-seed{seed}",
        "H": _pairs(h),
        "H_final": _pairs(hf),
        "evolution": {"type": "unitary", "U": _pairs(u)},
        "rho": _pairs(rho),
    }
    return json.dumps(doc) + "\n"


def write_spectral_inputs(seed: int, directory) -> dict[int, str]:
    """Write one scenario file per dimension; returns {dim: path}."""
    paths = {}
    for dim in SPECTRAL_DIMS:
        path = f"{directory}/spectral-d{dim}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(scenario_document(seed, dim))
        paths[dim] = path
    return paths
