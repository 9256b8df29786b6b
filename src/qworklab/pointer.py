"""Gaussian-pointer (von Neumann) measurement schemes in closed form.

Two protocols are simulated analytically with an initial pure Gaussian
pointer of position standard deviation ``s``:

* the two-interaction work meter: couple H, evolve, counter-couple H_final,
  read the pointer once;
* the post-selected weak-value protocol: couple a single initial-energy
  projector, read the pointer, evolve, measure the final energy.  Its rows
  are the joint table of ``schemes._joint_weights`` at the interference
  factor kappa = exp(-g^2 / 8 s^2): TPM at kappa = 0, Margenau-Hill at 1.

Sign convention: ``exp(i a P)`` translates the pointer by ``+a``, so the
meter's pointer lands at g (E_n - E'_m) and the readout axis is negated to
report w = E'_m - E_n; the conditional pointer wavefunction on that axis is
a superposition of Gaussians centred at g (E'_m - E_n).  All Gaussian
overlaps are exact, so the grid only renders densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridTooNarrow
from .scenario import Scenario, ScenarioBatch
from .schemes import _joint_table, _transition_kernels, margenau_hill, tpm

GRID_MIN_POINTS = 256
GRID_MAX_POINTS = 2 ** 17
NORMALIZATION_TOL = 1e-6
_COVER_SIGMAS = 6.0
_EXP_ZERO = -746.0  # exp(x) rounds to 0.0 for every double x below this


def _require_coupling_and_spread(coupling: float, spread: float) -> None:
    if not (0 < coupling < math.inf and 0 < spread < math.inf):  # NaN fails too
        raise DomainError("coupling and spread must be finite and positive")


@dataclass(frozen=True)
class PointerConfig:
    """Coupling strength, initial pointer spread, and readout grid."""

    coupling: float
    spread: float
    x_min: float
    x_max: float
    n_points: int = 2048

    def __post_init__(self):
        _require_coupling_and_spread(self.coupling, self.spread)
        if self.n_points < GRID_MIN_POINTS:
            raise DomainError(f"n_points must be at least {GRID_MIN_POINTS}")
        if self.x_max <= self.x_min:
            raise DomainError("empty grid range")

    def grid(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @classmethod
    def for_scenario(cls, s: Scenario, coupling: float, spread: float,
                     points_per_sigma: float = 48.0) -> "PointerConfig":
        """Grid that covers every shifted centre by 6 spreads and resolves them."""
        _require_coupling_and_spread(coupling, spread)  # before the grid divides by spread
        dec_i, dec_f = s.spectrum("H"), s.spectrum("H_final")
        centers = coupling * (dec_f.eigenvalues[:, None] - dec_i.eigenvalues[None, :]).ravel()
        lo = float(centers.min() - _COVER_SIGMAS * spread)
        hi = float(centers.max() + _COVER_SIGMAS * spread)
        n = int(math.ceil((hi - lo) / spread * points_per_sigma)) + 1
        n = min(max(n, GRID_MIN_POINTS), GRID_MAX_POINTS)
        return cls(coupling=coupling, spread=spread, x_min=lo, x_max=hi, n_points=n)


@dataclass(frozen=True, eq=False)
class PointerReadout:
    """Readout-position density on a grid, with the implied work density."""

    xs: np.ndarray
    density: np.ndarray
    coupling: float

    def work_axis(self) -> np.ndarray:
        return self.xs / self.coupling

    def work_density(self) -> np.ndarray:
        return self.density * self.coupling

    def normalization(self) -> float:
        return float(np.trapezoid(self.density, self.xs))

    def mean_work(self) -> float:
        return float(np.trapezoid(self.work_axis() * self.work_density(),
                                  self.work_axis()))

    def window_mass(self, center_w: float, half_width_w: float) -> float:
        """Integrated work-density mass in [center - hw, center + hw]."""
        w = self.work_axis()
        mask = (w >= center_w - half_width_w) & (w <= center_w + half_width_w)
        if mask.sum() < 2:
            return 0.0
        return float(np.trapezoid(self.work_density()[mask], w[mask]))


def _amplitudes(centers: np.ndarray, xs: np.ndarray, spread: float) -> np.ndarray:
    """phi[m, n, x]: the initial Gaussian pointer amplitude shifted to each centre
    ``centers[m, n]`` of one experiment, on the grid ``xs``; real.  An exponent below
    ``_EXP_ZERO`` gives 0.0 without a call to exp, whose underflow path is slow."""
    arg = xs[None, None, :] - centers[:, :, None]
    np.square(arg, out=arg)
    np.divide(arg, -4.0 * spread ** 2, out=arg)
    phi = np.exp(arg, out=np.zeros_like(arg), where=arg > _EXP_ZERO)
    phi *= (2.0 * math.pi * spread ** 2) ** -0.25
    return phi


def meter_densities(b: ScenarioBatch, cfg: PointerConfig) -> np.ndarray:
    """Two-interaction work-meter readout densities of every member, (n, X) on
    ``cfg.grid()``.

    density[a, x] = sum_{m,n,n'} q[a, m, n, n'] phi[m, n, x] phi[m, n', x] with q the
    transition kernel of ``schemes._transition_kernels``.  phi is real and formed once
    per experiment, so each member's density is Re q[a, m] @ phi[m], one real product
    per final level m, contracted with phi.  The cover, floor and normalisation checks
    hold for every member; the first member that fails one raises ``GridTooNarrow``.
    """
    g, spread = cfg.coupling, cfg.spread
    q = np.ascontiguousarray(_transition_kernels(b)[0].real)
    centers = g * (b.spectrum("H_final")[0][:, :, None]
                   - b.spectrum("H")[0][:, None, :])  # centers[j, m, n] of experiment j
    lo, hi = (b.per_member(f(centers, axis=(1, 2))) for f in (np.min, np.max))
    bad = np.flatnonzero((lo - _COVER_SIGMAS * spread < cfg.x_min)
                         | (hi + _COVER_SIGMAS * spread > cfg.x_max))
    if bad.size:
        raise GridTooNarrow(
            f"grid [{cfg.x_min}, {cfg.x_max}] must cover centres "
            f"[{lo[bad[0]]:.6g}, {hi[bad[0]]:.6g}] plus {_COVER_SIGMAS} spreads"
        )
    xs = cfg.grid()
    density = np.empty((len(b), xs.size))
    for j in dict.fromkeys(b.experiment.tolist()):  # each experiment once, in member order
        phi = _amplitudes(centers[j], xs, spread)
        for a in np.flatnonzero(b.experiment == j):
            density[a] = np.einsum("mnx,mnx->x", q[a] @ phi, phi)
    floor = density.min(axis=1)
    bad = np.flatnonzero(floor < -1e-12)
    if bad.size:
        raise GridTooNarrow(f"density dipped to {floor[bad[0]]:.3e}; numerical inconsistency")
    np.clip(density, 0.0, None, out=density)
    # the trapezoid rule as one product: no temporary of the density's size per member
    half_steps = np.diff(xs) / 2.0
    mass = density @ (np.append(half_steps, 0.0) + np.append(0.0, half_steps))
    bad = np.flatnonzero(np.abs(mass - 1.0) > NORMALIZATION_TOL)
    if bad.size:
        raise GridTooNarrow(
            f"grid resolves only {mass[bad[0]]:.8f} of the density; "
            "widen the range or raise n_points"
        )
    return density


def gaussian_meter(s: Scenario, cfg: PointerConfig) -> PointerReadout:
    """Two-interaction work-meter readout density: ``meter_densities`` of the
    scenario's batch of one.

    The readout density is a bilinear combination of Gaussians centred at
    g (E'_m - E_n) with single-interaction position noise ``spread``; branch
    coherences between (n, n') are damped by exp(-g^2 (E_n - E_n')^2 / 8 s^2).
    """
    return PointerReadout(xs=cfg.grid(), density=meter_densities(ScenarioBatch.of([s]), cfg)[0],
                          coupling=cfg.coupling)


def _gaussian_mixture_work_density(atoms, sigma_w: float, ws: np.ndarray) -> np.ndarray:
    out = np.zeros_like(ws)
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma_w)
    for w0, p in atoms:
        out += p * norm * np.exp(-((ws - w0) ** 2) / (2.0 * sigma_w ** 2))
    return out


def smeared_distribution_density(dist, cfg: PointerConfig, ws: np.ndarray) -> np.ndarray:
    """Atom distribution convolved with the meter's Gaussian (sigma = s/g in work units)."""
    return _gaussian_mixture_work_density(dist.atoms, cfg.spread / cfg.coupling, ws)


def gaussian_meter_vs_fcs(s: Scenario, cfg: PointerConfig) -> float:
    """L1 distance between the meter work density and Gaussian * FCS quasi-probability."""
    from .schemes import fcs_quasiprob

    readout = gaussian_meter(s, cfg)
    ws = readout.work_axis()
    conv = smeared_distribution_density(fcs_quasiprob(s), cfg, ws)
    return float(np.trapezoid(np.abs(readout.work_density() - conv), ws))


def gaussian_meter_vs_tpm(s: Scenario, cfg: PointerConfig) -> float:
    """L1 distance between the meter work density and Gaussian * TPM distribution."""
    readout = gaussian_meter(s, cfg)
    ws = readout.work_axis()
    conv = smeared_distribution_density(tpm(s)[0], cfg, ws)
    return float(np.trapezoid(np.abs(readout.work_density() - conv), ws))


def weak_value_protocol(s: Scenario, k: int, cfg: PointerConfig) -> np.ndarray:
    """Post-selected pointer row p(E'_m) <X>_{|E'_m} / g for initial index ``k``.

    ``k`` indexes the eigenspaces of the initial Hamiltonian (ascending).  The
    pointer marginalization is exact: the row interpolates between the TPM
    joint row (strong coupling) and the Margenau-Hill row (weak coupling) with
    interference factor exp(-g^2 / 8 s^2).
    """
    rows = weak_value_table(s, cfg)
    if not 0 <= k < rows.shape[0]:
        raise ValueError(f"k={k} outside the {rows.shape[0]} initial eigenspaces")
    return rows[k]


def _kappa(coupling: float, spread: float) -> float:
    """The interference factor exp(-coupling^2 / (8 spread^2)) of the weak-value
    protocol: its rows are ``schemes._joint_weights`` at this kappa."""
    return math.exp(-coupling ** 2 / (8.0 * spread ** 2))


def weak_value_table(s: Scenario, cfg: PointerConfig) -> np.ndarray:
    """All weak-value protocol rows stacked: shape (n_initial, n_final)."""
    return _joint_table(s, _kappa(cfg.coupling, cfg.spread)).weights


def interpolation_sweep(s: Scenario, coupling: float, ratios):
    """L1 distances of the weak-value table to the TPM and MH joint tables.

    ``ratios`` are spread/coupling values, swept from strong (small) to weak
    (large) measurements.  Returns a list of (ratio, d_tpm, d_mh).
    """
    _, tpm_table = tpm(s)
    mh_table, _ = margenau_hill(s)
    out = []
    for ratio in ratios:
        cfg = PointerConfig.for_scenario(s, coupling=coupling, spread=coupling * ratio)
        rows = weak_value_table(s, cfg)
        d_tpm = float(np.abs(rows - tpm_table.weights).sum())
        d_mh = float(np.abs(rows - mh_table.weights).sum())
        out.append((float(ratio), d_tpm, d_mh))
    return out
