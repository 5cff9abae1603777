"""Experiment input generation: random per-class demand matrices and
quasi-periodic arrival-rate series (sinusoid modulated by a persistent
AR(1) perturbation), plus a default rule for picking attainable
response-time thresholds.
"""

from dataclasses import dataclass

import numpy as np

from .model import DemandMatrix, _finite_nonneg
from .planner import SlaThresholds


@dataclass(frozen=True)
class WorkloadLaw:
    """Per-class arrival-rate law: lambda_c(t) = max(0,
    base*(1 + amplitude*sin(2*pi*t/period + phase))*(1 + eps_c(t)))
    where eps_c is AR(1) with stationary sd perturbation_sd and
    persistence rho."""

    base_rates: np.ndarray
    amplitudes: np.ndarray
    periods: np.ndarray
    phases: np.ndarray
    perturbation_sd: float = 0.0
    perturbation_persistence: float = 0.0

    def __post_init__(self):
        for name in ("base_rates", "amplitudes", "periods", "phases"):
            v = np.array(getattr(self, name), dtype=np.float64)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        # Each check is written so that NaN fails it.
        if not _finite_nonneg(self.base_rates):
            raise ValueError("base rates must be finite and >= 0")
        if not np.all((self.amplitudes >= 0) & (self.amplitudes < 1)):
            raise ValueError("amplitudes must lie in [0, 1)")
        if not np.all((self.periods > 0) & (self.periods < np.inf)):
            raise ValueError("periods must be finite and > 0")
        if not np.all(np.isfinite(self.phases)):
            raise ValueError("phases must be finite")
        if not 0 <= self.perturbation_sd < np.inf:
            raise ValueError("perturbation_sd must be finite and >= 0")
        if not 0 <= self.perturbation_persistence < 1:
            raise ValueError("perturbation persistence must lie in [0, 1)")

    @property
    def num_classes(self):
        return self.base_rates.shape[0]


@dataclass(frozen=True)
class DemandLaw:
    """Random demand matrix: class-c entries uniform on [0, c/C] (1-based c)."""

    num_classes: int
    num_stations: int
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 1 or self.num_stations < 1:
            raise ValueError("C and K must be >= 1")


def gen_demands(law):
    """Draw the demand matrix for a demand law, deterministically per seed."""
    rng = np.random.default_rng(law.seed)
    C, K = law.num_classes, law.num_stations
    bounds = np.arange(1, C + 1, dtype=float) / C
    return DemandMatrix(rng.uniform(0.0, 1.0, size=(C, K)) * bounds[:, np.newaxis])


def default_law(num_classes, horizon, seed, base_rate=1.5, amplitude=0.8,
                perturbation_sd=0.1, perturbation_persistence=0.8):
    """Default experiment law: equal base rates, class-dependent periods
    horizon/(c+1) so every class oscillates differently, random phases."""
    rng = np.random.default_rng(seed)
    c_idx = np.arange(1, num_classes + 1, dtype=float)
    return WorkloadLaw(
        base_rates=np.full(num_classes, float(base_rate)),
        amplitudes=np.full(num_classes, float(amplitude)),
        periods=horizon / (c_idx + 1.0),
        phases=rng.uniform(0.0, 2.0 * np.pi, size=num_classes),
        perturbation_sd=float(perturbation_sd),
        perturbation_persistence=float(perturbation_persistence),
    )


def gen_arrival_series(law, horizon, seed):
    """Generate the (horizon, C) arrival-rate matrix for a workload law.

    The AR(1) perturbation is initialized from its stationary distribution;
    innovation sd is scaled so the stationary sd equals perturbation_sd.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rng = np.random.default_rng(seed)
    C = law.num_classes
    t = np.arange(horizon, dtype=float)[:, np.newaxis]
    sinus = law.base_rates * (
        1.0 + law.amplitudes * np.sin(2.0 * np.pi * t / law.periods + law.phases)
    )
    if law.perturbation_sd > 0:
        rho = law.perturbation_persistence
        innov_sd = law.perturbation_sd * np.sqrt(1.0 - rho**2)
        eps = np.empty((horizon, C))
        eps[0] = rng.normal(0.0, law.perturbation_sd, size=C)
        shocks = rng.normal(0.0, innov_sd, size=(horizon, C))
        for i in range(1, horizon):
            eps[i] = rho * eps[i - 1] + shocks[i]
        sinus = sinus * (1.0 + eps)
    return np.maximum(sinus, 0.0)


def default_thresholds(demands, multiplier):
    """Thresholds set to `multiplier` times each class's asymptotic response
    floor at the single-instance reference; attainable for multiplier > 1.
    Raw demands are checked as a DemandMatrix."""
    if not multiplier > 1:
        raise ValueError("multiplier must be > 1")
    if not isinstance(demands, DemandMatrix):
        demands = DemandMatrix(demands)
    return SlaThresholds(multiplier * demands.demands.sum(axis=1))
