"""Photon-pair number statistics per pump pulse.

Truncated number distributions for SPDC sources (thermal and poissonian
families), Bayesian conditioning on a herald detector click, and binomial
loss thinning.  Distributions are immutable value objects; each pair is
identified with one photon per arm, and losses are applied downstream via
:func:`apply_loss` rather than inside the constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_N_MAX = 20


class UndefinedConditioningError(ValueError):
    """Raised when the herald click probability is exactly zero."""


@dataclass(frozen=True)
class HeraldModel:
    """Herald detection model for conditioning a pair distribution.

    efficiency is the end-to-end probability, per created pair, that the
    herald photon produces a detector click.  efficiency=None selects the
    vanishing-efficiency limit, where the conditioned pmf tends to
    n*p(n)/mean.  dark_prob is an independent per-gate false-click
    probability that mixes unconditioned pulses into the heralded set.
    """

    efficiency: float | None
    dark_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.efficiency is not None and not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"herald efficiency must be in [0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark_prob <= 1.0:
            raise ValueError(f"herald dark probability must be in [0, 1], got {self.dark_prob}")


@dataclass(frozen=True)
class PhotonNumberDistribution:
    """Truncated pmf over pair/photon number per pulse.

    pmf entries are nonnegative and sum to 1 within the truncation tolerance
    (exactly 1 after any renormalizing operation).
    """

    pmf: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.pmf:
            raise ValueError("pmf must have at least one entry")
        if not all(p >= 0 for p in self.pmf):
            raise ValueError("pmf entries must be nonnegative")
        total = sum(self.pmf)
        if not (1.0 - 1e-9) <= total <= 1.0 + 1e-9:
            raise ValueError(f"pmf must sum to ~1, got {total}")

    @property
    def n_max(self) -> int:
        return len(self.pmf) - 1

    def p(self, n: int) -> float:
        return self.pmf[n] if 0 <= n <= self.n_max else 0.0


def thermal(mean_pairs: float, n_max: int = DEFAULT_N_MAX) -> PhotonNumberDistribution:
    """Thermal (single-mode SPDC) distribution: p(n) = N^n / (1+N)^(n+1)."""
    if not mean_pairs >= 0:
        raise ValueError(f"mean pair number must be >= 0, got {mean_pairs}")
    pmf = tuple(mean_pairs**n / (1.0 + mean_pairs) ** (n + 1) for n in range(n_max + 1))
    return PhotonNumberDistribution(pmf)


def poisson(mean_pairs: float, n_max: int = DEFAULT_N_MAX) -> PhotonNumberDistribution:
    """Poissonian comparison family: p(n) = exp(-N) N^n / n!."""
    if not mean_pairs >= 0:
        raise ValueError(f"mean pair number must be >= 0, got {mean_pairs}")
    pmf = tuple(
        math.exp(-mean_pairs) * mean_pairs**n / math.factorial(n) for n in range(n_max + 1)
    )
    return PhotonNumberDistribution(pmf)


def custom(pmf) -> PhotonNumberDistribution:
    """Wrap an explicit pmf; renormalizes away rounding at the 1e-9 level."""
    values = [float(p) for p in pmf]
    total = sum(values)
    if not total > 0:
        raise ValueError("pmf must have positive total mass")
    return PhotonNumberDistribution(tuple(p / total for p in values))


def herald_condition(
    dist: PhotonNumberDistribution, model: HeraldModel
) -> PhotonNumberDistribution:
    """Condition a pair distribution on a herald click.

    The click probability given n pairs is 1 - (1-eta)^n (1-dark); the
    returned pmf is p(n) * p(click|n), renormalized.  With dark=0 the
    efficiency->0 limit is n*p(n)/mean, available via efficiency=None.
    """
    if model.efficiency is None:
        weights = [n * p for n, p in enumerate(dist.pmf)]
    else:
        eta, dark = model.efficiency, model.dark_prob
        weights = [
            p * (1.0 - (1.0 - eta) ** n * (1.0 - dark)) for n, p in enumerate(dist.pmf)
        ]
    total = sum(weights)
    if not total > 0.0:
        raise UndefinedConditioningError(
            "herald click probability is zero; conditioning is undefined"
        )
    return PhotonNumberDistribution(tuple(w / total for w in weights))


def apply_loss(dist: PhotonNumberDistribution, survival_prob: float) -> PhotonNumberDistribution:
    """Binomial thinning: each photon independently survives with survival_prob.

    Thermal and poissonian families are closed under thinning (the mean just
    scales); the generic convolution below is exact for any family.
    """
    if not 0.0 <= survival_prob <= 1.0:
        raise ValueError(f"survival probability must be in [0, 1], got {survival_prob}")
    n_max = dist.n_max
    out = [0.0] * (n_max + 1)
    q = 1.0 - survival_prob
    for n, p in enumerate(dist.pmf):
        if p == 0.0:
            continue
        for k in range(n + 1):
            out[k] += p * math.comb(n, k) * survival_prob**k * q ** (n - k)
    return PhotonNumberDistribution(tuple(out))
