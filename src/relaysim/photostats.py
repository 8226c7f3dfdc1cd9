"""Photon-pair number statistics per pump pulse.

Number distributions for SPDC sources (thermal and poissonian families), cut
at N_MAX pairs and rejected if they lose more than 1e-9 above it; Bayesian
conditioning on a herald detector click, given by its efficiency and dark
probability, and binomial loss thinning.  Distributions are immutable value
objects; each pair is identified with one photon per arm, and losses are
applied downstream via :func:`apply_loss`.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .components import detector_clicks
from .records import record

N_MAX = 20  # the largest pair number of every pair law (the joint law's routing table has 21**4 cells)
PMF_TOLERANCE = 1e-9  # mass a truncated pmf may lose, or gain by rounding


class UndefinedConditioningError(ValueError):
    """Raised when the herald click probability is exactly zero."""


@record
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
        if not 1.0 - PMF_TOLERANCE <= total <= 1.0 + PMF_TOLERANCE:
            raise ValueError(f"pmf must sum to ~1, got {total}")

    @property
    def n_max(self) -> int:
        return len(self.pmf) - 1

    def p(self, n: int) -> float:
        return self.pmf[n] if 0 <= n <= self.n_max else 0.0


def _check_mean(mean_pairs: float) -> None:
    if not 0 <= mean_pairs < math.inf:  # an infinite mean made every pmf entry nan
        raise ValueError(f"mean pair number must be finite and >= 0, got {mean_pairs}")


def _check_truncation(law: str, mean_pairs: float, lost: float) -> None:
    if not lost <= PMF_TOLERANCE:
        raise ValueError(
            f"{law} law at mean {mean_pairs!r} pairs per pulse puts {lost:.3g} of its mass "
            f"above n_max = {N_MAX} pairs, more than {PMF_TOLERANCE:g}"
        )


def thermal(mean_pairs: float) -> PhotonNumberDistribution:
    """Thermal (single-mode SPDC) distribution: p(n) = N^n / (1+N)^(n+1)."""
    _check_mean(mean_pairs)
    _check_truncation("thermal", mean_pairs, (mean_pairs / (1.0 + mean_pairs)) ** (N_MAX + 1))
    pmf = tuple(mean_pairs**n / (1.0 + mean_pairs) ** (n + 1) for n in range(N_MAX + 1))
    return PhotonNumberDistribution(pmf)


def poisson(mean_pairs: float) -> PhotonNumberDistribution:
    """Poissonian comparison family: p(n) = exp(-N) N^n / n!, built as p(n-1) N / n."""
    _check_mean(mean_pairs)
    p0 = math.exp(-mean_pairs)
    pmf = tuple(accumulate(range(1, N_MAX + 1), lambda p, n: p * mean_pairs / n, initial=p0))
    _check_truncation("poisson", mean_pairs, 1.0 - sum(pmf))
    return PhotonNumberDistribution(pmf)


def custom(pmf) -> PhotonNumberDistribution:
    """Wrap an explicit pmf; renormalizes away rounding at the PMF_TOLERANCE level."""
    values = [float(p) for p in pmf]
    total = sum(values)
    if not total > 0:
        raise ValueError(f"pmf must have positive total mass, got {total}")
    for n, p in enumerate(values):
        if not math.isfinite(p):
            raise ValueError(f"pmf entry {n} must be finite, got {p}")
    if total == math.inf:
        raise ValueError(f"pmf total mass must be finite, got {total}")
    return PhotonNumberDistribution(tuple(p / total for p in values))


def herald_condition(
    dist: PhotonNumberDistribution, efficiency: float | None, dark_prob: float = 0.0
) -> PhotonNumberDistribution:
    """Condition a pair distribution on a herald click.

    efficiency is the end-to-end probability, per created pair, that the
    herald photon produces a detector click; dark_prob is an independent
    per-gate false-click probability that mixes unconditioned pulses into
    the heralded set.  The click probability given n pairs is
    1 - (1-eta)^n (1-dark); the returned pmf is p(n) * p(click|n),
    renormalized.  efficiency=None selects the vanishing-efficiency limit
    n*p(n)/mean, which holds only without dark clicks: with dark > 0 the
    conditioned pmf tends to the unconditioned one, so None with dark > 0
    raises ValueError.
    """
    if efficiency is not None and not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"herald efficiency must be in [0, 1], got {efficiency}")
    if not 0.0 <= dark_prob <= 1.0:
        raise ValueError(f"herald dark probability must be in [0, 1], got {dark_prob}")
    if efficiency is None:
        if dark_prob > 0.0:
            raise ValueError(
                "the vanishing-efficiency herald takes no dark clicks, got dark probability "
                f"{dark_prob!r}: as the efficiency goes to 0 the conditioned pmf tends to the "
                "unconditioned one, not to n*p(n)/mean"
            )
        weights = [n * p for n, p in enumerate(dist.pmf)]
    else:
        weights = [p * c for p, (_, c) in zip(dist.pmf, detector_clicks(dist.n_max, efficiency, dark_prob))]
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
