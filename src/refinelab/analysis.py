"""Numerical side: the balance system solver, trace classification, and
empirical threshold scanning.

The four-equation system ties together the spiral configuration's shape
parameters (theta, a) and the two designed skinny angles (alpha1,
alpha2): one equation keeps the wide-wedge circumcenter exactly on the
longer segment's diametral circle, two express the designed angles in
terms of (theta, a), and the last balances the angles.  Solving it from
the unbalanced starting point yields the configuration whose worst
designed angle is as small as possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .pslg import Pslg
from .refine import (
    CHEW2,
    RUPPERT,
    TERMINATED,
    RefinementConfig,
    RefinementOutcome,
    chew2,
    ruppert,
)

__all__ = [
    "OptimumSolution",
    "DivergenceVerdict",
    "ConvergenceError",
    "ScanError",
    "ScanProbe",
    "ScanResult",
    "residuals",
    "jacobian",
    "solve_optimum",
    "classify",
    "threshold_scan",
    "TERMINATED_V",
    "DIVERGING",
    "INCONCLUSIVE",
]

_SQRT2 = math.sqrt(2.0)

TERMINATED_V = "TERMINATED"
DIVERGING = "DIVERGING"
INCONCLUSIVE = "INCONCLUSIVE"


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual_norm: float):
        super().__init__(message)
        self.residual_norm = residual_norm


class ScanError(RuntimeError):
    pass


@dataclass(frozen=True)
class OptimumSolution:
    theta_deg: float
    a: float
    alpha1_deg: float
    alpha2_deg: float
    residual_norm: float
    iterations: int

    def to_dict(self) -> dict:
        return {
            "theta_deg": self.theta_deg,
            "a": self.a,
            "alpha1_deg": self.alpha1_deg,
            "alpha2_deg": self.alpha2_deg,
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
        }


@dataclass(frozen=True)
class DivergenceVerdict:
    status: str
    decay_ratio: Optional[float] = None
    lineage_cycle: Optional[tuple[int, ...]] = None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "decay_ratio": self.decay_ratio,
            "lineage_cycle": (
                list(self.lineage_cycle) if self.lineage_cycle else None
            ),
        }


def _check_domain(theta: float, a: float, alpha1: float, alpha2: float) -> None:
    if not 0.0 < theta < math.pi / 2:
        raise ValueError("theta must lie in (0, pi/2)")
    if a <= 0.0:
        raise ValueError("a must be positive")
    if not (0.0 < alpha1 < math.pi / 2 and 0.0 < alpha2 < math.pi / 2):
        raise ValueError("alpha1 and alpha2 must lie in (0, pi/2)")


def residuals(theta: float, a: float, alpha1: float, alpha2: float
              ) -> tuple[float, float, float, float]:
    """The four balance equations, angles in radians."""
    _check_domain(theta, a, alpha1, alpha2)
    q = math.sqrt(4.0 * a * a + 1.0 - 4.0 * a * math.cos(theta))
    r1 = math.sin(theta) - math.cos(theta) - a / _SQRT2
    r2 = math.cos(theta) - 2.0 * a + math.cos(alpha1) * q
    r3 = math.sin(theta) - math.tan(alpha2) * (math.cos(theta) + _SQRT2 / a)
    r4 = alpha1 - alpha2
    return (r1, r2, r3, r4)


def jacobian(theta: float, a: float, alpha1: float, alpha2: float
             ) -> list[list[float]]:
    """Analytic Jacobian of :func:`residuals` wrt (theta, a, alpha1, alpha2)."""
    _check_domain(theta, a, alpha1, alpha2)
    st, ct = math.sin(theta), math.cos(theta)
    q = math.sqrt(4.0 * a * a + 1.0 - 4.0 * a * ct)
    dq_dtheta = 2.0 * a * st / q
    dq_da = (4.0 * a - 2.0 * ct) / q
    sec2 = 1.0 / math.cos(alpha2) ** 2
    return [
        [ct + st, -1.0 / _SQRT2, 0.0, 0.0],
        [-st + math.cos(alpha1) * dq_dtheta,
         -2.0 + math.cos(alpha1) * dq_da,
         -math.sin(alpha1) * q,
         0.0],
        [ct + math.tan(alpha2) * st,
         math.tan(alpha2) * _SQRT2 / (a * a),
         0.0,
         -sec2 * (ct + _SQRT2 / a)],
        [0.0, 0.0, 1.0, -1.0],
    ]


def _solve4(m: list[list[float]], rhs: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting on a 4x4 system."""
    n = 4
    aug = [row[:] + [rhs[i]] for i, row in enumerate(m)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[piv][col]) == 0.0:
            raise ConvergenceError("singular Jacobian", float("nan"))
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1.0 / aug[col][col]
        for r in range(n):
            if r == col:
                continue
            f = aug[r][col] * inv
            if f:
                for c in range(col, n + 1):
                    aug[r][c] -= f * aug[col][c]
    return [aug[i][4] / aug[i][i] for i in range(n)]


def _norm2(v) -> float:
    return math.sqrt(sum(x * x for x in v))


def solve_optimum(
    guess_deg: tuple[float, float, float, float] = (75.0, 1.0, 29.0, 30.0),
    tol: float = 1e-13,
    max_iter: int = 100,
) -> OptimumSolution:
    """Damped Newton iteration on the balance system.

    The guess is (theta in degrees, a, alpha1 in degrees, alpha2 in
    degrees); convergence means a residual 2-norm below ``tol``.
    """
    x = [
        math.radians(guess_deg[0]),
        guess_deg[1],
        math.radians(guess_deg[2]),
        math.radians(guess_deg[3]),
    ]
    r = list(residuals(*x))
    rn = _norm2(r)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if rn < tol:
            iterations -= 1
            break
        step = _solve4(jacobian(*x), [-v for v in r])
        lam = 1.0
        for _ in range(30):
            cand = [x[i] + lam * step[i] for i in range(4)]
            try:
                cr = list(residuals(*cand))
            except ValueError:
                lam *= 0.5
                continue
            crn = _norm2(cr)
            if crn < rn:
                x, r, rn = cand, cr, crn
                break
            lam *= 0.5
        else:
            raise ConvergenceError(
                f"damping failed at residual norm {rn:.3e}", rn
            )
    if rn >= tol:
        raise ConvergenceError(
            f"no convergence in {max_iter} iterations (residual {rn:.3e})", rn
        )
    return OptimumSolution(
        theta_deg=math.degrees(x[0]),
        a=x[1],
        alpha1_deg=math.degrees(x[2]),
        alpha2_deg=math.degrees(x[3]),
        residual_norm=rn,
        iterations=iterations,
    )


def _detect_cycle(lineages: list[int], max_period: int = 8) -> Optional[int]:
    """Smallest period of the tail of the lineage sequence, if any."""
    n = len(lineages)
    for p in range(1, max_period + 1):
        if p > n // 2:
            break
        if all(lineages[n - 1 - i] == lineages[n - 1 - i - p] for i in range(n - p)):
            return p
    return None


def cascade_splits(outcome: RefinementOutcome):
    """The record subsequence of splits: events setting a new minimum length.

    An unbounded cascade is a shrinking front of ever-smaller
    subsegments; splits of bounded lengths (cleanup in the front's wake)
    never set a record and are filtered out here.
    """
    records = []
    best = math.inf
    for e in outcome.trace.splits():
        if e.length < best:
            records.append(e)
            best = e.length
    return records


_WINDOW = 12  # classify judges the last _WINDOW + 1 record splits
_RATIO_TOL = 0.01  # relative tolerance on each per-revolution halving


def classify(outcome: RefinementOutcome) -> DivergenceVerdict:
    """Judge a refinement trace: terminated, geometric cascade, or neither.

    A DIVERGING verdict needs at least nine trailing record splits
    whose lineages repeat with a fixed period and whose lengths halve
    within 1 % per revolution.  The reported decay ratio is the fitted
    per-event geometric ratio of the record tail.
    """
    if outcome.status == TERMINATED:
        return DivergenceVerdict(status=TERMINATED_V)
    records = cascade_splits(outcome)
    if len(records) < 9:
        return DivergenceVerdict(status=INCONCLUSIVE)
    tail = records[-(_WINDOW + 1):]
    lineages = [e.lineage for e in tail]
    period = _detect_cycle(lineages)
    if period is None:
        return DivergenceVerdict(status=INCONCLUSIVE)
    lengths = [e.length for e in tail]
    usable = len(lengths)
    for i in range(usable - period):
        per_rev = lengths[i + period] / lengths[i]
        if abs(per_rev - 0.5) > _RATIO_TOL * 0.5:
            return DivergenceVerdict(status=INCONCLUSIVE)
    fitted = (lengths[-1] / lengths[0]) ** (1.0 / (usable - 1))
    cycle = tuple(lineages[-period:])
    return DivergenceVerdict(
        status=DIVERGING, decay_ratio=fitted, lineage_cycle=cycle
    )


@dataclass(frozen=True)
class ScanProbe:
    alpha_deg: float
    status: str
    verdict: DivergenceVerdict
    insertions: int
    splits: int

    def to_dict(self) -> dict:
        return {
            "alpha_deg": self.alpha_deg,
            "status": self.status,
            "verdict": self.verdict.to_dict(),
            "insertions": self.insertions,
            "splits": self.splits,
        }


@dataclass(frozen=True)
class ScanResult:
    threshold_deg: float
    lo: float
    hi: float
    tol: float
    algorithm: str
    probes: tuple[ScanProbe, ...]

    def to_dict(self) -> dict:
        return {
            "threshold_deg": self.threshold_deg,
            "lo": self.lo,
            "hi": self.hi,
            "tol": self.tol,
            "algorithm": self.algorithm,
            "probes": [p.to_dict() for p in self.probes],
        }


def _as_pslg(target) -> Pslg:
    if isinstance(target, Pslg):
        return target
    from .generators import ExampleConfig, build_example

    if isinstance(target, ExampleConfig):
        return build_example(target)
    raise TypeError(f"cannot scan a {type(target).__name__}")


def threshold_scan(
    target,
    algorithm: str,
    lo: float,
    hi: float,
    tol: float = 0.1,
    base_cfg: Optional[RefinementConfig] = None,
) -> ScanResult:
    """Bisect the empirical termination threshold between lo and hi.

    ``target`` is a Pslg or an ExampleConfig.  Refinement at ``lo`` must
    terminate and at ``hi`` must diverge, otherwise the bracket is
    rejected.  An inconclusive probe is retried once with a four times
    larger insertion budget.
    """
    if not 0.0 < lo < hi < 60.0:
        raise ScanError(f"invalid bracket [{lo}, {hi}]")
    if algorithm not in (RUPPERT, CHEW2):
        raise ScanError(f"unknown algorithm {algorithm!r}")
    pslg = _as_pslg(target)
    engine = ruppert if algorithm == RUPPERT else chew2
    base = base_cfg or RefinementConfig(alpha_deg=lo)
    probes: list[ScanProbe] = []

    def probe(alpha: float) -> ScanProbe:
        cfg = replace(base, alpha_deg=alpha)
        outcome = engine(pslg, cfg)
        verdict = classify(outcome)
        if verdict.status == INCONCLUSIVE:
            cfg = replace(cfg, max_insertions=4 * cfg.max_insertions)
            outcome = engine(pslg, cfg)
            verdict = classify(outcome)
            if verdict.status == INCONCLUSIVE:
                raise ScanError(
                    f"probe at alpha={alpha:.4f} stayed inconclusive after "
                    f"widening the budget to {cfg.max_insertions}"
                )
        p = ScanProbe(
            alpha_deg=alpha,
            status=outcome.status,
            verdict=verdict,
            insertions=outcome.insertions,
            splits=len(outcome.trace.splits()),
        )
        probes.append(p)
        return p

    p_lo = probe(lo)
    if p_lo.verdict.status != TERMINATED_V:
        raise ScanError(f"refinement at lo={lo} does not terminate")
    p_hi = probe(hi)
    if p_hi.verdict.status != DIVERGING:
        raise ScanError(f"refinement at hi={hi} does not diverge")

    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        p = probe(mid)
        if p.verdict.status == DIVERGING:
            hi = mid
        else:
            lo = mid
    return ScanResult(
        threshold_deg=(lo + hi) / 2.0,
        lo=lo,
        hi=hi,
        tol=tol,
        algorithm=algorithm,
        probes=tuple(probes),
    )
