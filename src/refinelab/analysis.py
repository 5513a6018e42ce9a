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
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .generators import ExampleConfig, build_example
from .pslg import Pslg
from .refine import (
    CHEW2,
    CIRCUMCENTER_INSERT,
    CIRCUMCENTER_REJECTED_FOR_ENCROACHMENT,
    RUPPERT,
    SEGMENT_SPLIT,
    TERMINATED,
    RefinementConfig,
    RefinementOutcome,
    chew2,
    ruppert,
)

__all__ = [
    "OptimumSolution",
    "DivergenceVerdict",
    "CascadeChecker",
    "ConvergenceError",
    "ScanError",
    "ScanProbe",
    "ScanResult",
    "residuals",
    "jacobian",
    "solve_optimum",
    "classify",
    "threshold_scan",
    "DIVERGING",
    "INCONCLUSIVE",
]

_SQRT2 = math.sqrt(2.0)

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


@dataclass(frozen=True)
class DivergenceVerdict:
    status: str
    decay_ratio: Optional[float] = None
    lineage_cycle: Optional[tuple[int, ...]] = None


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
    max_iter: int = 100,
) -> OptimumSolution:
    """Damped Newton iteration on the balance system.

    The guess is (theta in degrees, a, alpha1 in degrees, alpha2 in
    degrees); convergence means a residual 2-norm below ``_SOLVE_TOL``.
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
    while rn >= _SOLVE_TOL:
        if iterations >= max_iter:
            raise ConvergenceError(
                f"no convergence in {max_iter} iterations (residual {rn:.3e})", rn
            )
        iterations += 1
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
    return OptimumSolution(
        theta_deg=math.degrees(x[0]),
        a=x[1],
        alpha1_deg=math.degrees(x[2]),
        alpha2_deg=math.degrees(x[3]),
        residual_norm=rn,
        iterations=iterations,
    )


def _detect_cycle(lineages: list[int]) -> Optional[int]:
    """Smallest period of the tail of the lineage sequence, if any."""
    n = len(lineages)
    for p in range(1, n // 2 + 1):
        if lineages[p:] == lineages[:n - p]:
            return p
    return None


_SOLVE_TOL = 1e-13  # solve_optimum's target residual 2-norm
_WINDOW = 12  # a verdict judges the last _WINDOW + 1 record splits
_RATIO_TOL = 0.01  # relative tolerance on each per-revolution halving
# the events of a popped skinny triangle, each with its minimum angle
_PROCESSED = (CIRCUMCENTER_INSERT, CIRCUMCENTER_REJECTED_FOR_ENCROACHMENT)


class CascadeChecker:
    """Streaming cascade verdict, fed one split event at a time.

    It keeps the record splits, those setting a new minimum length, and
    judges the last ``_WINDOW + 1`` of them at each new record.  An
    unbounded cascade is a shrinking front of ever-smaller subsegments;
    splits of bounded lengths (cleanup in the front's wake) never set a
    record.  A DIVERGING verdict needs at least nine trailing records
    whose lineages repeat with a fixed period and whose lengths halve
    within 1 % per revolution.  ``feed`` returns whether the verdict is
    DIVERGING, so it serves as an engine's ``stop`` hook.
    """

    def __init__(self):
        self.records: list = []
        self.verdict = DivergenceVerdict(status=INCONCLUSIVE)

    def feed(self, event) -> bool:
        if not self.records or event.length < self.records[-1].length:
            self.records.append(event)
            self.verdict = _judge(self.records[-(_WINDOW + 1):])
        return self.verdict.status == DIVERGING


def _judge(tail) -> DivergenceVerdict:
    """Verdict on a tail of record splits.  The decay ratio is the fitted
    per-event geometric ratio; the lineage cycle is given as its smallest
    rotation, so it does not depend on where the run ended."""
    if len(tail) < 9:
        return DivergenceVerdict(status=INCONCLUSIVE)
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
    cycle = lineages[-period:]
    return DivergenceVerdict(
        status=DIVERGING,
        decay_ratio=fitted,
        lineage_cycle=min(tuple(cycle[i:] + cycle[:i]) for i in range(period)),
    )


def _fed(outcome) -> CascadeChecker:
    checker = CascadeChecker()
    for e in outcome.trace.splits():
        checker.feed(e)
    return checker


def cascade_splits(outcome: RefinementOutcome):
    """The record subsequence of splits: events setting a new minimum length."""
    return _fed(outcome).records


def classify(outcome: RefinementOutcome) -> DivergenceVerdict:
    """Judge a refinement trace: terminated, geometric cascade, or neither."""
    if outcome.status == TERMINATED:
        return DivergenceVerdict(status=TERMINATED)
    return _fed(outcome).verdict


@dataclass(frozen=True)
class ScanProbe:
    alpha_deg: float
    status: str
    verdict: DivergenceVerdict
    insertions: int
    splits: int


@dataclass(frozen=True)
class ScanResult:
    threshold_deg: float
    exact_deg: float
    lo: float
    hi: float
    tol: float
    algorithm: str
    probes: tuple[ScanProbe, ...]


def _as_pslg(target) -> Pslg:
    if isinstance(target, Pslg):
        return target
    if isinstance(target, ExampleConfig):
        return build_example(target)
    raise TypeError(f"cannot scan a {type(target).__name__}")


def _prefix_probes(run):
    """The probes below ``run``'s angle, from one pass over its trace by
    the prefix lemma (``refinelab.refine``): a probe at ``alpha`` ends
    TERMINATED just before the first circumcenter event at an angle of at
    least ``alpha``, or is ``run`` itself when there is none.  That angle
    tops every earlier one, so the pass keeps only such angles, with the
    insertions and splits before each.  Returns the probe function and the
    kept angles; the last is M, the largest circumcenter angle in ``run``."""
    angles, before = [], []
    insertions = splits = 0
    for e in run.trace.events:
        if e.kind in _PROCESSED and (not angles or e.min_angle_deg > angles[-1]):
            angles.append(e.min_angle_deg)
            before.append((insertions, splits))
        if e.kind == SEGMENT_SPLIT:
            splits += 1
            insertions += 1
        elif e.kind == CIRCUMCENTER_INSERT:
            insertions += 1
    verdict = classify(run)

    def probe_at(alpha: float) -> ScanProbe:
        i = bisect_left(angles, alpha)
        if i < len(angles):
            return ScanProbe(alpha, TERMINATED,
                             DivergenceVerdict(status=TERMINATED), *before[i])
        return ScanProbe(alpha, run.status, verdict, insertions, splits)

    return probe_at, angles


def threshold_scan(target, algorithm: str, lo: float, hi: float,
                   tol: float = 0.1, budget: int = 40000) -> ScanResult:
    """Bisect the empirical termination threshold between lo and hi, and
    report it exactly.

    ``target`` is a Pslg or an ExampleConfig.  Refinement at ``lo`` must
    terminate and at ``hi`` must diverge, otherwise the bracket is
    rejected.  ``tol`` must be at least the float spacing at ``hi``, or
    a midpoint could round back onto an end of the bracket forever.

    The engine runs once, at ``hi`` with ``budget`` insertions, stopped
    at its first DIVERGING verdict, and every probe is read from that run
    (``_prefix_probes``): by the prefix lemma, each probe is exactly the
    run at its angle with ``budget`` insertions.  When the run at ``hi``
    diverges, a run at alpha terminates exactly when alpha <= M, the
    largest angle of a circumcenter event in it: M is ``exact_deg``.  The
    probes at ``lo`` and ``hi`` are checked; then the bisection moves
    ``hi`` to each midpoint above M and ``lo`` to each other one, so it
    ends with lo <= M < hi.  A midpoint's probe, kept in ``probes``, is
    a TERMINATED prefix or the diverging run itself, never inconclusive.
    """
    if not 0.0 < lo < hi < 60.0:
        raise ScanError(f"invalid bracket [{lo}, {hi}]")
    if not tol >= math.ulp(hi):
        raise ScanError(f"tolerance must be positive and >= {math.ulp(hi):.3g}")
    if algorithm not in (RUPPERT, CHEW2):
        raise ScanError(f"unknown algorithm {algorithm!r}")
    pslg = _as_pslg(target)
    engine = ruppert if algorithm == RUPPERT else chew2
    run = engine(pslg, RefinementConfig(alpha_deg=hi, max_insertions=budget),
                 stop=CascadeChecker().feed)
    probe_at, angles = _prefix_probes(run)
    probes = [probe_at(lo), probe_at(hi)]
    for p in probes:
        if p.verdict.status == INCONCLUSIVE:
            raise ScanError(f"probe at alpha={p.alpha_deg:.4f} is inconclusive: "
                            f"{p.status} after {p.insertions} insertions")
    if probes[0].verdict.status != TERMINATED:
        raise ScanError(f"refinement at lo={lo} does not terminate")
    if probes[1].verdict.status != DIVERGING:
        raise ScanError(f"refinement at hi={hi} does not diverge")

    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        probes.append(probe_at(mid))
        if mid > angles[-1]:
            hi = mid
        else:
            lo = mid
    return ScanResult(
        threshold_deg=(lo + hi) / 2.0,
        exact_deg=angles[-1],
        lo=lo,
        hi=hi,
        tol=tol,
        algorithm=algorithm,
        probes=tuple(probes),
    )
