"""Attack-parameter grids shared by the economics tests and the golden
digests.  Needs only the stdlib, like `fuzz_trees`."""

from __future__ import annotations

from adess.economics import AttackParams


def params(**kw) -> AttackParams:
    base = dict(v=0.0, p_B=1.0, c=1.0, delta=1.0, xi=1.0, alpha=2, sigma=0)
    base.update(kw)
    return AttackParams(**base)


#: exact ties (xi = 0, delta = 1, p_B = c: every head-fork plan earns v) and
#: points where later N and B win (p_B > c)
ORACLE_GRID = [
    params(alpha=alpha, sigma=sigma, xi=xi, delta=delta, v=v, c=c, p_B=p_B)
    for alpha, sigma in ((1, 0), (3, 2))
    for xi in (0.0, 0.4, 1.0, 2.5)
    for delta in (0.9, 0.99, 1.0, 1)
    for v, c, p_B in ((0.0, 1.0, 1.0), (7.5, 1.3, 1.0), (3.0, 0.6, 2.0))]

#: acceptance 04's plan-search grid
ACCEPTANCE_04_GRID = [
    AttackParams(v=1.0, p_B=1.0, c=1.0, delta=delta, alpha=alpha, sigma=0,
                 xi=xi)
    for alpha in (2, 3, 4, 5)
    for xi in (0.5, 1.0, 1.5, 2.0, 3.0)
    for delta in (0.9, 0.95, 0.97, 0.99, 0.999)]

#: points where `min_deterring_xi`'s tail probes find the attack profitable
#: again (a boundary-count jump outpays the cost), so it raises
#: SolverFailure: (v, params)
SOLVER_FAILURES = [
    (0.02, params(p_B=1.084, c=1.57, delta=0.0663, alpha=1)),
    (0.02, params(p_B=0.277, c=0.545, delta=0.0027, alpha=1)),
    (0.14, params(p_B=8.507, c=0.322, delta=0.1039, alpha=2, sigma=1)),
    (0.04, params(p_B=20.93, c=0.12, delta=0.2604, alpha=6)),
    (0.34, params(p_B=28.264, c=0.168, delta=0.1138, alpha=3, B=1)),
]
