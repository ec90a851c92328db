"""Outer optimize/refine/drop loop over growing-and-shrinking atom subsets.

Each outer iteration approximately minimizes over the hull of the current
atom subset (barycentric direct search), then tries to add one atom that
yields sufficient decrease along the segment toward it, then removes
zero-weight atoms that a sample-based gradient sign test does not keep.

Refine reuses the inner solver's constants: dfsimplex.GAMMA as its
sufficient-decrease coefficient and dfsimplex.THETA as the shrink of mu_hat.
The inner solve at outer iteration k runs to eps_k = max(EPSILON, EPS0 *
EPS_DECAY**k), so EPSILON is the schedule's floor and the final tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .core import (
    AtomSet,
    BudgetedObjective,
    BudgetExhausted,
    OrdConfig,
    SimplexWeights,
    ZERO_TOL,
    require_integer,
    weights_point,
)
from .dfsimplex import StopReason as InnerStop
from .dfsimplex import GAMMA, THETA, df_simplex_solve, final_poll

MU0 = 0.5  # the initial refine step mu_hat
STOP_FACTOR = 1e-4  # converged once mu_hat <= STOP_FACTOR / farthest inactive atom

# A slow decay beats aggressive tightening under tight budgets: early
# inner solves stay loose and the saved evaluations go to refine sweeps.
EPS0 = 1e-1
EPS_DECAY = 0.85
EPSILON = 1e-4


# Refine builds trial points REFINE_BLOCK rows at a time: a sweep that succeeds
# early builds few unused rows, and a long one makes few numpy calls.
REFINE_BLOCK = 64


class PoisednessFailure(Exception):
    """The sample set does not span enough directions for a gradient estimate."""


class OrdStop(Enum):
    CONVERGED = "converged"
    BUDGET = "budget"
    STALLED = "stalled"  # all atoms active and nothing droppable


@dataclass
class RefineOutcome:
    """Result of one refine sweep over the inactive atoms."""

    atom_id: Optional[int]
    x_next: Optional[np.ndarray]
    f_next: float
    candidates_tried: int
    budget_exhausted: bool = False

    @property
    def found(self) -> bool:
        return self.atom_id is not None


@dataclass(frozen=True)
class OrdTraceRecord:
    k: int
    f_bar: float
    refined: bool
    dropped: int
    evals: int  # the objective's eval_count when the record was built
    active_ids: tuple
    x_bar: np.ndarray
    y_bar: np.ndarray
    mu_hat: float

    @property
    def active_size(self) -> int:
        return len(self.active_ids)


@dataclass
class OrdResult:
    x: np.ndarray
    f: float
    weights: SimplexWeights
    evals: int  # the objective's eval_count at return
    iterations: int
    stop: OrdStop


def refine_phase(
    f: Callable[[np.ndarray], float],
    x_bar: np.ndarray,
    f_bar: float,
    atoms: AtomSet,
    candidates: Sequence[int],
    mu_hat: float,
    gamma: float,
    rng: np.random.Generator,
) -> RefineOutcome:
    """Try the candidate atom ids in seeded random order, one evaluation each.

    A candidate a is accepted when f(x_bar + mu_hat*(a - x_bar)) improves on
    f_bar by at least gamma*mu_hat**2, and strictly: that margin rounds away
    against a large f_bar, and a zero-decrease step could cycle with the drop
    rule. The first success wins. The seeded order, over positions in ``candidates``, is
    ``rng.permutation``, or, when more candidates than f's whole ``budget`` (if it has one)
    make the sweep unfinishable, ``rng.choice(len(candidates), budget + 1, replace=False)``:
    the candidates the budget can pay for and one more, whose refused call reports the
    exhausted budget.

    Trial points are built REFINE_BLOCK rows at a time, with the same
    elementwise operations as one row at a time, and still evaluated one by
    one; the accepted point is copied out of its block.
    """
    ids = np.asarray(candidates, dtype=np.intp)
    budget = getattr(f, "budget", None)
    if budget is not None and len(ids) > budget:
        ids = ids[rng.choice(len(ids), budget + 1, replace=False)]
    else:
        ids = ids[rng.permutation(len(ids))]
    threshold = f_bar - gamma * mu_hat * mu_hat
    tried = 0
    for start in range(0, len(ids), REFINE_BLOCK):
        block = ids[start:start + REFINE_BLOCK]
        trials = x_bar + mu_hat * (atoms.atoms[block] - x_bar)
        for row, trial in enumerate(trials):
            try:
                f_trial = f(trial)
            except BudgetExhausted:
                return RefineOutcome(None, None, f_bar, tried, budget_exhausted=True)
            tried += 1
            if f_trial < f_bar and f_trial <= threshold:
                return RefineOutcome(int(block[row]), trial.copy(), f_trial, tried)
    return RefineOutcome(None, None, f_bar, tried)


def simplex_gradient(
    points: np.ndarray,
    values: Sequence[float],
    y_bar: np.ndarray,
    f_bar: float,
) -> np.ndarray:
    """Least-squares fit of the tangent gradient to sample points and their values.

    Makes no evaluation. The rows p - y_bar span at most the tangent space
    {d : sum(d) = 0}, and the drop test g_h - g^T y_bar cancels any multiple
    of the all-ones vector, so one more row along it with right-hand side 0
    pins that component to zero (rounding leaves the rows' sums slightly off
    zero, which a plain min-norm fit would amplify). The row is as long as the
    longest sample row, so the rank test is relative to the samples' scale.
    Raises PoisednessFailure when the samples span less than the tangent space.
    """
    y_bar = np.asarray(y_bar, dtype=float)
    m = len(y_bar)
    rows = np.asarray(points, dtype=float).reshape(-1, m) - y_bar
    scale = np.linalg.norm(rows, axis=1).max(initial=0.0) or 1.0
    S_t = np.vstack([rows, np.full(m, scale / np.sqrt(m))])
    b = np.append(np.asarray(values, dtype=float) - f_bar, 0.0)
    g, _, rank, _ = np.linalg.lstsq(S_t, b, rcond=None)
    if rank < m:
        raise PoisednessFailure(f"{len(rows)} samples span tangent rank {rank - 1} < {m - 1}")
    return g


def poll_gradient(
    objective: BudgetedObjective,
    y_bar: np.ndarray,
    f_bar: float,
    epsilon: float,
) -> np.ndarray:
    """simplex_gradient fitted to the final poll of an inner solve that ended at y_bar.

    Makes no evaluation: a TOLERANCE stop at tolerance epsilon probed
    final_poll(y_bar, epsilon), so right after the solve those probes' values
    are the last entries of the objective's ledger. Raises PoisednessFailure
    as simplex_gradient does.
    """
    points = final_poll(y_bar, epsilon)
    values = objective.values
    # values[-0:] would be the whole ledger, so the slice starts at its length
    return simplex_gradient(points, values[len(values) - len(points):], y_bar, f_bar)


def drop_phase(
    active_ids: Sequence[int],
    y_bar: np.ndarray,
    g: Optional[np.ndarray] = None,
) -> Set[int]:
    """Atom ids to remove: zero-weight atoms, filtered by g when it is given.

    With a gradient estimate g, a zero-weight atom h is kept when
    g^T (e_h - y_bar) < 0, i.e. when the estimate still points at it as a
    descent candidate. Atoms with positive weight are never dropped.
    """
    y_bar = np.asarray(y_bar, dtype=float)
    to_drop = [h for h in range(len(y_bar)) if y_bar[h] <= ZERO_TOL]
    if g is not None:
        g = np.asarray(g, dtype=float)
        if len(g) != len(y_bar):
            raise ValueError("gradient length does not match the weight vector")
        to_drop = [h for h in to_drop if g[h] - g @ y_bar >= 0.0]
    return {int(active_ids[h]) for h in to_drop}


def reexpress_weights(
    y_bar: np.ndarray,
    active_ids: Sequence[int],
    refine: Optional[Tuple[int, float]],
    drop: Set[int],
) -> Tuple[List[int], np.ndarray]:
    """Weights over the updated subset: kept atoms scaled by (1-mu), new atom at mu.

    Dropping an atom with positive weight is a structural error. The kept
    weights are renormalized so the result sums to one exactly (the dropped
    mass is below ZERO_TOL by construction).
    """
    y_bar = np.asarray(y_bar, dtype=float)
    active_ids = [int(i) for i in active_ids]
    kept = []
    for h, atom_id in enumerate(active_ids):
        if atom_id in drop:
            if y_bar[h] > ZERO_TOL:
                raise ValueError(f"cannot drop atom {atom_id} with weight {y_bar[h]}")
        else:
            kept.append(h)
    new_ids = [active_ids[h] for h in kept]
    w = y_bar[kept]
    if refine is not None:
        atom_id, mu = refine
        if atom_id in active_ids:
            raise ValueError(f"refine atom {atom_id} is already active")
        w = np.append(w * (1.0 - mu), mu)
        new_ids.append(int(atom_id))
    total = w.sum()
    if total <= 0.0:
        raise ValueError("re-expressed weights sum to zero")
    return new_ids, w / total


def farthest_distance(atoms: AtomSet, ids: np.ndarray, x: np.ndarray) -> float:
    """Largest Euclidean distance from x to the atoms with the given ids.

    Bitwise equal to the max of np.linalg.norm(atoms.atoms[i] - x) over ids:
    a (1, n) @ (n, 1) product takes each row's square with the same dot as a
    1-D norm, and sqrt is monotone, so it commutes with the max.
    """
    d = atoms.atoms[ids] - x
    return float(np.sqrt((d[:, None, :] @ d[:, :, None]).max()))


def ord_solve(
    f: Callable[[np.ndarray], float],
    atoms: AtomSet,
    cfg: OrdConfig,
    start_atom_id: int = 0,
    sink: Optional[Callable[[OrdTraceRecord], None]] = None,
) -> OrdResult:
    """Run the outer loop from a single starting atom.

    Stops on budget exhaustion (returning the best point reached), or, once
    the tolerance schedule has bottomed out, at the first iteration where the
    refine test fails and mu_hat has decayed below STOP_FACTOR / max distance
    to an inactive atom; with every atom active the run instead ends at the
    first floor-tolerance iteration that changes nothing. ``sink``, when given,
    receives one OrdTraceRecord per outer iteration; without it none is built.
    Refine reads the objective's budget: a sweep with more inactive atoms than
    that draws only budget + 1 of them, by rng.choice, not a full permutation.

    Every evaluated point lies in conv(atoms), up to rounding: the inner
    solves probe the active subset's hull, refine probes a segment toward an
    atom, and the drop rule refits the inner solve's final poll. It fits that
    gradient only on iterations where an active atom has zero weight, since
    otherwise it drops nothing whatever the gradient is, and it drops by
    weight alone when the fit raises PoisednessFailure.

    Evaluations are counted by one BudgetedObjective: ``f`` itself when it is
    one, else a budgetless wrapper around it. Either way a NaN/inf value raises
    NonFiniteValue, and ``evals`` reports the objective's ``eval_count``,
    which includes any evaluations it made before this call.
    """
    start_atom_id = require_integer("start atom id", start_atom_id, 0, atoms.m)
    rng = np.random.default_rng(cfg.rng_seed)
    objective = f if isinstance(f, BudgetedObjective) else BudgetedObjective(f)

    active: List[int] = [start_atom_id]
    y = np.array([1.0])
    # f_x is the objective's value at x_f, the point it was evaluated at
    x_f = atoms.atoms[start_atom_id].copy()
    f_x = objective(x_f)
    mu_hat = MU0

    def result(x_out, f_out, ids, w, k, stop):
        # long runs accumulate ~ulp-per-accepted-step drift in the weight sum;
        # renormalizing here keeps the returned weights exactly on the simplex
        w = np.asarray(w, dtype=float)
        weights = SimplexWeights(w / w.sum(), tuple(ids))
        return OrdResult(
            x=np.asarray(x_out, dtype=float),
            f=float(f_out),
            weights=weights,
            evals=objective.eval_count,
            iterations=k,
            stop=stop,
        )

    k = 0
    while True:
        eps_k = max(EPSILON, EPS0 * EPS_DECAY**k)
        A_k = atoms.atoms[active]  # ids ORD built itself, so no per-id check
        phi = lambda yv: objective(weights_point(yv, A_k))  # noqa: E731 - rebound every iteration
        inner = df_simplex_solve(phi, y, eps_k, f0=f_x)
        y_bar, f_bar = inner.y, inner.f
        x_bar = weights_point(y_bar, A_k)
        if f_bar != f_x:
            x_f = x_bar
        if inner.stop is InnerStop.BUDGET:
            return result(x_f, f_bar, active, y_bar, k, OrdStop.BUDGET)

        gradient = None  # None drops by the plain zero-weight rule
        # with no zero weight nothing is droppable whatever g is, so skip the fit
        if (y_bar <= ZERO_TOL).any():
            try:
                gradient = poll_gradient(objective, y_bar, f_bar, eps_k)
            except PoisednessFailure:
                pass
        dropped = drop_phase(active, y_bar, gradient)

        # ascending, so each seeded refine draw maps to the same atom id
        inactive_mask = np.ones(atoms.m, dtype=bool)
        inactive_mask[active] = False
        inactive = np.flatnonzero(inactive_mask)
        refine = refine_phase(
            objective, x_bar, f_bar, atoms, inactive, mu_hat, GAMMA, rng
        )

        refine_pair = (refine.atom_id, mu_hat) if refine.found else None
        new_active, y_next = reexpress_weights(y_bar, active, refine_pair, dropped)

        if sink is not None:
            sink(OrdTraceRecord(
                k=k, f_bar=float(f_bar), refined=refine.found, dropped=len(dropped),
                evals=objective.eval_count, active_ids=tuple(active),
                x_bar=x_bar, y_bar=y_bar, mu_hat=mu_hat,
            ))

        if refine.found:
            x_f, f_next = refine.x_next, refine.f_next
            mu_next = mu_hat
        else:
            f_next = f_bar
            mu_next = THETA * mu_hat
            if refine.budget_exhausted:
                return result(x_f, f_next, new_active, y_next, k + 1, OrdStop.BUDGET)
            if len(inactive) == 0:
                # Every atom is active: nothing to refine toward, so the run
                # is a fixpoint only once the tolerance schedule has bottomed
                # out, nothing is droppable, and the inner solve at the floor
                # tolerance accepted no move.
                if not dropped and eps_k <= EPSILON and f_bar == f_x:
                    return result(x_f, f_next, new_active, y_next, k + 1, OrdStop.STALLED)
            elif eps_k <= EPSILON:
                # A converged verdict must carry the final-tolerance inner
                # certificate, so the mu_hat rule only applies once the
                # tolerance schedule has bottomed out.
                max_dist = farthest_distance(atoms, inactive, x_bar)
                # max_dist == 0 means every inactive atom sits at x_bar already
                if max_dist == 0.0 or mu_hat <= STOP_FACTOR / max_dist:
                    return result(x_f, f_next, new_active, y_next, k + 1, OrdStop.CONVERGED)

        active, y, f_x, mu_hat = new_active, y_next, f_next, mu_next
        k += 1
