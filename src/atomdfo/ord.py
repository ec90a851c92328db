"""Outer optimize/refine/drop loop over growing-and-shrinking atom subsets.

Each outer iteration approximately minimizes over the hull of the current
atom subset (barycentric direct search), then tries to add one atom that
yields sufficient decrease along the segment toward it, in the order of a
gradient fitted to the sweep's own failed probes, then removes the atoms
whose weight is zero.

Refine reuses the inner solver's constants: dfsimplex.GAMMA as its
sufficient-decrease coefficient and dfsimplex.THETA as the shrink of mu_hat.
The inner solve at outer iteration k runs to eps_k = max(EPSILON, EPS0 *
EPS_DECAY**k), so EPSILON is the schedule's floor and the final tolerance.
"""
from __future__ import annotations

from array import array
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
from .dfsimplex import GAMMA, THETA, df_simplex_solve

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


def simplex_gradient(steps: np.ndarray, diffs: np.ndarray) -> Optional[np.ndarray]:
    """Least-squares simplex gradient from failed refine probes, or None below rank n.

    The rows of ``steps`` are trial - x_bar and ``diffs`` the values
    f(trial) - f_bar, so on an affine f with n independent rows the fit is its
    gradient, to rounding. Makes no evaluation.
    """
    g, _, rank, _ = np.linalg.lstsq(steps, diffs, rcond=None)
    return g if rank == steps.shape[1] else None


def refine_phase(
    f: Callable[[np.ndarray], float],
    x_bar: np.ndarray,
    f_bar: float,
    atoms: AtomSet,
    candidates: Sequence[int],
    mu_hat: float,
    rng: np.random.Generator,
) -> RefineOutcome:
    """Try candidate atom ids, one evaluation each: n + 1 in seeded order, then in model order.

    A candidate a is accepted when f(x_bar + mu_hat*(a - x_bar)) improves on
    f_bar by at least GAMMA*mu_hat**2, and strictly: that margin rounds away
    against a large f_bar, and a zero-decrease step could cycle with the drop
    rule. The first success wins.

    The seeded order, over positions in ``candidates``, is ``rng.permutation``,
    or, when more candidates than f's whole ``budget`` (if it has one) make the
    sweep unfinishable, ``rng.choice(len(candidates), budget + 1, replace=False)``:
    the candidates the budget can pay for and one more, whose refused call
    reports the exhausted budget. The first n + 1 probes follow it. If they all
    fail, simplex_gradient fits g to them, and the sweep goes on in increasing
    g^T a, the Frank-Wolfe linear-minimization oracle, at no extra evaluation;
    ties go by position in ``candidates``, so by atom id in ord_solve's
    ascending candidates. A sweep that fits the budget ranks every untried
    candidate, and refits from all its failed probes each time their count
    doubles to re-rank the untried rest. A truncated sweep scores every atom
    once, keeps the evaluations left + 1 lowest untried scores (all that the
    budget can reach) and does not refit. A sweep of at most n + 1
    candidates, or whose fit is below rank n, keeps the seeded order
    throughout, and a failed full sweep tries every candidate exactly once.

    Trial points are built REFINE_BLOCK rows at a time, with the same
    elementwise operations as one row at a time, and still evaluated one by
    one; the accepted point is copied out of its block. Only the probes that
    a fit reads are kept.
    """
    ids = np.asarray(candidates, dtype=np.intp)
    budget = getattr(f, "budget", None)
    truncated = budget is not None and len(ids) > budget
    if truncated:
        queue = rng.choice(len(ids), budget + 1, replace=False)
    else:
        queue = rng.permutation(len(ids))
    threshold = f_bar - GAMMA * mu_hat * mu_hat
    tried = 0
    fit_at = atoms.n + 1  # the probe count at which the next fit comes
    failed: List[np.ndarray] = []  # the trial blocks of the probes a fit reads
    values = array("d")
    while True:
        segment, queue = queue[:fit_at - tried], queue[fit_at - tried:]
        fits_next = len(queue) > 0
        for start in range(0, len(segment), REFINE_BLOCK):
            block = ids[segment[start:start + REFINE_BLOCK]]
            trials = x_bar + mu_hat * (atoms.atoms[block] - x_bar)
            for row, trial in enumerate(trials):
                try:
                    f_trial = f(trial)
                except BudgetExhausted:
                    return RefineOutcome(None, None, f_bar, tried, budget_exhausted=True)
                tried += 1
                if f_trial < f_bar and f_trial <= threshold:
                    return RefineOutcome(int(block[row]), trial.copy(), f_trial, tried)
                if fits_next:
                    values.append(f_trial)
            if fits_next:
                failed.append(trials)
        if not fits_next:
            return RefineOutcome(None, None, f_bar, tried)
        steps, diffs = np.concatenate(failed) - x_bar, np.frombuffer(values) - f_bar
        g = simplex_gradient(steps, diffs)
        if g is None:
            fit_at = tried + len(queue)  # the rest of the seeded order, with no refit
        elif truncated:
            # the one fit: every untried score up to the (evaluations left + 1)-th
            # lowest, ties included, is all that the budget can reach
            full = atoms.atoms @ g
            scores = full[ids]
            scores[segment] = np.inf
            keep = budget - f.eval_count + 1
            # partitioned in full's storage, not in a third m-long array
            lowest = full[:len(ids)]
            lowest[:] = scores
            lowest.partition(keep - 1)
            queue = np.flatnonzero(scores <= lowest[keep - 1])
            queue = queue[np.argsort(scores[queue], kind="stable")]
            fit_at = tried + len(queue)
        else:
            # in increasing position, so that the stable sort breaks ties by it
            queue = np.sort(queue)
            queue = queue[np.argsort(atoms.atoms[ids[queue]] @ g, kind="stable")]
            fit_at = 2 * tried


def drop_phase(active_ids: Sequence[int], y_bar: np.ndarray) -> Set[int]:
    """Atom ids to remove: exactly the active atoms whose weight is at most ZERO_TOL."""
    return {int(i) for i, w in zip(active_ids, y_bar.tolist()) if w <= ZERO_TOL}


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

    Stops on budget exhaustion (returning the best point reached), except that
    a budget already spent raises BudgetExhausted from the start atom's
    evaluation, which leaves the objective's ``values`` unchanged; or, once
    the tolerance schedule has bottomed out, at the first iteration where the
    refine test fails and mu_hat has decayed below STOP_FACTOR / max distance
    to an inactive atom; with every atom active the run instead ends at the
    first floor-tolerance iteration that changes nothing. ``sink``, when given,
    receives one OrdTraceRecord per outer iteration; without it none is built.
    Each refine sweep tries n + 1 inactive atoms in seeded order and, once they
    all fail, the rest in increasing g^T a for a gradient g fitted to those
    failed probes (refine_phase). Refine reads the objective's budget: a sweep
    with more inactive atoms than that draws only budget + 1 of them, by
    rng.choice, not a full permutation, and ranks only the evaluations left + 1
    best.

    Every evaluated point lies in conv(atoms), up to rounding: the inner
    solves probe the active subset's hull and refine probes a segment toward
    an atom. Each iteration drops exactly the active atoms of zero weight, by
    drop_phase, at no evaluation.

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

        dropped = drop_phase(active, y_bar)

        # ascending, so each seeded refine draw maps to the same atom id
        inactive_mask = np.ones(atoms.m, dtype=bool)
        inactive_mask[active] = False
        inactive = np.flatnonzero(inactive_mask)
        refine = refine_phase(objective, x_bar, f_bar, atoms, inactive, mu_hat, rng)

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
