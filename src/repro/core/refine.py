"""Refinement phase of GVE-Leiden (Algorithm 3).

Starting from singleton sub-communities, *isolated* vertices (those still
alone in their sub-community: ``Σ'[c] == K'[i]``) merge into neighboring
sub-communities **within their community bound** — the community they were
assigned by the local-moving phase.  A compare-and-swap on ``Σ'`` ensures
a vertex only leaves its sub-community while still isolated, which is
what guarantees the refined communities are internally connected.

The paper evaluates two selection rules (Figures 1-2):

- ``greedy`` — argmax ΔQ (the paper's best performer);
- ``random`` — choose ∝ ΔQ among positive candidates, as Traag et al.
  originally proposed, driven by xorshift32.  The batch engine samples
  via the Gumbel-max trick: ``argmax(log ΔQ + G)`` with i.i.d. Gumbel
  noise draws exactly ∝ ΔQ.

One sweep over the vertices is performed per pass.

The batch engine's CAS commit
-----------------------------
``refine_batch`` decides a batch's moves against the state at the batch
start, then serializes the commits as if the movers ran one at a time in
ascending id order.  A *mover* has a best in-bound move with ΔQ > 0; its
*own* label is its sub-community and its *target* is the sub-community
it picked.  Mover ``k`` commits if nothing joined its own label and no
earlier commit in the batch vacated its target, or if a ``racy`` race
forces it; a commit joins the target and vacates the own label.

Call two movers *conflicting* when one's target is the other's own
label.  Then mover ``k`` commits iff it is forced, or its own label was
not joined before the batch and no lower-index committed mover conflicts
with it: the commits are the lexicographically-first independent set of
the conflict graph, forced movers always in.  ``leiden()`` starts
refinement from singletons, so own labels are the movers' ids, distinct
and ascending, and each mover conflicts through its target with at most
one other: the conflict graph is a functional graph in mover positions.

Large batches compute that set in rounds.  A round decides, at once,
every undecided mover that has a committed lower-index neighbour (out)
or only decided ones (in).  A decided mover never changes, so the rounds
can stop at any point and a sequential pass over the still-undecided
movers, in id order, finishes the same set.  Rounds stop when few movers
remain or when a round decided a small share of them (a chain decides
about one per round).  Small batches, and batches whose own labels
repeat (a caller-supplied membership with zero-weight members), commit
through the one-at-a-time loop, which stays the reference.
"""

from __future__ import annotations

import numpy as np

from repro.core.local_move import candidate_moves
from repro.core.quality import Quality
from repro.core.result import PHASE_REFINE
from repro.core.workspace import KernelWorkspace
from repro.graph.csr import CSRGraph
from repro.graph.segments import ragged_indices
from repro.parallel.atomics import AtomicArray
from repro.parallel.rng import Xorshift32
from repro.parallel.runtime import Runtime

__all__ = ["refine_batch", "refine_loop", "scan_bounded"]

#: Bookkeeping work units charged per visited vertex on top of its degree.
VERTEX_COST = 4.0
_TINY = 1e-300

#: Batches with fewer movers commit through the sequential loop: below
#: about 300 movers the vectorized commit costs more than the loop.
ROUND_MIN_MOVERS = 512
#: Rounds stop once fewer undecided movers remain (a round costs about
#: as much as 130 steps of the tail) ...
ROUND_MIN_UNDECIDED = 128
#: ... or once a round decided less than this share of the movers that
#: were undecided when it began (a chain decides ~1 mover per round).
ROUND_MIN_SHARE = 0.25

# Mover states of the vectorized commit.  Each is the weight a mover adds
# to the pressure on its higher-index conflicting movers: one committed
# neighbour outweighs any number of undecided ones.
_OUT, _UNDECIDED, _IN = 0.0, 1.0, 2.0 ** 32


def refine_batch(
    graph: CSRGraph,
    bounds: np.ndarray,
    membership: np.ndarray,
    vertex_weights: np.ndarray,
    community_weights: np.ndarray,
    *,
    runtime: Runtime,
    rng: Xorshift32 | None = None,
    refinement: str = "greedy",
    batch_size: int = 4096,
    resolution: float = 1.0,
    guard: str = "cas",
    quality: Quality | None = None,
    quantities=None,
    workspace: KernelWorkspace | None = None,
    phase: str = PHASE_REFINE,
) -> int:
    """Vectorized constrained-merge sweep; mutates ``membership`` and
    ``community_weights`` in place.  Returns the number of merges.

    ``guard`` selects how strictly the move condition of Algorithm 3 is
    enforced — the knob that separates GVE-Leiden from the competing
    parallel implementations' refinement behaviour:

    - ``"cas"`` (GVE-Leiden): isolation test plus the CAS commit rule;
      guarantees internally-connected communities;
    - ``"racy"`` (cuGraph-style BSP): the commit discipline holds for
      almost all moves, but a small rate of commits race past it — the
      GPU's epoch-level window is tiny relative to the graph, so races
      are rare but nonzero (the paper measures a ~6.6e-5 disconnected
      fraction for cuGraph);
    - ``"none"`` (NetworKit-style): any vertex may move within its bound;
      the guarantee is lost outright.
    """
    if guard not in ("cas", "racy", "none"):
        raise ValueError(f"unknown guard {guard!r}")
    #: Probability that a racy commit slips past the serialization.
    race_rate = 2e-3 if guard == "racy" else 0.0
    n = graph.num_vertices
    if n == 0:
        return 0
    m = graph.m
    if m <= 0:
        return 0
    CB = bounds
    C = membership
    K = vertex_weights
    Sigma = community_weights
    offsets = graph.offsets[:-1]
    degrees = graph.degrees
    targets = graph.targets
    weights = graph.weights
    qual = quality or Quality("modularity", resolution)
    Q = K if quantities is None else quantities
    random = refinement == "random"
    if random and rng is None:
        rng = Xorshift32()
    ws = workspace if workspace is not None else KernelWorkspace(n)

    # Once any vertex joins community c, c's members must not leave —
    # that is the CAS guarantee.  Across batches Σ'[c] > K'[v] encodes it;
    # within a batch we serialize commits in ascending-id order.
    joined = np.zeros(n, dtype=bool)
    vacated = np.zeros(n, dtype=bool)
    total_moves = 0
    decided_moves = 0
    isolated = 0
    batch_size = max(32, min(batch_size, n // 32)) if n > 64 else n
    loops = graph.has_self_loops
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        if guard != "none":
            # Isolation test (line 4).
            vs = lo + np.flatnonzero(Sigma[C[lo:hi]] == Q[lo:hi])
        else:
            vs = np.arange(lo, hi, dtype=np.int64)
        isolated += int(vs.shape[0])
        if vs.shape[0] == 0:
            continue
        seg, idx = ragged_indices(offsets[vs], degrees[vs])
        dst = targets[idx]
        keep = CB[dst] == CB[vs][seg]  # scanBounded
        if loops:
            keep &= dst != vs[seg]
        keep = np.flatnonzero(keep)
        if keep.shape[0] == 0:
            continue
        seg, dst = seg[keep], dst[keep]
        pseg, pcomm, psum = ws.pair_sums(seg, C[dst], weights[idx[keep]],
                                         vs.shape[0])
        d = C[vs]
        found = candidate_moves(vs, d, pseg, pcomm, psum, K, Q, Sigma, m,
                                qual)
        if found is None:
            continue
        cseg, cc, dq = found
        if random:
            # Gumbel-max sampling ∝ ΔQ among positive candidates.
            u = rng.floats_fast(dq.shape[0])
            gumbel = -np.log(-np.log(np.clip(u, _TINY, 1.0 - 1e-16)))
            key = np.where(dq > 0.0, np.log(np.maximum(dq, _TINY)) + gumbel, -np.inf)
            bseg, bidx = ws.argmax(cseg, key)
        else:
            bseg, bidx = ws.argmax(cseg, dq)
        keep_best = dq[bidx] > 0.0
        if not keep_best.any():
            continue
        mseg = bseg[keep_best]
        movers = vs[mseg]
        mcomm = cc[bidx[keep_best]].astype(C.dtype)
        mown = d[mseg]
        if guard == "none":
            # Unguarded: every decided move is applied as-is.
            commit = np.ones(movers.shape[0], dtype=bool)
        else:
            # Emulated CAS (lines 10-11), serialized in ascending id
            # order; under "racy", a small rate of commits slip past the
            # serialization (BSP epoch races).
            if race_rate > 0.0:
                if rng is None:
                    rng = Xorshift32()
                races = rng.floats_fast(movers.shape[0]) < race_rate
            else:
                races = None
            commit = _commit(mown, mcomm, joined, vacated, races, ws._map)
        decided_moves += int(movers.shape[0])
        if commit.any():
            cv = movers[commit]
            cown = mown[commit]
            cnew = mcomm[commit]
            kcv = Q[cv]
            ws.scatter_add(
                Sigma,
                np.concatenate([cown, cnew]),
                np.concatenate([-kcv, kcv]),
            )
            C[cv] = cnew
            total_moves += int(cv.shape[0])
    _report(runtime, graph, phase, total_moves, decided_moves - total_moves,
            isolated)
    return total_moves


def _report(runtime: Runtime, graph: CSRGraph, phase: str, moves: int,
            cas_rejects: int, isolated: int) -> None:
    """Record one sweep's work and its totals: the refinement phase's one
    report, shared by every engine."""
    atomics = float(graph.num_vertices + 2 * moves)
    runtime.record_parallel(graph.degrees, phase=phase, atomics=atomics,
                            per_item=VERTEX_COST)
    rec = runtime.recorder
    if rec.enabled:
        rec.family("counter", "leiden_refine_splits_total",
                   "refinement moves applied (splits off the bound)")
        rec.family("counter", "leiden_refine_cas_rejects_total",
                   "refinement moves lost to the isolation CAS")
        rec.count("refine_isolated", isolated)
        rec.count("refine_cas_rejects", cas_rejects)
        # Convergence monitor: split count of this sweep (merges applied,
        # i.e. singleton sub-communities that split off their bound).
        rec.series("refine_splits", moves)


def _commit(mown, mcomm, joined, vacated, races, scratch) -> np.ndarray:
    """Commit mask of one batch's movers under the CAS rule; marks the
    committed targets in ``joined``.  ``scratch`` is an int64 map with a
    slot per label whose contents do not matter."""
    if mown.shape[0] >= ROUND_MIN_MOVERS:
        commit = _commit_rounds(mown, mcomm, joined, races, scratch)
        if commit is not None:
            joined[mcomm[commit]] = True
            return commit
    return _commit_sequential(mown, mcomm, joined, vacated, races)


def _commit_sequential(mown, mcomm, joined, vacated, races) -> np.ndarray:
    """The commit rule, one mover at a time in ascending id order.

    Two gates: nothing joined the mover's own sub-community (the CAS),
    and no earlier commit in the batch vacated its target, i.e. the
    vertex whose community the mover scanned is still there.  The second
    closes the pile-into-an-emptied-label race that would let two mutual
    non-neighbours form a disconnected pair.  ``vacated`` must be
    all-false on entry and is all-false on return.
    """
    commit = np.zeros(mown.shape[0], dtype=bool)
    vacated_marks = []
    mown_list = mown.tolist()
    mcomm_list = mcomm.tolist()
    for k in range(len(mown_list)):
        own, target = mown_list[k], mcomm_list[k]
        ok = not joined[own] and not vacated[target]
        if ok or (races is not None and races[k]):
            commit[k] = True
            joined[target] = True
            vacated[own] = True
            vacated_marks.append(own)
    # vacated[] is a within-batch notion: after the batch the
    # memberships are updated, so later scans cannot reference a
    # vacated label at all.
    for own in vacated_marks:
        vacated[own] = False
    return commit


def _commit_rounds(mown, mcomm, joined, races, scratch):
    """The commit rule as the lexicographically-first independent set of
    the conflict graph; ``None`` when an own label repeats.

    Mover ``k``'s conflict edge goes to ``t[k]``, the mover whose own
    label ``k`` targets.  Each round decides every undecided mover whose
    lower-index neighbours are decided or include a committed one; the
    rounds stop when they stop paying and :func:`_commit_tail` finishes
    the rest in id order.
    """
    k_movers = mown.shape[0]
    own = mown.astype(np.intp)
    idx = np.arange(k_movers, dtype=np.intp)
    scratch[own] = idx
    if not np.array_equal(scratch[own], idx):
        return None
    # A stale slot read for a target that is nobody's own label is
    # clipped into range; the clipped position then names a mover whose
    # own label differs from the target, because own labels are distinct.
    t = scratch[mcomm.astype(np.intp)]
    np.clip(t, 0, k_movers - 1, out=t)
    hit = mown[t] == mcomm
    t[~hit] = -1
    src = np.flatnonzero(hit)
    lo = np.minimum(src, t[src])
    hi = np.maximum(src, t[src])
    # A mover's state is the weight it adds to the pressure on its
    # higher-index neighbours.
    state = np.where(joined[own], _OUT, _UNDECIDED)
    if races is not None:
        state[races] = _IN
    undecided = state == _UNDECIDED
    left = int(np.count_nonzero(undecided))
    stalled = False
    while left:
        pressure = np.bincount(hi, weights=state[lo], minlength=k_movers)
        if left < ROUND_MIN_UNDECIDED or stalled:
            _commit_tail(state, undecided, t, pressure)
            break
        np.putmask(state, undecided & (pressure >= _IN), _OUT)
        np.putmask(state, undecided & (pressure == 0.0), _IN)
        undecided = state == _UNDECIDED
        before, left = left, int(np.count_nonzero(undecided))
        stalled = before - left < ROUND_MIN_SHARE * before
        keep = undecided[hi]
        lo, hi = lo[keep], hi[keep]
    return state == _IN


def _commit_tail(state, undecided, t, pressure) -> None:
    """Decide the ``undecided`` movers in id order; ``pressure`` must be
    current for ``state``."""
    rest = np.flatnonzero(undecided)
    # barred: movers with a committed lower-index conflicting mover,
    # seeded from the rounds and extended by each commit here with the
    # owner of its target.  That owner j is taken only if j < k, as the
    # movers are visited in id order.
    barred = set(rest[pressure[rest] >= _IN].tolist())
    taken = set()
    for k, j in zip(rest.tolist(), t[rest].tolist()):
        if k not in barred and j not in taken:
            taken.add(k)
            barred.add(j)
    state[rest] = _OUT
    state[list(taken)] = _IN


def scan_bounded(
    table,
    graph: CSRGraph,
    bounds: np.ndarray,
    membership: np.ndarray,
    vertex: int,
    include_self: bool,
):
    """``scanBounded`` of Algorithm 3: ``K_{i→c}`` within the bound only."""
    dst, wgt = graph.edges(vertex)
    bi = bounds[vertex]
    for j, w in zip(dst.tolist(), wgt.tolist()):
        if not include_self and j == vertex:
            continue
        if bounds[j] != bi:
            continue
        table.accumulate(int(membership[j]), float(w))
    return table


def refine_loop(
    graph: CSRGraph,
    bounds: np.ndarray,
    membership: np.ndarray,
    vertex_weights: np.ndarray,
    community_weights: np.ndarray,
    *,
    runtime: Runtime,
    rng: Xorshift32 | None = None,
    refinement: str = "greedy",
    resolution: float = 1.0,
    quality: Quality | None = None,
    quantities=None,
    phase: str = PHASE_REFINE,
) -> int:
    """Reference per-vertex refinement sweep (exact Algorithm 3)."""
    n = graph.num_vertices
    if n == 0:
        return 0
    m = graph.m
    if m <= 0:
        return 0
    CB = bounds
    C = membership
    K = vertex_weights
    Sigma = AtomicArray(community_weights)
    tables = runtime.hashtables(n)
    qual = quality or Quality("modularity", resolution)
    Q = K if quantities is None else quantities
    random = refinement == "random"
    if random and rng is None:
        rng = Xorshift32()

    moves = 0
    isolated = 0
    cas_rejects = 0
    for i in range(n):
        c = int(C[i])
        ki = float(K[i])
        qi = float(Q[i])
        if float(Sigma[c]) != qi:  # isolation test (line 4)
            continue
        isolated += 1
        table = tables[i % len(tables)]
        table.clear()
        scan_bounded(table, graph, CB, C, i, include_self=False)
        if len(table) == 0:
            continue
        kid = table.get(c)
        if random:
            best_c, best_dq = _pick_random(
                table, c, kid, ki, qi, Sigma, m, qual, rng
            )
        else:
            best_c, best_dq = _pick_greedy(
                table, c, kid, ki, qi, Sigma, m, qual
            )
        if best_c < 0 or best_dq <= 0.0:
            continue
        # Algorithm 3, lines 10-11: leave only while still isolated.
        if Sigma.compare_and_swap(c, qi, 0.0) == qi:
            Sigma.add(best_c, qi)
            C[i] = best_c
            moves += 1
        else:
            cas_rejects += 1
    _report(runtime, graph, phase, moves, cas_rejects, isolated)
    return moves


def _pick_greedy(table, c, kid, ki, qi, Sigma, m, qual):
    best_c, best_dq = -1, 0.0
    for cand, kic in table.items():
        if cand == c:
            continue
        dq = float(qual.delta(kic, kid, ki, qi,
                              float(Sigma[cand]), float(Sigma[c]), m))
        if dq > best_dq:
            best_c, best_dq = cand, dq
    return best_c, best_dq


def _pick_random(table, c, kid, ki, qi, Sigma, m, qual, rng):
    cands, dqs = [], []
    for cand, kic in table.items():
        if cand == c:
            continue
        dq = float(qual.delta(kic, kid, ki, qi,
                              float(Sigma[cand]), float(Sigma[c]), m))
        if dq > 0.0:
            cands.append(cand)
            dqs.append(dq)
    if not cands:
        return -1, 0.0
    total = sum(dqs)
    pick = rng.next_float() * total
    acc = 0.0
    for cand, dq in zip(cands, dqs):
        acc += dq
        if pick < acc:
            return cand, dq
    return cands[-1], dqs[-1]
