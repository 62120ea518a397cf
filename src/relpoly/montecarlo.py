"""Monte Carlo estimation of cut fractions and reliability curves.

Each run draws one uniform removal order and scores, for every removal
count j, whether the residual graph is disconnected. Averaging the
indicator over runs estimates the cut fraction c_j, and plugging the
estimates into the C-form binomial mixture reconstructs the curve.

A literal delete-and-recheck sweep costs O(N(N+L)) per run. The runs here
are executed backwards instead: nodes (or links) are inserted in reverse
removal order into a union-find structure while tracking the component
count, which gives identical per-permutation answers in O((N+L) alpha)
(Newman & Ziff, PRL 85, 4104, 2000). Three exact shortcuts cut the
constant. A link sweep stops once all nodes are connected, since every
smaller removal count leaves a superset of those links; the run is scored
by that threshold. On graphs with many links it also starts late: the
threshold is below the first removal count that strips some node of its
last link, so the links present one removal earlier are labelled in one
numpy component pass, and the union-find sweep runs only if they leave
more than one component. A node sweep skips the finds while the inserted
nodes form one component: a new node then joins it exactly when it has an
inserted neighbour. On graphs of at least _NODE_SHORTCUT_MIN_NODES nodes
and a mean degree of at most _NODE_SHORTCUT_MAX_MEAN_DEGREE it also starts
late and jumps. A node is isolated from the removal of its last neighbour
until its own removal, so numpy reads off the removal order the suffix of
removal counts whose residual has an isolated node; the residual just
below it is labelled in one numpy pass, and the sweep starts there. While
one component remains, it jumps straight to the next node with no
neighbour behind it in the order, the only kind that starts a new
component. Smaller or denser graphs skip that start: there the numpy setup
costs more than the Python steps it saves.

Estimate runs that no numpy step starts are swept a block at a time
instead, where the graph allows: link runs below _LABEL_MIN_LINKS links,
and node runs on graphs below _NODE_SHORTCUT_MIN_NODES nodes whose largest
degree is at most _BLOCK_MAX_DEGREE. The runs of a block of removal orders
share one flat union-find state and go in lockstep, each step one numpy
pass over every run: a link insertion, or one neighbour slot of a node
insertion. A node step makes one pass per slot up to the largest degree,
however few neighbours the inserted nodes have, so on graphs with larger
degrees the per-run sweep, which skips its finds while one component
remains, is faster, and those keep it. A removal profile scores one order,
which fills no block, so both profiles keep the per-run sweeps too.

Runs are seeded individually by mixing the root seed with the run index,
so results do not depend on how runs are split across worker processes.
Every way reads its removal orders from _order_blocks, which draws them
_DRAW_BLOCK runs at a time from those same per-run streams, so the orders
do not depend on where a block or a worker's share begins, and turns them
into counts in one loop, _counts. Orders of fewer than _SMALL_PERMUTATION
elements are shuffled in numpy for the whole block. Larger ones come from
numpy's PCG64 generator, one per run, shuffling its order in place; the
SeedSequence hash of its seed, which costs more than a mid-size shuffle,
is computed in numpy for the whole block, and numpy seeds each generator
from its run's hashed words.

With w workers the runs are split into contiguous shares of
ceil(runs / w) runs, rounded up to whole draw blocks where runs are swept
a block at a time. The calling process sweeps the first share itself and
forks one child for each other share; a child inherits the graph and its
caches, and sends back only its counts. A lone share forks nothing.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import operator
import os
import sys
import traceback
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .curve import Curve, _check_probability
from .exact import ReliabilityCoefficients, _clamp01, _curve_values
from .graph import _MASK64, Graph, _label_components

# every way reads its removal orders from _order_blocks, which draws them
# _DRAW_BLOCK runs at a time. Below this size they come from a SplitMix64
# Fisher-Yates shuffle, all in numpy (see _small_orders); from it up, from
# numpy's PCG64 generator, one per run, whose setup a small order cannot
# repay: the block's SeedSequence hash is one numpy pass (see _seed_words),
# and numpy seeds each run's generator from its words (see _RunWords). A
# block's memory is O(_DRAW_BLOCK * n) below the size; from it up, large
# orders are shuffled in place in one (rows, n) array of at most a slice's
# rows, whatever the run count
_SMALL_PERMUTATION = 32
_DRAW_BLOCK = 4096
_GAMMA = 0x9E3779B97F4A7C15
_MASK32 = 0xFFFFFFFF
# the constants of numpy's SeedSequence hash
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# link sweeps from this many links up start at the isolation bound (see
# _link_threshold); below it the numpy setup costs more than it saves
_LABEL_MIN_LINKS = 256
# node sweeps on graphs this large and at most this dense start from the
# isolated-node suffix and jump across one-component stretches (see
# _node_run); on smaller or denser graphs the numpy setup costs more
_NODE_SHORTCUT_MIN_NODES = 500
_NODE_SHORTCUT_MAX_MEAN_DEGREE = 16
# below _NODE_SHORTCUT_MIN_NODES, node runs on graphs whose largest degree is
# at most this are swept a block at a time (see _node_block_counts), one
# numpy union pass per neighbour slot; at largest degrees 13-18 that ran at
# 0.99-1.35x the per-run sweep's speed, and from 19 up mostly slower
_BLOCK_MAX_DEGREE = 12
# a lockstep sweep holds O(rows * (n + 1)) union-find state, so it takes at
# most about this many cells' worth of rows at a time
_BLOCK_CELLS = 1 << 20


def _splitmix(z):
    """SplitMix64's output function of each state in a uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def resolve_workers(workers=None) -> int:
    """Worker processes to use; the RELPOLY_THREADS env var caps the value.

    Raises ValueError when RELPOLY_THREADS is set to anything but a positive
    integer.
    """
    w = workers if workers is not None else 1
    env = os.environ.get("RELPOLY_THREADS")
    if env:
        if not env.strip().isdecimal() or int(env) < 1:
            raise ValueError(f"RELPOLY_THREADS must be a positive integer, got {env!r}")
        w = min(w, int(env))
    return max(1, min(w, os.cpu_count() or 1))


@dataclass(frozen=True)
class CutFractionEstimate:
    """Estimated disconnection probabilities c_j = R_j / runs, j = 0..dimension.

    kind "node": j counts removed nodes. kind "link": j counts removed links
    (all nodes stay present).
    """

    kind: str
    dimension: int
    counts: tuple
    runs: int
    seed: int

    def __post_init__(self):
        if len(self.counts) != self.dimension + 1:
            raise ValueError("need one count per removal size 0..dimension")
        if min(self.counts, default=0) < 0 or max(self.counts, default=0) > self.runs:
            raise ValueError("counts must lie in [0, runs]")

    @property
    def fractions(self) -> tuple:
        return tuple(c / self.runs for c in self.counts)


def _run_seeds(seed: int, start: int, stop: int):
    """The seeds of runs r = start..stop-1 as uint64s: run r's is SplitMix64's
    output for the state seed + (r + 1) * _GAMMA mod 2^64, and uint64
    arithmetic wraps mod 2^64 as that state does."""
    return _splitmix(np.arange(start + 1, stop + 1, dtype=np.uint64) * _GAMMA + (seed & _MASK64))


def _small_orders(n: int, seed: int, start: int, stop: int):
    """Removal orders of runs start..stop-1 over n < _SMALL_PERMUTATION elements.

    Row r - start is the Fisher-Yates shuffle of 0..n-1 whose draw k, which
    picks the partner j of position i = n - 1 - k, is SplitMix64's output
    for the state run_seed + (k + 1) * _GAMMA mod 2^64, with run r's seed
    from _run_seeds as run_seed. j is the high 64 bits of draw * (i + 1),
    the multiply-shift trick, whose bias of at most n/2^64 is irrelevant here.
    numpy's uint64 arithmetic wraps mod 2^64 as the stream does, and every
    draw of every run is taken at once; only the swaps go column by column.
    """
    z = _splitmix(_run_seeds(seed, start, stop)[:, None] + np.arange(1, n, dtype=np.uint64) * _GAMMA)
    bound = np.arange(n, 1, -1, dtype=np.uint64)
    # the high half of z * bound from z's 32-bit halves: with bound <= 32 no
    # product reaches 2^64
    partner = (((z >> 32) * bound + (((z & _MASK32) * bound) >> 32)) >> 32).astype(np.intp)
    perm = np.tile(np.arange(n), (stop - start, 1))
    rows = np.arange(stop - start)
    for k, i in enumerate(range(n - 1, 0, -1)):
        j = partner[:, k]
        held = perm[:, i].copy()
        perm[:, i] = perm[rows, j]
        perm[rows, j] = held
    return perm


def _seed_words(run_seeds):
    """np.random.SeedSequence(s).generate_state(4, np.uint64) for each uint64 s, as rows.

    numpy's SeedSequence hashes s's 32-bit words, low first and zero-padded
    to its pool of four, mixes the pool, and hashes the pool out again, all
    in uint32 arithmetic; uint32 arrays wrap mod 2^32 the same way. Each
    output uint64 is two output words, low first.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        z = x * _MIX_MULT_L - y * _MIX_MULT_R
        return z ^ (z >> 16)

    low = (run_seeds & _MASK32).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(w) for w in (low, (run_seeds >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    words = []
    for k in range(8):
        value = pool[k % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([words[k] | words[k + 1] << 32 for k in range(0, 8, 2)], axis=1)


class _RunWords(np.random.bit_generator.ISeedSequence):
    """A block's _seed_words words, served to numpy's seeding protocol one run at a time.

    PCG64 asks its seed sequence for four uint64 words and reads them from
    the returned array's buffer. The words are kept as a C-contiguous
    (runs, 4) uint64 array, so the row of run `run` is such a buffer, and
    PCG64(_RunWords(words)) seeds itself from it as PCG64(run_seed) does
    from the same words. Any other request is refused.
    """

    def __init__(self, words):
        words = np.ascontiguousarray(words, np.uint64)
        if words.ndim != 2 or words.shape[1] != 4:
            raise ValueError(f"run words come as rows of 4, not in shape {words.shape}")
        self.words = words
        self.run = 0

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError(f"run words hold 4 uint64 words, not {n_words} of {dtype}")
        return self.words[self.run]


def _order_blocks(dim: int, seed: int, start: int, stop: int, rows: int):
    """The removal orders of runs start..stop-1 over dim elements, as (runs, dim) intp arrays.

    Every way of sweeping runs reads its orders here (see _sweep_way). Each
    draw block of _DRAW_BLOCK runs comes in slices of at most `rows` runs.
    A small block is sliced as _small_orders drew it. Large orders are
    drawn into one array reused for every slice, which is valid until the
    next slice is asked for. Run r's order,
    Generator(PCG64(run_seed)).permutation(dim) for run r's seed from
    _run_seeds, is 0..dim-1 shuffled, so each row is filled with 0..dim-1
    and shuffled in place by a generator that numpy seeds from the run's
    words, which _seed_words hashes for the whole block at once.
    """
    buffer = None
    for at in range(start, stop, _DRAW_BLOCK):
        end = min(at + _DRAW_BLOCK, stop)
        if dim < _SMALL_PERMUTATION:
            block = _small_orders(dim, seed, at, end)
            for i in range(0, end - at, rows):
                yield block[i : i + rows]
            continue
        if buffer is None:
            buffer = np.empty((min(rows, _DRAW_BLOCK, stop - start), dim), np.intp)
            ids = np.arange(dim)
        seeds = _RunWords(_seed_words(_run_seeds(seed, at, end)))
        for i in range(0, end - at, rows):
            slice_ = buffer[: min(rows, end - at - i)]
            slice_[:] = ids
            for run, row in enumerate(slice_, i):
                seeds.run = run
                np.random.Generator(np.random.PCG64(seeds)).shuffle(row)
            yield slice_


def _node_sweep(adj, perm, start: int, inserted, parent, size, ncomp: int, out, starts=None):
    """Add 1 to out[t] for every t <= start whose residual perm[t:] is disconnected.

    Nodes are inserted from perm[start] down to perm[0] into the union-find
    state (inserted, parent, size, ncomp), which holds the nodes
    perm[start + 1:], at least one of them: inserted[v] is True for those, and
    sizes are true at their roots. perm needs entries 0..start + 1 only.

    While the inserted nodes form one component, a new node joins it exactly
    when it has an inserted neighbour. Without starts, that neighbour is
    searched for and the new node is hung under it, with no find. starts is
    the sorted list of the positions whose node has no neighbour at a larger
    position. With it, the sweep jumps from t to the largest such w <= t:
    the flags between stay clear, and only if w exists are the skipped nodes
    hung under the component's root. A node with no inserted neighbour
    starts a second component and drops the sweep to union-find by size with
    path halving, until the count returns to one. There the new node's root
    is carried along, so each inserted neighbour costs one find.
    """
    n = len(parent)
    while start >= 0:
        if ncomp == 1 and starts is not None:
            k = bisect_right(starts, start)
            if not k:
                return
            w = starts[k - 1]
            x = perm[start + 1]
            while parent[x] != x:
                x = parent[x]
            for v in perm[w + 1 : start + 1]:
                parent[v] = x
                inserted[v] = True
            size[x] = n - 1 - w
            inserted[perm[w]] = True
            ncomp = 2
            out[w] += 1
            start = w - 1
        for t in range(start, -1, -1):
            v = perm[t]
            inserted[v] = True
            if ncomp == 1:  # reached only without starts
                for u in adj[v]:
                    if inserted[u]:
                        parent[v] = u
                        break
                else:
                    # the single component's root gets its true size back
                    x = perm[t + 1]
                    while parent[x] != x:
                        x = parent[x]
                    size[x] = n - 1 - t
                    ncomp = 2
                    out[t] += 1
                continue
            ncomp += 1
            x = v  # the root of v's component as it grows
            for u in adj[v]:
                if inserted[u]:
                    y = u
                    while parent[y] != y:
                        parent[y] = parent[parent[y]]
                        y = parent[y]
                    if x != y:
                        if size[x] < size[y]:
                            x, y = y, x
                        parent[y] = x
                        size[x] += size[y]
                        ncomp -= 1
            if ncomp != 1:
                out[t] += 1
            elif starts is not None:
                start = t - 1
                break
        else:
            return


def _node_disconnection_into(adj, n: int, perm, out):
    """Add 1 to out[j] for every j in 0..N whose residual is disconnected.

    perm is the removal order; insertion proceeds from its tail, which alone
    is one component. The residual after j removals is connected iff exactly
    one component remains among the N - j inserted nodes; the empty residual
    (j = N) is disconnected.
    """
    out[n] += 1
    inserted = [False] * n
    if n:
        inserted[perm[-1]] = True
    _node_sweep(adj, perm, n - 2, inserted, list(range(n)), [1] * n, 1, out)


def _node_run(adj, ends, perm, out, suffix):
    """_node_disconnection_into for a permutation array, in three steps.

    1. With last[v] the largest removal position among v's neighbours (-1
       without links), v is isolated in the residual perm[j:] exactly for
       last[v] < j <= pos[v]. t0 is the lowest t such that every j in
       [t, N - 2] has an isolated node. The flags of j in [t0, N - 2] (set),
       N - 1 (clear) and N (set) go into the difference array suffix, whose
       prefix sums the caller adds to out.
    2. The components of the residual perm[t0:] are labelled in numpy.
    3. _node_sweep continues from t0 - 1 with those labels as its parents,
       jumping across one-component stretches to the next position whose
       node has no neighbour at a larger one.
    """
    n = len(perm)
    at = np.arange(n)
    pos = np.empty(n, np.int64)
    pos[perm] = at
    heads, tails = ends
    ph, pt = pos[heads], pos[tails]
    last = np.full(n, -1)
    np.maximum.at(last, heads, pt)
    np.maximum.at(last, tails, ph)
    alone = last < pos
    isolated = np.bincount(last[alone] + 1, minlength=n + 1) - np.bincount(pos[alone] + 1, minlength=n + 1)
    bare = np.flatnonzero(np.cumsum(isolated[: n - 1]) == 0)
    t0 = int(bare[-1]) + 1 if len(bare) else 0
    suffix[t0] += 1
    suffix[n - 1] -= 1
    suffix[n] += 1
    if t0 == 0:
        return
    labels = _label_components(n, *ends.compress(np.minimum(ph, pt) >= t0, axis=1))
    # each of the t0 removed nodes is a root of its own; the other roots are
    # the residual's components. The sweep indexes the arrays through
    # memoryviews, which read and write plain ints and bools with no
    # N-element list copy of each
    _node_sweep(
        adj, memoryview(perm[: t0 + 1]), t0 - 1, memoryview(pos >= t0), memoryview(labels),
        memoryview(np.bincount(labels, minlength=n)), int(np.count_nonzero(labels == at)) - t0,
        out, np.flatnonzero(alone[perm[:t0]]).tolist(),
    )


def _link_connection_threshold(ends, perm, start: int, parent, size, ncomp: int) -> int:
    """Largest j whose residual keeps all N nodes connected, or -1 if none does.

    ends is a pair (heads, tails) of sequences over the link ids, here
    lists or memoryviews of graph.link_ends' rows: link e joins heads[e] and
    tails[e]. Links are inserted from perm[start] down to perm[0] into the
    union-find state (parent, size, ncomp), which holds the links
    perm[start + 1:]. The state may come from anywhere: the answer depends
    only on its partition. Removing fewer links only adds links back, so
    every j at or below the returned value leaves a connected residual and
    every j above it a disconnected one; the sweep stops at the first
    insertion that connects all nodes.
    """
    if ncomp == 1:
        return start + 1
    heads, tails = ends
    for t in range(start, -1, -1):
        e = perm[t]
        x = heads[e]
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        y = tails[e]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x != y:
            if size[x] < size[y]:
                x, y = y, x
            parent[y] = x
            size[x] += size[y]
            ncomp -= 1
            if ncomp == 1:
                return t
    return -1


def _link_threshold(ends, n: int, perm, start_late: bool) -> int:
    """_link_connection_threshold of a whole removal order; ends is graph.link_ends.

    start_late is set on the "numpy-start" way (see _sweep_way). Without
    it, perm is a list and the sweep starts from N single nodes. With it,
    perm is an array, and the sweep starts at the isolation bound t_iso:
    the smallest, over nodes, of the last removal position among a node's
    links. After t_iso + 1 removals that node has no link left, so the
    threshold is at most t_iso. The components of the links perm[t_iso:]
    are labelled in numpy. One component gives the threshold t_iso;
    otherwise the labels seed the union-find sweep from t_iso - 1.
    """
    if not start_late:  # a sweep of the whole order reads lists faster than memoryviews
        return _link_connection_threshold(ends.tolist(), perm, len(perm) - 1, list(range(n)), [1] * n, n)
    heads, tails = np.take(ends, perm, axis=1)
    last = np.full(n, -1)
    at = np.arange(len(perm))
    np.maximum.at(last, heads, at)
    np.maximum.at(last, tails, at)
    t_iso = int(last.min())
    if t_iso < 0:  # a node without links
        return -1
    labels = _label_components(n, heads[t_iso:], tails[t_iso:])
    # each label is the smallest id of its component, so one component is all 0
    if not labels.any():
        return t_iso
    ncomp = int(np.count_nonzero(labels == np.arange(n)))
    return _link_connection_threshold(
        tuple(map(memoryview, ends)), perm[:t_iso].tolist(), t_iso - 1, labels.tolist(),
        np.bincount(labels, minlength=n).tolist(), ncomp,
    )


def _roots(parent, x):
    """The union-find roots of the flat ids x, halving every path walked.

    Ids of x may share a tree: every write points an id at one of its
    ancestors, so each walk still ends at the root.
    """
    p = parent[x]
    walk = np.flatnonzero(p != x)
    if not len(walk):
        return x
    x = x.copy()
    at, p = x[walk], p[walk]
    while len(walk):
        up = parent[p]
        parent[at] = up
        x[walk] = up
        p = parent[up]
        more = p != up
        walk, at, p = walk[more], up[more], p[more]
    return x


def _union(parent, size, x, y):
    """Join the distinct roots x[k] and y[k], the smaller under the larger; the new roots."""
    sx, sy = size[x], size[y]
    swap = sx < sy
    root = np.where(swap, y, x)
    child = np.where(swap, x, y)
    parent[child] = root
    size[root] = sx + sy
    return root


def _link_block_thresholds(ends, n: int, perms):
    """_link_connection_threshold of every row of perms, swept in lockstep.

    Each row is one run's removal order over the links (ends[0][e], ends[1][e]).
    Run r owns the slice r*n..r*n+n-1 of one flat union-find state. Links
    go in one column at a time from the last position; a run leaves the
    live set at the insertion that connects all its nodes. The state is
    O(rows * n).
    """
    rows, l = perms.shape
    base = np.arange(rows) * n
    parent = np.arange(rows * n)
    size = np.ones(rows * n, np.intp)
    ncomp = np.full(rows, n)
    last = np.full(rows, l if n == 1 else -1)  # one node is connected at every j
    live = np.arange(rows if n > 1 else 0)
    heads, tails = ends
    for t in range(l - 1, -1, -1):
        e = perms[live, t]
        off = base[live]
        k = len(live)
        roots = _roots(parent, np.concatenate((heads[e] + off, tails[e] + off)))
        x, y = roots[:k], roots[k:]
        join = np.flatnonzero(x != y)
        _union(parent, size, x[join], y[join])
        joined = live[join]
        ncomp[joined] -= 1
        done = ncomp[joined] == 1
        if done.any():
            last[joined[done]] = t
            live = live[ncomp[live] != 1]
            if not len(live):
                break
    return last


def _node_block_counts(slots, perms, out):
    """Add to out[j], for j = 0..n, the rows of perms whose residual perm[j:] is disconnected.

    slots is the graph's (max degree, n + 1) neighbour table, padded with
    the sentinel id n, which also fills the last column. Run r owns the
    slice r*(n+1)..r*(n+1)+n of one flat union-find state, whose last id is
    the sentinel, never inserted. Nodes go in one column at a time from the
    last position, and each neighbour slot is one union pass over all runs.
    A run whose inserted nodes are down to one component reads the
    sentinel's slots for the rest of the column: no neighbour can join
    anything more. The state is O(rows * (n + 1)).
    """
    rows, n = perms.shape
    width = n + 1
    base = np.arange(rows) * width
    parent = np.arange(rows * width)
    size = np.ones(rows * width, np.intp)
    inserted = np.zeros(rows * width, bool)
    ncomp = np.zeros(rows, np.intp)
    columns = perms.T.copy()
    for t in range(n - 1, -1, -1):
        v = columns[t]
        x = base + v  # the root of each run's new node as its component grows
        inserted[x] = True
        ncomp += 1
        for slot in slots:
            u = slot[v] + base
            hit = np.flatnonzero(inserted[u])
            if not len(hit):
                continue
            y = _roots(parent, u[hit])
            xh = x[hit]
            join = np.flatnonzero(xh != y)
            hit = hit[join]
            x[hit] = _union(parent, size, xh[join], y[join])
            ncomp[hit] -= 1
            v[hit[ncomp[hit] == 1]] = n
        out[t] += rows - np.count_nonzero(ncomp == 1)
    out[n] += rows


def _sweep_way(kind: str, graph: Graph) -> str:
    """How runs of this kind are swept on this graph: "numpy-start", "block" or "plain".

    "numpy-start": each run starts from a numpy step and sweeps on in Python
    lists (see _link_threshold and _node_run). Link runs do from
    _LABEL_MIN_LINKS links up; node runs on graphs with at least
    _NODE_SHORTCUT_MIN_NODES nodes and a mean degree of at most
    _NODE_SHORTCUT_MAX_MEAN_DEGREE.
    "block": estimate runs are swept a block at a time in numpy (see
    _link_block_thresholds and _node_block_counts): link runs below
    _LABEL_MIN_LINKS links, and node runs on graphs below
    _NODE_SHORTCUT_MIN_NODES nodes with no degree above _BLOCK_MAX_DEGREE.
    "plain": each run sweeps in Python lists from its whole order. The
    removal profiles take this way for "block" too: one order fills no block.
    """
    n, l = graph.num_nodes, graph.num_links
    if kind == "link":
        return "numpy-start" if l >= _LABEL_MIN_LINKS else "block"
    if n >= _NODE_SHORTCUT_MIN_NODES:
        return "numpy-start" if 2 * l <= _NODE_SHORTCUT_MAX_MEAN_DEGREE * n else "plain"
    return "block" if max(map(len, graph.adjacency), default=0) <= _BLOCK_MAX_DEGREE else "plain"


def _check_order(order, size: int, what: str):
    """`order` as an int64 array, if it is a permutation of 0..size-1."""
    message = f"removal order must be a permutation of all {what} ids"
    try:
        order = np.fromiter(map(operator.index, order), np.int64)
        # size ids below size that count every id; bincount refuses a negative one
        if len(order) != size or order.max(initial=-1) >= size or not np.bincount(order, minlength=size).all():
            raise ValueError(message)
    except (TypeError, OverflowError, ValueError):  # not an integer, beyond int64, or negative
        raise ValueError(message) from None
    return order


def _counts(kind: str, graph: Graph, way: str, blocks):
    """Disconnection counts for j = 0..N (or L) over the orders in blocks, as an int array.

    blocks yields (runs, dim) arrays of removal orders, as _order_blocks
    does. `way` sweeps an array in lockstep on "block", and a row at a time
    otherwise, as a list on "plain" (see _sweep_way). A run adds 1 to out[j]
    for each disconnected j, a list if node runs add one at a time, or 1 to
    steps[j] where a stretch of them starts, spread by prefix sums: a link
    run's at its threshold + 1, a "numpy-start" node run's isolated suffix.
    """
    n = graph.num_nodes
    dim = n if kind == "node" else graph.num_links
    out = [0] * (dim + 1) if kind == "node" and way != "block" else np.zeros(dim + 1, np.intp)
    steps = np.zeros(dim + 2, np.intp)
    if kind == "node" and way == "block":
        slots = np.full((max(map(len, graph.adjacency), default=0), n + 1), n, np.intp)
        for v, neighbours in enumerate(graph.adjacency):
            slots[: len(neighbours), v] = neighbours
    for perms in blocks:
        if way == "block" and kind == "node":
            _node_block_counts(slots, perms, out)
        elif way == "block":
            steps += np.bincount(_link_block_thresholds(graph.link_ends, n, perms) + 1, minlength=dim + 2)
        elif kind == "link":
            for perm in perms if way == "numpy-start" else perms.tolist():
                steps[_link_threshold(graph.link_ends, n, perm, way == "numpy-start") + 1] += 1
        elif way == "plain":
            for perm in perms.tolist():
                _node_disconnection_into(graph.adjacency, n, perm, out)
        else:
            for perm in perms:
                _node_run(graph.adjacency, graph.link_ends, perm, out, steps)
    if kind == "node" and way != "numpy-start":
        return np.asarray(out)
    counts = np.add.accumulate(steps[: dim + 1])
    return counts if kind == "link" else counts + out


def _removal_profile(kind: str, graph: Graph, removal_order) -> list:
    """Disconnection flags for j = 0..N (or L) under one explicit removal order, a
    one-row block; one order is swept faster on its own, so "block" sweeps "plain"."""
    order = _check_order(removal_order, graph.num_nodes if kind == "node" else graph.num_links, kind)
    way = _sweep_way(kind, graph)
    return _counts(kind, graph, "plain" if way == "block" else way, [order[None]]).astype(bool).tolist()


def node_removal_profile(graph: Graph, removal_order) -> list:
    """Disconnection flags for j = 0..N under one explicit removal order."""
    return _removal_profile("node", graph, removal_order)


def link_removal_profile(graph: Graph, removal_order) -> list:
    """Disconnection flags for j = 0..L removed links, nodes always present."""
    return _removal_profile("link", graph, removal_order)


def _count_range(kind: str, graph: Graph, seed: int, start: int, stop: int) -> list:
    """Disconnection counts of runs start..stop-1, from the arguments alone, in
    slices of about _BLOCK_CELLS union-find cells on the "block" way, n + 1 a
    row, and of about _DRAW_BLOCK order elements on the others."""
    n = graph.num_nodes
    dim = n if kind == "node" else graph.num_links
    way = _sweep_way(kind, graph)
    rows = _BLOCK_CELLS // (n + 1) if way == "block" else _DRAW_BLOCK // (dim + 1)
    return _counts(kind, graph, way, _order_blocks(dim, seed, start, stop, max(1, rows))).tolist()


def _shares(runs: int, w: int, block: bool) -> list:
    """The (start, stop) run ranges of at most w workers: contiguous, of
    ceil(runs / w) runs each, rounded up to whole draw blocks if `block`,
    since a lockstep sweep cut short of a draw block loses most of its gain."""
    share = -(-runs // w)
    if block:
        share = -(-share // _DRAW_BLOCK) * _DRAW_BLOCK
    return [(at, min(at + share, runs)) for at in range(0, runs, share)]


def _send_counts(sender, kind: str, graph: Graph, seed: int, start: int, stop: int):
    """A forked worker's task: send the caller the counts of runs
    start..stop-1, or the exception that stopped them with its traceback
    as text, which does not pickle."""
    try:
        result = _count_range(kind, graph, seed, start, stop)
    except Exception as exc:
        result = (exc, traceback.format_exc())
    sender.send(result)


def _forked_counts(kind: str, graph: Graph, seed: int, shares, way: str) -> list:
    """The summed counts of the shares: the caller sweeps the first, one
    forked child each of the others; way is _sweep_way(kind, graph).

    A child inherits the graph and its caches and sends only its counts back
    through a one-way pipe. Every child is joined before this returns or
    raises; on an error the ones still running are stopped first.
    """
    # the caches the sweeps read, built once here for every child to inherit
    if kind == "node":
        graph.adjacency
    if kind == "link" or way == "numpy-start":
        graph.link_ends
    # a child flushes the std streams as it exits, so it must inherit no
    # buffered output, or that output is written twice. multiprocessing's
    # fork start flushes them too, but does not document it
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(AttributeError, ValueError):  # None or closed
            stream.flush()
    context = multiprocessing.get_context("fork")
    children, receivers = [], []
    try:
        for start, stop in shares[1:]:
            receiver, sender = context.Pipe(duplex=False)
            receivers.append(receiver)
            try:
                child = context.Process(target=_send_counts, args=(sender, kind, graph, seed, start, stop))
                child.start()
            finally:
                sender.close()  # the child's copy is the only one left: its exit ends the pipe
            children.append(child)
        counts = _count_range(kind, graph, seed, *shares[0])
        for child, receiver in zip(children, receivers):
            try:
                result = receiver.recv()
            except EOFError:
                child.join()
                raise ChildProcessError(
                    f"a Monte Carlo worker process exited with code {child.exitcode} before sending its counts"
                ) from None
            if isinstance(result, tuple):
                exc, trace = result
                raise exc from ChildProcessError(f"in a Monte Carlo worker process:\n{trace}")
            counts = list(map(operator.add, counts, result))
        return counts
    except BaseException:
        for child in children:
            child.terminate()
        raise
    finally:
        for child in children:
            child.join()
        for receiver in receivers:
            receiver.close()


def _estimate(graph: Graph, kind: str, runs: int, seed: int, workers) -> CutFractionEstimate:
    n, l = graph.num_nodes, graph.num_links
    dim = n if kind == "node" else l
    if dim < 1:
        raise ValueError(f"graph must have at least one {kind}")
    if runs < 1:
        raise ValueError("runs must be positive")
    w = resolve_workers(workers)
    if kind == "link" and not graph.is_connected():
        # no removal connects a disconnected graph: every threshold is -1
        counts = [runs] * (l + 1)
    else:
        way = _sweep_way(kind, graph)
        shares = _shares(runs, w, way == "block")
        if len(shares) == 1:
            counts = _count_range(kind, graph, seed, 0, runs)
        else:
            counts = _forked_counts(kind, graph, seed, shares, way)
    return CutFractionEstimate(kind, dim, tuple(counts), runs, seed)


def estimate_node_cut_fractions(
    graph: Graph, runs: int, seed: int, workers: int | None = None
) -> CutFractionEstimate:
    """Estimate the node cut fractions c_j over `runs` random removal orders."""
    return _estimate(graph, "node", runs, seed, workers)


def estimate_link_cut_fractions(
    graph: Graph, runs: int, seed: int, workers: int | None = None
) -> CutFractionEstimate:
    """Estimate the link cut fractions over `runs` random link removal orders."""
    return _estimate(graph, "link", runs, seed, workers)


# ---------------------------------------------------------------------------
# curves from estimated (or exact) fractions


def _estimate_fractions(est: CutFractionEstimate):
    """The complement fractions 1 - c_(n-j) of the estimate, j = 0..n.

    A curve is 1 - sum_j C(n,j) c_j p^(n-j) (1-p)^j, taken as the
    complement mixture sum_j C(n,j) (1-c_j) p^(n-j) (1-p)^j: summing
    nonnegative terms avoids the cancellation dirt that x^p would otherwise
    blow up near zero.
    """
    return 1.0 - np.array(est.counts[::-1], dtype=float) / est.runs


def _estimate_curve(est: CutFractionEstimate):
    """p -> the estimate's curve value at p, clamped to [0, 1]."""
    fractions = _estimate_fractions(est)
    return lambda p: _curve_values(fractions, (p,))[0]


def _reliability_curve(est: CutFractionEstimate, grid, kind: str) -> Curve:
    if est.kind != kind:
        raise ValueError(f"{kind}-kind estimate required")
    values = _curve_values(_estimate_fractions(est), grid)
    meta = {"method": "mc", "kind": kind, "runs": est.runs, "seed": est.seed}
    return Curve(tuple(grid), values, meta)


def node_reliability_curve(est: CutFractionEstimate, grid) -> Curve:
    """1 - sum_j C(N,j) c_j p^(N-j) (1-p)^j on the grid, clamped to [0, 1]."""
    return _reliability_curve(est, grid, "node")


def link_reliability_curve(est: CutFractionEstimate, grid) -> Curve:
    return _reliability_curve(est, grid, "link")


# ---------------------------------------------------------------------------
# Laplace concentration estimate


def _cut_fraction_vector(source):
    if isinstance(source, CutFractionEstimate):
        if source.kind != "node":
            raise ValueError("node-kind fractions required")
        return source.fractions, source.dimension
    if isinstance(source, ReliabilityCoefficients):
        if source.kind != "node":
            raise ValueError("node-kind coefficients required")
        return source.cut_fractions, source.num_nodes
    vec = tuple(float(x) for x in source)
    return vec, len(vec) - 1


def _interp(vec, x: float) -> float:
    if x <= 0:
        return vec[0]
    lo = int(x)
    if lo >= len(vec) - 1:
        return vec[-1]
    frac = x - lo
    return (1.0 - frac) * vec[lo] + frac * vec[lo + 1]


def laplace_estimate(source, p: float) -> float:
    """Concentration-point estimate of the node reliability at p (see laplace_curve)."""
    return laplace_curve(source, (p,)).values[0]


def laplace_curve(source, grid) -> Curve:
    """1 minus the cut fractions read at the concentration index N*(1-p), for
    each p of the grid; a non-integer index is linearly interpolated."""
    cvec, n = _cut_fraction_vector(source)
    values = []
    for p in grid:
        _check_probability(p)
        values.append(_clamp01(1.0 - _interp(cvec, n * (1.0 - p))))
    runs = source.runs if isinstance(source, CutFractionEstimate) else None
    seed = source.seed if isinstance(source, CutFractionEstimate) else None
    return Curve(
        tuple(grid),
        tuple(values),
        {"method": "laplace", "kind": "node", "runs": runs, "seed": seed},
    )
