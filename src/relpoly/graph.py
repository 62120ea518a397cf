"""Immutable simple undirected graphs, degree statistics, and random generators.

Node ids are always 0..N-1. All generators are pure functions of their
parameters and a 64-bit seed: the same call yields the same graph.
"""

from __future__ import annotations

import math
import random
import re
from array import array
from functools import partial
from operator import index

import numpy as np

from .errors import EdgeListFormatError

_MASK64 = (1 << 64) - 1


def _seeded_generator(seed: int) -> np.random.Generator:
    """numpy generator seeded by the low 64 bits of `seed`."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


def _check_links(num_nodes: int, heads, tails):
    """Raise the ValueError of the first link (heads[k], tails[k]) that is
    out of range(num_nodes) or a self-loop; return if there is none."""
    for u, v in zip(heads, tails):
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValueError(f"link ({u}, {v}) out of range for {num_nodes} nodes")
        if u == v:
            raise ValueError(f"self-loop at node {u} not allowed")


def _id_arrays(num_nodes: int, edges):
    """The ends of the (head, tail) pairs of `edges` as two int64 arrays.

    A link that is not a pair of integer ids is a ValueError, unless a link
    before it is already out of range or a self-loop: that link's error
    comes first, as each link is checked in input order.
    """
    heads, tails = [], []
    try:
        for head, tail in edges:
            # a non-integer id raises TypeError here
            heads.append(index(head))
            tails.append(index(tail))
    except (TypeError, ValueError) as err:
        _check_links(num_nodes, heads, tails)
        if isinstance(err, ValueError):  # a link that is not a pair
            raise
        raise ValueError(f"links must be pairs of integer node ids: {err}") from None
    try:
        return np.array(heads, dtype=np.int64), np.array(tails, dtype=np.int64)
    except OverflowError:
        _check_links(num_nodes, heads, tails)  # an id beyond int64 is out of range
        raise


def _checked(num_nodes: int, heads, tails):
    """The keys u*N+v of the links (heads[k], tails[k]), two int64 arrays, after
    the one range and self-loop test of links from outside this module."""
    if ((heads < 0) | (heads >= num_nodes) | (tails < 0) | (tails >= num_nodes) | (heads == tails)).any():
        _check_links(num_nodes, heads.tolist(), tails.tolist())
    return heads * num_nodes + tails


def _sorted_keys(num_nodes: int, keys):
    """The keys u*N+v in `keys`, a list of int64 arrays of keys of valid
    links in either orientation, and their reversals v*N+u: sorted, repeats
    kept. One numpy sort puts node u's neighbours in the keys [u*N, (u+1)*N)."""
    reversals = [k % num_nodes * num_nodes + k // num_nodes for k in keys]
    keys = np.concatenate([np.empty(0, dtype=np.int64), *keys, *reversals])
    keys.sort()  # np.unique hashes first: 4.4 s against 0.05 s for 5M keys (numpy 2.4)
    return keys


def _csr_of_keys(num_nodes: int, keys):
    """The CSR pair (bounds, nbrs) of the sorted keys u*N+v, repeats
    dropped: node u's sorted neighbours are nbrs[bounds[u]:bounds[u + 1]]."""
    fresh = np.ones(keys.size, dtype=bool)  # one byte a key, where np.diff takes 16
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    keys = keys[fresh]
    bounds = np.searchsorted(keys, np.arange(num_nodes + 1, dtype=np.int64) * num_nodes)
    keys %= num_nodes  # a copy made by the mask
    return bounds.astype(np.int64, copy=False), keys


def _label_components(n: int, heads, tails):
    """Component labels of nodes 0..n-1 under the links (heads[k], tails[k]).

    Each node's label is the smallest id in its component. labels[v] is a
    pointer: v is a root when labels[v] == v. Each round hooks the larger of
    each link's two labels to the smaller one (np.minimum.at), pointer-jumps
    twice, and then tests every link for equal labels at its ends (Shiloach
    & Vishkin, J. Algorithms 3(1), 1982). The labels are returned as soon as
    that link test passes.

    Why they are then the smallest ids: a hook or a jump only ever lowers
    labels[v] to a node of v's component, so labels[v] <= v. When every
    link agrees, each component, being connected by its links, has one
    label L on all its nodes. L lies in the component, so labels[L] = L,
    and the component's smallest id m has L = labels[m] <= m, so L = m. A
    node with no link keeps its own id. And the rounds end: after a failed
    link test the next round lowers some label, by hooking a link whose two
    labels are distinct roots or by jumping a label that points at a
    non-root.

    Between the two jumps and the link test, the round keeps jumping while
    a probe node's label is not a root: two scalar reads, where testing
    every label for a root is a pass over the array. The probe is the larger
    end of the last link not yet seen to agree, which before the first link
    test is the last link. It only steers how many jumps a round makes,
    never the labels returned.
    """
    labels = np.arange(n)
    if not len(heads):
        return labels
    # read backwards, so that argmax, which stops at its first hit, finds
    # the last link that fails the link test; with none, it gives link 0
    heads, tails = heads[::-1], tails[::-1]
    lh, lt, last = heads, tails, 0
    while True:
        np.minimum.at(labels, np.maximum(lh, lt), np.minimum(lh, lt))
        labels = labels[labels]
        labels = labels[labels]
        probe = max(heads[last], tails[last])
        while labels[pointer := labels[probe]] != pointer:
            labels = labels[labels]
        lh, lt = labels[heads], labels[tails]
        last = (lh != lt).argmax()
        if lh[last] == lt[last]:
            return labels


def _node_ints(num_nodes: int, ids):
    """The node ids of the int64 array `ids` as a list of plain ints that
    share one int object per node: tolist alone makes one per entry, 32
    bytes each, which the adjacency tuples would then keep."""
    nodes = list(range(num_nodes))
    return list(map(nodes.__getitem__, ids.tolist()))


class Graph:
    """Simple undirected graph: no self-loops, no parallel links, immutable.

    `Graph(N, edges)` takes (u, v) pairs of integer ids in range(N), in any
    order and orientation; duplicate and reversed links collapse to one. A
    non-integer id, an id out of range or a self-loop is a ValueError that
    names the first such link. Links are checked only where they enter: here,
    in `with_links` and in `load_edge_list`; generators build valid links.

    The links are stored once, as a read-only CSR pair of int64 arrays built
    by one numpy sort of all links: node u's sorted neighbours are
    nbrs[bounds[u]:bounds[u + 1]]. Degrees, connectivity, equality, pickling
    and the edge-list text are read off this pair. The other link views
    are derived from it:
    - `link_ends`, the (2, L) int64 array of the links (u, v) with u < v in
      sorted order, where link id i is column i, built on first use and kept;
    - `edges()`, the same links as a new list of (u, v) tuples on every call;
    - `adjacency`, one tuple of plain ints per node for the sweeps that
      index it in Python, built on first use and kept.
    """

    __slots__ = ("_n", "_bounds", "_nbrs", "_adj", "_ends", "_connected", "_degrees")

    def __init__(self, num_nodes: int, edges=()):
        if num_nodes < 0:
            raise ValueError("num_nodes must be nonnegative")
        n = index(num_nodes)
        self._set_csr(n, *_csr_of_keys(n, _sorted_keys(n, [_checked(n, *_id_arrays(n, edges))])))

    @classmethod
    def _of_keys(cls, num_nodes: int, keys) -> "Graph":
        """A graph linking `keys` as in _sorted_keys, unchecked."""
        return cls._of_csr(num_nodes, *_csr_of_keys(num_nodes, _sorted_keys(num_nodes, keys)))

    @classmethod
    def _of_csr(cls, num_nodes: int, bounds, nbrs) -> "Graph":
        """A graph with the given CSR pair of int64 arrays, unchecked."""
        graph = cls.__new__(cls)
        graph._set_csr(num_nodes, bounds, nbrs)
        return graph

    def __reduce__(self):
        # only the CSR pair is pickled; the caches are rebuilt on demand
        return Graph._of_csr, (self._n, self._bounds, self._nbrs)

    def _set_csr(self, num_nodes: int, bounds, nbrs):
        bounds.flags.writeable = False
        nbrs.flags.writeable = False
        self._n = num_nodes
        self._bounds = bounds
        self._nbrs = nbrs
        self._adj = None
        self._ends = None
        self._connected = None
        self._degrees = None

    def with_links(self, edges) -> "Graph":
        """A new graph: this one plus `edges`, checked as in `Graph(...)`.

        Links already present collapse as in the constructor. The keys
        u*N+v of the added links are sorted and merged with this graph's,
        which are sorted already: O(N + L) plus the sort of the added links.
        """
        n = self._n
        keys = np.concatenate((self._heads() * n + self._nbrs, _sorted_keys(n, [_checked(n, *_id_arrays(n, edges))])))
        keys.sort(kind="stable")  # two sorted runs: one merge
        return Graph._of_csr(n, *_csr_of_keys(n, keys))

    def _heads(self):
        """The node u of each entry nbrs[k], as an int64 array beside nbrs."""
        return np.repeat(np.arange(self._n, dtype=np.int64), np.diff(self._bounds))

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_links(self) -> int:
        return self._nbrs.size // 2

    @property
    def adjacency(self):
        """Per-node sorted tuples of neighbour ids, built on first use."""
        if self._adj is None:
            bounds, nbrs = self._bounds.tolist(), _node_ints(self._n, self._nbrs)
            self._adj = tuple(tuple(nbrs[a:b]) for a, b in zip(bounds, bounds[1:]))
        return self._adj

    def neighbors(self, v: int):
        """Sorted tuple of the neighbour ids of node v."""
        return tuple(self._nbrs[self._bounds[v] : self._bounds[v + 1]].tolist())

    def degree(self, v: int) -> int:
        return int(self._bounds[v + 1] - self._bounds[v])

    def degrees(self):
        return tuple(np.diff(self._bounds).tolist())

    @property
    def link_ends(self):
        """The links (u, v) with u < v, sorted, as a read-only (2, L) int64
        array built once per graph: link i is (link_ends[0, i], link_ends[1, i])."""
        if self._ends is None:
            heads = self._heads()
            keep = heads < self._nbrs
            self._ends = np.stack((heads[keep], self._nbrs[keep]))
            self._ends.flags.writeable = False
        return self._ends

    def edges(self):
        """Sorted list of (u, v) pairs with u < v, a new list on every call."""
        heads, tails = self.link_ends
        return list(zip(_node_ints(self._n, heads), _node_ints(self._n, tails)))

    def has_link(self, u: int, v: int) -> bool:
        return bool((self._nbrs[self._bounds[u] : self._bounds[u + 1]] == v).any())

    def is_connected(self) -> bool:
        """Whole-graph connectivity (cached). Empty graph counts as disconnected.

        One numpy labelling of the links' components (_label_components):
        connected iff every node has node 0's label.
        """
        if self._connected is None:
            self._connected = self._n > 0 and not _label_components(self._n, *self.link_ends).any()
        return self._connected

    def degree_distribution(self) -> "DegreeDistribution":
        """Empirical degree distribution (cached); raises on a graph with no nodes."""
        if self._degrees is None:
            self._degrees = degree_distribution(self)
        return self._degrees

    def __repr__(self):
        return f"Graph(N={self._n}, L={self.num_links})"

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self._n == other._n
            and np.array_equal(self._bounds, other._bounds)
            and np.array_equal(self._nbrs, other._nbrs)
        )

    def __hash__(self):
        return hash((self._n, self._nbrs.tobytes(), self._bounds.tobytes()))


class DegreeDistribution:
    """Empirical degree distribution Pr[D=j] = n_j / N of a graph."""

    __slots__ = ("_counts", "_n")

    def __init__(self, degree_counts: dict, num_nodes: int):
        if num_nodes < 1:
            raise ValueError("degree distribution needs at least one node")
        if sum(degree_counts.values()) != num_nodes:
            raise ValueError("degree counts must sum to the node count")
        self._counts = dict(sorted(degree_counts.items()))
        self._n = num_nodes

    @property
    def probabilities(self) -> dict:
        return {j: c / self._n for j, c in self._counts.items()}

    @property
    def degree_counts(self) -> dict:
        """Raw n_j counts behind the probabilities."""
        return dict(self._counts)

    @property
    def num_nodes(self) -> int:
        return self._n

    def pgf(self, z: float) -> float:
        """E[z^D] = sum_j Pr[D=j] z^j, with 0^0 = 1."""
        if not 0.0 <= z <= 1.0:
            raise ValueError(f"pgf argument must lie in [0, 1], got {z}")
        # sum n_j z^j first, divide once: keeps the value equal to
        # (1/N) sum_i z^(d_i) up to a single rounding step.
        return sum(c * z**j for j, c in self._counts.items()) / self._n


def degree_distribution(graph: Graph) -> DegreeDistribution:
    if graph.num_nodes == 0:
        raise ValueError("degree distribution of an empty graph is undefined")
    counts = np.bincount(np.diff(graph._bounds))
    degrees = np.flatnonzero(counts)
    return DegreeDistribution(dict(zip(degrees.tolist(), counts[degrees].tolist())), graph.num_nodes)


# ---------------------------------------------------------------------------
# edge-list text format


# the form save_edge_list writes: an optional "# nodes N" line, then "u v"
# lines of ASCII digits; at most 18 digits, so every id fits in int64.
# Possessive quantifiers (Python 3.11) never backtrack: no text the form
# rejects would match with fewer digits or lines.
_SAVED_FORM = re.compile(r"(?:# nodes ([0-9]{1,18}+)\n)?((?:[0-9]{1,18}+ [0-9]{1,18}+\n)*+)")
_NODES_LINE = re.compile(r"#\s*nodes\s+([0-9]+)")
# the most nodes an edge list may name: an empty graph of N nodes allocates
# about 16 bytes per node, so this bounds what a short file can allocate
MAX_EDGE_LIST_NODES = 10**7


def load_edge_list(text: str) -> Graph:
    """Parse "u v" lines into a Graph.

    Blank lines and lines starting with '#' are skipped, except a comment
    "# nodes N" before the first link: it sets the node count to N, and an
    id of N or more is then an error. Without it the node count is max id
    + 1, so unreferenced intermediate ids become degree-0 nodes. Duplicate
    links (including reversed duplicates) collapse to one in `Graph`.

    A node count above MAX_EDGE_LIST_NODES, named by "# nodes N" or implied
    by an id, is refused before any per-node allocation.

    Text in the form `save_edge_list` writes is read in one numpy scan and
    checked as `Graph(...)` checks links; any other text, and any error,
    goes through a per-line loop, which checks each link as it reads it and
    names the line of the first bad link in an EdgeListFormatError.
    """
    saved = _SAVED_FORM.fullmatch(text)
    if saved:
        # one C-level scan; the form has already checked every token
        ids = np.fromstring(saved[2], dtype=np.int64, sep=" ")
        n = int(saved[1]) if saved[1] else int(ids.max(initial=-1)) + 1
        # above the node limit, a self-loop or an id of N or more: the loop names the line
        if n <= MAX_EDGE_LIST_NODES:
            try:
                keys = [_checked(n, ids[0::2], ids[1::2])]
                del ids  # before the build's peak
                return Graph._of_keys(n, keys)
            except ValueError:
                pass
    ids = array("q")  # two int64 ids a link, each checked as its line is read
    num_nodes = None  # from a "# nodes N" line
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            header = _NODES_LINE.fullmatch(stripped)
            if header:
                if ids or num_nodes is not None:
                    raise EdgeListFormatError(f"line {lineno}: '# nodes' must come once, before the first link")
                num_nodes = int(header[1])
                if num_nodes >> 63:
                    raise EdgeListFormatError(f"line {lineno}: node count {num_nodes} does not fit in int64")
                if num_nodes > MAX_EDGE_LIST_NODES:
                    raise EdgeListFormatError(
                        f"line {lineno}: node count {num_nodes} is above the limit of {MAX_EDGE_LIST_NODES}"
                    )
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise EdgeListFormatError(f"line {lineno}: expected two tokens, got {len(parts)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListFormatError(f"line {lineno}: non-integer token in {stripped!r}") from None
        if u < 0 or v < 0:
            raise EdgeListFormatError(f"line {lineno}: negative node id")
        if max(u, v) >> 63:
            raise EdgeListFormatError(f"line {lineno}: node id {max(u, v)} does not fit in int64")
        if u == v:
            raise EdgeListFormatError(f"line {lineno}: self-loop {u} {v} not allowed")
        if num_nodes is not None and max(u, v) >= num_nodes:
            raise EdgeListFormatError(f"line {lineno}: node id {max(u, v)} out of range for {num_nodes} nodes")
        if max(u, v) >= MAX_EDGE_LIST_NODES:
            raise EdgeListFormatError(
                f"line {lineno}: node id {max(u, v)} needs more nodes than the limit of {MAX_EDGE_LIST_NODES}"
            )
        ids.extend((u, v))
    ids = np.frombuffer(ids, dtype=np.int64)
    n = int(ids.max(initial=-1)) + 1 if num_nodes is None else num_nodes
    return Graph._of_keys(n, [ids[0::2] * n + ids[1::2]])


def save_edge_list(graph: Graph) -> str:
    """Normalized form: sorted "u v" lines with u < v, one link per line.

    A first line "# nodes N" is written only when node N-1 has no link, so
    that `load_edge_list` gives back every node, trailing isolated ones too.
    """
    n = graph.num_nodes
    heads, tails = graph.link_ends
    blocks = [f"# nodes {n}\n"] if n and not graph.degree(n - 1) else []
    # one "u %d" line per link of node u, filled by one format per block of
    # whole nodes with about _PAIR_BLOCK links: no (u, v) tuple per link,
    # and no Python int for every link at once
    lines, start, stop = [], 0, 0
    for u, k in enumerate(np.bincount(heads, minlength=n).tolist()):
        lines.append(f"{u} %d\n" * k)
        stop += k
        if stop - start >= _PAIR_BLOCK or u == n - 1:
            form = "".join(lines)
            lines.clear()  # before the format, whose ints and text are the peak
            blocks.append(form % tuple(tails[start:stop].tolist()))
            start = stop
    return "".join(blocks)


# ---------------------------------------------------------------------------
# generators


# pairs per block of _row_blocks, whole rows each: bounds the per-pair
# arrays of generate_er and generate_rgg at a few MiB whatever N is; also
# about the links per block of whole nodes that save_edge_list formats
_PAIR_BLOCK = 1 << 18


def _row_blocks(starts, ends):
    """The pairs (i, j) with starts[i] <= j < ends[i], row after row, in blocks.

    Row i holds the ends[i] - starts[i] pairs (i, starts[i]), ...,
    (i, ends[i]-1), so starts[i] <= ends[i]. generate_er's row i starts at
    i + 1; generate_rgg passes two sets of rows, one run of candidates per
    point in its own band and one in the next, about 2(N + L) pairs in all
    near the connectivity radius. A block is a run of whole rows with at
    most _PAIR_BLOCK pairs, or a single row that alone holds more, with any
    empty rows before it. Yields (count, pairs) per block: its pair count
    and a function that maps flat offsets 0 <= t < count of the block to
    the arrays (i, j), or gives all `count` pairs in order when called with
    no offsets. O(rows) memory beside one block's arrays.
    """
    ends = np.asarray(ends, dtype=np.intp)
    cum = np.cumsum(ends - np.asarray(starts, dtype=np.intp))  # pairs in rows 0..i
    first, done = 0, 0
    while done < (cum[-1] if cum.size else 0):
        # whole rows up to _PAIR_BLOCK pairs, but at least one nonempty row
        last = max(np.searchsorted(cum, done + _PAIR_BLOCK, side="right"),
                   np.searchsorted(cum, done, side="right") + 1)
        block_cum = cum[first:last] - done
        # the pair at offset t of row i in the block has j = t + shift[i - first]
        shift = ends[first:last] - block_cum
        yield int(block_cum[-1]), partial(_block_pairs, first, block_cum, shift)
        first, done = last, done + int(block_cum[-1])


def _block_pairs(first, block_cum, shift, offsets=None):
    """(i, j) arrays of the given flat offsets of one _row_blocks block, or of all its pairs."""
    if offsets is None:
        rows = np.repeat(np.arange(block_cum.size), np.diff(block_cum, prepend=0))
        offsets = np.arange(block_cum[-1])
    else:
        rows = np.searchsorted(block_cum, offsets, side="right")
    j = shift[rows]
    j += offsets
    rows += first
    return rows, j


def generate_er(num_nodes: int, link_probability: float, seed: int) -> Graph:
    """Erdos-Renyi G(N, p_l): every pair linked independently.

    Pairs are examined in the fixed order (0,1), (0,2), ..., (N-2,N-1), one
    uniform draw per pair, so a seed pins the graph exactly. Cost: O(N^2)
    draws, taken in blocks of rows, and O(L) pair indices: only the kept
    draws are mapped back to pairs. Memory is O(block + L).
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be positive")
    if not 0.0 <= link_probability <= 1.0:
        raise ValueError("link probability must lie in [0, 1]")
    rng = _seeded_generator(seed)
    # one double per pair, block after block: the same stream as a single draw
    keys = []
    for count, pairs in _row_blocks(np.arange(1, num_nodes + 1), np.full(num_nodes, num_nodes)):
        i, j = pairs(np.flatnonzero(rng.random(count) < link_probability))
        keys.append(i * num_nodes + j)
    return Graph._of_keys(num_nodes, keys)


def generate_rgg(num_nodes: int, radius: float, seed: int) -> Graph:
    """Random geometric graph: N uniform points in the unit square, link iff
    their Euclidean distance is strictly below `radius`. No wraparound.

    The square is cut into horizontal bands at least `radius` high, at most
    N of them, and the points are sorted by band, then by x. Each point is
    tested against two runs of that order, found by binary search: the later
    points of its own band less than `radius` to its right, and the points
    of the next band less than `radius` from it in x. Cost: O(N log N) time
    plus the candidates, about 2(N + L) near the connectivity radius, in
    O(N + block + L) memory. A radius of 1 or more, or N = 1, makes one
    band: a single x-sorted strip.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be positive")
    if not radius >= 0:  # NaN too
        raise ValueError("radius must be nonnegative")
    rng = _seeded_generator(seed)
    pts = rng.random((num_nodes, 2))
    # A pair the test below accepts has fl(dx*dx) <= fl(dx*dx + dy*dy) <
    # fl(r*r), so fl(|x_t - x_s|) = |dx| < r, and likewise in y. Rounding is
    # monotone, so |x_t - x_s| < r and |y_t - y_s| < r exactly. Hence:
    # - fl(x_s - r) <= x_t <= fl(x_s + r): t's x rank lies in s's [lo, hi);
    # - band k holds the y with k*h <= y < (k+1)*h, h = c * 2^-52 >= r, and
    #   band = floor(y * 2^52) // c is exact, as y * 2^52 only scales y by a
    #   power of two; two y less than h apart are never two bands apart, so
    #   t lies in s's band or in an adjacent one.
    # c >= 2^52 / N keeps the bands at most N and the keys band*N + x rank
    # below N^2.
    c = max(math.ceil(math.ldexp(min(radius, 1.0), 52)), -(-(1 << 52) // num_nodes))
    by_x = np.argsort(pts[:, 0])
    x_sorted = pts[by_x, 0]
    lo = np.searchsorted(x_sorted, x_sorted - radius, side="left")
    hi = np.searchsorted(x_sorted, x_sorted + radius, side="right")
    keys = (pts[by_x, 1] * 2.0**52).astype(np.int64) // c * num_nodes
    keys += np.arange(num_nodes)
    keys.sort()  # by band, then by x
    ranks = keys % num_nodes
    base = keys - ranks  # band*N
    lo, hi, order = lo[ranks], hi[ranks], by_x[ranks]
    xs, ys = pts[order, 0], pts[order, 1]
    # the candidates of each point: the later points of its band up to x
    # rank hi, and the points of the next band with x rank in [lo, hi)
    runs = (
        (np.arange(1, num_nodes + 1), np.searchsorted(keys, base + hi)),
        (np.searchsorted(keys, base + num_nodes + lo), np.searchsorted(keys, base + num_nodes + hi)),
    )

    def linked(s, t):
        # xs[t] - xs[s] is the id-order difference or its exact negation,
        # and (-d)*(-d) == d*d: every pair gets the same sum as in id order
        dx = xs[t]
        dx -= xs[s]
        dx *= dx
        dy = ys[t]
        dy -= ys[s]
        dy *= dy
        dx += dy
        keep = dx < radius * radius
        return order[s[keep]] * num_nodes + order[t[keep]]

    return Graph._of_keys(num_nodes, [linked(*pairs()) for run in runs for _, pairs in _row_blocks(*run)])


def generate_ba(num_nodes: int, links_per_step: int, seed: int) -> Graph:
    """Preferential-attachment graph grown from a K_m clique.

    Each arriving node attaches `links_per_step` links to distinct existing
    nodes drawn proportionally to current degree (redrawing on collisions),
    so the final link count is C(m,2) + m(N-m). While all existing degrees
    are zero (the K_1 seed) targets are drawn uniformly.
    """
    m = links_per_step
    if m < 1:
        raise ValueError("links_per_step must be positive")
    if num_nodes <= m:
        raise ValueError("num_nodes must exceed links_per_step")
    rng = random.Random(seed & _MASK64)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    # one entry per unit of degree; empty for the K_1 seed
    stubs = [v for e in edges for v in e]
    for new in range(m, num_nodes):
        targets: set[int] = set()
        while len(targets) < m:
            if stubs:
                cand = stubs[rng.randrange(len(stubs))]
            else:
                cand = rng.randrange(new)
            targets.add(cand)
        for t in sorted(targets):
            edges.append((t, new))
            stubs.append(t)
            stubs.append(new)
    return Graph(num_nodes, edges)


def generate_lattice(dims) -> Graph:
    """Grid graph in 2 or 3 dimensions with nearest-neighbor links, no wrap."""
    dims = tuple(map(index, dims))
    if len(dims) not in (2, 3):
        raise ValueError("lattice takes 2 or 3 dimensions")
    if any(d < 1 for d in dims):
        raise ValueError("lattice dimensions must be positive")
    n = math.prod(dims)
    ids = np.arange(n, dtype=np.int64).reshape(dims)
    # each node u to its successor u + stride along each axis: key u*n + u + stride
    return Graph._of_keys(n, [ids.take(range(d - 1), axis=axis).ravel() * (n + 1) + math.prod(dims[axis + 1:])
                              for axis, d in enumerate(dims)])


# ---------------------------------------------------------------------------
# small named families (used by closed forms and tests)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    n = index(n)
    # the keys i*n + j of the pairs i < j: the entries above the diagonal of an n-by-n array
    return Graph._of_keys(n, [np.flatnonzero(~np.tri(n, dtype=bool))])


def complete_pendant_graph(n: int) -> Graph:
    """K_{n-1} plus one pendant node attached to clique node 0."""
    if n < 3:
        raise ValueError("complete-plus-pendant needs n >= 3")
    n = index(n)
    upper = ~np.tri(n, dtype=bool)  # the pairs i < j, as in complete_graph
    upper[1:, -1] = False  # node n-1 keeps only its link to node 0
    return Graph._of_keys(n, [np.flatnonzero(upper)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Center node 0 with n-1 leaves."""
    if n < 3:
        raise ValueError("star needs n >= 3")
    return Graph(n, [(0, i) for i in range(1, n)])


def star_pendant_graph(n: int) -> Graph:
    """Star on n-1 nodes plus a pendant attached to leaf 1 (not the center)."""
    if n < 3:
        raise ValueError("star-plus-pendant needs n >= 3")
    edges = [(0, i) for i in range(1, n - 1)]
    edges.append((1, n - 1))
    return Graph(n, edges)


# name -> (builder, smallest n the family's closed forms accept, link count
# of the graph on n nodes, read before it is built); the path builder takes
# any n >= 1, but the path closed forms reject n < 3
FAMILIES = {
    "complete": (complete_graph, 1, lambda n: max(n, 0) * (n - 1) // 2),
    "complete-pendant": (complete_pendant_graph, 3, lambda n: max(n - 1, 0) * (n - 2) // 2 + 1),
    "cycle": (cycle_graph, 3, lambda n: n),
    "path": (path_graph, 3, lambda n: n - 1),
    "star": (star_graph, 3, lambda n: n - 1),
    "star-pendant": (star_pendant_graph, 3, lambda n: n - 1),
}
