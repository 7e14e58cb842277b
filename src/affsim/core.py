"""Additive-interference model core.

Holds the bipartite layer topology, the interference weights (a receiver
kernel's rows, shared by the links into a receiver, or one row per link,
read per link through ``AffectanceMatrix.weights``), the batched success rule
and the scalar success/selection predicates, instance characterization
(derived scheduling constants) and the unit-weight radio-network encoding.

All indices in the public API are 1-based; internal numpy storage is 0-based.
"""
from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

# Stored weights are multiples of 1 / GRID (see AffectanceMatrix).
GRID = 2.0 ** 32

# Most 8-byte cells that building an instance's weights may hold at once
# (2 GiB at the limit), checked before anything is allocated: a dense file
# holds its (L, n) array once, a kernel file or a radio-network encoding its
# (n, n) kernel once (``from_kernel`` holds the array it is given), and an
# office scenario two kernels' worth. RN 3000/32 as a dense (L, n) array
# takes about 1.5 * 10**8 cells.
MAX_WEIGHT_CELLS = 2 ** 28

# Most cells of a schedule mask, randomized or parsed from text: a byte a
# cell (256 MiB at the limit), and one randomized phase's draws 8 bytes a
# cell of that phase. Office n = 10**4 needs about 5 * 10**7 cells.
MAX_RANDOMIZED_CELLS = 2 ** 28

# Tightening margin applied when the interference-to-degree ratio constant is
# derived from the instance instead of supplied (the scheduling formulas need
# it strictly above 1).
EPS_C = 1e-6


class InstanceError(ValueError):
    """Malformed topology, matrix, or operation input."""


class UnknownLinkError(InstanceError):
    """A link was referenced that is not part of the topology."""


class ConstraintError(InstanceError):
    """A supplied constant is violated by the instance."""

    def __init__(self, message, receiver=None):
        super().__init__(message)
        self.receiver = receiver


def _table(rows, width, what):
    """``rows`` as an (E, width) float array, not copied if it is one
    already; lists or tuples of ``width`` numbers convert in one flat pass.
    Ragged rows, rows of another length, non-numeric values (strings and
    booleans included) and ints past the float range are an InstanceError."""
    message = f"{what} must be a list of rows of {width} numbers"
    if not isinstance(rows, np.ndarray):
        # One pass over the values in C collects their distinct types.
        try:
            types = set(map(type, itertools.chain.from_iterable(rows)))
        except TypeError:
            raise InstanceError(message) from None
        if any(not issubclass(t, numbers.Real) or issubclass(t, bool) for t in types):
            raise InstanceError(message)
    flat = (isinstance(rows, (list, tuple)) and set(map(type, rows)) <= {list, tuple}
            and set(map(len, rows)) <= {width})
    try:
        table = (np.fromiter(itertools.chain.from_iterable(rows), float, len(rows) * width)
                 .reshape(-1, width) if flat else np.asarray(rows, dtype=float))
    except (TypeError, ValueError, OverflowError):
        raise InstanceError(message) from None
    if table.shape == (0,):
        table = table.reshape(0, width)
    if table.ndim != 2 or table.shape[1] != width:
        raise InstanceError(message)
    return table


def _integral(table, what):
    """A float table of indices, once every value is integral (a NaN is
    not: an InstanceError)."""
    bad = _first((table != np.floor(table)).any(axis=1))
    if bad is not None:
        raise InstanceError(f"non-integral index in {what} {table[bad].tolist()}")
    return table


# Integers of more digits than this are shortened in messages.
_MESSAGE_DIGITS = 20


def _value_text(value):
    """``value`` for a message: an integer in decimal, shortened past
    ``_MESSAGE_DIGITS`` digits to its first and last digits and its
    digit count, anything else as its ``repr``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        return repr(value)
    text = str(value)
    digits = len(text.lstrip("-"))
    if digits <= _MESSAGE_DIGITS:
        return text
    return f"{text[:len(text) - digits + 6]}...{text[-4:]} ({digits} digits)"


def _integer(value, what, low=None, high=None):
    """The one integer rule: ``operator.index(value)``, once ``value`` is an
    integer (a bool is not one) of at least ``low`` and, if ``high`` is
    given, at most ``high``; anything else is an InstanceError whose
    message names ``what`` and shows ``value`` as ``_value_text`` does."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise InstanceError(f"{what} must be an integer, got {_value_text(value)}")
    if high is not None and not low <= number <= high:
        raise InstanceError(f"{what} must be an integer in {low}..{high}, got {_value_text(value)}")
    if low is not None and number < low:
        raise InstanceError(f"{what} must be >= {low}, got {_value_text(value)}")
    return number


def _json_integer(value, what, low=None):
    """``_integer`` of a parsed JSON number, an integral float such as 6.0
    counting as its int."""
    return _integer(int(value) if isinstance(value, float) and value.is_integer() else value,
                    what, low)


def _first(mask):
    """Index of the first True of a 1-d bool mask, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _entry_text(row):
    u, v, w, value = row.tolist()
    return f"a({u:.15g},({v:.15g},{w:.15g}))={value}"


def _kernel_text(row):
    u, w, value = row.tolist()
    return f"kernel entry ({u:.15g}, {w:.15g}, {value})"


def _check_cells(shape, arrays):
    """InstanceError if ``arrays`` arrays of ``shape``, held at once, exceed
    ``MAX_WEIGHT_CELLS`` cells."""
    cells = arrays * math.prod(shape)
    if cells > MAX_WEIGHT_CELLS:
        shape = ", ".join(map(_value_text, shape))
        raise InstanceError(f"weights of shape ({shape}) hold {_value_text(cells)} cells at "
                            f"once, over the limit of {MAX_WEIGHT_CELLS}")


def _fill(shape, cells, table, text):
    """Zero array of ``shape`` holding the last column of each ``table`` row
    at its flat index in ``cells``; a repeated cell is an InstanceError that
    ``text`` formats."""
    order = np.argsort(cells, kind="stable")
    bad = _first(cells[order[1:]] == cells[order[:-1]])
    if bad is not None:
        raise InstanceError(f"duplicate entry {text(table[order[bad + 1]])}")
    out = np.zeros(shape)
    out.reshape(-1)[cells] = table[:, -1]
    return out


def _outside_unit(array):
    """Index of the first value of ``array`` outside [0, 1], or None."""
    # NaN fails both comparisons.
    if array.min() >= 0.0 and array.max() <= 1.0:
        return None
    return tuple(np.argwhere(~((array >= 0.0) & (array <= 1.0)))[0].tolist())


def _kernel_scatter(n, entries):
    """(n, n) kernel from [u, w, value] entries, with ``G[w - 1, u - 1]`` the
    value (absent pairs are 0): indices must be integral, u and w in 1..n,
    and no (u, w) may repeat."""
    _check_cells((n, n), 1)
    table = _table(entries, 3, "kernel entries")
    # Clipped to 0..n + 1, out-of-range indices stay out of range and cast safely.
    u, w = np.clip(_integral(table[:, :2], "kernel entry"), 0, n + 1).astype(int).T
    bad = _first((u < 1) | (u > n) | (w < 1) | (w > n))
    if bad is not None:
        raise InstanceError(f"index out of range in {_kernel_text(table[bad])}")
    return _fill((n, n), (w - 1) * n + u - 1, table, _kernel_text)


class LayerTopology:
    """Bipartite transmitter/receiver layer with equal index spaces 1..n.

    Built from an integer ``n`` in 1..``MAX_WEIGHT_CELLS`` (``_integer``)
    and 1-based (v, w) pairs in any order (a sequence or an (L, 2)
    array of integral values); an InstanceError names the first link, in
    input order and as given, out of 1..n or listed twice, else the first
    receiver with no link. Link i is the i-th in sorted (v, w) order.
    Read-only int arrays hold the layout: ``owner`` and ``receiver``
    (0-based, per link), ``degree`` (|F_w| at w - 1) and the rows of each
    receiver, which ``link_rows(w)`` gives. ``links`` and ``f(w)`` derive
    1-based pairs and sets from them.
    """

    def __init__(self, n, links=()):
        # Weights take n cells or more per link and a topology has n links
        # or more, so no larger n fits MAX_WEIGHT_CELLS; the bound also keeps
        # the link keys below in int64.
        self.n = n = _integer(n, "n", 1, MAX_WEIGHT_CELLS)
        links = np.asarray(links).reshape(-1, 2)
        bad = _first(((links < 1) | (links > n)).any(axis=1))
        # Only a repeat before the first out-of-range link counts. Keys
        # v * (n + 2) + w ascend with (v, w), distinct for indices in 0..n + 1.
        valid = links[:bad].astype(np.int64)
        keys = valid @ [n + 2, 1]
        order = np.argsort(keys, kind="stable")
        repeats = order[1:][np.diff(keys[order]) == 0]
        if repeats.size:
            raise InstanceError(f"duplicate link {tuple(valid[repeats.min()].tolist())}")
        if bad is not None:
            v, w = links[bad].tolist()
            raise InstanceError(f"link ({v:.15g}, {w:.15g}) out of range for n={n}")
        # L links cover at most L receivers, so the first uncovered one, if
        # any, is at most L + 1: finding it takes no array of length n.
        m = min(n, len(valid) + 1)
        covered = np.zeros(m + 1, dtype=bool)
        covered[valid[valid[:, 1] <= m, 1]] = True
        bad = _first(~covered[1:])
        if bad is not None:
            raise InstanceError(f"receiver {bad + 1} has no incoming link")
        # A sentinel above every key lets each search result index _keys.
        self._keys = np.append(keys[order], np.iinfo(np.int64).max)
        self.owner, self.receiver = valid[order].T - 1
        self.degree = np.bincount(self.receiver, minlength=n)
        self._by_receiver = np.argsort(self.receiver, kind="stable")
        self._start = np.concatenate([[0], np.cumsum(self.degree)])
        for array in (self._keys, self.owner, self.receiver, self.degree, self._by_receiver):
            array.flags.writeable = False

    @classmethod
    def from_rows(cls, n, rows):
        """Topology from parsed JSON: ``n`` an integral JSON number, ``rows`` a
        list of [v, w] pairs of integral numbers."""
        return cls(_json_integer(n, "n"), _integral(_table(rows, 2, "links"), "link"))

    def __eq__(self, other):
        if not isinstance(other, LayerTopology):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._keys, other._keys)

    @property
    def links(self):
        """The 1-based (v, w) pairs in sorted order."""
        return tuple(zip((self.owner + 1).tolist(), (self.receiver + 1).tolist()))

    def link_rows(self, w):
        """Rows of the links into receiver ``w``, ascending."""
        return self._by_receiver[self._start[w - 1] : self._start[w]]

    def f(self, w):
        """Transmitters with a link to receiver ``w``."""
        if w not in self.receivers:
            raise InstanceError(f"unknown receiver {w}")
        return frozenset((self.owner[self.link_rows(w)] + 1).tolist())

    def _find(self, v, w):
        """Row of each link (v, w), for 1-based ints or int arrays ``v`` and
        ``w`` in 0..n + 1, and whether (v, w) is a link (if not, the row is
        arbitrary)."""
        query = v * (self.n + 2) + w
        rows = self._keys.searchsorted(query)
        return rows, self._keys[rows] == query

    @property
    def receivers(self):
        return range(1, self.n + 1)


class AffectanceMatrix:
    """Interference weights a(u, (v, w)) in [0, 1], bound to one topology.

    One layout for every instance: read-only weight rows of n floats, an
    (R, n) array, the row that each link of ``topo`` (in sorted order)
    reads, and each link's own weight, its owner's entry of that row;
    a(u, (v, w)) for u != v is entry u - 1 of the link's row. A weight that
    depends on u and w only, as in the office and radio-network generators,
    is an (n, n) receiver kernel G with a(u, (v, w)) = ``G[w - 1, u - 1]``:
    ``from_kernel`` holds G itself (8 * n * n bytes), the links into w share
    row w - 1, and the (L, n) array is never built.
    Any other instance has one row per link (8 * L * n bytes) and own
    weights 0. Only ``kernel`` tells the two apart. ``weights(rows)`` is
    the one per-link read: the scalar predicates, ``entries`` and the
    greedy take their rows from it, and it builds just the rows asked for.

    The weights are checked once: every value lies in [0, 1] (NaN does
    not), and each link owner's own column of a per-link array is 0
    (self-interference a(v, (v, w)) = 0, so a lone transmitter always
    succeeds). Once checked, each weight is rounded to the nearest multiple
    of 2**-32. A sum of up to 2**21 such weights is exact in float64, so a
    link's total, and the test total < 1, come out the same in every
    summation order (``np.dot``, BLAS products, partial sums, a receiver's
    total less one link's own weight), ties included; an (n, n) kernel keeps
    n far below 2**21.

    ``from_dense`` and ``from_kernel`` own the array they are given: they
    check it, round it in place and make their view of it read-only,
    copying it only if it is not a writeable float array. ``kernel``
    recovers G from any matrix whose weights factor, of either layout. The
    constructor takes (u, v, w, value) entries (1-based, absent pairs are 0)
    and scatters them into a zero array first: indices must be integral, u
    in 1..n, (v, w) a link of the topology, and no (u, v, w) may repeat.
    Immutable after construction.
    """

    def __init__(self, topo, entries=()):
        self.topo = topo
        self._hold_links(self._scatter(entries))

    def _hold(self, rows, row):
        """Hold the checked (R, n) weight rows ``rows`` themselves, rounded in
        place to multiples of 1 / GRID and made read-only; link i reads
        ``rows[row[i]]``."""
        rows *= GRID
        np.rint(rows, out=rows)
        rows /= GRID
        rows.flags.writeable = False
        self._rows = rows
        self._row = row
        self._own = rows[row, self.topo.owner]
        self._own.flags.writeable = False

    @classmethod
    def from_dense(cls, topo, dense):
        """Matrix over an (L, n) float array, row i the weights on link i,
        checked and rounded to the weight grid in place: the matrix owns the
        array, which is copied only if it is not a writeable float array."""
        A = cls.__new__(cls)
        A.topo = topo
        A._hold_links(np.require(dense, dtype=float, requirements="W").view())
        return A

    @classmethod
    def from_kernel(cls, topo, G):
        """Matrix with a(u, (v, w)) = ``G[w - 1, u - 1]`` for every link (v, w)
        and u != v, kept as the kernel, owned as ``from_dense`` owns its
        array. G must be (n, n) with every value in [0, 1], including the
        cells (u, w) where u is w's only transmitter, which no link reads."""
        G = np.require(G, dtype=float, requirements="W").view()
        shape = (topo.n, topo.n)
        if G.shape != shape:
            raise InstanceError(f"kernel of shape {G.shape}, expected {shape}")
        bad = _outside_unit(G)
        if bad is not None:
            w0, u0 = bad
            raise InstanceError(f"kernel a({u0 + 1},(*,{w0 + 1}))={G[bad]} outside [0,1]")
        A = cls.__new__(cls)
        A.topo = topo
        # Rounding commutes with the gather into per-link rows.
        A._hold(G, topo.receiver)
        return A

    def kernel(self):
        """The (n, n) kernel that ``from_kernel`` expands to exactly this
        matrix, or None if the weights do not factor so. The cells (u, w)
        where u is w's only transmitter, which no link reads, are 0."""
        topo = self.topo
        if self._row is topo.receiver:
            G = self._rows.copy()
            single = topo.degree[topo.receiver] == 1
            G[topo.receiver[single], topo.owner[single]] = 0.0
            return G
        # Row w - 1 is the column-wise maximum of the rows of the links into w.
        G = np.maximum.reduceat(self._rows[topo._by_receiver], topo._start[:-1], axis=0)
        return G if np.array_equal(self.from_kernel(topo, G).weights(), self._rows) else None

    def _scatter(self, entries):
        n = self.topo.n
        _check_cells((len(self.topo.owner), n), 1)
        table = _table(entries, 4, "affectance entries")
        # Clipped to 0..n + 1, out-of-range indices stay out of range and cast safely.
        u, v, w = np.clip(_integral(table[:, :3], "affectance entry"), 0, n + 1).astype(int).T
        bad = _first((u < 1) | (u > n))
        if bad is not None:
            raise InstanceError(f"transmitter out of range in {_entry_text(table[bad])}")
        rows, found = self.topo._find(v, w)
        bad = _first(~found)
        if bad is not None:
            raise UnknownLinkError(f"unknown link in {_entry_text(table[bad])}")
        return _fill((len(self.topo.owner), n), rows * n + u - 1, table, _entry_text)

    def _hold_links(self, dense):
        """Hold the (L, n) array itself as one row per link, once it passes
        the checks."""
        shape = (len(self.topo.owner), self.topo.n)
        if dense.shape != shape:
            raise InstanceError(f"affectance array of shape {dense.shape}, expected {shape}")
        bad = _outside_unit(dense)
        if bad is not None:
            row, u0 = bad
            v, w = self.topo.links[row]
            raise InstanceError(
                f"affectance a({u0 + 1},({v},{w}))={dense[row, u0]} outside [0,1]"
            )
        own = dense[np.arange(shape[0]), self.topo.owner]
        bad = _first(own != 0.0)
        if bad is not None:
            v, w = self.topo.links[bad]
            raise InstanceError(
                f"self-affectance a({v},({v},{w})) must be 0, got {own[bad]}"
            )
        self._hold(dense, np.arange(shape[0]))

    @property
    def n(self):
        return self.topo.n

    def weights(self, rows=slice(None)):
        """Read-only (len(rows), n) array of the weights on the links
        ``rows`` (all by default): ``[i, u - 1]`` is a(u, link rows[i]),
        gathered from the links' rows on each call, owners' columns zeroed."""
        weights = self._rows[self._row[rows]]
        weights[np.arange(len(weights)), self.topo.owner[rows]] = 0.0
        weights.flags.writeable = False
        return weights

    def _row_totals(self, transmit, rows=slice(None)):
        """Each link's row total under ``transmit``, its own weight included,
        for the links ``rows``. If they read at most half of the held rows,
        one product with a gathered copy of just those rows, where a link
        reads column ``rank``, its row's place among the rows read; else one
        product with every row, uncopied, since the copy then costs more
        than the rows it skips. Grid totals are exact, so both agree. The
        totals are gathered with ``np.take``, so they are C-ordered."""
        row = self._row[rows]
        read = np.zeros(len(self._rows), dtype=bool)
        read[row] = True
        if 2 * np.count_nonzero(read) > len(read):
            return np.take(transmit @ self._rows.T, row, axis=-1)
        rank = np.cumsum(read) - 1
        return np.take(transmit @ self._rows[read].T, rank[row], axis=-1)

    def entries(self):
        """Nonzero entries as (u, v, w, value), sorted."""
        weights = self.weights()
        rows, cols = np.nonzero(weights)
        u, v, w = cols + 1, self.topo.owner[rows] + 1, self.topo.receiver[rows] + 1
        order = np.lexsort((w, v, u))
        return list(zip(
            u[order].tolist(),
            v[order].tolist(),
            w[order].tolist(),
            weights[rows[order], cols[order]].tolist(),
        ))


def _indicator(n, transmitters):
    """Float (n,) 0/1 vector of a set of 1-based transmitters; one that is
    not an integer (``_integer``) or is outside 1..n is an InstanceError."""
    x = np.zeros(n)
    for v in transmitters:
        if not 1 <= _integer(v, "transmitter") <= n:
            raise InstanceError(f"transmitter {v} out of range")
        x[v - 1] = 1.0
    return x


def _succeeds(A, x, row):
    """The scalar success rule on link ``row`` under the 0/1 vector ``x``:
    one ``np.dot`` of the link's weights, independent of ``link_success``."""
    return bool(x[A.topo.owner[row]]) and float(np.dot(A.weights([row])[0], x)) < 1.0


def _selects(A, x, w):
    return any(_succeeds(A, x, row) for row in A.topo.link_rows(w))


def link_success(A, transmit, rows=slice(None)):
    """The success rule, batched: link i succeeds iff its owner transmits and
    its summed affectance (row total less own weight) stays below 1.
    ``transmit`` is a bool (n,) or (slots, n) mask, ``rows`` the links to
    judge (all by default); returns a bool (L,) or (slots, L) mask, equal
    to those columns of the all-links mask. The product multiplies only
    the weight rows that ``rows`` read, unless they read over half of them
    (``_row_totals``). Testing the row total (own weight in) against 1 +
    own weight is exact on the weight grid, so it agrees with
    ``verify_selective``, ties included. The mask is C-ordered: the owners'
    columns are gathered with ``np.take`` and the test is and-ed in place."""
    success = np.take(transmit, A.topo.owner[rows], axis=-1)
    success &= A._row_totals(transmit, rows) < 1.0 + A._own[rows]
    return success


def is_selected(A, transmitters, w):
    """True iff some link into ``w`` succeeds when ``transmitters``, integers in 1..n, fire."""
    if w not in A.topo.receivers:
        raise InstanceError(f"unknown receiver {w}")
    return _selects(A, _indicator(A.n, transmitters), w)


def _check_schedule(A, sched):
    """InstanceError unless ``sched`` is a schedule for ``A``: a 2-d bool
    array of width n, whose row j - 1 marks the transmitters of slot j."""
    if not (isinstance(sched, np.ndarray) and sched.dtype == bool and sched.ndim == 2
            and sched.shape[1] == A.n):
        raise InstanceError(f"a schedule for n={A.n} must be a (slots, {A.n}) bool array")


@dataclass(frozen=True)
class SelectivityReport:
    covered: frozenset
    uncovered: frozenset
    first_slot: dict

    @property
    def selective(self):
        return not self.uncovered


def verify_selective(A, sched):
    """Check which receivers some slot of the schedule, a (slots, n) bool
    mask, selects, through the scalar success rule.

    ``first_slot`` maps each covered receiver to the 1-based index of the
    earliest selecting slot.
    """
    _check_schedule(A, sched)
    first = {}
    for j, row in enumerate(sched, start=1):
        x = row.astype(float)
        for w in A.topo.receivers:
            if w not in first and _selects(A, x, w):
                first[w] = j
    covered = frozenset(first)
    uncovered = frozenset(A.topo.receivers) - covered
    return SelectivityReport(covered, uncovered, first)


def max_avg_affectance_w(A, w):
    """Worst per-receiver average interference over transmitter subsets.

    The maximum of the subset averages is attained at a single link, so this
    reduces to the largest per-link total, read from w's rows only; the tests
    check it against the exponential subset definition. An unknown receiver
    is an InstanceError.
    """
    if w not in A.topo.receivers:
        raise InstanceError(f"unknown receiver {w}")
    return float(A.weights(A.topo.link_rows(w)).sum(axis=1).max())


@dataclass(frozen=True)
class Characterization:
    """Scheduling constants derived from one instance."""

    abar_w: tuple
    abar: float
    c: float
    b: float
    d: float
    m: int
    phases: int

    @property
    def slot_bound(self):
        return self.phases * self.m


def failure_constant(b):
    """Single failure constant valid for every receiver bucket: the larger of
    the two per-branch bounds."""
    return max(1.0 / (2.0 * b), 0.5 + (1.0 - 1.0 / (2.0 * b)) * math.exp(-(b - 1.0) / b))


def phase_bucket(abar_w, b):
    """The phase whose transmission probability b**-r fits the interference
    level ``abar_w``: 0 up to 1/2, then half-open geometric intervals
    (b**(r-1)/2, b**r/2], so r >= 1 is the smallest r with
    abar_w <= b**r / 2 in floats: ceil(log_b(2 * abar_w)), moved by the step
    that rounding in the logarithm can cost."""
    if abar_w <= 0.5:
        return 0
    r = max(1, math.ceil(math.log(2.0 * abar_w) / math.log(b)))
    while r > 1 and abar_w <= b ** (r - 1) / 2.0:
        r -= 1
    while abar_w > b ** r / 2.0:
        r += 1
    return r


def phase_count(abar, b):
    """Phases of the ladder p = b**-r, r = 0, 1, ..., up to the bucket of
    the largest interference level ``abar``."""
    return phase_bucket(abar, b) + 1


def characterize(A, c=None):
    """Compute per-receiver and global interference averages and the derived
    protocol constants.

    If ``c`` is omitted, the smallest admissible value is derived from the
    instance and tightened by ``EPS_C`` (the formulas need c > 1 strictly);
    a given ``c`` that is not a finite number above 1, or so large that d
    rounds to 1 (some c above about 2.6e7, every c above about 6.7e7),
    raises ConstraintError.
    """
    degree = A.topo.degree
    # max_avg_affectance_w of every receiver: each link's row total, all on, less own weight.
    abar_w = np.zeros(A.n)
    np.maximum.at(abar_w, A.topo.receiver, A._row_totals(np.ones(A.n, dtype=bool)) - A._own)
    abar = float(abar_w.max())
    if c is None:
        c = max(1.0 + EPS_C, float((abar_w / degree).max()) + EPS_C)
    else:
        if not 1.0 < c < math.inf:
            raise ConstraintError(f"c must be a finite number above 1, got {c}")
        bad = _first(abar_w > c * degree)
        if bad is not None:
            raise ConstraintError(
                f"c={c} violated at receiver {bad + 1}: "
                f"{float(abar_w[bad])} > {c * int(degree[bad])}",
                receiver=bad + 1,
            )
    b = 1.0 + 1.0 / (2.0 * c)
    d = failure_constant(b)
    if not d < 1.0:
        raise ConstraintError(f"c={c} is too large: the failure constant d rounds to 1")
    # Multiplicity floored at 1 so degenerate n=1 instances still get a slot.
    m = max(1, math.ceil(2.0 * math.log(max(A.n, 1)) / math.log(1.0 / d)))
    return Characterization(tuple(abar_w.tolist()), abar, c, b, d, m, phase_count(abar, b))


def encode_radio_network(topo):
    """Unit-weight matrix under which a receiver is selected iff exactly one
    of its neighbors transmits (classic no-collision semantics): every
    neighbor u of w weighs 1 on each link (v, w) with u != v."""
    _check_cells((topo.n, topo.n), 1)
    adjacency = np.zeros((topo.n, topo.n))
    adjacency[topo.receiver, topo.owner] = 1.0
    return AffectanceMatrix.from_kernel(topo, adjacency)


def schedule_to_text(sched):
    """A (slots, n) bool mask as text: a sizes header, then one slot per
    line, its 1-based transmitters ascending."""
    lines = [f"slots={len(sched)} n={sched.shape[1]}"] + [""] * len(sched)
    # Only the slots with a transmitter are written: a greedy mask can hold
    # long runs of silent ones.
    for j in np.flatnonzero(sched.any(axis=1)).tolist():
        lines[j + 1] = " ".join(map(str, (np.flatnonzero(sched[j]) + 1).tolist()))
    return "\n".join(lines) + "\n"


def schedule_from_text(text):
    """The read-only (slots, n) bool mask that ``schedule_to_text`` wrote.
    Malformed text, a slot member that is not an integer in 1..n, and a mask
    of more than ``MAX_RANDOMIZED_CELLS`` cells are an InstanceError, the
    last raised before anything is allocated."""
    lines = text.splitlines()
    if not lines:
        raise InstanceError("empty schedule text")
    try:
        fields = dict(part.split("=") for part in lines[0].split())
        s, n = int(fields["slots"]), int(fields["n"])
        if s < 0 or n < 1:
            raise ValueError
    except (ValueError, KeyError):
        raise InstanceError(f"bad schedule header: {lines[0]!r}") from None
    if s * n > MAX_RANDOMIZED_CELLS:
        raise InstanceError(f"schedule of {s} slots for n={n} holds {s * n} cells, "
                            f"over the limit of {MAX_RANDOMIZED_CELLS}")
    body = lines[1:]
    if len(body) != s:
        raise InstanceError(f"expected {s} slot lines, got {len(body)}")
    sched = np.zeros((s, n), dtype=bool)
    for j, line in enumerate(body):
        for token in line.split():
            # Not all digits, or more digits than n: out of range.
            v = int(token) if token.isdecimal() and len(token) <= len(str(n)) else 0
            if not 1 <= v <= n:
                raise InstanceError(f"slot {j + 1} member {token!r} is not in 1..{n}")
            sched[j, v - 1] = True
    sched.flags.writeable = False
    return sched
