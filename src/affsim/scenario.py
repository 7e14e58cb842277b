"""Instance generators and the instance file format.

The office layer models a row of identical offices whose metal-framed walls
block connectivity: full transmitter-to-receiver links inside each office,
none across. Interference crosses walls attenuated by an effective-distance
penalty per intervening office.
"""
from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .core import (MAX_WEIGHT_CELLS, AffectanceMatrix, InstanceError, LayerTopology,
                   encode_radio_network)
from .core import _check_cells, _integer, _json_integer, _kernel_scatter, _table, _value_text

# Entries below this are truncated to 0; distant offices then cost no storage
# and perturb no success outcome by more than n * 1e-6.
SPARSITY_FLOOR = 1e-6

# Receiver rows per band of ``_office_kernel``: each of a band's few
# temporaries holds 256 * n cells, a small part of the (n, n) kernel.
_BAND = 256

# Kernels' worth of cells that ``generate_office_layer`` checks against
# ``core.MAX_WEIGHT_CELLS``: the least integer above its traced peak.
_OFFICE_KERNELS = 2


@dataclass(frozen=True)
class OfficeGridSpec:
    """Replicated-office layer parameters, in grid cells."""

    offices: int
    nodes_per_office: int = 3
    reach: float = 5.0
    wall_penalty: float = 10.0
    alpha: float = 2.0
    office_width: float = 5.0

    def __post_init__(self):
        # Each count must be an integral number of at least 1 (stored as an
        # int), each length and exponent a finite float or an int that
        # converts to one (stored as a float, so that products overflow to
        # inf, not raise).
        for name in ("offices", "nodes_per_office"):
            object.__setattr__(self, name, _json_integer(getattr(self, name), name, 1))
        for name in ("reach", "wall_penalty", "alpha", "office_width"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max):
                raise InstanceError(f"{name} must be finite, got {_value_text(value)}")
            object.__setattr__(self, name, float(value))
        if self.reach < 1 or self.wall_penalty < 0:
            raise InstanceError("reach must be >= 1 and wall_penalty >= 0")
        if self.alpha <= 0 or self.office_width <= 0:
            raise InstanceError("alpha and office_width must be positive")
        # The last node's position, as ``_office_kernel`` computes it, is the
        # largest. Counts past the float range are left to the cell check.
        k, width = self.nodes_per_office, self.office_width
        try:
            last = (self.offices - 1) * width + (k - 1 + 0.5) * width / k
        except OverflowError:
            return
        if last == math.inf:
            raise InstanceError(f"node {_value_text(self.n)} lies past the float range "
                                f"at office_width {_value_text(width)}")

    @property
    def n(self):
        return self.offices * self.nodes_per_office


def office_affectance(spec, distance, walls):
    """Clamped inverse-power attenuation of effective distance d_eff, the
    grid distance plus a per-wall penalty: 1 within reach, else
    (reach / d_eff)**alpha, with tiny values truncated to 0."""
    d_eff = distance + spec.wall_penalty * walls
    if d_eff <= spec.reach:
        return 1.0
    value = (spec.reach / d_eff) ** spec.alpha
    return value if value >= SPARSITY_FLOOR else 0.0


def _office_kernel(spec):
    """(n, n) weight of transmitter u on any link into receiver w, at
    [w - 1, u - 1]: one ``office_affectance`` call per distinct effective
    distance, gathered back to every (u, w).

    Built in bands of ``_BAND`` receiver rows, in two passes over the upper
    triangle: the first writes each band's effective distances from its
    first row's column on into the kernel and merges their distinct values,
    the second replaces them by their weights and copies the band into its
    mirror cells below the diagonal. |x_u - x_w| and |o_u - o_w| are exact
    in either order, so G[w, u] equals G[u, w] bit for bit. numpy's float64
    arithmetic rounds as Python's does, so every node position equals the
    scalar one and every cell equals ``office_affectance`` of its own
    (distance, walls) pair. Each d_eff is >= 1 or inf, never NaN, and such
    floats sort as their bit patterns do, so the lookup searches int64 keys,
    which is faster than searching floats."""
    n, k, width = spec.n, spec.nodes_per_office, spec.office_width
    office = np.arange(n) // k
    # Transmitter and receiver rows share x coordinates one grid row apart.
    xs = office * width + (np.arange(n) % k + 0.5) * width / k
    G = np.empty((n, n))
    starts = range(0, n, _BAND)
    distinct = []
    for start in starts:
        rows, cols = slice(start, start + _BAND), slice(start, None)
        d_eff = G[rows, cols]
        np.subtract(xs[None, cols], xs[rows, None], out=d_eff)
        np.abs(d_eff, out=d_eff)
        d_eff += 1.0
        # A product past the float range is inf, as Python's is, silently.
        with np.errstate(over="ignore"):
            d_eff += spec.wall_penalty * np.abs(office[None, cols] - office[rows, None])
        distinct.append(np.unique(d_eff))
    distinct = np.unique(np.concatenate(distinct))
    values = np.array([office_affectance(spec, d, 0) for d in distinct.tolist()])
    keys = distinct.view(np.int64)
    for start in starts:
        stop = start + _BAND
        band = G[start:stop, start:]
        np.take(values, np.searchsorted(keys, band.view(np.int64)), out=band)
        G[stop:, start:stop] = G[start:stop, stop:].T
    return G


def generate_office_layer(spec):
    """Office topology plus its interference matrix.

    Links are full bipartite within each office only. Interference of
    transmitter u on a link into receiver w uses the horizontal distance
    between u and w (plus one grid row) and one wall per office of
    separation; a transmitter never interferes with its own links.

    The weight depends on (u, w) only, through the effective distance, and
    an office row has few distinct ones (1829 at n = 600), so
    ``office_affectance`` runs once per distinct value into an (n, n)
    kernel, built in bands of receivers over its upper triangle and
    mirrored, which ``AffectanceMatrix.from_kernel`` holds: 8 * n * n bytes,
    where the dense (L, n) array, L = nodes_per_office * n, would take
    nodes_per_office times more. The values are bit-identical to one scalar
    call per entry; the power stays in Python because numpy's differs from
    it in the last bit on some entries. Most of the kernel's time goes to
    looking each upper cell's key up, then to the distance pass and to
    sorting each band's distances; the scalar calls and the mirror copy
    take a few percent each. Generation's traced peak is 1.20-1.42 times
    n * n 8-byte cells (n = 3000 and 1500: the kernel plus one band's
    temporaries, the topology and lazily imported modules), so
    ``_OFFICE_KERNELS`` * n * n cells over ``core.MAX_WEIGHT_CELLS`` is an
    InstanceError, raised before anything is allocated.
    """
    n, k = spec.n, spec.nodes_per_office
    _check_cells((n, n), _OFFICE_KERNELS)
    # Each transmitter v links to the k receivers of its office, in sorted
    # (v, w) order.
    owner = np.repeat(np.arange(n), k)
    receiver = owner // k * k + np.tile(np.arange(k), n)
    topo = LayerTopology(n, np.column_stack((owner, receiver)) + 1)
    return AffectanceMatrix.from_kernel(topo, _office_kernel(spec))


def sinr_defaults(spec):
    """Baseline parameters for office scenarios: dilution covers the offices
    within interference range of one office, density the local contention."""
    span = (2.0 * spec.reach + spec.wall_penalty) / spec.office_width
    if span == math.inf:
        raise InstanceError("sinr dilution (2 * reach + wall_penalty) / office_width overflows")
    return {"density": spec.nodes_per_office, "dilution": max(1, math.ceil(span))}


def generate_rn_instance(n, max_degree, seed):
    """Random bipartite layer with unit-weight no-collision semantics: each
    of n receivers (n in 1..MAX_WEIGHT_CELLS) draws a uniform neighborhood
    size in 1..max_degree (in 1..n), both integers by ``core._integer``."""
    n = _integer(n, "n", 1, MAX_WEIGHT_CELLS)
    max_degree = _integer(max_degree, "max_degree", 1, n)
    rng = np.random.default_rng(seed)
    links = []
    for w in range(1, n + 1):
        degree = int(rng.integers(1, max_degree + 1))
        neighbors = rng.choice(n, size=degree, replace=False)
        links.extend((int(v) + 1, w) for v in neighbors)
    topo = LayerTopology(n, tuple(links))
    return encode_radio_network(topo)


def generate_random_instance(n, seed, link_prob=0.5, entry_prob=0.5):
    """Dense-ish random instance for tests: n nodes (an integer in
    1..MAX_WEIGHT_CELLS by ``core._integer``), random neighborhoods (never
    empty) and uniform [0,1) weights on a random subset of (u, link) pairs."""
    n = _integer(n, "n", 1, MAX_WEIGHT_CELLS)
    rng = np.random.default_rng(seed)
    links = []
    for w in range(1, n + 1):
        neighbors = [v for v in range(1, n + 1) if rng.random() < link_prob]
        if not neighbors:
            neighbors = [int(rng.integers(1, n + 1))]
        links.extend((v, w) for v in neighbors)
    topo = LayerTopology(n, tuple(links))
    entries = []
    for v, w in topo.links:
        for u in range(1, n + 1):
            if u != v and rng.random() < entry_prob:
                entries.append((u, v, w, float(rng.random())))
    return AffectanceMatrix(topo, entries)


def _write_list(fh, items):
    """Write already encoded items as ``json.dump(indent=1)`` lays out a
    list one level below the top."""
    sep = "[\n"
    for item in items:
        fh.write(sep + item)
        sep = ",\n"
    fh.write("[]" if sep == "[\n" else "\n ]")


def save_instance(A, path):
    """Write an instance file: a JSON object with ``n``, the sorted
    ``links`` as [v, w] and the weights. If they depend on (u, w) only
    (``A.kernel()`` exists), the weights are the nonzero ``kernel`` entries
    as [u, w, value] sorted by (u, w); otherwise the nonzero ``affectance``
    entries as sorted [u, v, w, value].

    The bytes are those of ``json.dump(payload, fh, indent=1)`` plus a
    newline, floats included (both use ``float.__repr__``); a string
    formatter writes them, since json's indenting encoder is pure Python.
    """
    G = A.kernel()
    with open(path, "w") as fh:
        fh.write(f'{{\n "n": {A.n},\n "links": ')
        _write_list(fh, (f"  [\n   {v},\n   {w}\n  ]" for v, w in A.topo.links))
        if G is None:
            fh.write(',\n "affectance": ')
            _write_list(fh, (
                f"  [\n   {u},\n   {v},\n   {w},\n   {value!r}\n  ]"
                for u, v, w, value in A.entries()
            ))
        else:
            # Nonzero cells of G.T come in (u, w) order.
            u0, w0 = np.nonzero(G.T)
            fh.write(',\n "kernel": ')
            _write_list(fh, (
                f"  [\n   {u},\n   {w},\n   {value!r}\n  ]"
                for u, w, value in zip((u0 + 1).tolist(), (w0 + 1).tolist(), G[w0, u0].tolist())
            ))
        fh.write("\n}\n")


def _load_json_object(path):
    """Top-level JSON object of a UTF-8 file; bytes that are not UTF-8,
    malformed JSON, nesting past Python's recursion limit or any other
    top-level value is an InstanceError."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"{path}: malformed JSON at line {exc.lineno}") from exc
        except UnicodeDecodeError as exc:
            raise InstanceError(f"{path}: not UTF-8 text") from exc
        except RecursionError:
            raise InstanceError(f"{path}: JSON nested too deeply") from None
    if not isinstance(payload, dict):
        raise InstanceError(f"{path}: top level must be a JSON object")
    return payload


def load_instance(path):
    """Load and check an instance file, its weights given either as
    ``affectance`` or as ``kernel`` entries; omitted entries are zeros.
    Every malformed file is an InstanceError naming the path (rules in the
    README's "Instance files" section)."""
    payload = _load_json_object(path)
    for key in ("n", "links"):
        if key not in payload:
            raise InstanceError(f"{path}: missing field {key!r}")
    if ("affectance" in payload) == ("kernel" in payload):
        raise InstanceError(f"{path}: needs exactly one of the fields 'affectance' and 'kernel'")
    # Each parsed list is freed once its array exists, before the weights'.
    try:
        topo = LayerTopology.from_rows(payload.pop("n"), payload.pop("links"))
        if "kernel" in payload:
            return AffectanceMatrix.from_kernel(topo, _kernel_scatter(topo.n, payload.pop("kernel")))
        return AffectanceMatrix(topo, _table(payload.pop("affectance"), 4, "affectance entries"))
    except InstanceError as exc:
        raise InstanceError(f"{path}: {exc}") from exc


def load_scenario(path):
    """Scenario spec file; ``offices`` may be a nonempty list, yielding one
    spec per value (a size sweep). Each value must be an integral JSON number >= 1."""
    payload = _load_json_object(path)
    offices = payload.pop("offices", None)
    if offices is None or offices == []:
        raise InstanceError(f"{path}: scenario needs an 'offices' field with at least one value")
    values = offices if isinstance(offices, list) else [offices]
    try:
        return [OfficeGridSpec(offices=v, **payload) for v in values]
    except TypeError as exc:
        raise InstanceError(f"{path}: bad scenario field ({exc})") from exc
    except InstanceError as exc:
        raise InstanceError(f"{path}: {exc}") from exc
