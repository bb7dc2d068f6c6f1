"""Network construction: plus-pentomino pixel tiling and the three-layer graph.

Each unit cell covers five pixels (center plus the four cardinal neighbors).
Cell centers sit on the lattice {(x, y) : (2x + y) % 5 == offset}, which tiles
the plane without overlap; only cells fully inside the field are kept.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .core import (
    AXES,
    ConfigError,
    DIRECTION_ORDER,
    Direction,
    MAX_SAMPLES,
    Synapse,
    TIME_QUANTUM,
)

# The pixels of a cell in input id order, each at its offset from the center:
# the center, then one step each way in DIRECTION_ORDER. A position in the
# cell is a Direction, or None for the center.
CELL_PIXELS: dict[Direction | None, tuple[int, int]] = {None: (0, 0), **{d: d.step for d in DIRECTION_ORDER}}


class Layer(Enum):
    INPUT = "input"
    HIDDEN = "hidden"
    OUTPUT = "output"


class HiddenKind(Enum):
    CENTER_RELAY = "center_relay"
    EXC_RELAY = "exc_relay"
    INH_RELAY = "inh_relay"


# Per-cell hidden slots in id order: the center relay, then an excitatory and
# an inhibitory relay per direction.
HIDDEN_SLOTS: tuple[tuple[HiddenKind, Direction | None], ...] = (
    (HiddenKind.CENTER_RELAY, None),
) + tuple(
    (kind, d)
    for d in DIRECTION_ORDER
    for kind in (HiddenKind.EXC_RELAY, HiddenKind.INH_RELAY)
)

HIDDEN_PER_CELL = len(HIDDEN_SLOTS)  # 9
INPUTS_PER_CELL = len(CELL_PIXELS)  # 5


def _hidden_slot(kind: HiddenKind, direction: Direction | None) -> int:
    return HIDDEN_SLOTS.index((kind, direction))


# Hidden slot and inhibitory flag of each source feeding an output
# direction. An output fires on two excitatory spikes arriving close
# together: the relay of the opposite edge pixel followed by the center
# relay. Its own edge relay vetoes it.
OUTPUT_SOURCES: dict[Direction, tuple[tuple[int, bool], ...]] = {
    d: (
        (_hidden_slot(HiddenKind.EXC_RELAY, d.opposite), False),
        (_hidden_slot(HiddenKind.CENTER_RELAY, None), False),
        (_hidden_slot(HiddenKind.INH_RELAY, d), True),
    )
    for d in DIRECTION_ORDER
}


@dataclass(frozen=True)
class CellLayout:
    """Placement of unit cells on the field, centers sorted by (y, x)."""

    field_width: int
    field_height: int
    offset: int
    centers: tuple[tuple[int, int], ...]

    @property
    def n_cells(self) -> int:
        return len(self.centers)


def tessellate(field_width: int, field_height: int) -> CellLayout:
    """Place the maximal set of non-overlapping plus cells on the field.

    All five lattice offsets are tried; the smallest offset with the highest
    fully-in-field cell count wins. Fields too small for any cell yield an
    empty layout.
    """
    if field_width < 1 or field_height < 1:
        raise ConfigError("field dimensions must be positive")
    if not field_width * field_height <= MAX_SAMPLES:
        raise ConfigError(
            f"the field has {field_width * field_height:.3g} pixels, over the limit of "
            f"{MAX_SAMPLES:.0e}: lower field_width or field_height"
        )
    # candidate centers with all four neighbours in the field, in (y, x) order
    ys, xs = np.meshgrid(
        np.arange(1, field_height - 1), np.arange(1, field_width - 1), indexing="ij"
    )
    residue = (2 * xs + ys) % 5
    # argmax takes the first, so the smallest, of equally large offsets
    offset = int(np.argmax(np.bincount(residue.ravel(), minlength=5)))
    chosen = residue == offset
    centers = tuple(zip(xs[chosen].tolist(), ys[chosen].tolist()))
    return CellLayout(field_width, field_height, offset, centers)


@dataclass(frozen=True)
class NetworkParams:
    """Construction-time constants, each checked once, on construction;
    potentials are dimensionless."""

    hidden_v_th: float = 0.5
    tau_center_s: float = 2e-3
    tau_directional_s: float = 20e-3
    output_v_th: float = 1.5
    w_input_hidden: float = 1.0
    w_hidden_output: float = 1.0
    # Inhibitory relays hit outputs slightly harder than excitatory ones do;
    # an exact 1:1 cancellation leaves anti-preferred sequences right at
    # threshold, where they fire on rounding luck.
    w_hidden_output_inh: float = 1.1
    w_lateral: float = 1.0
    input_tau_s: float = 20e-3
    t_ref_s: float = 2e-4
    d_out_s: float = 1e-4
    v_reset: float = 0.0
    # Scales the lower clamp `v_floor` below each threshold, deep enough that
    # inhibition saturates instead of accumulating without bound.
    v_floor_factor: float = 2.0

    def __post_init__(self) -> None:
        for tau in (self.input_tau_s, self.tau_center_s, self.tau_directional_s):
            if not (tau > 0.0 and math.isfinite(tau)):
                raise ConfigError("tau_m must be positive and finite")
        # The engine counts time in 1 ns ticks, so a refractory period must
        # last at least one tick.
        if not (TIME_QUANTUM <= self.t_ref_s < math.inf):
            raise ConfigError("t_ref must be finite and at least 1e-9 s")
        if not (0.0 <= self.d_out_s < math.inf):
            raise ConfigError("d_out must be finite and >= 0")
        for v_th in (self.hidden_v_th, self.output_v_th):
            if not (v_th > self.v_reset >= self.v_floor(v_th)):
                raise ConfigError("require v_th > v_reset >= v_floor")
        for w in (self.w_input_hidden, self.w_hidden_output, self.w_hidden_output_inh, self.w_lateral):
            if not (w >= 0.0 and math.isfinite(w)):
                raise ConfigError("synapse weight must be finite and >= 0")

    def v_floor(self, v_th: float) -> float:
        """The lower clamp on the potential of a neuron with threshold v_th."""
        return -self.v_floor_factor * v_th


@dataclass(frozen=True, eq=False)
class NetworkGraph:
    """Complete feed-forward graph plus lateral inhibition between outputs.

    The synapses are one CSR graph: neuron i's out-edges go to
    post[indptr[i]:indptr[i + 1]] with weights signed_w[...] (negative for
    inhibitory edges, -0.0 for an inhibitory edge of weight 0), in
    construction order within each row; edge_index[k] is CSR edge k's
    position in construction order, which is the order `synapses` and the
    JSON export list them in. tau_m, v_th and v_floor hold each neuron's own
    constants by id; the rest of the LIF constants are shared and come from
    `params`. `synapses` is a read-only view derived from these arrays on
    first access.
    """

    layout: CellLayout
    output_taus_s: tuple[float, ...]
    params: NetworkParams
    indptr: np.ndarray = field(repr=False)
    post: np.ndarray = field(repr=False)
    signed_w: np.ndarray = field(repr=False)
    edge_index: np.ndarray = field(repr=False)
    tau_m: np.ndarray = field(repr=False)
    v_th: np.ndarray = field(repr=False)
    v_floor: np.ndarray = field(repr=False)
    # (x, y) pixel of each input neuron, by id
    input_pixels: np.ndarray = field(repr=False)
    output_ids: dict[Direction, tuple[int, ...]] = field(repr=False)

    @property
    def n_inputs(self) -> int:
        return INPUTS_PER_CELL * self.layout.n_cells

    @property
    def n_hidden(self) -> int:
        return HIDDEN_PER_CELL * self.layout.n_cells

    @property
    def n_per_dir(self) -> int:
        return len(self.output_taus_s)

    @property
    def n_outputs(self) -> int:
        return 4 * self.n_per_dir

    @property
    def n_neurons(self) -> int:
        return len(self.tau_m)

    def layer_ids(self) -> dict[Layer, range]:
        """The contiguous id range of each layer."""
        hidden_base = self.n_inputs
        output_base = hidden_base + self.n_hidden
        return {
            Layer.INPUT: range(0, hidden_base),
            Layer.HIDDEN: range(hidden_base, output_base),
            Layer.OUTPUT: range(output_base, self.n_neurons),
        }

    @cached_property
    def synapses(self) -> tuple[Synapse, ...]:
        pre = np.empty_like(self.post)
        post = np.empty_like(self.post)
        w = np.empty_like(self.signed_w)
        pre[self.edge_index] = np.repeat(np.arange(self.n_neurons), np.diff(self.indptr))
        post[self.edge_index] = self.post
        w[self.edge_index] = self.signed_w
        signs = ["inh" if neg else "exc" for neg in np.signbit(w).tolist()]
        return tuple(map(Synapse, pre.tolist(), post.tolist(), np.abs(w).tolist(), signs))

    def counts(self) -> dict[str, int]:
        # CSR rows are by pre id, so the edges of rows below the outputs
        # are the feed-forward ones and the rest are lateral.
        feed_forward = int(self.indptr[self.n_inputs + self.n_hidden])
        return {
            "cells": self.layout.n_cells,
            "input_neurons": self.n_inputs,
            "hidden_neurons": self.n_hidden,
            "output_neurons": self.n_outputs,
            "feed_forward_synapses": feed_forward,
            "lateral_synapses": len(self.post) - feed_forward,
            "total_synapses": len(self.post),
        }

    def to_json_dict(self) -> dict:
        """The network as JSON data. The neuron entries are built in id
        order: each input's pixel and role, each relay's kind and direction
        from HIDDEN_SLOTS, and each output's direction and rank. The synapse
        entries are the `synapses` records' own attribute dicts, not copies."""
        roles = ["center" if p is None else p.value for p in CELL_PIXELS]
        neurons: list[dict] = []
        for nid, pixel in enumerate(self.input_pixels.tolist()):
            cell, r = divmod(nid, INPUTS_PER_CELL)
            neurons.append({"layer": Layer.INPUT.value, "cell": cell, "pixel": pixel, "role": roles[r]})
        for cell in range(self.layout.n_cells):
            for kind, d in HIDDEN_SLOTS:
                entry = {"layer": Layer.HIDDEN.value, "cell": cell, "kind": kind.value}
                if d is not None:
                    entry["direction"] = d.value
                neurons.append(entry)
        for d, ids in self.output_ids.items():
            neurons += [
                {"layer": Layer.OUTPUT.value, "cell": None, "direction": d.value, "rank": rank}
                for rank in range(len(ids))
            ]
        tau_m, v_th = self.tau_m.tolist(), self.v_th.tolist()
        for nid, entry in enumerate(neurons):
            entry.update(id=nid, tau_m_s=tau_m[nid], v_th=v_th[nid])
        return {
            "schema_version": 1,
            "field": {
                "width": self.layout.field_width,
                "height": self.layout.field_height,
            },
            "lattice_offset": self.layout.offset,
            "cell_centers": [list(c) for c in self.layout.centers],
            "counts": self.counts(),
            "neurons": neurons,
            "synapses": [vars(s) for s in self.synapses],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


# Input neuron (index within the cell) feeding each hidden slot: every relay
# listens to the one pixel at its own slot's position.
_SLOT_SOURCE = np.array([list(CELL_PIXELS).index(d) for _, d in HIDDEN_SLOTS])
# OUTPUT_SOURCES as two arrays: rows by direction, columns by source.
_OUTPUT_SLOT = np.array([[s for s, _ in OUTPUT_SOURCES[d]] for d in DIRECTION_ORDER])
_OUTPUT_INH = np.array([[inh for _, inh in OUTPUT_SOURCES[d]] for d in DIRECTION_ORDER])
_PIXEL_OFFSET = np.array(list(CELL_PIXELS.values()))


def assemble_network(
    layout: CellLayout,
    output_taus_s: tuple[float, ...] = (0.5,),
    params: NetworkParams | None = None,
    lateral_inhibition: bool = True,
) -> NetworkGraph:
    """Wire the input, hidden and output layers over the given cell layout.

    Each output direction gets one rank per entry of `output_taus_s`.
    Neuron ids are stable: inputs cell by cell in CELL_PIXELS order, then
    hidden cell by cell in slot order, then outputs grouped by direction and
    rank.
    Edges are made in construction order: input to hidden relay cell by cell
    in slot order, then hidden to output cell by cell, by direction, source
    and rank, then the lateral pairs.
    """
    params = params or NetworkParams()
    n_per_dir = len(output_taus_s)
    if n_per_dir < 1:
        raise ConfigError("output_taus_s needs at least one output rank")
    for tau in output_taus_s:
        if not (tau > 0.0 and math.isfinite(tau)):
            raise ConfigError("output time constants must be positive")

    n_cells = layout.n_cells
    centers = np.array(layout.centers, dtype=np.int64).reshape(n_cells, 2)
    inside = (centers >= 1) & (centers <= [layout.field_width - 2, layout.field_height - 2])
    if not inside.all():
        cx, cy = centers[~inside.all(axis=1)][0].tolist()
        raise ConfigError(f"cell center ({cx}, {cy}) needs all four neighbors in-field")

    hidden_taus = [
        params.tau_center_s if kind is HiddenKind.CENTER_RELAY else params.tau_directional_s
        for kind, _ in HIDDEN_SLOTS
    ]
    tau_m = np.concatenate(
        [
            np.full(INPUTS_PER_CELL * n_cells, params.input_tau_s, dtype=np.float64),
            np.tile(np.asarray(hidden_taus, dtype=np.float64), n_cells),
            np.tile(np.asarray(output_taus_s, dtype=np.float64), 4),
        ]
    )
    hidden_base = INPUTS_PER_CELL * n_cells
    output_base = hidden_base + HIDDEN_PER_CELL * n_cells
    v_th = np.full(len(tau_m), params.hidden_v_th, dtype=np.float64)
    v_th[output_base:] = params.output_v_th
    # Python scalars: a huge factor gives -inf here, where numpy would warn.
    v_floor = np.full(len(tau_m), params.v_floor(params.hidden_v_th))
    v_floor[output_base:] = params.v_floor(params.output_v_th)

    out_grid = output_base + np.arange(4 * n_per_dir).reshape(4, n_per_dir)
    output_ids = {d: tuple(out_grid[i].tolist()) for i, d in enumerate(DIRECTION_ORDER)}

    cell = np.arange(n_cells)[:, None]
    relay = hidden_base + HIDDEN_PER_CELL * cell  # first hidden id of each cell
    # input -> hidden: (cell, slot)
    pre_ih = INPUTS_PER_CELL * cell + _SLOT_SOURCE
    post_ih = relay + np.arange(HIDDEN_PER_CELL)
    # hidden -> output: (cell, direction, source, rank)
    shape = (n_cells, 4, 3, n_per_dir)
    pre_ho = np.broadcast_to(relay[:, :, None, None] + _OUTPUT_SLOT[None, :, :, None], shape)
    post_ho = np.broadcast_to(out_grid[None, :, None, :], shape)
    w_src = np.where(_OUTPUT_INH, -params.w_hidden_output_inh, params.w_hidden_output)
    w_ho = np.broadcast_to(w_src[None, :, :, None], shape)
    # lateral: opposite channels of equal rank veto each other
    lateral = []
    if lateral_inhibition:
        for a, b in AXES:
            for ia, ib in zip(output_ids[a], output_ids[b]):
                lateral += [(ia, ib), (ib, ia)]
    lat = np.array(lateral, dtype=np.int64).reshape(-1, 2)

    pre = np.concatenate([pre_ih.ravel(), pre_ho.ravel(), lat[:, 0]])
    post = np.concatenate([post_ih.ravel(), post_ho.ravel(), lat[:, 1]])
    signed_w = np.concatenate(
        [
            np.full(pre_ih.size, params.w_input_hidden, dtype=np.float64),
            w_ho.ravel(),
            np.full(len(lat), -params.w_lateral, dtype=np.float64),
        ]
    )
    # A stable sort keeps each row in construction order, which fixes the
    # order the engine sums same-instant deliveries in.
    edge_index = np.argsort(pre, kind="stable")
    indptr = np.zeros(len(tau_m) + 1, dtype=np.int64)
    np.cumsum(np.bincount(pre, minlength=len(tau_m)), out=indptr[1:])

    return NetworkGraph(
        layout=layout,
        output_taus_s=tuple(float(t) for t in output_taus_s),
        params=params,
        indptr=indptr,
        post=post[edge_index],
        signed_w=signed_w[edge_index],
        edge_index=edge_index,
        tau_m=tau_m,
        v_th=v_th,
        v_floor=v_floor,
        input_pixels=(centers[:, None, :] + _PIXEL_OFFSET).reshape(-1, 2),
        output_ids=output_ids,
    )
