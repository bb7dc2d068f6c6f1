"""Plus-pentomino tiling and network assembly."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionsnn import (
    ConfigError,
    Direction,
    DIRECTION_ORDER,
    NetworkParams,
    Role,
    Sign,
    assemble_network,
    layout_from_centers,
    tessellate,
)
from motionsnn.cli import main
from motionsnn.config import RunConfig, apply_overrides, build_network
from motionsnn.topology import (
    HIDDEN_PER_CELL,
    HIDDEN_SLOTS,
    INPUTS_PER_CELL,
    OUTPUT_SOURCES,
    SLOT_SOURCE_ROLE,
    HiddenKind,
    Layer,
)


# Pixel of each role relative to the cell center (y increases upward).
ROLE_STEP = {
    Role.CENTER: (0, 0), Role.UP: (0, 1), Role.DOWN: (0, -1),
    Role.LEFT: (-1, 0), Role.RIGHT: (1, 0),
}


def plus_pixels(cx, cy):
    return {(cx + dx, cy + dy) for dx, dy in ROLE_STEP.values()}


def covered_pixels(layout):
    return set().union(*(plus_pixels(cx, cy) for cx, cy in layout.centers))


# Centers of the 10 x 11 tiling, recomputed by hand from the residue rule.
DEFAULT_CENTERS = {
    (1, 3), (1, 8), (2, 1), (2, 6), (3, 4), (3, 9), (4, 2), (4, 7),
    (5, 5), (6, 3), (6, 8), (7, 1), (7, 6), (8, 4), (8, 9),
}


def test_default_field_tiles_into_15_cells(default_layout):
    assert default_layout.n_cells == 15
    assert set(default_layout.centers) == DEFAULT_CENTERS
    assert len(covered_pixels(default_layout)) == 75
    assert 10 * 11 - len(covered_pixels(default_layout)) == 35


def test_default_tiling_is_disjoint_and_in_field(default_layout, default_net):
    seen = {}
    for idx, (cx, cy) in enumerate(default_layout.centers):
        for px in plus_pixels(cx, cy):
            assert px not in seen, f"pixel {px} claimed twice"
            seen[px] = idx
            assert 0 <= px[0] < 10 and 0 <= px[1] < 11
    by_pixel = default_net.input_id_by_pixel
    assert seen == {px: nid // INPUTS_PER_CELL for px, nid in by_pixel.items()}


def test_default_tiling_is_locally_maximal(default_layout):
    # No further cell fits: every candidate center's plus hits covered ground.
    covered = covered_pixels(default_layout)
    for cx in range(1, 9):
        for cy in range(1, 10):
            assert plus_pixels(cx, cy) & covered, f"room left at ({cx}, {cy})"


def test_tessellate_small_fields():
    tiny = tessellate(3, 3)
    assert tiny.n_cells == 1 and tiny.centers == ((1, 1),)
    assert tessellate(2, 5).n_cells == 0
    assert tessellate(1, 1).n_cells == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 13), st.integers(1, 13))
def test_tessellate_properties(w, h):
    layout = tessellate(w, h)
    assert len(covered_pixels(layout)) == 5 * layout.n_cells

    def lattice_count(c):
        return sum(
            1
            for cx in range(1, w - 1)
            for cy in range(1, h - 1)
            if (2 * cx + cy) % 5 == c
        )

    if layout.n_cells:
        for cx, cy in layout.centers:
            assert 1 <= cx <= w - 2 and 1 <= cy <= h - 2
            assert (2 * cx + cy) % 5 == layout.offset
        # chosen offset maximizes the count, smallest offset on a tie
        best = max(lattice_count(c) for c in range(5))
        assert layout.n_cells == best
        assert layout.offset == min(c for c in range(5) if lattice_count(c) == best)


def test_layout_from_centers_validation():
    with pytest.raises(ConfigError, match=r"cells overlap at pixel \(3, 2\)"):
        layout_from_centers(10, 11, [(2, 2), (3, 2)])  # pluses overlap
    with pytest.raises(ConfigError, match="touches the field boundary"):
        layout_from_centers(10, 11, [(0, 2)])
    layout = layout_from_centers(10, 11, [(4, 2), (1, 3)])
    assert layout.centers == ((4, 2), (1, 3))  # sorted by (y, x)


@pytest.mark.parametrize("center", [(0, 5), (9, 5), (4, 0), (4, 10)])
def test_build_unit_cell_rejects_border_centers(center):
    # A cell whose plus would leave the field is refused when the layout is built.
    with pytest.raises(ConfigError, match="touches the field boundary"):
        layout_from_centers(10, 11, [center])


def test_hidden_slot_table():
    assert HIDDEN_PER_CELL == 9 and INPUTS_PER_CELL == 5
    assert HIDDEN_SLOTS[0] == (HiddenKind.CENTER_RELAY, None)
    assert SLOT_SOURCE_ROLE[0] is Role.CENTER
    for d in DIRECTION_ORDER:
        sources = OUTPUT_SOURCES[d]
        kinds = [(HIDDEN_SLOTS[slot], sign) for slot, sign in sources]
        assert kinds[0] == ((HiddenKind.EXC_RELAY, d.opposite), Sign.EXCITATORY)
        assert kinds[1] == ((HiddenKind.CENTER_RELAY, None), Sign.EXCITATORY)
        assert kinds[2] == ((HiddenKind.INH_RELAY, d), Sign.INHIBITORY)


def test_default_network_counts(default_net):
    assert default_net.counts() == {
        "cells": 15,
        "input_neurons": 75,
        "hidden_neurons": 135,
        "output_neurons": 4,
        "feed_forward_synapses": 315,
        "lateral_synapses": 4,
        "total_synapses": 319,
    }


def test_id_layout_and_parameters(default_net):
    net = default_net
    for nid in range(75):
        info = net.neurons[nid]
        assert info.layer is Layer.INPUT
        assert net.tau_m[nid] == 0.02 and net.v_th[nid] == 0.5
        assert info.pixel is not None
    for nid in range(75, 210):
        info = net.neurons[nid]
        assert info.layer is Layer.HIDDEN
        assert net.v_th[nid] == 0.5
        if info.kind is HiddenKind.CENTER_RELAY:
            assert net.tau_m[nid] == 0.002
        else:
            assert net.tau_m[nid] == 0.02
    outs = [net.neurons[nid] for nid in range(210, 214)]
    assert [o.direction for o in outs] == list(DIRECTION_ORDER)
    for o in outs:
        assert o.layer is Layer.OUTPUT
        assert net.tau_m[o.id] == 0.5 and net.v_th[o.id] == 1.5
        assert net.v_floor[o.id] == -3.0
    assert net.output_ids == {
        Direction.UP: (210,),
        Direction.DOWN: (211,),
        Direction.LEFT: (212,),
        Direction.RIGHT: (213,),
    }
    assert len(net.input_id_by_pixel) == 75


def test_every_relay_listens_to_one_pixel(default_net):
    incoming = {}
    for syn in default_net.synapses:
        if default_net.neurons[syn.post].layer is Layer.HIDDEN:
            incoming.setdefault(syn.post, []).append(syn)
    assert len(incoming) == 135
    for post, syns in incoming.items():
        assert len(syns) == 1
        syn = syns[0]
        assert syn.sign is Sign.EXCITATORY and syn.weight == 1.0
        pre = default_net.neurons[syn.pre]
        post_info = default_net.neurons[post]
        assert pre.layer is Layer.INPUT and pre.cell == post_info.cell
        # the relay's pixel role matches the slot table
        slot = HIDDEN_SLOTS.index((post_info.kind, post_info.direction))
        cx, cy = default_net.layout.centers[pre.cell]
        dx, dy = ROLE_STEP[SLOT_SOURCE_ROLE[slot]]
        assert pre.role is SLOT_SOURCE_ROLE[slot] and pre.pixel == (cx + dx, cy + dy)


def test_output_wiring_per_cell(default_net):
    net = default_net
    per_output = {}
    for syn in net.synapses:
        pre = net.neurons[syn.pre]
        if pre.layer is Layer.HIDDEN and net.neurons[syn.post].layer is Layer.OUTPUT:
            per_output.setdefault(syn.post, []).append((pre, syn))
    for nid, pairs in per_output.items():
        d = net.neurons[nid].direction
        assert len(pairs) == 45  # 3 sources per cell, 15 cells
        for pre, syn in pairs:
            if syn.sign is Sign.INHIBITORY:
                assert pre.kind is HiddenKind.INH_RELAY and pre.direction == d
                assert syn.weight == 1.1
            elif pre.kind is HiddenKind.EXC_RELAY:
                assert pre.direction == d.opposite
                assert syn.weight == 1.0
            else:
                assert pre.kind is HiddenKind.CENTER_RELAY
                assert syn.weight == 1.0


def test_lateral_inhibition_pairs_ranks(default_layout):
    taus = (0.01, 0.05, 0.25)
    net = assemble_network(default_layout, n_per_dir=3, output_taus_s=taus)
    out_id = {}
    for d, ids in net.output_ids.items():
        for k, nid in enumerate(ids):
            assert net.neurons[nid].rank == k
            out_id[(d, k)] = nid
    lateral = [
        s for s in net.synapses
        if net.neurons[s.pre].layer is Layer.OUTPUT
    ]
    assert len(lateral) == 12
    pairs = {(s.pre, s.post) for s in lateral}
    for k in range(3):
        for a, b in ((Direction.UP, Direction.DOWN), (Direction.LEFT, Direction.RIGHT)):
            assert (out_id[(a, k)], out_id[(b, k)]) in pairs
            assert (out_id[(b, k)], out_id[(a, k)]) in pairs
    for s in lateral:
        assert s.sign is Sign.INHIBITORY and s.weight == 1.0
        assert net.neurons[s.pre].rank == net.neurons[s.post].rank
    # each rank keeps its own membrane time constant
    for (d, k), nid in out_id.items():
        assert net.tau_m[nid] == taus[k]


def test_lateral_inhibition_can_be_ablated(default_layout):
    net = assemble_network(default_layout, lateral_inhibition=False)
    assert net.counts()["lateral_synapses"] == 0
    assert net.counts()["feed_forward_synapses"] == 315


def test_network_params_overrides(default_layout):
    params = NetworkParams(w_hidden_output_inh=1.3, output_v_th=1.8)
    net = assemble_network(default_layout, params=params)
    inh = [
        s.weight for s in net.synapses
        if s.sign is Sign.INHIBITORY and net.neurons[s.pre].layer is Layer.HIDDEN
    ]
    assert inh and set(inh) == {1.3}
    for ids in net.output_ids.values():
        for nid in ids:
            assert net.v_th[nid] == 1.8
            assert net.v_floor[nid] == pytest.approx(-3.6)


def test_assemble_validation(default_layout):
    with pytest.raises(ConfigError):
        assemble_network(default_layout, n_per_dir=0)
    with pytest.raises(ConfigError):
        assemble_network(default_layout, n_per_dir=2, output_taus_s=(0.5,))
    with pytest.raises(ConfigError):
        assemble_network(default_layout, output_taus_s=(0.0,))


@settings(max_examples=15, deadline=None)
@given(st.integers(3, 12), st.integers(3, 12), st.integers(1, 4))
def test_count_formulas(w, h, n_per):
    layout = tessellate(w, h)
    taus = tuple(0.01 * (k + 1) for k in range(n_per))
    net = assemble_network(layout, n_per_dir=n_per, output_taus_s=taus)
    c = layout.n_cells
    counts = net.counts()
    assert counts["input_neurons"] == 5 * c
    assert counts["hidden_neurons"] == 9 * c
    assert counts["output_neurons"] == 4 * n_per
    assert counts["feed_forward_synapses"] == 9 * c + 12 * c * n_per
    assert counts["lateral_synapses"] == 4 * n_per


def test_json_export_is_stable(default_net):
    text = default_net.to_json()
    data = json.loads(text)
    assert data["schema_version"] == 1
    assert data["counts"] == default_net.counts()
    assert data["field"] == {"width": 10, "height": 11}
    assert data["lattice_offset"] == 0
    assert len(data["neurons"]) == 214
    assert len(data["synapses"]) == 319
    again = assemble_network(tessellate(10, 11))
    assert again.to_json() == text


# sha256 of `motionsnn topo` standard output, recorded from the object-by-
# object builder that the array build replaced.
TOPO_GOLDEN = {
    "default": ([], "ad2620b40542416ff005d9841f6c6f10362414b07f1aba8e85d941b00e845881"),
    "n5-no-lateral": (
        [
            "n_per_dir=5",
            "output_taus_s=[0.005,0.015811388300841896,0.05,0.15811388300841897,0.5]",
            "lateral_inhibition=false",
        ],
        "20809fa52907eb70452538e47b5564f5e254e453cc2eca725ca41e13a270fd3d",
    ),
    "100x101": (
        ["field_width=100", "field_height=101"],
        "95f052da7c3e6329389c304c142ede04ca8c6d9b3ac3441e3c5364ab4dad4083",
    ),
}


@pytest.mark.parametrize("name", sorted(TOPO_GOLDEN))
def test_topo_export_matches_the_recorded_bytes(name, capsys):
    overrides, digest = TOPO_GOLDEN[name]
    args = ["topo"] + [a for item in overrides for a in ("--set", item)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(TOPO_GOLDEN))
def test_csr_rows_hold_the_synapses_in_construction_order(name):
    overrides, _ = TOPO_GOLDEN[name]
    net = build_network(RunConfig.from_dict(apply_overrides(RunConfig().to_dict(), overrides)))
    indptr = net.indptr
    assert indptr[0] == 0 and np.all(np.diff(indptr) >= 0)
    assert indptr[-1] == net.counts()["total_synapses"] == len(net.synapses)
    rows: dict[int, list] = {}
    for s in net.synapses:
        rows.setdefault(s.pre, []).append((s.post, s.signed_weight))
    for pre in range(net.n_neurons):
        lo, hi = indptr[pre], indptr[pre + 1]
        assert np.all(np.diff(net.edge_index[lo:hi]) > 0)
        got = list(zip(net.post[lo:hi].tolist(), net.signed_w[lo:hi].tolist()))
        assert got == rows.get(pre, [])
