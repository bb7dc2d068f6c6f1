"""The exit-code contract as a property: whatever a config file or a
`sweep --resume` file holds, `cli.main` returns 0, 2, 3 or 4 and never
raises.

The configs start from a small valid run of one of the four trajectory
kinds (a 1 Hz circle or eight, or a linear or waypoint path of four
seconds, with a 50 ms output tau) and the sweeps from one or two points at
-j 1 or 2, so no example runs long. Values are mutated only to the listed
kinds (deleted keys, other types, NaN, +-inf, negative, zero, 1e300); none
of them asks for a large but allowed amount of work.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from motionsnn.cli import main

BASE = {
    "schema_version": 1,
    "field_width": 10,
    "field_height": 11,
    "trajectory": {"kind": "circle", "cx": 4.5, "cy": 5.0, "radius": 3.0, "freq_hz": 1.0},
    "t_end_s": None,
    "encoding": "onset",
    "samples_per_pixel": 8.0,
    "n_per_dir": 1,
    "output_taus_s": [0.05],
    "grid_dt_s": 0.001,
    "lateral_inhibition": True,
    "network": {"output_v_th": 1.5, "t_ref_s": 2e-4, "d_out_s": 1e-4, "w_lateral": 1.0},
}
BASES = [
    BASE,
    dict(BASE, trajectory={"kind": "eight", "cx": 4.5, "cy": 5.0, "ax": 3.0, "ay": 4.0, "freq_hz": 1.0}),
    dict(BASE, trajectory={"kind": "linear", "x0": 2.0, "y0": 3.0, "vx": 1.0, "vy": 1.0}, t_end_s=4.0),
    dict(BASE, trajectory={"kind": "waypoints",
                           "points": [[0.0, 2.0, 2.0], [2.0, 6.0, 5.0], [4.0, 3.0, 8.0]]}),
]

# A mutation names a key of the config (table ""), of its trajectory or of
# its network, each table as likely as the others, by its index in that
# table of the base, so that one strategy serves every base.
KEYS = st.tuples(st.sampled_from(["", "trajectory", "network"]), st.integers(0, 15))


def key_path(base: dict, table: str, index: int) -> tuple[str, ...]:
    keys = list(base[table] if table else base)
    key = keys[index % len(keys)]
    return (table, key) if table else (key,)


DELETE = object()
VALUES = st.sampled_from(
    [DELETE, "x", [], [1.0], {}, None, True, False, math.nan, math.inf, -math.inf, -1.0, 0.0, 0, 1e300]
)

# A valid resume file for `--freqs 0.8,1 --variants n1`, and what a damaged
# one may hold instead of a field or a line.
SWEEP_ROWS = [
    ["freq_hz", "variant", "s_acc", "s_acc_norm", "status"],
    ["0.80000000000000004", "n1", "0.5", "1", "ok"],
    ["1", "n1", "0.25", "0.5", "ok"],
]
FIELDS = st.sampled_from(["", "abc", "nan", "inf", "-inf", "-1", "0", "1e300", "n5", "ok", "error: x"])


def exit_code(args: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(args)


def mutate(cfg: dict, path: tuple[str, ...], value) -> None:
    table = cfg
    for key in path[:-1]:
        if not isinstance(table.get(key), dict):
            return  # an earlier mutation replaced or deleted the table
        table = table[key]
    if value is DELETE:
        table.pop(path[-1], None)
    else:
        table[path[-1]] = copy.deepcopy(value)


@settings(max_examples=60, deadline=None, derandomize=True)
# waypoints that are null, not a list, once passed the config checks and
# crashed the build; 60 drawn examples do not reliably reach them
@example(base=BASES[3], mutations=[(("trajectory", 1), None)], command="events", jobs="1")
@given(
    base=st.sampled_from(BASES),
    mutations=st.lists(st.tuples(KEYS, VALUES), min_size=1, max_size=3),
    command=st.sampled_from(["run", "events", "topo", "sweep"]),
    jobs=st.sampled_from(["1", "2"]),
)
def test_mutated_configs_exit_0_2_3_or_4(base, mutations, command, jobs):
    cfg = copy.deepcopy(base)
    for (table, index), value in mutations:
        mutate(cfg, key_path(base, table, index), value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp, "cfg.json")
        cfg_path.write_text(json.dumps(cfg))
        out = str(Path(tmp, "out"))
        args = {
            "run": ["run", "-d", out],
            "events": ["events", "-o", out],
            "topo": ["topo", "-o", out],
            "sweep": ["sweep", "-o", out, "--freqs", "0.8,1", "--variants", "n1", "-j", jobs],
        }[command]
        assert exit_code(args + ["-c", str(cfg_path)]) in (0, 2, 3, 4)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    damage=st.lists(
        st.one_of(
            st.tuples(st.just("field"), st.integers(0, 2), st.integers(0, 4), FIELDS),
            st.tuples(st.just("drop"), st.integers(0, 2), st.integers(0, 4)),
            st.tuples(st.just("line"), st.integers(0, 2)),
            st.tuples(st.just("copy"), st.integers(0, 2)),
        ),
        min_size=1,
        max_size=3,
    ),
    jobs=st.sampled_from(["1", "2"]),
)
def test_damaged_resume_files_exit_0_2_3_or_4(damage, jobs):
    rows = [list(row) for row in SWEEP_ROWS]
    for kind, *where in damage:
        if not rows:
            break
        r = where[0] % len(rows)
        if kind == "field" and rows[r]:
            rows[r][where[1] % len(rows[r])] = where[2]
        elif kind == "drop" and rows[r]:
            del rows[r][where[1] % len(rows[r])]
        elif kind == "line":
            del rows[r]
        elif kind == "copy":
            rows.insert(r, list(rows[r]))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "sweep.csv")
        out.write_text("".join(",".join(row) + "\r\n" for row in rows))
        args = ["sweep", "--resume", "-o", str(out), "--freqs", "0.8,1", "--variants", "n1",
                "-j", jobs, "--set", "trajectory.radius=3.0"]
        assert exit_code(args) in (0, 2, 3, 4)
