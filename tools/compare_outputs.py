"""Compare the output files and peak memory of the working tree with those of a git revision.

    python3 tools/compare_outputs.py REV

Runs the seed-0 configs of `perfbench/workloads.py` through the
`motionsnn` command line twice: once with the working tree's `src/`, once
with the `src/` of REV, extracted with `git archive` into a temporary
directory (the repository's own state is not touched). Then it compares
18 files byte for byte:

- `spikes.csv`, `rates.csv` and `summary.json` of `default-run`,
  `long-window` and `large-field`, and of `eight`: the default run with
  the figure-eight path in its default geometry, the one path whose x and
  y speed bounds differ and whose pooled LR bin differs from the UD one
- `events.csv` of `default-run` and `large-field`
- `sweep.csv` of the default sweep
- `topo` of `default-run`, `large-field` and the default run with the
  sweep's five-rank `n5` outputs

Every file is listed as `same` or `DIFFERS`; under each CSV that differs
come the number of rows that differ and the first differing pair. Then
each command's peak RSS, as `wait4` reports it for the process and the
children it reaped, is listed at REV, in the tree and their difference, in
MB: one run each, so a difference under about 0.5 MB may be noise. Exit 0
when all 18 files are identical, 1 when any differs or a command fails, 2
on a bad REV.
"""
from __future__ import annotations

import filecmp
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads as wl  # noqa: E402

RUNS = ("default-run", "long-window", "large-field", "eight")
EVENTS = ("default-run", "large-field")


def _commands() -> list[tuple[str, dict, list[str]]]:
    """(output name, config, CLI arguments with {cfg} and {out} to fill in)."""
    cfg = {name: wl.make_config(wl.WORKLOADS[name], 0) for name in wl.WORKLOADS}
    freq = cfg["default-run"]["trajectory"]["freq_hz"]
    cfg["eight"] = dict(cfg["default-run"], trajectory={"kind": "eight", "freq_hz": freq})
    n5 = dict(cfg["default-run"], n_per_dir=5, output_taus_s=list(wl.SWEEP_VARIANTS[1][1]))
    sweep = wl.WORKLOADS["sweep"]
    out = [(f"{name}/", cfg[name], ["run", "-c", "{cfg}", "-d", "{out}"]) for name in RUNS]
    out += [(f"{name}/events.csv", cfg[name], ["events", "-c", "{cfg}", "-o", "{out}"]) for name in EVENTS]
    out.append(("sweep/", cfg["sweep"], wl.cli_args(sweep, "{cfg}", "{out}")))
    for name, c in (("default-run", cfg["default-run"]), ("large-field", cfg["large-field"]), ("n5", n5)):
        out.append((f"{name}/topo.json", c, ["topo", "-c", "{cfg}", "-o", "{out}"]))
    return out


def _files(out: str) -> list[str]:
    if out.startswith("sweep/"):
        return [out + "sweep.csv"]
    if out.endswith("/"):
        return [out + f for f in ("spikes.csv", "rates.csv", "summary.json")]
    return [out]


def run_all(src: Path, dest: Path) -> tuple[list[float], list[str]]:
    """Every command against the package in `src`: the peak RSS in MB of
    each, with the children it reaped, and the failures."""
    env = dict(os.environ, PYTHONPATH=str(src))
    rss, failures = [], []
    for i, (out, cfg, args) in enumerate(_commands()):
        cfg_path = dest / f"config{i}.json"
        cfg_path.write_text(json.dumps(cfg))
        target = dest / out
        (target if out.endswith("/") else target.parent).mkdir(parents=True, exist_ok=True)
        filled = [a.format(cfg=cfg_path, out=target) for a in args]
        with tempfile.TemporaryFile() as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "motionsnn", *filled],
                env=env, cwd=dest, stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace").strip()
        rss.append(usage.ru_maxrss / 1024)
        if proc.returncode != 0:
            failures.append(f"{src}: {' '.join(filled)} exited {proc.returncode}: {stderr}")
    return rss, failures


def csv_diff(a: Path, b: Path, names: tuple[str, str]) -> list[str]:
    """How many rows of two CSV files differ, and the first differing pair,
    as report lines; a row one file lacks counts as differing."""
    pairs = list(itertools.zip_longest(a.read_text().splitlines(), b.read_text().splitlines()))
    differ = [(i, x, y) for i, (x, y) in enumerate(pairs, 1) if x != y]
    if not differ:
        return []
    i, x, y = differ[0]
    width = max(map(len, names))
    lines = [f"{len(differ)} of {len(pairs)} rows differ, first at line {i}:"]
    for name, row in zip(names, (x, y)):
        lines.append(f"  {name:{width}} {'(no row)' if row is None else row}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp_path = Path(tmp)
        base = tmp_path / "rev"
        base.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
            capture_output=True,
        )
        if archive.returncode != 0:
            print(archive.stderr.decode(errors="replace").strip(), file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        sides = {"tree": (ROOT / "src", tmp_path / "tree"), rev: (base / "src", tmp_path / "rev-out")}
        rss, failures = {}, []
        for side, (src, dest) in sides.items():
            dest.mkdir()
            rss[side], failed = run_all(src, dest)
            failures += failed
        names = [f for out, _, _ in _commands() for f in _files(out)]
        differ = 0
        for name in names:
            a, b = (dest / name for _, dest in sides.values())
            same = a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False)
            differ += not same
            print(f"{'same' if same else 'DIFFERS':8} {name}")
            if not same and name.endswith(".csv") and a.is_file() and b.is_file():
                for line in csv_diff(a, b, tuple(sides)):
                    print(f"{'':8} {line}")
        print(f"peak RSS in MB at {rev}, in the tree, and the change:")
        for (out, _, args), at_rev, in_tree in zip(_commands(), rss[rev], rss["tree"]):
            print(f"{at_rev:8.2f} {in_tree:8.2f} {in_tree - at_rev:+7.2f}  {args[0]} {out}")
    for line in failures:
        print(line, file=sys.stderr)
    print(f"{len(names) - differ} of {len(names)} files identical against {rev}")
    return 1 if differ or failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
