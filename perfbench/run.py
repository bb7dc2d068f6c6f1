"""Benchmark of the `motionsnn` command line, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: the next `python -m motionsnn`
process starts only after the previous one has exited, as long as another one
is expected to end within S seconds of the start (at least two processes,
whose outputs must be byte-identical). Every
process's outputs are checked. With --trace 0 the end-to-end metrics of
BENCHMARK.json are measured; with --trace 1 each cycle runs `import
motionsnn` under `-X importtime`, an untraced CLI call and a traced one
(perfbench/spans.py), and the per-layer metrics come from the traced calls. The last line of standard output is the
JSON result. Seed references are recorded with

    python3 perfbench/run.py --write-reference 0-31 [--workload NAME]
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

SETUP_SAMPLES = 3  # `--help` processes per run, after one untimed warm-up
MIN_OPS = 2  # the first two operations are compared byte for byte
OP_TIMEOUT_S = 150.0

ANALYSIS_FUNCTIONS = ("firing_rate", "ideal_rates", "accuracy", "dominant_frequency", "phase_lag_deg")

# Which end-to-end metric each layer's numbers should move, and where.
MOVES = {
    "setup": "setup_s on every workload; wall_s most on default-run and sweep",
    "topology": "wall_s, peak_rss_mb on large-field; nothing on long-window",
    "stimulus": "wall_s on large-field",
    "engine": "wall_s on large-field",
    "analysis": "wall_s, peak_rss_mb on long-window; wall_s on sweep; nothing on large-field",
    "experiment": "wall_s on sweep",
    "core": "wall_s on long-window and default-run",
    "cli": "wall_s on long-window and default-run",
    "process": "wall_s everywhere (interpreter exit; longer with more objects alive, as on large-field)",
    "trace": "no end-to-end metric: tracing cost and accounting",
}


@dataclass
class Proc:
    start: float  # perf_counter at spawn and at exit; the clock is system-wide,
    end: float  # so a traced child's span times compare with these
    rss_mb: float
    code: int
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Op:
    traced: bool
    proc: Proc
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None
    layer_self: dict[str, float] | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MOTIONSNN_CONFIG", None)
    return env


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], stderr_path: Path) -> Proc:
    """Run one process to completion: wall time from spawn to exit, and the
    peak RSS that wait4 reports for it and the children it reaped. The child
    leads its own process group, so a timeout or an interrupt of the
    benchmark also stops the sweep's workers."""
    with open(stderr_path, "w+b") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(
            argv, cwd=WORK, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
        timer = threading.Timer(OP_TIMEOUT_S, kill_group, (p.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            kill_group(p.pid)
            os.waitpid(p.pid, 0)
            raise
        finally:
            timer.cancel()
        t1 = time.perf_counter()
        p.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode("utf-8", "replace")
    return Proc(t0, t1, usage.ru_maxrss / 1024.0, p.returncode, text)


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "motionsnn", *args]


def parse_importtime(text: str) -> dict[str, float]:
    """`import motionsnn` in total, and the self times of numpy and scipy modules."""
    total = numpy = scipy = 0
    for m in re.finditer(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)$", text, re.M):
        self_us, cum_us, name = int(m[1]), int(m[2]), m[3]
        top = name.split(".")[0]
        if name == "motionsnn":
            total = cum_us
        elif top == "numpy":
            numpy += self_us
        elif top == "scipy":
            scipy += self_us
    return {
        "setup.import_total_s": total / 1e6,
        "setup.import_numpy_s": numpy / 1e6,
        "setup.import_scipy_s": scipy / 1e6,
    }


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_, _, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children[i]):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out


# Per-layer time metrics: the summed durations of these spans. A metric is
# absent when one of its spans' functions no longer exists.
DURATIONS = {
    "topology.build_s": ("config.build_layout", "config.build_network"),
    "stimulus.generate_s": ("config.build_trajectory", "config.build_stimulus"),
    "engine.simulate_s": ("engine.simulate",),
    "experiment.run_experiment_s": ("experiment.run_experiment",),
    "experiment.evaluate_s": ("experiment.evaluate",),
    "experiment.spectral_s": ("experiment.spectral_summary",),
    "core.write_spikes_s": ("core.write_spikes_csv",),
    **{f"analysis.{fn}_s": (f"analysis.{fn}",) for fn in ANALYSIS_FUNCTIONS},
}


def layer_metrics(trace: dict, command: str, exit_at: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced process that exited at `exit_at`, and
    the self time per layer. After its last span the process writes the spans
    and exits, which frees every object the run built; that is `process.exit`."""
    spans, absent = trace["spans"], set(trace["absent"])
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    layer_self: dict[str, float] = defaultdict(float)
    by_name: dict[str, list[float]] = defaultdict(list)
    cmd, cmd_self = f"cli.cmd_{command}", 0.0
    for (name, layer, start, end, _), own in zip(spans, self_times(spans)):
        total[name] += end - start
        calls[name] += 1
        layer_self[layer] += own
        by_name[name].append(end - start)
        if name == cmd:
            cmd_self += own
    layer_self["process"] = exit_at - max(end for _, _, _, end, _ in spans)
    m: dict[str, float] = {
        "experiment.self_s": layer_self["experiment"],
        "trace.counters_s": total["trace.counters"],
        "process.exit_s": layer_self["process"],
    }
    for metric, sources in DURATIONS.items():
        if absent.isdisjoint(sources):
            m[metric] = sum(total[n] for n in sources)
    for fn in ANALYSIS_FUNCTIONS:
        if f"analysis.{fn}" not in absent:
            m[f"analysis.{fn}_calls"] = calls[f"analysis.{fn}"]
    if cmd not in absent:
        m["cli.write_s"] = cmd_self
    if absent.isdisjoint(("experiment.run_experiment", "experiment.evaluate")):
        # A point is one scored run: run_experiment plus the evaluate after it.
        points = [a + b for a, b in zip(by_name["experiment.run_experiment"], by_name["experiment.evaluate"])]
        m["experiment.points"] = len(points)
        m["experiment.sweep_busy_s"] = sum(points)
        m["experiment.point_max_s"] = max(points, default=0.0)
    m.update(trace["counters"])
    if "engine.deliveries" in m and m.get("engine.simulate_s", 0.0) > 0.0:
        m["engine.deliveries_per_s"] = m["engine.deliveries"] / m["engine.simulate_s"]
    return m, dict(layer_self)


def load_reference() -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


class Bench:
    def __init__(self, workload: wl.Workload, seed: int):
        self.workload = workload
        self.cfg = wl.make_config(workload, seed)
        self.cfg_path = WORK / "config.json"
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            json.dump(self.cfg, fh, indent=2)
        self.ref = load_reference().get(workload.name, {}).get(str(seed))

    def help_proc(self) -> Proc:
        proc = spawn(cli("--help"), WORK / "help.err")
        if proc.code != 0:
            raise RuntimeError(f"`motionsnn --help` exited {proc.code}: {proc.stderr.strip()}")
        return proc

    def op(self, index: int, traced: bool, jobs: int) -> Op:
        out = WORK / f"op{index % 2}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        args = wl.cli_args(self.workload, str(self.cfg_path), str(out), jobs)
        spans_path = WORK / "spans.json"
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "spans.py"), str(spans_path), "--", *args] if traced else cli(*args)
        op = Op(traced, spawn(argv, WORK / "op.err"))
        if op.proc.code != 0:
            op.problems.append(f"exit code {op.proc.code}: {op.proc.stderr.strip()[-400:]}")
            return op
        op.problems += wl.check_outputs(self.workload, self.cfg, str(out), self.ref)
        if traced:
            try:
                with open(spans_path, encoding="utf-8") as fh:
                    op.layers, op.layer_self = layer_metrics(json.load(fh), self.workload.command, op.proc.end)
            except (OSError, ValueError, KeyError) as exc:
                op.problems.append(f"unreadable spans: {exc!r}")
            else:
                op.layers["cli.bytes_written"] = sum(f.stat().st_size for f in out.iterdir())
        if index == 1:
            differ = wl.differing_outputs(self.workload, str(WORK / "op0"), str(out))
            if differ:
                op.problems.append(f"outputs differ from the previous run: {differ}")
        return op


def fits(start: float, seconds: float, steps: list[float]) -> bool:
    """Whether one more step as long as the median step so far ends within
    `seconds` of `start`. A run then ends inside its time instead of up to one
    step after it, so the runs of a whole benchmark fit their time limit."""
    return time.perf_counter() - start + statistics.median(steps) <= seconds


def summary(values: list[float]) -> str:
    return f"median of {len(values)} (min {min(values):.6g}, max {max(values):.6g})"


def measure(bench: Bench, seconds: float) -> tuple[list[Op], dict[str, float], dict[str, str], list[str]]:
    start = time.perf_counter()
    setup = [bench.help_proc().wall_s for _ in range(SETUP_SAMPLES)]
    ops: list[Op] = []
    while len(ops) < MIN_OPS or fits(start, seconds, [op.proc.wall_s for op in ops]):
        ops.append(bench.op(len(ops), traced=False, jobs=wl.SWEEP_JOBS))
    good = [op for op in ops if not op.problems] or ops
    sim_s = wl.sim_seconds(bench.workload, bench.cfg)
    walls = [op.proc.wall_s for op in good]
    rss = [op.proc.rss_mb for op in good]
    rates = [sim_s / w for w in walls]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
        "sim_s_per_s": statistics.median(rates),
        "ok_frac": sum(not op.problems for op in ops) / len(ops),
    }
    notes = {
        "wall_s": summary(walls),
        "setup_s": summary(setup) + " `motionsnn --help` processes",
        "peak_rss_mb": summary(rss),
        "sim_s_per_s": summary(rates) + f", {sim_s:.6g} simulated s per operation",
        "ok_frac": f"{len(ops) - sum(bool(op.problems) for op in ops)} of {len(ops)} operations passed",
    }
    return ops, metrics, notes, []


def trace_run(bench: Bench, seconds: float) -> tuple[list[Op], dict[str, float], dict[str, str], list[str]]:
    # Each cycle is one `-X importtime` process, one untraced call and one
    # traced call, so the import is measured under the same host load as the
    # calls. The traced sweep runs in-process at -j 1 (spans in forked
    # workers are lost), so its untraced comparison runs at -j 1 too.
    imports: list[dict[str, float]] = []
    ops: list[Op] = []
    cycles: list[float] = []
    start = time.perf_counter()
    while not cycles or fits(start, seconds, cycles):
        began = time.perf_counter()
        proc = spawn([sys.executable, "-X", "importtime", "-c", "import motionsnn"], WORK / "import.err")
        if proc.code != 0:
            raise RuntimeError(f"`import motionsnn` exited {proc.code}: {proc.stderr.strip()[-400:]}")
        imports.append(parse_importtime(proc.stderr))
        ops.append(bench.op(len(ops), traced=False, jobs=1))
        ops.append(bench.op(len(ops), traced=True, jobs=1))
        cycles.append(time.perf_counter() - began)
    traced = [op for op in ops if op.traced and op.layers is not None]
    untraced = [op.proc.wall_s for op in ops if not op.traced and not op.problems]
    metrics: dict[str, float] = {k: statistics.median(d[k] for d in imports) for k in imports[0]}
    names = {k for op in traced for k in op.layers}
    for k in sorted(names):
        metrics[k] = statistics.median(op.layers.get(k, 0.0) for op in traced)
    lines = []
    if traced and untraced:
        walls = [op.proc.wall_s for op in traced]
        metrics["trace.wall_s"] = statistics.median(walls)
        metrics["trace.untraced_wall_s"] = statistics.median(untraced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        layers = sorted({k for op in traced for k in op.layer_self})
        self_s = {k: statistics.median(op.layer_self.get(k, 0.0) for op in traced) for k in layers}
        own_import = self_s.pop("setup", 0.0)
        accounted = metrics["setup.import_total_s"] + sum(self_s.values())
        metrics["trace.unaccounted_s"] = metrics["trace.wall_s"] - accounted
        lines.append(
            f"traced process wall {metrics['trace.wall_s']:.4f} s ({summary(walls)}); untraced "
            f"{metrics['trace.untraced_wall_s']:.4f} s ({summary(untraced)}); tracing overhead "
            f"{metrics['trace.overhead_s']:+.4f} s"
        )
        parts = ", ".join(f"{k} {v:.4f}" for k, v in self_s.items())
        lines.append(
            f"accounting: setup.import_total_s {metrics['setup.import_total_s']:.4f} s + self time per "
            f"layer ({parts}) = {accounted:.4f} s, {accounted / metrics['trace.wall_s']:.1%} of the "
            f"traced wall; unaccounted {metrics['trace.unaccounted_s']:.4f} s. With the traced "
            f"process's own import ({own_import:.4f} s) instead: "
            f"{(accounted - metrics['setup.import_total_s'] + own_import) / metrics['trace.wall_s']:.1%}"
        )
    notes = {name: "moves " + MOVES[name.split(".")[0]] for name in metrics}
    return ops, metrics, notes, lines


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def write_reference(seeds: list[int], names: list[str]) -> int:
    ref = load_reference()
    for name in names:
        workload = wl.WORKLOADS[name]
        for seed in seeds:
            bench = Bench(workload, seed)
            bench.ref = None
            op = bench.op(0, traced=False, jobs=wl.SWEEP_JOBS)
            if op.problems:
                print(f"{name} seed {seed}: {op.problems}", file=sys.stderr)
                return 1
            ref.setdefault(name, {})[str(seed)] = wl.reference_values(workload, str(WORK / "op0"))
            print(f"{name} seed {seed}: {ref[name][str(seed)]}")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def versions() -> str:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    nproc = len(os.sched_getaffinity(0))
    return f"python {platform.python_version()}, numpy {version('numpy')}, scipy {version('scipy')}, nproc {nproc}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", metavar="SEEDS", help="record reference values, e.g. 0-31")
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running child's
    # process group is killed and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "motionsnn" / "__init__.py").is_file():
        print(f"no motionsnn sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.write_reference:
            names = [args.workload] if args.workload else list(wl.WORKLOADS)
            return write_reference(parse_seeds(args.write_reference), names)
        if args.workload is None:
            parser.error("--workload is required")
        bench = Bench(wl.WORKLOADS[args.workload], args.seed)
        bench.help_proc()  # untimed warm-up: bytecode and page caches
        run = trace_run if args.trace else measure
        ops, values, notes, lines = run(bench, args.seconds)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        absent = [m["name"] for m in wanted if m["name"] not in values and m["name"] != "trace.absent"]
        values["trace.absent"] = len(absent)
        notes["trace.absent"] = "absent: " + (", ".join(absent) or "none")
    failed = sum(bool(op.problems) for op in ops)
    jobs = 1 if args.trace else wl.SWEEP_JOBS
    print(f"motionsnn benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"environment: {versions()}")
    print(f"config: {json.dumps(bench.cfg, sort_keys=True)}")
    print(
        f"loop: closed, one client, {len(ops)} operations"
        + (f", sweep at -j {jobs}" if bench.workload.command == "sweep" else "")
    )
    print(f"operations: attempted {len(ops)}, failed {failed}, failed_frac {failed / len(ops):.4g}")
    print(
        f"reference: seed {args.seed} checked" if bench.ref
        else "reference: none recorded for this seed; invariant checks only"
    )
    print(f"determinism: operations 0 and 1 compared byte for byte")
    for i, op in enumerate(ops):
        for problem in op.problems:
            print(f"FAILED operation {i}: {problem}")
    for line in lines:
        print(line)
    for m in wanted:
        shown = f"{values[m['name']]:.6g} {m['unit']}" if m["name"] in values else "absent"
        print(f"{m['name']:<36} {shown:<22} {notes.get(m['name'], '')}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
