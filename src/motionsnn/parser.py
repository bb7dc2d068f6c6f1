"""The command line's parser. It imports argparse alone, so `--help` and a
usage error (exit 2) are answered before numpy is imported."""

import argparse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionsnn",
        description="Spiking-network motion detector: build, stimulate, simulate, score.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", "-c", help="JSON config file (default: built-ins)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry, dotted keys allowed (repeatable)",
        )
        return p

    p = command("topo", "export the wired network as JSON")
    p.add_argument("--out", "-o", help="output path (default: stdout)")
    p = command("events", "encode the stimulus as an event CSV")
    p.add_argument("--out", "-o", required=True, help="output CSV path")
    p = command("run", "simulate one experiment and score it")
    p.add_argument("--out-dir", "-d", required=True, help="directory for outputs")
    p = command("sweep", "score accuracy across stimulus frequencies")
    p.add_argument("--out", "-o", required=True, help="output CSV path")
    p.add_argument("--freqs", help="comma-separated frequencies in Hz")
    p.add_argument("--freq-min", type=float, default=0.01)
    p.add_argument("--freq-max", type=float, default=1.0)
    p.add_argument("--n-freqs", type=int, default=9)
    p.add_argument("--variants", default="n1,n5", help="comma list: n1,n5")
    p.add_argument("--jobs", "-j", type=int, default=1, help="parallel workers")
    p.add_argument("--resume", action="store_true", help="reuse rows already in --out")
    return parser
