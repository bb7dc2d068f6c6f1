"""`python -m motionsnn` and the `motionsnn` script: `--help` and usage
errors (exit 2) are answered by the light parser, before `cli` imports
numpy; `cli.main` then parses the same arguments again and runs them."""
import sys

from .parser import build_parser


def main() -> int:
    build_parser().parse_args()
    from . import cli

    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
