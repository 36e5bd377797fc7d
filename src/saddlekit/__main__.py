"""``python -m saddlekit``: the command-line interface of ``saddlekit.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
