"""``python -m cartanconn``: the scenario runner :func:`cartanconn.cli.main`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
