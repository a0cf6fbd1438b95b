"""`python -m fedcef`: the same command line as the `fedcef` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
