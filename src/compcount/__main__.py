"""Entry point for ``python -m compcount``."""

from .cli import main

if __name__ == "__main__":
    main()
