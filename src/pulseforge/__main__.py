"""Command line entry point: python -m pulseforge <command> [options]."""

from .cli import main

if __name__ == "__main__":
    main()
