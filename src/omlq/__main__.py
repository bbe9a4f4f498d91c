"""`python -m omlq` runs the command-line interface."""

from .cli import run

if __name__ == "__main__":
    run()
