"""``python -m qpolar``: the same command line as the ``qpolar`` script."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
