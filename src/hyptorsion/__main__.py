"""``python -m hyptorsion``: the command-line frontend (see ``hyptorsion.cli``)."""

from .cli import main

if __name__ == "__main__":
    main()
