"""``python -m fbsde``: the command-line front end, as the ``fbsde`` script."""

from .cli import main

if __name__ == "__main__":
    main()
