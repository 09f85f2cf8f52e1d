"""``python -m busemetric``: the command-line front end without installing the package."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
