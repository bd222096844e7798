"""``python -m kummercover``: the command-line front end."""

from .cli import main

main()
