"""``python -m mrnet``: the ``mrnet`` command line."""

from .cli import main

main()
