"""Set-up probe: import the CLI module and resolve one input, then exit.

    python perfbench/setup_probe.py catalog SPEC
    python perfbench/setup_probe.py file PATH

The caller times the whole process, so interpreter start-up, the import of
omlq.cli and input resolution are all counted; no law runs.
"""

import sys

import omlq.cli as cli

kind, arg = sys.argv[1], sys.argv[2]
if kind == "catalog":
    cli.catalog(arg)
elif kind == "file":
    cli.parse_quantale(cli.load_json(arg))
else:
    sys.exit(f"unknown input kind {kind!r}")
