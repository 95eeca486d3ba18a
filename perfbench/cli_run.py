"""Run the orbiheight command line in this process, between two pulses.

    python perfbench/cli_run.py <subcommand> [args...]

does what ``python -m orbiheight.cli <subcommand> [args...]`` does (runpy
runs the module as ``__main__``), and writes ``PULSE <start> <end>`` as the
last line of stderr: the reference kernel's time when the process starts
and when the command has finished.
"""

import runpy
import sys

import pulse

start = pulse.seconds()
sys.argv = ["orbiheight", *sys.argv[1:]]
try:
    runpy.run_module("orbiheight.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
sys.stderr.write(f"\nPULSE {start!r} {pulse.seconds()!r}\n")
sys.exit(code)
