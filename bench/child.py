r"""
One benchmark child process: a fresh interpreter that runs the curvelat CLI.

Usage, from the root of a checkout:

    python3 bench/child.py [--trace OUT.json] -- <curvelat arguments>
    python3 bench/child.py --setup CURVE.json [CURVE.json ...]

``--trace`` rebinds the functions listed in ``bench/tracer.py`` before
``curvelat.cli.main`` runs and writes the spans to OUT.json at exit.
``--setup`` only imports ``curvelat.cli`` and loads the curve files; the
parent times it as the workload's set-up cost.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv):
    if argv[:1] == ["--setup"]:
        from curvelat.cli import load_curve

        for path in argv[1:]:
            load_curve(path)
        return 0
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: child.py [--trace OUT] -- ARGS | --setup FILES",
              file=sys.stderr)
        return 2
    argv = argv[1:]
    if trace_path is None:
        from curvelat.cli import main as cli_main

        return cli_main(argv)

    sys.path.insert(0, HERE)
    import tracer

    recorder = tracer.Tracer()
    tracer.install(recorder)
    from curvelat import cli

    stdout = sys.stdout
    sys.stdout = tracer.StageClock(stdout, recorder.marks)
    try:
        return cli.main(argv)
    finally:
        sys.stdout = stdout
        stdout.flush()
        recorder.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
