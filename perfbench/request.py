"""One charcond CLI request in a fresh interpreter, as a user would run it.

    python3 perfbench/request.py [--trace-file PATH | --probe-file PATH]
        <charcond arguments>

Without an option this is `charcond <arguments>`: the same imports, the
same stdout and exit code.  With --trace-file, the layer tracer is installed
after the import, and when the request ends its spans (the import included)
and counts are written to PATH as JSON, with the moments the script started
and `main` returned.  With --probe-file, the machine-speed probe of speed.py
runs in this process just before `main` and again once `main` has returned
and stdout is flushed, so that the two bracket the request's work; the two
marks are written to PATH.
"""

from time import perf_counter

T_START = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))


def main() -> int:
    argv = sys.argv[1:]
    if argv[:1] == ["--probe-file"]:
        path, argv = argv[1], argv[2:]
        from charcond.cli import main as cli_main
        from speed import SpeedClock
        clock = SpeedClock()
        clock.probe()
        code = cli_main(argv)
        sys.stdout.flush()
        clock.probe()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"marks": clock.marks}, fh)
        return code
    if argv[:1] != ["--trace-file"]:
        from charcond.cli import main as cli_main
        return cli_main(argv)
    path, argv = argv[1], argv[2:]
    from tracing import IMPORT_SPAN, Tracer
    import charcond.cli
    tracer = Tracer()
    tracer.record(IMPORT_SPAN, T_START, perf_counter())
    tracer.install()
    code = charcond.cli.main(argv)
    sys.stdout.flush()
    t_end = perf_counter()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"trace": tracer.export(), "t_start": T_START,
                   "t_end": t_end}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
