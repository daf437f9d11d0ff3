"""One ``relaycap`` process: ``cli_child.py SPANS_FILE ENTRY ARGS...``.

Runs ``relaycap.cli.main`` on ARGS, as the installed console script does.
With SPANS_FILE ``-`` it does nothing else. Otherwise it writes to SPANS_FILE
the time the interpreter reached this script and spans for
``import relaycap.cli``, for the subcommand (named after the rotation ENTRY)
and for the CLI's calls into the other layers.
"""

import time

ENTER = time.monotonic()

import sys  # noqa: E402


def main() -> int:
    spans_path, entry, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if spans_path == "-":
        from relaycap.cli import main as cli_main

        return cli_main(argv)

    # relaycap.cli is imported before anything else this script needs, so
    # the span covers every module the program's own import chain loads
    start = time.monotonic()
    import relaycap.cli as cli

    end = time.monotonic()
    import json

    from tracing import Tracer, patch_module

    tracer = Tracer()
    tracer.add("cli.import", start, end)
    patch_module(cli, tracer)
    sid = tracer.open(f"cli.{entry}")
    try:
        rc = cli.main(argv)
    finally:
        tracer.close(sid)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"enter": ENTER, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
