"""Run one macrosize CLI invocation in a fresh process and time its parts.

    python trace_child.py time|trace RECORD_PATH CLI_ARGS...

Times `import macrosize.cli` and `cli.main(CLI_ARGS)` separately and, in
`trace` mode, records spans around the package's functions while main runs.
The CLI's own output goes to stdout unchanged; the timings and spans are
written as JSON to RECORD_PATH. Exits with the CLI's exit code.
"""

import sys
import time


def main(mode: str, record_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    modules_before = len(sys.modules)
    import macrosize.cli as cli

    import_s = time.perf_counter() - t0
    modules_loaded = len(sys.modules) - modules_before

    import json
    import threading

    from tracer import Tracer

    tracer = Tracer().install() if mode == "trace" else None
    t1 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        main_s = time.perf_counter() - t1
        if tracer is not None:
            tracer.uninstall()
        sys.stdout.flush()
    with open(record_path, "w") as fh:
        json.dump({
            "import_s": import_s,
            "modules_loaded": modules_loaded,
            "main_s": main_s,
            "main_tid": threading.get_ident(),
            "spans": tracer.take() if tracer is not None else [],
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
