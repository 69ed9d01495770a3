"""One fermigap invocation in a fresh interpreter, as a user would run it.

    python3 perfbench/child.py RESULT MODE [CLI ARGS...]

MODE is ``run`` (time ``import fermigap.cli`` and ``cli.main``), ``trace``
(the same, with the functions in ``tracing.TRACED`` wrapped in spans) or
``import`` (stop after the import: a warm-up and set-up probe).  The CLI's
stdout and stderr pass through untouched; timings go to the JSON file
RESULT.  ``import_done`` is a ``time.monotonic()`` reading, which on Linux
is one clock across processes, so the parent subtracts its spawn time.
"""

import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """This process's own peak RSS.

    VmHWM belongs to the address space made at exec; ru_maxrss would also
    count the benchmark process the child was forked from.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    result_path, mode, cli_argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    import fermigap.cli as cli
    import_done = time.monotonic()
    result = {"import_done": import_done, "rc": 0}
    if mode != "import":
        tracer = None
        if mode == "trace":
            sys.path.insert(0, str(here))
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = cli.main(cli_argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        result["main_s"] = time.perf_counter() - t0
        result["rc"] = rc
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counters"] = tracer.counters
    sys.stdout.flush()
    result["peak_rss_kb"] = peak_rss_kb()
    Path(result_path).write_text(json.dumps(result))
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
