"""Traced CLI child: ``python cli_child.py SUMMARY.json OP_ID ARGS...``.

Times ``import mannheim_lab.cli``, installs the tracer, runs
``mannheim_lab.cli.main(ARGS)``, removes the wrappers, and writes the trace
summary to SUMMARY.json and the span records next to it (``.npz``).  Exits
with the CLI's own exit code.  Needs ``src`` on PYTHONPATH.
"""

import sys
import time


def main() -> int:
    summary_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    import mannheim_lab.cli as cli

    import_s = time.perf_counter() - start

    import json

    import tracing

    tracer = tracing.Tracer()
    tracer.op_id = op_id
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary["import_s"] = import_s
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    tracer.dump(summary_path.removesuffix(".json") + ".npz")
    return code


if __name__ == "__main__":
    sys.exit(main())
