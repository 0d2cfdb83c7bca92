"""One traced CLI op in a fresh interpreter.

Usage: python perfbench/cli_op.py OP_ID SPANS_JSON -- <qsuperpose CLI args>

Times ``import qsuperpose.cli``, installs the span wrappers, then calls
``qsuperpose.cli.main(argv)`` exactly as ``python -m qsuperpose.cli`` would,
and writes the spans to SPANS_JSON when the op ends, however it ends.
"""

import sys
import time

t0 = time.perf_counter()
modules_before = len(sys.modules)

import qsuperpose.cli  # noqa: E402 - the import is what is being timed

t1 = time.perf_counter()
import_stats = {
    "modules": len(sys.modules) - modules_before,
    "scipy_linalg": int("scipy.linalg" in sys.modules),
}

import spans  # noqa: E402 - loaded after the timed import

op_id, spans_path, sep, *argv = sys.argv[1:]
tracer = spans.Tracer()
tracer.op = int(op_id)
tracer.add("import", t0, t1, import_stats)
tracer.install()
code = 1
try:
    code = qsuperpose.cli.main(argv)
except SystemExit as exc:  # argparse rejects bad arguments this way
    code = exc.code
finally:
    sys.stdout.flush()
    tracer.dump(spans_path)
sys.exit(code)
