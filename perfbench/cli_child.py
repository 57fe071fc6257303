"""Run one fusionexp command in this fresh interpreter and report on it.

Reads a JSON spec on stdin: argv, the source and benchmark directories,
whether to trace, and an optional injected fault.  Times from before
``import fusionexp.cli`` until ``main`` returns (installing the tracer is
left out), captures the command's stdout, and writes one JSON envelope to
stdout: exit code, output, op and import seconds, the mean of the host-speed
probe run just before and just after the timed part, peak RSS and, when
traced, the tracer's aggregates.
"""

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

spec = json.loads(sys.stdin.read())
sys.path[:0] = [spec["src"], spec["bench"]]
from run import probe  # noqa: E402

probe_before = probe()
t0 = perf_counter()
import fusionexp.cli as cli  # noqa: E402  (the import is part of the timed op)

import_s = perf_counter() - t0
tracer = None
if spec["trace"]:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
if spec["fault"]:
    from faults import inject

    inject(**spec["fault"])
out = io.StringIO()
t1 = perf_counter()
with contextlib.redirect_stdout(out):
    rc = cli.main(spec["argv"])
main_s = perf_counter() - t1
probe_after = probe()

envelope = {
    "rc": rc,
    "stdout": out.getvalue(),
    "op_s": import_s + main_s,
    "import_s": import_s,
    "probe_s": (probe_before + probe_after) / 2,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}
if tracer is not None:
    envelope["trace"] = tracer.snapshot()
sys.stdout.write(json.dumps(envelope))
