"""Benchmark worker: imports heckekit from a source tree and runs CLI jobs.

Usage: python3 worker.py SRC_DIR TRACE

The worker prints one JSON line when heckekit is imported (and, with TRACE
1, instrumented), and a second one with a calibration (calibration.py) run
right after that.  It then starts a calibration sampler thread, reads one
JSON argv list per line from stdin, runs it through ``heckekit.cli.main``
with stdout and stderr captured, and answers with one JSON line: exit code,
stdout sha256 and size, the seconds spent in ``cli.main``, and the median
calibration chunk time over the job.  At end of input it prints its peak
RSS and, when traced, the tracer's report, then exits.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

from calibration import Sampler, calibrate


def main(src: str, trace: bool) -> None:
    channel = sys.stdout
    sys.path.insert(0, src)
    import heckekit
    from heckekit import cli

    if not os.path.abspath(heckekit.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"heckekit imported from {heckekit.__file__}, not from {src}")
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.install(tracing.Tracer())

    def send(obj) -> None:
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    send({"ready": True})
    send({"calibration_s": calibrate()})
    sampler = Sampler()
    sampler.start()
    for line in sys.stdin:
        argv = json.loads(line)
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crashing job is a failed job, not a crashed run
                code, error = None, repr(exc)
        seconds = time.perf_counter() - start
        data = out.getvalue().encode()
        send({"exit": code, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
              "seconds": seconds, "calibration_s": sampler.median_since(start), "error": error})
    sampler.stop()
    final = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        final["trace"] = tracer.report()
        final["spans"] = tracer.spans
    send(final)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2] == "1")
