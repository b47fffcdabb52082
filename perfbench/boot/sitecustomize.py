"""Traced-run bootstrap: on ``PYTHONPATH`` only in the benchmark's traced run.

Python imports ``sitecustomize`` at start-up, so every process of the
traced run (runner, campaign CLI, server, router and fleet workers,
which inherit ``PYTHONPATH``) installs the layer wrappers before the
program imports anything.
"""

import os

if os.environ.get("PERFBENCH_SPANS_DIR"):
    import perfbench_trace

    perfbench_trace.install(os.environ["PERFBENCH_SPANS_DIR"])
