"""One benchmark pass in a fresh interpreter.

Usage: ``child.py SPAWN_T TRACE JOBS_JSON`` where ``SPAWN_T`` is the parent's
``time.monotonic()`` just before it started this process, ``TRACE`` is 0 or
1 and ``JOBS_JSON`` is a JSON list of chainflow argument lists.  Each job
runs through ``chainflow.cli.main`` in this process, one after another.

Events go to stdout, one JSON object per line, so that the parent can
enforce a time limit per job:

* ``{"event": "ready", "t": T, "n": N, "setup_s": S, "setup_n": SN}`` once
  ``import chainflow`` has finished;
* ``{"event": "job", "code": C, "t": T, "n": N}`` after each job;
* ``{"event": "end", "t": T, "n": N, "probes": P, "trace": {...}}`` after
  the last job.

``T`` is ``time.monotonic()``, which is one clock for every process on the
host.  ``N`` reads a ``hostclock.HostClock`` started before the import: host
time scaled to the unimpeded speed of the host.  ``S`` is the time from
``SPAWN_T`` to ready; ``SN`` is the same with the part after this script
started read on the scaled clock.  The artifacts go where each job's
``--out`` says.
"""

import json
import os
import sys
import time

import hostclock

started_t = time.monotonic()
clock = hostclock.HostClock()
clock.start()

# Events keep the original stdout; anything the program prints goes to
# stderr so that it cannot corrupt them.
events = os.fdopen(os.dup(1), "w")
os.dup2(2, 1)

spawn_t = float(sys.argv[1])
traced = sys.argv[2] == "1"
jobs = json.loads(sys.argv[3])

import chainflow  # noqa: E402
import chainflow.cli  # noqa: E402

ready_t = time.monotonic()
ready_n = clock.now()


def emit(event, **fields):
    events.write(json.dumps(dict(event=event, **fields)) + "\n")
    events.flush()


tracer = None
if traced:
    import tracer as tracer_mod

    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)

emit("ready", t=ready_t, n=ready_n, setup_s=ready_t - spawn_t,
     setup_n=started_t - spawn_t + ready_n)
for argv in jobs:
    try:
        code = chainflow.cli.main(argv)
    except SystemExit as e:  # argparse rejects the arguments
        code = e.code if isinstance(e.code, int) else 2
    emit("job", code=code, t=time.monotonic(), n=clock.now())
end_t, end_n = time.monotonic(), clock.now()
clock.stop()
emit("end", t=end_t, n=end_n, probes=clock.probes,
     trace=tracer.report() if tracer is not None else None)
