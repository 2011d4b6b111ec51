"""Cold start of the package in a fresh process.

Run by ``run.py`` as a child process (with ``PYTHONPATH`` set to the checkout's
``src`` and the BLAS thread count pinned); prints one JSON line with the
seconds spent importing ``sortblock``, in ``init_network`` and in
``make_schedule``.
"""

import json
import time

t0 = time.perf_counter()
import sortblock as sb  # noqa: E402  (the import is what is being timed)

t1 = time.perf_counter()
net = sb.init_network(sb.DitConfig())
t2 = time.perf_counter()
sched = sb.make_schedule(1000)
t3 = time.perf_counter()
print(json.dumps({
    "module": sb.__file__,
    "import_s": t1 - t0,
    "init_network_s": t2 - t1,
    "make_schedule_s": t3 - t2,
    "setup_s": t3 - t0,
}))
