"""One persistent thread pool for the independent chunks of large volumes.

`autodiff.warp` (forward pass and field VJP) and `patlak.parametric_maps`
split a volume into chunks, each of which writes only its own slice of the
output. On a grid of at least POOLED_MIN_VOXELS voxels their chunks are dealt
out to one thread per usable core. numpy releases the GIL inside each large
elementwise call, gather and BLAS call, so the chunks run side by side, and
each output is the same, bit for bit, as when they run one after another.

Work run on the pool builds no `Tensor` (so the tape sees one node per
primitive) and calls no public `moco4d` function: an outside tracer that
wraps those assumes that one span's children run on one thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

# one thread per core this process may run on; where the platform cannot say
# which cores those are (no sched_getaffinity), one per core of the machine
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
# smaller grids run inline: their chunks are too short for a second thread to
# pay, and OpenBLAS threads may still be spinning after a conv GEMM
POOLED_MIN_VOXELS = 1 << 17

_local = threading.local()


def _mark_worker():
    _local.worker = True


# threads start on the first submit, not at import
_POOL = ThreadPoolExecutor(max_workers=WORKERS, thread_name_prefix="moco4d-pool",
                           initializer=_mark_worker)


def run_chunks(work, chunks, scratch, pooled):
    """Call `work(chunk, buffers)` for every chunk.

    With `pooled`, more than one worker and a caller that is not itself a
    worker, the chunks are dealt out in turn to one pool task per worker (at
    most one per chunk), and the call returns once every task has finished.
    Otherwise they run here, in order. `scratch()` makes one thread's
    buffers; it is called here, in the caller's thread, once per task, so no
    worker allocates large temporaries (each thread's allocations would grow
    its own malloc arena).
    """
    chunks = list(chunks)
    tasks = min(WORKERS, len(chunks)) if pooled and not getattr(_local, "worker", False) else 1
    if tasks <= 1:
        _run(work, chunks, scratch())
        return
    futures = [_POOL.submit(_run, work, chunks[i::tasks], scratch()) for i in range(tasks)]
    wait(futures)
    for f in futures:
        f.result()


def _run(work, chunks, buffers):
    for chunk in chunks:
        work(chunk, buffers)
