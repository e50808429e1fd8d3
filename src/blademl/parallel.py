"""One forked worker for a stage's independent items.

Each stage's work splits into items that depend on nothing but their
input: the images of `gen` and `features`, the fold halves of `evaluate`
and the distance rows of `cluster`.  `split_map` hands every other item to
one forked child, so a stage uses two CPUs, while this process keeps the
item order and writes every file.  The results are the ones a plain `map`
returns, so the bytes written do not depend on the CPU count.  The worker
is forked, not spawned, because a spawned one would first spend about as
long importing numpy as a stage spends on its items.
"""

import contextlib
import gc
import os
import pickle
import signal
import struct
import warnings

_SIZE = struct.Struct("<Q")


def split_map(fn, items):
    """Yield fn(item) for each item, in order.

    With two or more CPUs in this process's affinity and two or more
    items, one forked child computes items 1, 3, 5, ... and pipes each
    pickled result back as soon as it is done, while this process
    computes the others.  If the child raises or dies, it delivers
    nothing more and this process computes every undelivered item itself,
    so an error is raised here, exactly as `map` raises it.  The child
    only computes, leaves through `os._exit` (no cleanup handler or
    `finally` of the caller runs in it), and is killed and reaped when
    the generator finishes, fails or is closed.
    """
    items = list(items)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if len(items) < 2 or len(cpus) < 2:
        yield from map(fn, items)
        return
    here = _running_cpu()
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork with threads running, as numpy's
            # OpenBLAS has when numpy loaded before blademl; OpenBLAS stops
            # them in its own fork handler.
            warnings.filterwarnings(
                "ignore", "This process .* is multi-threaded",
                DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        yield from map(fn, items)
        return
    if pid == 0:
        try:
            # Objects from before the fork are never collected here, so no
            # finalizer of the parent's runs in the child.
            gc.freeze()
            # Some kernels leave a forked child on its parent's CPU while
            # another one idles, which takes away all of the split's gain.
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, cpus - {here} or cpus)
            os.close(read_fd)
            # Python ignores SIGPIPE: writing to a closed pipe raises.
            with open(write_fd, "wb") as pipe:
                for item in items[1::2]:
                    data = pickle.dumps(fn(item), pickle.HIGHEST_PROTOCOL)
                    pipe.write(_SIZE.pack(len(data)) + data)
                    pipe.flush()
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            for i, item in enumerate(items):
                frame = _read_frame(pipe) if i % 2 else None
                yield fn(item) if frame is None else pickle.loads(frame)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _read_frame(pipe) -> bytes | None:
    """The child's next pickled result, or None once the child is gone."""
    head = pipe.read(_SIZE.size)
    if len(head) == _SIZE.size:
        data = pipe.read(_SIZE.unpack(head)[0])
        if len(data) == _SIZE.unpack(head)[0]:
            return data
    return None


def _running_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    try:
        with open("/proc/self/stat", "rb") as handle:
            return int(handle.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None
