"""Peak memory of one call, as tracemalloc sees it."""

import tracemalloc


def traced_peak(call):
    """(result, tracemalloc peak in bytes above the memory traced at entry)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
