"""Peak memory of one call, traced by tracemalloc, for the memory-bound
tests."""

import tracemalloc


def traced_peak(fn, *args):
    """Call ``fn(*args)`` with tracemalloc on: its result and the peak of
    traced memory during the call, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
