"""Per-frame work on two cores, in fixed blocks of frames.

The per-frame kernels of head normalization, skinning and the IK pose
epilogue run in numpy and LAPACK loops that release the GIL, so a second
thread can run them beside the first. Frames are independent in each, and
every block starts at a multiple of BLOCK_FRAMES (itself a multiple of 64,
so numpy's vector loops split a block's rows as they split the whole
batch): the output is bit-identical to one whole-batch call, on any
number of cores. Blocks rather than halves keep each thread's temporaries
near a megabyte, since memory a thread frees stays in its allocator arena.
"""

from __future__ import annotations

import threading
from typing import Callable

BLOCK_FRAMES = 1024


def for_blocks(n_frames: int, work: Callable[[slice], None]) -> None:
    """Call `work(rows)` for each block `rows` (a slice) of range(n_frames).

    A range of one block runs on the calling thread alone. Otherwise one
    worker thread helps and is joined before this returns. If blocks
    raise, every block still runs, and the exception of the earliest
    raising block is re-raised, as the whole-batch call would have raised
    it first.
    """
    if n_frames <= BLOCK_FRAMES:
        if n_frames:
            work(slice(0, n_frames))
        return

    starts = iter(range(0, n_frames, BLOCK_FRAMES))
    lock = threading.Lock()
    errors: dict[int, Exception] = {}

    def take_blocks() -> None:
        while True:
            with lock:
                start = next(starts, None)
            if start is None:
                return
            try:
                work(slice(start, min(start + BLOCK_FRAMES, n_frames)))
            except Exception as exc:  # re-raised on the calling thread
                errors[start] = exc

    worker = threading.Thread(target=take_blocks, name="emarig-blocks")
    worker.start()
    try:
        take_blocks()
    finally:
        worker.join()
    if errors:
        raise errors[min(errors)]
