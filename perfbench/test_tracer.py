"""Checks of the span tracer; run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import sys
import threading
import time

from tracer import Tracer

THREADS = 6  # more than the machine's cores
CALLS = 200


def test_self_time_and_counts_per_thread():
    tracer = Tracer(keep=("outer",))

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    inner = tracer.wrap("inner", lambda: busy(2e-4))

    def outer_body():
        busy(1e-4)
        inner()
        tracer.count("outer.done")

    outer = tracer.wrap("outer", outer_body)

    def work():
        for _ in range(CALLS):
            outer()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)

    snap = tracer.snapshot()
    spans = {(s["name"], s["parent"]): s for s in snap["spans"]}
    outer_span = spans[("outer", None)]
    inner_span = spans[("inner", "outer")]
    assert outer_span["calls"] == inner_span["calls"] == THREADS * CALLS
    assert snap["counts"]["outer.done"] == THREADS * CALLS
    assert len(snap["kept"]) == THREADS * CALLS
    # Per-thread stacks: the outer span's child time is exactly the inner
    # spans' time, so self times are nonnegative and add up.
    assert outer_span["self_s"] >= 0.0 and inner_span["self_s"] >= 0.0
    assert abs(outer_span["self_s"] + inner_span["total_s"]
               - outer_span["total_s"]) < 1e-9 * THREADS * CALLS


def test_reset_forgets_records():
    tracer = Tracer()
    tracer.wrap("f", lambda: None)()
    tracer.observe_max("m", 3.0)
    tracer.reset()
    snap = tracer.snapshot()
    assert snap["spans"] == [] and snap["maxima"] == {}
