"""Arithmetic the benchmark reports with: percentiles and span self time."""

from __future__ import annotations

from collections import defaultdict, namedtuple

# One call into a traced function. ``start`` and ``end`` bound the call
# itself; ``outer_start`` and ``outer_end`` bound the wrapper around it, with
# its bookkeeping and meter. ``parent`` is the id of the enclosing span on the
# same thread (None at the top of a thread), ``op`` the index of the benchmark
# op it ran in, ``amounts`` the counters metered for the call.
Span = namedtuple("Span", "id name start end outer_start outer_end parent op thread amounts")

TAIL_MIN_BEYOND = 10


def tail(values):
    """(value, percentile) at the highest percentile with ten samples beyond it.

    That is the 11th-slowest sample. It lies above the median only from 22
    samples on; with fewer there is no tail to report, and this returns None.
    """
    xs = sorted(values)
    rank = len(xs) - TAIL_MIN_BEYOND  # 1-based rank of the 11th-slowest sample
    if 2 * rank <= len(xs) + 1:  # at or below the median's rank
        return None
    return xs[rank - 1], 100.0 * rank / len(xs)


def covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it that its child spans cover.

    A child covers its whole wrapper, so the tracing cost of a child is
    charged to neither the child nor its parent.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {
        span.id: (span.end - span.start)
        - covered(
            (max(c.outer_start, span.start), min(c.outer_end, span.end))
            for c in children[span.id]
            if c.outer_end > span.start and c.outer_start < span.end
        )
        for span in spans
    }


def selftest() -> None:
    """Check the self-time and tail arithmetic on hand-worked cases."""
    spans = [
        Span(0, "a", 0, 100, 0, 100, None, 0, 1, None),
        Span(1, "b", 10, 30, 10, 30, 0, 0, 1, None),
        Span(2, "c", 20, 50, 20, 50, 0, 0, 1, None),  # overlaps b: [10, 50) is covered once
        Span(3, "d", 60, 70, 58, 73, 0, 0, 1, None),  # its wrapper covers [58, 73) of a
        Span(4, "e", 25, 28, 24, 29, 1, 0, 1, None),
        Span(5, "f", 90, 120, 90, 120, 0, 0, 1, None),  # runs past its parent: only [90, 100) counts
        Span(6, "g", 0, 40, 0, 40, None, 0, 2, None),  # another thread's top-level span
    ]
    expected = {0: 100 - 40 - 15 - 10, 1: 20 - 5, 2: 30, 3: 10, 4: 3, 5: 30, 6: 40}
    got = self_times(spans)
    if got != expected:
        raise AssertionError(f"self time: got {got}, expected {expected}")
    cases = [
        (range(1, 101), (90, 90.0)),
        (range(1, 31), (20, 200.0 / 3.0)),
        (range(1, 23), (12, 1200.0 / 22.0)),
        (range(1, 22), None),  # the 11th-slowest of 21 is the median
        ([5.0, 1.0, 3.0], None),
    ]
    for values, want in cases:
        if tail(list(values)) != want:
            raise AssertionError(f"tail of {list(values)}: got {tail(list(values))}, expected {want}")


if __name__ == "__main__":
    selftest()
    print("stats self-test passed")
