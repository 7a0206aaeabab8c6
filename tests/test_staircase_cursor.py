"""Properties of the staircase cursor behind ``exact_an_sharp``.

The oracle is the search ``exact_an_sharp`` made before it kept a cursor:
gallop from r = 1, then bisect, on the exact counts.  Whatever order the
lookups come in, the cursor may only change where the search starts.
"""

import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from crossnum import count_cross, exact_an_sharp, spectra
from crossnum.combinatorics import _count_cross

CAP = 64
N_MAX = 10 ** 7

PROPERTY = settings(max_examples=60, deadline=None, database=None,
                    derandomize=True)


def _count(r, d):
    return count_cross(r, d) if r else 0


def _gallop_from_one(n, d, probes=None):
    def count(r):
        if probes is not None:
            probes.append(r)
        return count_cross(r, d)

    hi = 1
    while count(hi) < n:
        hi <<= 1
    lo = hi >> 1  # count at lo is < n (or lo == 0)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if count(mid) < n:
            lo = mid
        else:
            hi = mid
    return hi


_dims = st.sampled_from([1, 2, 3, 4, 6, 8])
_index = st.integers(1, N_MAX)
_length = st.integers(1, 300)

# each segment is a list of (n, d) lookups in the order they are made
_ascending = st.builds(lambda d, n, k: [(m, d) for m in range(n, n + k)],
                       _dims, _index, _length)
_descending = st.builds(lambda d, n, k: [(m, d) for m in range(n, max(n - k, 0), -1)],
                        _dims, _index, _length)
_jumps = st.lists(st.tuples(_index, _dims), min_size=1, max_size=20)
_interleaved = st.builds(
    lambda d, e, n, k: [(m, (d, e)[m % 2]) for m in range(n, n + k)],
    _dims, _dims, _index, _length)
_many_dims = st.builds(lambda n, extra: [(n, d) for d in range(1, CAP + extra + 1)],
                       st.integers(1, 10 ** 5), st.integers(1, 40))
_lookups = st.lists(st.one_of(_ascending, _descending, _jumps, _interleaved,
                              _many_dims), min_size=1, max_size=6).map(
    lambda segments: [lookup for segment in segments for lookup in segment])


def _radii(lookups, s=1.0):
    return [exact_an_sharp(n, d, s).r for n, d in lookups]


@PROPERTY
@given(_lookups)
@example([(n, 3) for n in range(5000, 4000, -1)] + [(10 ** 7, 3), (2, 3)])
@example([(n, d) for d in (2, 8, 2) for n in range(10 ** 6, 10 ** 6 + 50)])
def test_cursor_radius_matches_gallop_from_one(lookups):
    for (n, d), r in zip(lookups, _radii(lookups)):
        assert r == _gallop_from_one(n, d), (n, d)
        assert _count(r - 1, d) < n <= _count(r, d), (n, d)
        assert len(spectra._cursor) <= CAP


@PROPERTY
@given(_lookups)
def test_cursor_keeps_only_true_steps(lookups):
    _radii(lookups)
    assert len(spectra._cursor) <= CAP
    for d, (r, below, top) in spectra._cursor.items():
        assert (below, top) == (_count(r - 1, d), _count(r, d))


@settings(PROPERTY, max_examples=25)
@given(_lookups, st.floats(0.1, 8.0))
def test_cursor_cold_and_warm_agree(forget, lookups, s):
    forget()
    cold = [exact_an_sharp(n, d, s) for n, d in lookups]
    warm = [exact_an_sharp(n, d, s) for n, d in lookups]
    backwards = [exact_an_sharp(n, d, s) for n, d in reversed(lookups)]
    assert cold == warm == backwards[::-1]


def test_cursor_cap_is_fixed(forget):
    assert spectra._CURSOR_CAP == CAP
    forget()
    for d in range(1, 3 * CAP + 1):
        exact_an_sharp(10, d, 1.0)
        assert 1 <= len(spectra._cursor) <= CAP
    assert exact_an_sharp(10, 1, 1.0).r == _gallop_from_one(10, 1)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_lookup_probes_near_and_far_from_the_step(d, monkeypatch):
    # inside the last step no count is asked for; one index past it, one
    calls = []

    def counting(r, dim):
        calls.append(r)
        return _count_cross(r, dim)

    r = exact_an_sharp(10 ** 4, d, 1.0).r
    monkeypatch.setattr(spectra, "_count_cross", counting)
    top = count_cross(r, d)
    assert exact_an_sharp(count_cross(r - 1, d) + 1, d, 1.0).r == r
    assert exact_an_sharp(top, d, 1.0).r == r
    assert calls == []
    assert exact_an_sharp(top + 1, d, 1.0).r == r + 1
    assert calls == [r + 1]
    # below the step, or far above it, the search is the one from r = 1,
    # whose powers of two the memo shares between far-apart lookups
    for n in (top, 10 ** 7, 17, 10 ** 5):
        calls.clear()
        expected = []
        assert exact_an_sharp(n, d, 1.0).r == _gallop_from_one(n, d, expected)
        assert calls == expected, n


def test_cursor_answers_stay_true_under_thread_switching(forget):
    # more threads than cores, switching often, storing steps for fresh
    # dimensions so the cap is hit and cleared while the others store
    forget()
    errors = []

    def walk(first):
        try:
            for d in range(first, 4000, 8):
                for n in (2, 2 * d + 2):
                    if exact_an_sharp(n, d, 1.0).r != _gallop_from_one(n, d):
                        errors.append((n, d))
                if len(spectra._cursor) > CAP:
                    errors.append(len(spectra._cursor))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(first,))
                   for first in range(1, 9)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for d, (r, below, top) in spectra._cursor.items():
        assert (below, top) == (_count(r - 1, d), _count(r, d))


def test_cap_holds_when_two_threads_store_at_once(monkeypatch, forget):
    # the cursor is one entry short of its cap and two threads store a new
    # dimension each.  Reading the size waits for the other thread to read
    # it too: unguarded, both would see room, skip the clear and store, one
    # entry past the cap.  The lock keeps the other thread out, so the wait
    # times out, the first store fills the cap and the second clears it first.
    meeting = threading.Barrier(2)

    class Meeting(dict):
        def __len__(self):
            size = super().__len__()
            try:
                meeting.wait(timeout=0.5)
            except threading.BrokenBarrierError:
                pass
            return size

    forget()
    cursor = Meeting((d, (1, 0, 1)) for d in range(1, CAP))
    monkeypatch.setattr(spectra, "_cursor", cursor)
    radii = {}

    def store(d):
        radii[d] = exact_an_sharp(2, d, 1.0).r

    threads = [threading.Thread(target=store, args=(d,)) for d in (CAP + 1, CAP + 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert radii == {CAP + 1: 2, CAP + 2: 2}
    assert dict.__len__(cursor) == 1
