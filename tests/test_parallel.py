"""split_map: the forked worker gives the results and errors of `map`."""

import gc
import os
import signal
import time
import warnings

import pytest

from blademl.parallel import split_map

PARENT = os.getpid()


@pytest.fixture
def two_cpus(monkeypatch):
    """An affinity of two CPUs, so split_map forks on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square(x):
    return x, x * x


def _collect(x):
    gc.collect()
    return x


def _pid(x):
    return x, os.getpid()


def _failing(bad):
    def fn(x):
        if x == bad:
            try:
                raise KeyError(x)
            except KeyError as exc:
                raise ValueError(f"item {x} failed") from exc
        return x
    return fn


@pytest.mark.parametrize("count", [0, 1, 2, 7, 40])
def test_results_in_order(two_cpus, count):
    assert list(split_map(_square, range(count))) == \
        list(map(_square, range(count)))
    _assert_no_child()


def test_child_computes_every_other_item(two_cpus):
    results = list(split_map(_pid, range(9)))
    assert [x for x, _ in results] == list(range(9))
    assert {pid for x, pid in results if x % 2 == 0} == {PARENT}
    odd = {pid for x, pid in results if x % 2}
    assert len(odd) == 1 and PARENT not in odd
    _assert_no_child()


@pytest.mark.parametrize("bad", [4, 3], ids=["parent-share", "child-share"])
def test_error_is_that_of_map(two_cpus, bad):
    fn = _failing(bad)
    with pytest.raises(ValueError) as plain:
        list(map(fn, range(9)))
    with pytest.raises(ValueError) as split:
        list(split_map(fn, range(9)))
    assert type(split.value) is type(plain.value)
    assert str(split.value) == str(plain.value) == f"item {bad} failed"
    assert type(split.value.__cause__) is KeyError
    assert str(split.value.__cause__) == str(plain.value.__cause__)
    _assert_no_child()


def test_killed_child_leaves_every_result(two_cpus):
    def fn(x):
        if x == 5 and os.getpid() != PARENT:
            os.kill(os.getpid(), signal.SIGKILL)
        return _square(x)

    assert list(split_map(fn, range(12))) == list(map(_square, range(12)))
    _assert_no_child()


class _ExitOnPickle:
    """Ends the process that pickles it; equal to any other instance."""

    def __reduce__(self):
        os._exit(0)

    def __eq__(self, other):
        return isinstance(other, _ExitOnPickle)


def _dies_mid_result(x):
    # The bytes go down the pipe before the child reaches the object, so
    # the stream ends inside this result, after the parent has read them.
    return [bytes(300_000), _ExitOnPickle()] if x == 5 else _square(x)


def test_child_dying_inside_a_result_leaves_every_result(two_cpus):
    assert list(split_map(_dies_mid_result, range(8))) == \
        list(map(_dies_mid_result, range(8)))
    _assert_no_child()


def test_child_killed_inside_a_write_leaves_every_result(two_cpus, tmp_path):
    # The child's result fills the pipe while this process is still on item
    # 0, which then kills the child inside its write: the stream ends in
    # the middle of a pickled bytes payload.
    marker = tmp_path / "child"

    def fn(x):
        if x == 1:
            (tmp_path / "pid").write_text(str(os.getpid()))
            os.replace(tmp_path / "pid", marker)
            return bytes(1_000_000)
        if x == 0:
            for _ in range(1000):
                if marker.exists():
                    time.sleep(0.2)
                    os.kill(int(marker.read_text()), signal.SIGKILL)
                    break
                time.sleep(0.01)
        return x

    assert list(split_map(fn, range(4))) == [0, bytes(1_000_000), 2, 3]
    _assert_no_child()


def test_closing_early_leaves_no_child(two_cpus):
    results = split_map(_square, range(100))
    assert next(results) == (0, 0)
    assert next(results) == (1, 1)
    results.close()
    _assert_no_child()


def test_closing_kills_a_busy_child(two_cpus):
    def fn(x):
        if x == 3 and os.getpid() != PARENT:
            time.sleep(60)
        return x

    results = split_map(fn, range(9))
    assert [next(results), next(results), next(results)] == [0, 1, 2]
    start = time.monotonic()
    results.close()
    assert time.monotonic() - start < 10
    _assert_no_child()


def test_failing_consumer_leaves_no_child(two_cpus):
    with pytest.raises(OSError, match="write failed"):
        for x, _ in split_map(_square, range(100)):
            if x == 6:
                raise OSError("write failed")
    _assert_no_child()


def test_parent_finalizers_do_not_run_in_the_child(two_cpus, tmp_path):
    # Garbage from before the fork, say a temporary directory's cleanup,
    # is the parent's to finalize.
    marker = tmp_path / "finalized"

    class Owner:
        def __del__(self):
            with open(marker, "a") as handle:
                handle.write(f"{os.getpid()}\n")

    gc.disable()
    try:
        owner = Owner()
        owner.cycle = owner
        del owner
        assert list(split_map(_collect, range(4))) == [0, 1, 2, 3]
    finally:
        gc.enable()
    assert marker.read_text() == f"{PARENT}\n"
    _assert_no_child()


def test_one_cpu_never_forks(monkeypatch):
    def fork():
        raise AssertionError("forked with one CPU")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", fork)
    assert list(split_map(_square, range(7))) == list(map(_square, range(7)))


def test_failed_fork_runs_in_process(two_cpus, monkeypatch):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", fork)
    fds = os.listdir("/proc/self/fd")
    assert list(split_map(_pid, range(5))) == [(x, PARENT) for x in range(5)]
    assert os.listdir("/proc/self/fd") == fds


def test_fork_warning_with_threads_is_not_raised(two_cpus, monkeypatch):
    # Python 3.12+ warns like this when a process with threads forks.
    fork = os.fork

    def warning_fork():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, "
                      "use of fork() may lead to deadlocks in the child.",
                      DeprecationWarning, stacklevel=2)
        return fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(split_map(_square, range(5))) == \
            list(map(_square, range(5)))
    _assert_no_child()
