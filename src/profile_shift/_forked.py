"""The one fork policy: work shared between this process and forked children.

A time-dependent march assembling its time nodes ahead (``propagator``) and
``solve`` writing its two trajectory CSVs (``cli``) both go through ``run``.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time

# How long ``run`` waits for its children, counted from the start of its
# own work: CHILD_PATIENCE times what its own work took, and at least
# CHILD_MIN_WAIT_S; the callers split their work into shares of about equal
# cost.  A child that has not sent its result and exited by then
# (deadlocked after the fork, say) is killed, and its work is done here.
# On a shared 2-core Linux machine, 812 children of the tests' forked
# assembly property (a few time nodes each, under a loaded pytest process)
# sent their share after 9 ms in the median and 0.18 s at most.
CHILD_PATIENCE = 10.0
CHILD_MIN_WAIT_S = 1.0


def processes() -> int:
    """How many processes ``run`` may share work between: 1 where forking is not safe.

    Forking is safe only on Linux, outside a daemonic process (which may
    not have children) and with no thread but the calling one: a lock that
    another thread holds at the fork, native BLAS and OpenMP threads
    included, stays held in the child.  macOS has fork, but forking without
    exec is unsafe there.
    """
    try:
        safe = (
            sys.platform.startswith("linux")
            and not multiprocessing.current_process().daemon
            and len(os.listdir("/proc/self/task")) == 1
        )
    except OSError:
        safe = False
    return _cores() if safe else 1


def _cores() -> int:
    """The number of cores this process may run on (Linux)."""
    return len(os.sched_getaffinity(0))


def run(own, others: list, take=None) -> None:
    """Call ``own()`` here while forked children call ``others``, and ``take`` their messages.

    Each of ``others`` returns the list of picklable messages it makes, or
    None.  The first ``processes() - 1`` of them run in children, each of
    which sends its messages through a pipe; ``take(message)`` is called
    here on each as it arrives, so that no more than one is held at a time.
    The rest run here.  Every child is waited for until its deadline, also
    when ``own`` raised, and killed if it is still alive then.  The work of
    a child that did not start, failed, died or ran late is done here, and
    ``take`` gets each of its messages, also any the child had sent, so
    this does or raises what calling ``own`` and then each of ``others``
    here would.  A child's side effects do not reach this process.
    """
    spare = processes() - 1
    children = [_start(work) if i < spare else None for i, work in enumerate(others)]
    began = time.monotonic()
    try:
        own()
    finally:
        deadline = began + max(CHILD_PATIENCE * (time.monotonic() - began), CHILD_MIN_WAIT_S)
        try:
            done = [_receive(child, deadline, take) for child in children]
        finally:
            for process, reader in filter(None, children):
                reader.close()
                process.kill()  # does nothing to a child already joined
                process.join()
    for work, ok in zip(others, done):
        if not ok:
            for message in work() or ():
                take(message)


def _start(work):
    """(process, reader) of a forked child that runs ``work``, or None if it did not start."""
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    process = context.Process(target=_child, args=(work, writer))
    try:
        process.start()
    except Exception:  # no process to spare, or a warning raised as an error
        reader.close()
        return None
    finally:
        writer.close()  # the child's death must end the read here
    return process, reader


def _child(work, writer) -> None:
    """Send each message ``work()`` returns; any failure exits with code 1 and prints nothing."""
    try:
        for message in work() or ():
            writer.send(message)
    except BaseException:
        sys.exit(1)


def _receive(child, deadline: float, take) -> bool:
    """Hand each message a child sends to ``take``; whether it exited cleanly by ``deadline``."""
    if child is None:
        return False
    process, reader = child
    try:
        while reader.poll(max(0.0, deadline - time.monotonic())):
            take(reader.recv())
    except EOFError:  # the child's end closed: it has exited, or is exiting
        process.join(max(0.0, deadline - time.monotonic()))
        return process.exitcode == 0
    except OSError:
        pass
    return False
