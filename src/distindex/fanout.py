"""Independent checks split across the CPUs a process may use.

fanout(check, items) is [check(x) for x in items].  It checks items in
this process for its first few milliseconds and, when the rest would
take more than about 20 ms at the pace of the later half of those
checks (a suite ordered by size grows in cost, and the later checks
are the nearer guide to the rest), deals the rest out in turn to this
process and to forked children, one per further CPU of the process's
affinity set, and merges their results back in item order.
Forking needs Linux (os.fork and os.sched_getaffinity) and a process
running one thread; elsewhere, on one CPU, or while another thread
runs, every check runs here.  Children send their results through a
pipe with marshal, so results must be marshallable.

The claim suites and the large scans of verify run through it.  It is
a module of its own, not part of verify, to keep each module's compile
small: every import compiles from source where no bytecode is cached,
and the compiler's transient heap, when it outgrows the free heap left
by earlier imports, leaves the process's resident memory higher for
good.
"""

from __future__ import annotations

import marshal
import os
import time
from collections.abc import Callable, Sequence

#: fanout forks only after this much serial work: about twice the round
#: trip of forking a 19 MB process and reaping it (2.4 ms measured).
_AFTER_S = 0.005
#: It forks only when the rest, at the pace of the later half of those
#: first checks, would take more than this many times _AFTER_S (20 ms),
#: the break-even: every page the process writes after a fork faults
#: once, a debt the requests after it pay, and less work than this
#: gained nothing from its fork in-process (eq1 at n = 20: 11.7 ms
#: serial, 12.4 ms forked).
_PAYS_OFF = 4


def _cpus() -> int:
    """How many CPUs fanout may spread over: the affinity set's size,
    or 1 where fork or the affinity call is missing or a second thread
    runs (a forked child would hold only the calling thread)."""
    try:
        if not hasattr(os, "fork") or len(os.listdir("/proc/self/task")) > 1:
            return 1
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return 1


def fanout(check: Callable, items: Sequence) -> list:
    """[check(x) for x in items], in item order.

    Items are checked here until _AFTER_S has passed.  If the rest,
    at the pace of the later half of those checks, would take more than
    _PAYS_OFF times _AFTER_S, it is dealt out in turn to this process
    and to one forked child per further CPU (_cpus) and item.  A child sends its share's results
    through a pipe, marshalled, and always leaves by os._exit.  The
    share of a child that fails, or of a fork that fails, is checked
    here, so a check's exception comes out of this call as it would
    from the serial loop.  Every child is reaped before it returns."""
    done, stamps = [], [time.perf_counter()]  # stamps[i]: clock after i checks
    for x in items:
        done.append(check(x))
        stamps.append(time.perf_counter())
        if stamps[-1] - stamps[0] > _AFTER_S:
            break
    rest = items[len(done):]
    half = len(done) // 2
    pays = (stamps[-1] - stamps[half]) * len(rest) > _PAYS_OFF * _AFTER_S * (len(done) - half)
    ways = max(1, min(_cpus(), len(rest))) if pays else 1
    kids = []  # (pid, read end of its pipe), in share order
    try:
        for j in range(1, ways):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r), os.close(w)
                break
            if not pid:
                try:
                    with open(w, "wb") as pipe:
                        pipe.write(marshal.dumps([check(x) for x in rest[j::ways]]))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            kids.append((pid, open(r, "rb")))
        out = [None] * len(rest)
        out[::ways] = [check(x) for x in rest[::ways]]
        for j in range(1, ways):
            share, part = rest[j::ways], []
            if kids:
                pid, pipe = kids[0]
                with pipe:
                    data = pipe.read()
                if os.waitpid(pid, 0)[1] == 0:
                    part = marshal.loads(data)
                del kids[0]
            out[j::ways] = part if len(part) == len(share) else [check(x) for x in share]
    finally:
        for pid, pipe in kids:
            pipe.close()
            os.waitpid(pid, 0)
    return done + out
