"""Run the shards of one job on every usable CPU, in forked workers.

A job is a function task(shard, shards) whose results for shard = 0, 1,
..., shards - 1 together make up its answer: :func:`run` calls it once
per shard, the first in this process and each other one in a worker
forked from it, and returns the results in shard order.  Workers are bare
``os.fork`` children that send their result back through a pipe with
``marshal``: importing multiprocessing or concurrent.futures would add
0.6-1.7 MiB to this process, whose whole peak in a sweep is about
21 MiB.
"""

from __future__ import annotations

# _signal is the module signal wraps, loaded at interpreter start-up;
# signal itself builds enum classes that cost every command 0.1 MiB of
# peak memory
import _signal
import marshal
import os
import sys
from contextlib import contextmanager


def usable_cpus() -> int:
    """The CPUs this process may run on: one shard each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


@contextmanager
def _interrupts_held():
    """Hold SIGINT pending for the block; one that arrives meanwhile is
    raised when it ends.  Yields the signal mask to restore."""
    old = _signal.pthread_sigmask(_signal.SIG_BLOCK, {_signal.SIGINT})
    try:
        yield old
    finally:
        _signal.pthread_sigmask(_signal.SIG_SETMASK, old)


def _worker(task, shard, shards, write_fd, inherited, mask):
    """The body of a forked worker: task(shard, shards) marshalled to
    write_fd, or the exception it raised, pickled.  Never returns, and
    runs no exit handler or stdio flush inherited from the parent."""
    code = 0
    try:
        _signal.pthread_sigmask(_signal.SIG_SETMASK, mask)
        for fd in inherited:
            os.close(fd)
        try:
            result = (True, task(shard, shards))
        except BaseException as e:  # re-raised by the parent
            import pickle

            result = (False, pickle.dumps(e))
        with open(write_fd, "wb") as fh:
            marshal.dump(result, fh)
    except BaseException:  # the parent reports a worker with no result
        code = 1
    finally:
        os._exit(code)


def run(task, shards: int) -> list:
    """[task(0, shards), ..., task(shards - 1, shards)].

    Shard 0 runs in this process; each other shard runs in a worker forked
    from it (the CLI is single-threaded), which writes its result to a
    pipe, so results are built of what marshal writes: numbers, strings,
    lists, tuples and dicts.  An exception a worker raised is raised
    again here, with its type and message; a worker that ends without a
    result is a RuntimeError naming it.  However the call ends, every
    worker still running is killed, and every worker is reaped.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    workers = []  # [shard, pid, read end], pid and fd None once released
    try:
        for i in range(1, shards):
            r, w = os.pipe()
            workers.append([i, None, r])
            try:
                # a worker is on the list before an interrupt can land
                with _interrupts_held() as mask:
                    pid = os.fork()
                    if pid == 0:
                        _worker(task, i, shards, w,
                                [x[2] for x in workers], mask)
                    workers[-1][1] = pid
            finally:
                os.close(w)
        results = [task(0, shards)]
        for worker in workers:
            i, pid, r = worker
            with open(r, "rb") as fh:
                worker[2] = None
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            worker[1] = None
            if not data or status:
                code = os.waitstatus_to_exitcode(status)
                how = f"signal {-code}" if code < 0 else f"exit code {code}"
                raise RuntimeError(
                    f"worker for shard {i}/{shards} (pid {pid}) "
                    f"ended without a result ({how})"
                )
            ok, value = marshal.loads(data)
            if not ok:
                # imported only here: pickle adds 0.4 MiB to the process
                import pickle

                raise pickle.loads(value)
            results.append(value)
        return results
    finally:
        with _interrupts_held():
            for _, pid, r in workers:
                if r is not None:
                    os.close(r)
                if pid is not None:
                    os.kill(pid, _signal.SIGKILL)
                    os.waitpid(pid, 0)
