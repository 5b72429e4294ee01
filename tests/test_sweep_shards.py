"""Sharded sweeps: the prefix shards partition the labeled (2, r) stream,
the forked workers' merged report equals the serial one whatever the
worker count, and a worker's failure or an interrupt keeps the exit-code
contract with no worker left behind."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import eflcolor.shards as runner
from eflcolor import cli, solver
from eflcolor.solver import (
    SearchConfig,
    enumerate_two_r_decompositions,
    sweep_two_r_decompositions,
)
from helpers import reference_sweep

SRC = Path(__file__).resolve().parent.parent / "src"


def cliques(n, r, shard=0, shards=1):
    return [
        inst.decomposition.cliques
        for inst in enumerate_two_r_decompositions(n, r, shard, shards)
    ]


def children():
    """The pids of this process's live children, where Linux lists them."""
    path = Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children")
    if not path.exists():
        pytest.skip("this platform does not list a process's children")
    return path.read_text().split()


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count the sweep splits its stream over."""

    def set_count(k):
        monkeypatch.setattr(runner, "usable_cpus", lambda: k)

    return set_count


TEST_PROCESS = os.getpid()


def in_worker():
    """True in a sweep worker forked from the test process."""
    return os.getpid() != TEST_PROCESS


class TestShards:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_shards_partition_the_stream_in_order(self, shards):
        for n in range(3, 8):
            for r in range(3, n + 1):
                stream = cliques(n, r)
                index = {c: t for t, c in enumerate(stream)}
                assert len(index) == len(stream)
                seen = []
                for shard in range(shards):
                    part = [index[c] for c in cliques(n, r, shard, shards)]
                    assert part == sorted(part), (n, r, shard)
                    seen += part
                assert sorted(seen) == list(range(len(stream))), (n, r)

    def test_8_3_splits_in_two_by_count(self):
        counts = [
            sum(1 for _ in enumerate_two_r_decompositions(8, 3, shard, 2))
            for shard in (0, 1)
        ]
        assert counts == [115831, 115746]
        assert sum(counts) == 231577

    @pytest.mark.parametrize("shard, shards", [(0, 0), (2, 2), (-1, 2)])
    def test_rejects_bad_shard(self, shard, shards):
        with pytest.raises(ValueError, match="shard"):
            list(enumerate_two_r_decompositions(4, 3, shard, shards))


class TestMergedReport:
    @pytest.mark.parametrize("n, r, node_limit, minimum", [
        (7, 3, 10**8, False),
        (6, 3, 10**8, True),
        (6, 3, 13, True),  # downward probes run out of budget
    ])
    def test_equals_the_serial_sweep(self, cpus, n, r, node_limit, minimum):
        cfg = SearchConfig(node_limit=node_limit)
        serial = reference_sweep(n, r, cfg, minimum)
        if node_limit == 13:
            assert serial.budget_exhausted
        for k in (1, 2, 3, 4):
            cpus(k)
            assert sweep_two_r_decompositions(n, r, cfg, minimum) == serial

    def test_forked_workers_give_the_unforked_report(self, cpus):
        cpus(1)
        alone = sweep_two_r_decompositions(6, 4, minimum_palettes=True)
        cpus(2)
        assert sweep_two_r_decompositions(
            6, 4, minimum_palettes=True
        ) == alone
        assert children() == []

    def test_bad_order_is_refused_before_forking(self, cpus, monkeypatch,
                                                 capsys):
        cpus(2)
        monkeypatch.setattr(os, "fork", None)  # any fork would crash
        assert cli.main(["sweep", "--n", "2", "--r", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: need 3 <= r <= n, got r=3, n=2\n"
        )


class TestWorkerFailures:
    def test_worker_exception_is_raised_in_the_parent(self, cpus,
                                                      monkeypatch):
        cpus(2)
        search = solver.color_decomposition

        def failing(d, palette, cfg):
            if in_worker():
                raise ValueError(f"no palette {palette} here")
            return search(d, palette, cfg)

        monkeypatch.setattr(solver, "color_decomposition", failing)
        with pytest.raises(ValueError, match="^no palette 5 here$"):
            sweep_two_r_decompositions(5, 3)
        assert children() == []

    def test_improper_worker_certificate_exits_5(self, cpus, monkeypatch,
                                                 capsys):
        cpus(2)
        search = solver._search

        def faulty(nb, palette, preset, node_limit, progress, interval):
            if in_worker():  # one color for every clique
                return True, [1] * len(nb), 1
            return search(nb, palette, preset, node_limit, progress,
                          interval)

        monkeypatch.setattr(solver, "_search", faulty)
        assert cli.main(["sweep", "--n", "5", "--r", "3"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "internal error: AssertionError: solver certificate failed "
            "verification: cliques "
        )
        assert captured.err.count("\n") == 1

    def test_parent_exception_reaps_the_workers(self, cpus, monkeypatch):
        cpus(3)

        def failing(d, palette, cfg):
            if not in_worker():
                raise ZeroDivisionError("in the parent's shard")
            time.sleep(60)  # still busy: the parent must kill it

        monkeypatch.setattr(solver, "color_decomposition", failing)
        start = time.monotonic()
        with pytest.raises(ZeroDivisionError):
            sweep_two_r_decompositions(6, 3)
        assert time.monotonic() - start < 30
        assert children() == []

    @pytest.mark.parametrize("death, how", [
        (lambda: os._exit(3), "exit code 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
    ])
    def test_a_worker_without_a_result_exits_5(self, cpus, monkeypatch,
                                               capsys, death, how):
        cpus(2)
        search = solver.color_decomposition

        def dying(d, palette, cfg):
            if in_worker():
                death()
            return search(d, palette, cfg)

        monkeypatch.setattr(solver, "color_decomposition", dying)
        assert cli.main(["sweep", "--n", "5", "--r", "3"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "internal error: RuntimeError: worker for shard 1/2 (pid "
        )
        assert captured.err.endswith(f"ended without a result ({how})\n")
        assert children() == []


def test_interrupt_exits_130_and_leaves_no_worker():
    """Ctrl-C reaches the terminal's whole process group: the CLI and its
    sweep workers.  One CLI process, with at most one worker per CPU."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "eflcolor", "sweep", "--n", "8", "--r", "3"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        listing = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        if listing.exists() and len(os.sched_getaffinity(0)) > 1:
            # interrupt once the workers run
            deadline = time.monotonic() + 10
            while not listing.read_text().split() and proc.poll() is None \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            time.sleep(0.2)
        else:  # no worker to wait for: let the sweep start
            time.sleep(2)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
    assert proc.returncode == 130
    assert out == b""
    assert err == b"interrupted\n"
    # the group is empty: every worker was reaped
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
