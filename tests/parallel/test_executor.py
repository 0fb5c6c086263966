"""Tests for the process-pool task executor (repro.parallel.executor)."""

import os
import re

import pytest

from repro.errors import SimulationError
from repro.parallel import JOBS_ENV_VAR, WorkerError, resolve_jobs, run_tasks


# Worker functions must be module-level so the pool can pickle them by
# reference.
def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom at three")
    return x


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_jobs(5) == 5

    def test_capped_at_host_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert resolve_jobs(16) == 2

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_env_var_consulted(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv(JOBS_ENV_VAR, "7")
        assert resolve_jobs(None) == 7

    def test_env_var_capped_at_host_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv(JOBS_ENV_VAR, "7")
        assert resolve_jobs(None) == 2

    def test_env_auto(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "auto")
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(SimulationError):
            resolve_jobs(None)

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            resolve_jobs(-2)

    @pytest.mark.parametrize("jobs", [2.5, True, "2"])
    def test_float_bool_and_str_rejected(self, monkeypatch, jobs):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        with pytest.raises(SimulationError, match=re.escape(repr(jobs))):
            resolve_jobs(jobs)


class TestRunTasks:
    def test_serial_order(self):
        assert run_tasks(_square, range(10), jobs=1) == [x * x for x in range(10)]

    def test_parallel_matches_serial(self, monkeypatch):
        # pin the core count so the pool path runs even on a 1-CPU host
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        tasks = list(range(23))
        assert run_tasks(_square, tasks, jobs=4) == run_tasks(_square, tasks, jobs=1)

    def test_single_task_runs_serially(self):
        assert run_tasks(_square, [6], jobs=8) == [36]

    def test_empty_tasks(self):
        assert run_tasks(_square, [], jobs=4) == []

    def test_chunksize_override(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        tasks = list(range(11))
        assert run_tasks(_square, tasks, jobs=2, chunksize=1) == [
            x * x for x in tasks
        ]

    def test_single_chunk_runs_serially(self, monkeypatch):
        # a chunksize covering every task would go to one worker anyway,
        # so no pool spawns — observable because the serial path re-raises
        # the original exception instead of wrapping it in WorkerError
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        with pytest.raises(ValueError, match="boom at three"):
            run_tasks(_fail_on_three, [1, 2, 3], jobs=2, chunksize=8)

    def test_env_var_drives_pool(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        assert run_tasks(_square, range(8)) == [x * x for x in range(8)]

    def test_serial_exception_is_original(self):
        with pytest.raises(ValueError, match="boom at three"):
            run_tasks(_fail_on_three, [1, 2, 3], jobs=1)

    def test_worker_exception_propagates_with_traceback(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        with pytest.raises(WorkerError) as exc_info:
            run_tasks(_fail_on_three, [0, 1, 2, 3, 4], jobs=2)
        err = exc_info.value
        assert err.task_index == 3
        # the remote traceback names the real error and the worker function
        assert "ValueError: boom at three" in err.worker_traceback
        assert "_fail_on_three" in err.worker_traceback
        assert "boom at three" in str(err)
