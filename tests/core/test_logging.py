"""Tests for the per-system convergence logger."""

import numpy as np
import pytest

from repro.core import BatchLogger


class TestBatchLogger:
    def test_initialize_resets(self):
        log = BatchLogger()
        log.initialize(3)
        np.testing.assert_array_equal(log.iterations, [0, 0, 0])
        log.log_converged(4, np.array([1]))
        log.initialize(3)
        np.testing.assert_array_equal(log.iterations, [0, 0, 0])

    def test_records_convergence_iteration(self):
        log = BatchLogger()
        log.initialize(3)
        log.log_converged(4, np.array([0]))
        assert log.iterations[0] == 5  # iteration index 4 => count 5
        assert log.iterations[1] == 0  # untouched

    def test_finalize_marks_unconverged(self):
        log = BatchLogger()
        log.initialize(3)
        log.log_converged(2, np.array([0]))
        log.log_halted(np.array([2]), 7)
        log.finalize(np.array([False, True, True]), 100)
        assert log.iterations[1] == 100
        assert log.iterations[0] == 3  # untouched by finalize
        assert log.iterations[2] == 7  # halted: keeps its trip count

    def test_history_disabled_by_default(self):
        log = BatchLogger()
        log.initialize(1)
        log.log_history(np.array([1.0]))
        with pytest.raises(RuntimeError):
            _ = log.history

    def test_history_records_snapshots(self):
        log = BatchLogger(record_history=True)
        log.initialize(2)
        for i, r in enumerate([1.0, 0.1, 0.01]):
            log.log_history(np.array([r, r * 2]))
        assert len(log.history) == 3
        np.testing.assert_allclose(log.convergence_curve(1), [2.0, 0.2, 0.02])

    def test_history_snapshots_are_copies(self):
        log = BatchLogger(record_history=True)
        log.initialize(1)
        arr = np.array([1.0])
        log.log_history(arr)
        arr[0] = 99.0
        assert log.history[0][0] == 1.0

    def test_use_before_initialize_raises(self):
        log = BatchLogger()
        with pytest.raises(RuntimeError):
            _ = log.iterations
        with pytest.raises(RuntimeError):
            log.log_converged(0, np.array([0]))

    def test_reinitialize_clears_history(self):
        log = BatchLogger(record_history=True)
        log.initialize(1)
        log.log_history(np.array([1.0]))
        log.initialize(1)
        assert len(log.history) == 0
