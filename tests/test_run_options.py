"""RunOptions: the one way to shape an ActivePy.run."""

import dataclasses

import pytest

from repro.runtime.activepy import ActivePy, RunOptions
from repro.workloads import get_workload

_SCALE = 2 ** -7


def _workload():
    return get_workload("tpch_q6", scale=_SCALE)


class TestRunOptions:
    def test_frozen_and_keyword_friendly(self):
        options = RunOptions(trace=True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.trace = False

    def test_options_path_emits_no_warning(self, recwarn):
        workload = _workload()
        report = ActivePy().run(
            workload.program, workload.dataset,
            options=RunOptions(trace=True),
        )
        assert report.timeline is not None
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_pre_options_keywords_are_gone(self):
        workload = _workload()
        for legacy in ({"trace": True}, {"progress_triggers": [(0.5, 0.5)]}):
            with pytest.raises(TypeError):
                ActivePy().run(workload.program, workload.dataset, **legacy)
