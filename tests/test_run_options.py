"""RunOptions: the one way to shape an ActivePy.run."""

import dataclasses

import pytest

from repro.cli import main
from repro.errors import ConfigError
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


class TestProgressTriggerValidation:
    @pytest.mark.parametrize("trigger", [
        (float("nan"), 0.5),  # never fires
        (1.5, 0.5),  # offloaded progress never passes 1
        (0.5, 0.0),  # the CSE refuses a zero availability
    ])
    def test_rejected_where_they_enter(self, trigger):
        with pytest.raises(ConfigError):
            RunOptions(progress_triggers=(trigger,))

    def test_boundaries_accepted(self):
        RunOptions(progress_triggers=((0.0, 1.0), (1.0, 1e-3)))

    @pytest.mark.parametrize("stress", ["0", "1.5", "nan"])
    def test_cli_stress_outside_unit_interval_exits_2(self, stress, capsys):
        assert main(["run", "tpch_q6", "--scale", "0.01",
                     "--stress", stress]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("repro run: error: ")
