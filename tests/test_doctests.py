"""Run the library's docstring examples as tests.

Public API docstrings carry runnable examples; this keeps them honest.
"""

import doctest
import importlib

import pytest

MODULE_NAMES = [
    "repro",
    "repro.analysis.tables",
    "repro.core.broadcast",
    "repro.core.incremental",
    "repro.core.protocol",
    "repro.emd.matching",
    "repro.emd.metrics",
    "repro.emd.onedim",
    "repro.gf.field",
    "repro.net.bits",
]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0  # listed modules must actually carry examples
