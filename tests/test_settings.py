"""Each mapping setting is a module constant, not a per-call parameter."""

from __future__ import annotations

import inspect

import pytest

from thermoslam import monitor, pose_graph, scan_frontend, thermal_map
from thermoslam.cli_io import formats, pipeline


@pytest.mark.parametrize("module", [scan_frontend, pose_graph, monitor, thermal_map, formats, pipeline])
def test_public_functions_take_no_numeric_defaults(module):
    # A bool default, such as a data mask, is not a setting; bool is an int
    # subclass, so it is excluded explicitly.
    offenders = [
        f"{name}({parameter.name}={parameter.default!r})"
        for name, function in inspect.getmembers(module, inspect.isfunction)
        if function.__module__ == module.__name__ and not name.startswith("_")
        for parameter in inspect.signature(function).parameters.values()
        if isinstance(parameter.default, (int, float)) and not isinstance(parameter.default, bool)
    ]
    assert offenders == [], f"{module.__name__}: make these module constants: {offenders}"
