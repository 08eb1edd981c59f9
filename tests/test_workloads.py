"""The benchmark's input generators write specs the library accepts."""

import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest

from spinorlab import cauchy, geometry

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


# the specs are built in memory only: make_plan would write them to files
@pytest.mark.parametrize("family, p, arity", workloads.METRIC_CLASSES)
def test_metric_spec_is_accepted(fraction_reader, family, p, arity):
    spec = workloads.metric_spec(family, p, arity, np.random.default_rng(5))
    m = geometry.metric_from_spec(spec)
    assert m.family == family and m.p == p
    # read on integers, each profile is the series of one Fraction per coefficient
    assert m.functions == tuple(fraction_reader(fd) for fd in spec["functions"])


@pytest.mark.parametrize("p, order, ydeg", workloads.CAUCHY_CLASSES)
def test_cauchy_spec_is_accepted(p, order, ydeg):
    data = cauchy.cauchy_data_from_spec(workloads.cauchy_spec(p, order, ydeg, random.Random(5)))
    assert (data.p, data.order) == (p, order)
    assert data.max_constraint_residual() == 0.0
