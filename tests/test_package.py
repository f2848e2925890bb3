import importlib

import pytest

import qcl

MODULES = ["qcl", "qcl.cli", "qcl.control", "qcl.landscape", "qcl.models",
           "qcl.navigation", "qcl.objectives", "qcl.optimizer"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_are_the_module_objects():
    for n in qcl.__all__:
        obj = getattr(qcl, n)
        home = importlib.import_module(obj.__module__)
        assert getattr(home, n) is obj


def test_package_surface_is_pinned():
    # every export is listed here, so widening the public surface takes a
    # deliberate edit of this test
    assert sorted(qcl.__all__) == [
        "ControlField", "FdConfig", "FixedVector", "FourierObjective", "FrequencySpec",
        "HessianSpectrum", "LzProblem", "NullFollow", "OptimizationReport", "QhoProblem",
        "SecondaryGradient", "SeedSpec", "Trajectory", "calibrate_epsilon", "classify_null",
        "compress", "eig_sym", "eigvec_error", "fd_hessian", "minimize", "navigate",
        "null_direction", "pointwise_stencil", "project", "rank2_ritz", "sample_seeds",
    ]
