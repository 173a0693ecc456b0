import json
import os
import pathlib

# one BLAS thread, as CI and perfbench run, unless the caller sets otherwise;
# it must be set before numpy loads its BLAS
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np
import pytest

import quasilat as ql

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def golden():
    """Frozen reference values produced by golden/oracle.py."""
    with open(ROOT / "golden" / "golden.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def grid12():
    return ql.GridSpec(12.0, 0.01)


@pytest.fixture(scope="session")
def gauss12(grid12):
    return ql.gaussian_window(grid12)


@pytest.fixture(scope="session")
def oversampled_system():
    """Gaussian over (1/sqrt2) Z^2: cell area 1/2, a frame with room to spare."""
    lat = ql.Lattice(np.diag([2.0 ** -0.5, 2.0 ** -0.5]))
    return ql.GaborSystem(ql.lattice_points_in_box(lat, 11.0))


@pytest.fixture(scope="session")
def undersampled_system():
    """Gaussian over 3.5 Z x 0.3 Z: cell area 1.05, no frame."""
    lat = ql.Lattice(np.diag([3.5, 0.3]))
    return ql.GaborSystem(ql.lattice_points_in_box(lat, 10.5))
