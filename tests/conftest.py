import warnings

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

# hypothesis imports its patch writer (and through it libcst) only once a
# test fails; with some libcst and mypy_extensions versions that import warns,
# and `-W error::DeprecationWarning` then turns the warning into an
# INTERNALERROR that ends the run.  Importing it here, with that warning
# ignored, lets a failing property test report its failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from adskg.geometry import make_params
from adskg.harmonics import AngularGrid


@pytest.fixture(scope="session")
def params_m0():
    """d=3, R=1, massless: nu = 3/2, Delta+ = 3, Delta- = 0."""
    return make_params(3, 1.0, 0.0)


@pytest.fixture(scope="session")
def params_neg():
    """d=3, m^2 R^2 = -2: nu = 1/2, Delta+ = 2, Delta- = 1 (exceptional range)."""
    return make_params(3, 1.0, -2.0)


@pytest.fixture(scope="session")
def params_pos():
    """d=3, m^2 R^2 = +1: nu = sqrt(13)/2, Delta- < 0 (evanescent growth)."""
    return make_params(3, 1.0, 1.0)


@pytest.fixture(scope="session")
def angular_small():
    """Angular grid large enough for l <= 7 projections, small enough to be fast."""
    return AngularGrid(24, 48)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def rotate_point():
    """(angles, theta, phi) -> the angles of the point R(angles) (theta, phi),
    R = scipy's `Rotation.from_euler("ZYZ", (alpha, beta, gamma))`: an
    independent reference for the library's Euler convention."""
    def rotate(angles, theta, phi):
        theta, phi = np.broadcast_arrays(theta, phi)
        st = np.sin(theta)
        xyz = np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)
        rot = Rotation.from_euler("ZYZ", (angles.alpha, angles.beta, angles.gamma))
        x, y, z = np.moveaxis(rot.apply(xyz.reshape(-1, 3)).reshape(xyz.shape), -1, 0)
        return np.arccos(np.clip(z, -1.0, 1.0)), np.arctan2(y, x)
    return rotate
