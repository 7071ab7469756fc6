import os

# one BLAS thread unless the environment says otherwise, set before numpy loads, so that test times
# do not depend on the core count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def expectation(x, rho):
    """<X>_rho = Re Tr X rho."""
    return float(np.trace(np.asarray(x) @ np.asarray(rho)).real)
