import os

# one BLAS thread unless the environment says otherwise, set before numpy loads, so that test times
# do not depend on the core count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

# --hypothesis-profile=ci: the default settings, but a failing property also prints its
# @reproduce_failure blob, so a failure drawn from a random seed can be replayed
settings.register_profile("ci", print_blob=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def expectation(x, rho):
    """<X>_rho = Re Tr X rho."""
    return float(np.trace(np.asarray(x) @ np.asarray(rho)).real)
