"""Shared pytest hooks."""

import os


def pytest_report_header(config):
    import numpy
    import scipy

    # two byte guards depend on the BLAS thread count (README, "Tests"),
    # and the solver's bits on the numpy and scipy builds, whose LAPACK
    # extension it loads by scipy's file layout, so every run records them
    return [f"{name}={os.environ.get(name, 'unset')}"
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")] + [
        f"numpy={numpy.__version__} scipy={scipy.__version__}"]
