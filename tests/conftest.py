"""Shared pytest hooks."""

import os


def pytest_report_header(config):
    # two byte guards depend on the BLAS thread count (README, "Tests"),
    # so every run records the setting it ran under
    return [f"{name}={os.environ.get(name, 'unset')}"
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
