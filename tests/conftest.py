"""Print the numeric environment at the top and the end of every run.

The golden tests pin bits, which depend on numpy, the BLAS it was built with
and the machine; a mismatch can be traced to its environment from this header.
"""

import os
import platform

import numpy as np

try:  # qmfc needs numpy alone; scipy comes with the benchmark's extra
    import scipy
except ImportError:
    scipy = None


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config instead
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _environment():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    scipy_version = f"scipy {scipy.__version__}, " if scipy else ""
    return (f"qmfc environment: Python {platform.python_version()}, numpy {np.__version__}, "
            f"{scipy_version}BLAS {_blas()}, nproc {cpus}, {platform.machine()}")


def pytest_report_header(config):
    return _environment()


def pytest_terminal_summary(terminalreporter):
    # -q hides the header, so the summary repeats the line
    terminalreporter.write_line(_environment())
