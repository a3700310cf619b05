"""Shared fixtures and the acceptance-report terminal section."""

import os
import subprocess
import sys

import numpy as np
import pytest

from stratalg import MeasureSpace

ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def record_acceptance(number: int, label: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {number:2d}] {status}  {label}"
    if detail:
        line += f"  ({detail})"
    ACCEPTANCE_RESULTS.append((number, label, line))
    assert passed, line


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for _, _, line in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(line)


@pytest.fixture
def space2():
    return MeasureSpace(np.array([1.0, 2.0]))


@pytest.fixture
def space3():
    return MeasureSpace(np.array([0.5, 1.0, 1.5]))


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


# Dispatch levels numpy's reductions may pick; disabling them changes the
# SIMD kernel behind a contiguous ``min`` or ``max``, and with it which of
# ``0.0`` and ``-0.0`` such a reduction returns on a tie.
_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

_FEATURES = """
try:
    from numpy._core._multiarray_umath import __cpu_features__ as features
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as features
print([features.get(name) for name in %r.split()])
""" % _AVX512


def _dispatch_child(script: str, disable: bool):
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disable:
        env["NPY_DISABLE_CPU_FEATURES"] = _AVX512
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", _FEATURES + script], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def both_dispatch_levels():
    """Run a script in two fresh interpreters, with numpy's default SIMD
    dispatch and with the AVX-512 levels disabled, and return the two
    stdouts as lines.  Skips where the setting changes no CPU feature or
    this numpy rejects it."""

    def run(script: str):
        default, reduced = _dispatch_child(script, False), _dispatch_child(script, True)
        if not reduced.stdout:  # the child stopped at `import numpy`
            pytest.skip("this numpy rejects the dispatch setting: " + reduced.stderr[-200:])
        assert default.returncode == 0, default.stderr
        assert reduced.returncode == 0, reduced.stderr
        default, reduced = default.stdout.splitlines(), reduced.stdout.splitlines()
        if default[0] == reduced[0]:
            pytest.skip("no AVX-512 dispatch on this CPU: the setting changes nothing")
        return default[1:], reduced[1:]

    return run
