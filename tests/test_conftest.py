"""The suite's own pytest hooks."""

import os
import subprocess
import sys
from pathlib import Path

import qsuperpose

#: a failing property test followed by a passing test
TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_a_warnings_as_errors_run(tmp_path):
    # hypothesis's report hook imports its patch writer after a failure, and
    # that import warns; under -W error the run must still go on to the next
    # test and count both
    here = Path(__file__).parent
    (tmp_path / "conftest.py").write_text((here / "conftest.py").read_text())
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    src = str(Path(qsuperpose.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
