"""The suite's warning filters report a failing property test as one failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(k):
    assert k != 0
'''


def test_failing_property_test_fails_alone(tmp_path):
    # with every warning an error, the failure report of hypothesis once raised a
    # DeprecationWarning of its own and aborted the whole run (exit 3)
    test_file = tmp_path / "test_failing_property.py"
    test_file.write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test_file),
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout and "INTERNALERROR" not in run.stdout
