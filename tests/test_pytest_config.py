"""The repository's pytest settings report a failing property test as a
failure with its falsifying example.

With ``filterwarnings = ["error"]``, a deprecation warning raised while
hypothesis's plugin reports a failure (its explain phase imports libcst,
which imports a deprecated ``mypy_extensions.TypedDict``) would end the run
in ``INTERNALERROR``; ``pyproject.toml`` ignores that one message.  Where
libcst is absent the plugin skips that import and the test passes as well.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 10
'''


def test_failing_property_reports_its_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
