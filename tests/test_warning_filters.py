"""The suite's warning filters: every warning is an error, and a failing
hypothesis test is still reported as a failure."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_after():
    pass
"""


def test_failing_given_test_is_reported_and_the_session_goes_on(pytester):
    # on a failure hypothesis imports libcst, where installed, to print an
    # explicit-example patch; that import warns, and under "error" alone the
    # warning is an INTERNALERROR that ends the session
    pytester.makepyfile(test_probe=FAILING_GIVEN)
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "--rootdir", str(pytester.path), "-p", "no:cacheprovider",
        "test_probe.py", timeout=120,
    )
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == 1
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
