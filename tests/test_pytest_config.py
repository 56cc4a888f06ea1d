"""
The suite's own pytest settings.  They turn every warning into an error;
a failing Hypothesis test must still report its failure and falsifying
example, and leave the rest of the run going.
"""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_test_fails_without_ending_the_run(pytester) -> None:
    # when a @given test fails, Hypothesis explains it with libcst, whose
    # import raised a DeprecationWarning inside a plugin's teardown: under
    # "error" alone that ended the session in an INTERNALERROR
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(
        test_property="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_runs_after():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_property.py")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example: test_fails(*"])
