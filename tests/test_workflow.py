"""The CI workflow runs the test suite and the benchmark smokes and checks
nothing of its own: a check of the package lives in a test, which runs on
every CI leg and on a developer's machine alike."""

from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def test_workflow_never_names_the_package():
    # read as text: a step that imports or runs the package by name is a
    # check that belongs in a test
    assert "diskslepian" not in WORKFLOW.read_text()
