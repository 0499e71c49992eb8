"""Repository hygiene: no build, cache or log artifact is under version control."""

import fnmatch
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# matched against every path component of a tracked file
ARTIFACTS = ("__pycache__", "*.pyc", "*.egg-info", ".bench_out", ".pytest_cache", ".hypothesis", "*.log")


def test_no_build_or_log_artifacts_are_tracked():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        pytest.skip("needs a git checkout and the git binary")
    listed = subprocess.run(
        ["git", "ls-files", "-z"], cwd=ROOT, capture_output=True, check=True
    ).stdout.decode()
    tracked = [path for path in listed.split("\0") if path]
    assert tracked
    offending = [
        path
        for path in tracked
        if any(fnmatch.fnmatch(part, pat) for part in Path(path).parts for pat in ARTIFACTS)
    ]
    assert offending == []
