"""``tools/check_doc_links.py``: the documentation link check."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_doc_links.py"


def test_missing_reference_in_a_relative_doc_is_reported(tmp_path):
    # The documented usage names a document by a relative path; a
    # missing reference must be reported against that path, exit 1.
    (tmp_path / "notes.md").write_text(
        "See `tests/no_such_test.py` and [the docs](docs/ARCHITECTURE.md).\n",
        encoding="utf-8")
    run = subprocess.run([sys.executable, str(TOOL), "notes.md"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 1, run.stderr
    assert "notes.md: missing file 'tests/no_such_test.py'" in run.stdout
    assert "ARCHITECTURE" not in run.stdout
    assert "1 broken file reference(s)" in run.stdout
