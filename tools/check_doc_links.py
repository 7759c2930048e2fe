#!/usr/bin/env python
"""Check that every repo file the docs reference actually exists.

Scans markdown documents (README.md and docs/*.md by default) for

* markdown links with relative targets -- ``[text](docs/FILE.md)``;
* backtick-quoted repo paths -- ```` `benchmarks/test_x.py` ```` --
  i.e. tokens that contain a ``/`` or end in a known file suffix and
  start with a top-level repo entry;

and fails (exit 1) listing every referenced path that does not exist.
Docs rot silently; CI runs this next to the doctest pass so a renamed
module or benchmark breaks the build, not the reader.

Usage: python tools/check_doc_links.py [doc.md ...]
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Top-level entries a backticked token may start with to count as a
#: repo path (keeps prose like `a/b testing` from tripping the check).
PATH_PREFIXES = ("src/", "tests/", "benchmarks/", "examples/", "docs/",
                 "tools/", "repro/", ".github/")

#: Files a path reference may end with without a directory prefix.
FILE_SUFFIXES = (".py", ".md", ".json", ".yml", ".yaml", ".toml")

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)[^)]*\)")
BACKTICK = re.compile(r"`([^`\s]+)`")


def candidate_paths(text):
    """Repo-relative paths the document appears to reference."""
    for match in MD_LINK.finditer(text):
        target = match.group(1)
        if "://" not in target and not target.startswith("mailto:"):
            yield target
    for match in BACKTICK.finditer(text):
        token = match.group(1)
        if token.startswith(PATH_PREFIXES) and "(" not in token:
            yield token
        elif "/" not in token and token.endswith(FILE_SUFFIXES) \
                and token not in ("settings.json",):
            yield token


def missing_in(doc: Path):
    text = doc.read_text(encoding="utf-8")
    base = doc.parent
    missing = []
    for ref in sorted(set(candidate_paths(text))):
        candidates = [REPO_ROOT / ref, base / ref]
        # `repro/...` references mean the package under src/.
        if ref.startswith("repro/"):
            candidates.append(REPO_ROOT / "src" / ref)
        if not any(path.exists() for path in candidates):
            missing.append(ref)
    return missing


def main(argv):
    docs = [Path(arg) for arg in argv] or \
        [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    broken = 0
    for doc in docs:
        for ref in missing_in(doc):
            print(f"{doc}: missing file {ref!r}")
            broken += 1
    if broken:
        print(f"{broken} broken file reference(s)")
        return 1
    print(f"checked {len(docs)} document(s): all referenced files exist")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
