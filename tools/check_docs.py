"""Keep the markdown documentation honest: runnable blocks + API coverage.

Two checks live here:

* **Executable docs** (the default): every fenced ```python block in
  README.md and docs/*.md must run (blocks within one file share a
  namespace, top to bottom, so docs can build examples progressively).
* **API coverage** (``--api-coverage``): every public symbol exported
  from a ``repro.*`` subpackage ``__init__`` (its ``__all__``) must be
  mentioned in ``docs/api.md`` — an export the reference never names is
  either undocumented surface or a leftover export, and both deserve a
  red build.  The other way round, every name the "Full export
  reference" tables list for a package must be exported by it, so a
  removed or never-made export cannot stay in the reference.

Used three ways:

* CI's docs job runs ``PYTHONPATH=src python tools/check_docs.py`` and
  ``PYTHONPATH=src python tools/check_docs.py --api-coverage``;
* ``tests/test_docs.py`` calls :func:`check_file` per document and
  :func:`api_coverage_failures` so a stale snippet or a missing export
  mention fails the tier-1 gate with a precise location.
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The documents whose python blocks must stay runnable.
DOCUMENTS = (
    "README.md",
    "docs/architecture.md",
    "docs/paper_mapping.md",
    "docs/api.md",
    "docs/scenarios.md",
    "docs/performance.md",
    "docs/serving.md",
    "docs/persistence.md",
    "docs/http.md",
)

#: Packages whose ``__all__`` must be covered by docs/api.md.
API_PACKAGES = (
    "repro",
    "repro.common",
    "repro.core",
    "repro.crowd",
    "repro.data",
    "repro.er",
    "repro.prioritization",
    "repro.streaming",
    "repro.serving",
    "repro.experiments",
    "repro.scenarios",
)

#: The document that must mention every public symbol.
API_REFERENCE = "docs/api.md"

#: The heading of the reference's per-package export tables.
EXPORT_SECTION = "## Full export reference"

_PACKAGE = re.compile(r"`(repro[\w.]*)`")
_NAME = re.compile(r"`([A-Za-z_][A-Za-z0-9_]*)`")

_BLOCK_PATTERN = re.compile(r"```python\n(.*?)```", re.DOTALL)


def extract_blocks(markdown: str) -> List[str]:
    """Return the contents of every fenced ```python block, in order."""
    return [match.group(1) for match in _BLOCK_PATTERN.finditer(markdown)]


def check_file(path: Path) -> int:
    """Execute every python block of one document in a shared namespace.

    Returns the number of blocks executed; raises on the first failing
    block with the document and block index in the message.
    """
    blocks = extract_blocks(path.read_text(encoding="utf-8"))
    # Blocks run as if pasted into a script, so ``__main__``-guarded
    # examples (the multiprocessing ones) are exercised too.
    namespace: dict = {"__name__": "__main__"}
    for index, block in enumerate(blocks, start=1):
        try:
            exec(compile(block, f"{path}:block{index}", "exec"), namespace)
        except Exception as error:  # pragma: no cover - the message is the point
            raise RuntimeError(
                f"documentation code block {index} in {path} failed: {error!r}"
            ) from error
    return len(blocks)


def public_api() -> Dict[str, List[str]]:
    """``{package: sorted __all__}`` for every package in ``API_PACKAGES``.

    A package without ``__all__`` is itself a failure — the coverage
    contract requires an explicit export list — reported by the caller.
    """
    exports: Dict[str, List[str]] = {}
    for package in API_PACKAGES:
        module = importlib.import_module(package)
        exports[package] = sorted(getattr(module, "__all__", []))
    return exports


def listed_exports(text: str) -> List[Tuple[Tuple[str, ...], str]]:
    """``(packages, name)`` for every entry of the export tables.

    In the "Full export reference" section, each ``###`` heading names
    its packages in backticks, and every backticked name in the first
    cell of a table row below it is one entry.
    """
    section = text.partition(EXPORT_SECTION)[2]
    section = re.split(r"^## ", section, flags=re.MULTILINE)[0]
    entries = []
    packages: Tuple[str, ...] = ()
    for line in section.splitlines():
        if line.startswith("### "):
            packages = tuple(_PACKAGE.findall(line))
        elif line.startswith("|"):
            entries.extend((packages, name) for name in _NAME.findall(line.split("|")[1]))
    return entries


def api_coverage_failures() -> List[str]:
    """Exported-but-undocumented symbols, as ``package.symbol`` strings,
    and listed-but-not-exported entries of the export tables.

    A symbol counts as documented when it appears as a whole word
    anywhere in ``docs/api.md`` (prose, table or code block) — the goal
    is that a reader searching the reference for any public name gets at
    least one hit.
    """
    text = (REPO_ROOT / API_REFERENCE).read_text(encoding="utf-8")
    words = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    exports = public_api()
    failures = []
    for package, symbols in exports.items():
        if not symbols:
            failures.append(f"{package}.__all__ is missing or empty")
            continue
        for symbol in symbols:
            if symbol not in words:
                failures.append(f"{package}.{symbol}")
    for packages, name in listed_exports(text):
        if not any(name in exports.get(package, ()) for package in packages):
            failures.append(
                f"{' / '.join(packages)}.{name} is listed but not exported"
            )
    return failures


def run_api_coverage() -> int:
    failures = api_coverage_failures()
    exports = public_api()
    total = sum(len(symbols) for symbols in exports.values())
    if failures:
        print(
            f"{len(failures)} export(s) missing from or stale in {API_REFERENCE}:",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"ok {API_REFERENCE}: covers all {total} exported symbols "
          f"across {len(exports)} packages")
    return 0


def run_documents() -> int:
    total = 0
    for name in DOCUMENTS:
        path = REPO_ROOT / name
        if not path.exists():
            print(f"MISSING {name}", file=sys.stderr)
            return 1
        count = check_file(path)
        total += count
        print(f"ok {name}: {count} python block(s)")
    if total == 0:
        print("no python blocks found — check the fence language tags", file=sys.stderr)
        return 1
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Execute doc code blocks and/or check API doc coverage."
    )
    parser.add_argument(
        "--api-coverage",
        action="store_true",
        help=f"check that {API_REFERENCE} mentions every repro.* export and "
        "lists no name its package does not export",
    )
    args = parser.parse_args(argv)
    if args.api_coverage:
        return run_api_coverage()
    return run_documents()


if __name__ == "__main__":
    sys.exit(main())
