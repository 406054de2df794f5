"""Start-up cost: what a fresh interpreter loads for the library and the CLI.

``import stallings`` builds its value types without ``dataclasses`` (and
so without ``inspect``, ``ast`` and ``dis``), and the CLI loads the case
engine only for ``case-table`` and ``fuzz``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import stallings

SRC = str(Path(stallings.__file__).parents[1])

# one line of the library's heavy imports, one of the case modules the
# CLI loaded, then the case table's own output
CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import stallings
print(*sorted(m for m in ("dataclasses", "inspect") if m in sys.modules))
import stallings.cli
print(*sorted(m for m in sys.modules if m.startswith("stallings.cases")))
sys.exit(stallings.cli.main(["case-table"]))
"""


def test_fresh_import_loads_no_dataclasses_and_cli_no_case_engine():
    result = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, SRC], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    library, cli, header, *rows = result.stdout.splitlines()
    assert library == "", f"import stallings loaded {library}"
    assert cli == "", f"import stallings.cli loaded {cli}"
    assert header.split("\t")[4] == "status"
    assert len(rows) == 38
    assert {row.split("\t")[4] for row in rows} == {"pass"}
