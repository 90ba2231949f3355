"""Print SHA-256 digests (first 16 hex digits) of mc-lab's outputs.

A change that must not alter any output can compare these digests before
and after.  Every command runs in this process through ``cli_main``
against the ``src`` tree next to this script, in about 15 s:

- certify: the ``certify --n N --jobs J`` report for N = 3..6, J = 1 and
  2 in turn, each re-serialized by ``json.dumps`` without
  ``elapsed_seconds``;
- compute: ``compute --method M`` stdout over every connected labeled
  graph with n = 2..6 (27,475 graph6 lines in enumeration order), one
  digest per method;
- table: ``table F --n N`` stdout for F = f, g, t, s and, within each,
  N = 2..120.

Run from anywhere:

    python tools/output_digests.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mc_lab import cli_main, emit_graph6, enumerate_connected_graphs  # noqa: E402


def run(argv: list[str], stdin: str = "") -> str:
    """stdout of ``mc-lab argv`` run in this process with ``stdin`` as input."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            cli_main(argv)
    finally:
        sys.stdin = saved
    return out.getvalue()


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()[:16]


def certify_doc(n: int, jobs: int) -> str:
    doc = json.loads(run(["certify", "--n", str(n), "--jobs", str(jobs)]))
    del doc["elapsed_seconds"]
    return json.dumps(doc)


def main() -> None:
    print("certify", digest(certify_doc(n, jobs) for n in range(3, 7) for jobs in (1, 2)))
    lines = "".join(
        emit_graph6(g) + "\n" for n in range(2, 7) for g in enumerate_connected_graphs(n)
    )
    for method in ("exact", "bounds", "fast"):
        print(f"compute {method}", digest([run(["compute", "--method", method], lines)]))
    print("table", digest(run(["table", f, "--n", str(n)]) for f in "fgts" for n in range(2, 121)))


if __name__ == "__main__":
    main()
