"""Byte-identity check of this tree's outputs against a parent tree, on one host.

    python3 tools/identity.py PARENT_DIR

PARENT_DIR is another checkout of steinerlab, for example the parent commit
exported with `git archive PARENT | tar -x -C PARENT_DIR`.  For each command
of one fixed grid, the script runs `python -m steinerlab.cli` once against
each tree's `src`, each in a child process with OPENBLAS_NUM_THREADS=2 (the
BLAS thread count moves `growth_rate` digits) and in a fresh directory that
holds only the grid's input files.  It compares stdout, stderr, the exit code
and every file the command wrote, byte for byte, after replacing the tree's
and the directory's own paths with placeholders.  It then compares the item
digests of the first DIGEST_ITEMS inputs of the converge-d2-solve and
verify-exact benchmark workloads, made and digested by each tree's own
`bench/workloads.py` (`make_inputs`, `run_item`, `digest`), which it imports
and does not change.

It prints one line per command and per workload, `identical` or `DIFFERS`,
then a summary.  Under a command that differs it names each output that
moved.  For two CSV or JSON outputs of one shape that differ only in numbers
it names every column or key that moved, with the count of moved values and
the largest relative change; for anything else it prints the first line that
differs.  The summary ends with the non-blank lines of each module under
`src/steinerlab` in both trees.  It exits 0 when everything is identical and
1 otherwise.  Last digits depend on the BLAS build and the CPU, so the check
compares two trees on one host; it pins no bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = {"OPENBLAS_NUM_THREADS": "2"}

RP2 = "6 2\n1 2 4\n1 2 5\n1 3 4\n1 3 6\n1 5 6\n2 3 5\n2 3 6\n2 4 6\n3 4 5\n4 5 6\n"
INPUTS = {"rp2.txt": RP2, "k4.txt": "4 1\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"}

# (name, arguments): every command and output format, at the sizes the
# benchmark and the goldens use, with `--deterministic` wherever a command
# writes a timestamp
GRID = [
    ("golden-d2", "converge --d 2 --k 5 --n 31 --trials 3 --r 1 --r 2 --seed 7 --deterministic"),
    ("golden-d1", "converge --d 1 --k 3 --n 100 --trials 2 --r 1 --r 2 --r 3 --seed 7 --deterministic"),
    ("converge-d2-n45", "converge --d 2 --k 5 --n 45 --trials 2 --seed 4 --deterministic"),  # m = 990, above the dense cap
    ("converge-d2-n111", "converge --d 2 --k 5 --n 111 --seed 1 --deterministic"),
    ("converge-d1-n2000", "converge --d 1 --k 8 --n 2000 --r 1 --r 2 --seed 1 --deterministic"),
    # near-regular rows, where phase 1's pivot rule decides the dense order
    ("converge-d1-k3", "converge --d 1 --k 3 --n 1000 --trials 2 --seed 1 --deterministic"),
    ("converge-d3-n8", "converge --d 3 --k 2 --n 8 --trials 4 --seed 1 --deterministic"),
    ("converge-json", "converge --d 2 --k 5 --n 15 --n 31 --trials 2 --lmax 6 --format json --out rows.json "
                      "--keep-complexes kept --deterministic"),
    ("seed11-n15", "converge --d 2 --k 2 --n 15 --trials 11 --seed 11 --deterministic"),
    ("seed11-n31", "converge --d 2 --k 2 --n 31 --trials 8 --seed 11 --deterministic"),
    ("seed11-n45", "converge --d 2 --k 2 --n 45 --trials 4 --seed 11 --deterministic"),  # flagged floors, Lanczos
    ("seed11-gap", "gap --d 2 --k 2 --n 15 --trials 18 --seed 11 --deterministic"),
    ("gap-k21", "gap --d 2 --k 21 --n 31 --trials 2 --seed 3 --deterministic --out gap.csv"),
    ("gap-d2-n45", "gap --d 2 --k 5 --n 45 --trials 2 --seed 4 --deterministic"),  # m = 990: Lanczos
    ("local", "local --d 2 --k 5 --n 31 --trials 2 --r 1 --r 2 --seed 3"),
    ("sample", "sample --d 2 --k 5 --n 15 --trials 3 --seed 2 --out cx"),
    ("sample-k21", "sample --d 2 --k 21 --n 111 --trials 1 --seed 1 --out cx"),  # the paper's regime: 21 STS(111) climbs
    ("spectrum-laplacian", "spectrum --d 2 --k 5 --n 31 --seed 1 --out spectrum.csv"),
    ("spectrum-adjacency", "spectrum --d 2 --k 5 --n 31 --seed 1 --op adjacency --out adjacency.csv"),
    ("sst-d2-n111", "sst --d 2 --k 5 --n 111 --seed 1"),
    ("sst-d1-n2000", "sst --d 1 --k 8 --n 2000 --seed 1"),
    ("sst-oracle", "sst --d 2 --k 3 --n 7 --seed 1 --oracle"),
    ("sst-oracle-rp2", "sst --in rp2.txt --oracle --out sst.json"),
    ("oracle-k4", "oracle --in k4.txt"),
    ("limit", "limit --d 2 --k 5 --table 0:12:7"),
    ("limit-d1-k8", "limit --d 1 --k 8"),
    ("limit-d2-k21", "limit --d 2 --k 21"),
    ("missing-file", "oracle --in missing.txt"),
]

DIGEST_WORKLOADS = ("converge-d2-solve", "verify-exact")
DIGEST_ITEMS = 4
DIGEST_SEED = 1  # bench/run.py's default seed: the inputs of a default run, in its order

DIGEST_SCRIPT = """
import json, random, sys, tempfile
from pathlib import Path
tree = Path(sys.argv[1])
sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
import steinerlab
assert Path(steinerlab.__file__).resolve().parent.parent == (tree / "src").resolve(), steinerlab.__file__
from workloads import WORKLOADS
workload = WORKLOADS[sys.argv[2]]
inputs = workload.make_inputs(random.Random(f"{workload.name}:{sys.argv[3]}"), int(sys.argv[4]), workload.params)
with tempfile.TemporaryDirectory() as workdir:
    print(json.dumps([workload.digest(workload.run_item(inp, workload.params, Path(workdir))) for inp in inputs]))
"""


def _env(tree: Path) -> dict:
    return {**os.environ, **THREADS, "PYTHONPATH": str(tree / "src")}


def run_command(tree: Path, args: str) -> dict:
    """Exit code, stdout, stderr and written files of one CLI command against `tree`."""
    with tempfile.TemporaryDirectory(prefix="identity-") as work:
        work = Path(work)
        for name, text in INPUTS.items():
            (work / name).write_text(text)
        done = subprocess.run([sys.executable, "-m", "steinerlab.cli", *args.split()], cwd=work,
                              env=_env(tree), capture_output=True)

        def neutral(data: bytes) -> bytes:  # a path that names the tree or the run's directory
            return data.replace(str(work.resolve()).encode(), b"<run>").replace(str(tree).encode(), b"<tree>")

        files = {str(path.relative_to(work)): neutral(path.read_bytes())
                 for path in sorted(work.rglob("*")) if path.is_file() and path.name not in INPUTS}
    return {"exit code": done.returncode, "stdout": neutral(done.stdout), "stderr": neutral(done.stderr),
            "files": files}


def run_digests(tree: Path, workload: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT, str(tree), workload, str(DIGEST_SEED), str(DIGEST_ITEMS)],
        env=_env(tree), capture_output=True, text=True,
    )
    if done.returncode:
        return [f"error: {(done.stderr.strip().splitlines() or ['exit ' + str(done.returncode)])[-1]}"]
    return json.loads(done.stdout)


def _clip(text: str, width: int = 90) -> str:
    return text if len(text) <= width else text[: width - 3] + "..."


def first_difference(label: str, mine: bytes, theirs: bytes) -> str | None:
    """None when equal, else where two byte strings first differ: a line number and both lines."""
    if mine == theirs:
        return None
    a = mine.decode(errors="replace").splitlines()
    b = theirs.decode(errors="replace").splitlines()
    for number, (x, y) in enumerate(zip(a, b), start=1):
        if x != y:
            return f"{label} line {number}: {_clip(x)!r} (parent {_clip(y)!r})"
    if len(a) != len(b):
        return f"{label}: {len(a)} lines (parent {len(b)})"
    return f"{label}: line endings differ"


def _leaves(node, key: str, fields: dict) -> None:
    """Append each leaf of a parsed JSON document to fields[its key path], list indices dropped."""
    if isinstance(node, dict):
        for name, value in node.items():
            _leaves(value, f"{key}.{name}" if key else name, fields)
    elif isinstance(node, list):
        for value in node:
            _leaves(value, f"{key}[]", fields)
    else:
        fields.setdefault(key, []).append(node)


def fields_of(data: bytes) -> dict | None:
    """The values of a JSON document by key path, or of a CSV table by column (comment lines as one field), else None."""
    text = data.decode(errors="replace")
    try:
        fields: dict = {}
        _leaves(json.loads(text), "", fields)
        return fields
    except ValueError:
        pass
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows) or len(rows[0]) < 2:
        return None
    return {"# comment lines": ["\n".join(comments)], **{name: list(values) for name, *values in zip(*rows)}}


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def field_changes(mine: bytes, theirs: bytes) -> list[str] | None:
    """Each field that moved between two CSV or JSON outputs of one shape, or None unless every moved value is a number."""
    a, b = fields_of(mine), fields_of(theirs)
    if a is None or b is None or list(a) != list(b) or any(len(a[key]) != len(b[key]) for key in a):
        return None
    changes = []
    for key in a:
        moved = [(_number(x), _number(y)) for x, y in zip(a[key], b[key]) if x != y]
        if not moved:
            continue
        if any(x is None or y is None for x, y in moved):
            return None
        largest = max(abs(x - y) / abs(y) if y else float("inf") for x, y in moved)
        changes.append(f"{key}: {len(moved)} of {len(a[key])} values moved, largest relative change {largest:.1e}")
    return changes


def compare(mine: dict, theirs: dict) -> list[str]:
    """Where two runs differ: each moved field of a numeric CSV or JSON output, else its first differing line."""
    if mine["exit code"] != theirs["exit code"]:
        return [f"exit code {mine['exit code']} (parent {theirs['exit code']})"]
    if mine["files"].keys() != theirs["files"].keys():
        return [f"files {sorted(mine['files'])} (parent {sorted(theirs['files'])})"]
    outputs = [("stdout", mine["stdout"], theirs["stdout"]), ("stderr", mine["stderr"], theirs["stderr"])]
    outputs += [(name, mine["files"][name], theirs["files"][name]) for name in mine["files"]]
    found = []
    for label, a, b in outputs:
        if a == b:
            continue
        changes = field_changes(a, b)
        if changes:
            found += [f"{label} {change}" for change in changes]
        else:
            found.append(first_difference(label, a, b))
    return found


def src_lines(tree: Path) -> dict[str, int]:
    """Non-blank lines of each module under the tree's src/steinerlab."""
    return {path.name: sum(1 for line in path.read_text().splitlines() if line.strip())
            for path in sorted((tree / "src" / "steinerlab").glob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the parent tree (a checkout with src/ and bench/)")
    args = ap.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "steinerlab" / "__init__.py").is_file():
        print(f"identity: no steinerlab source under {parent}", file=sys.stderr)
        return 2
    same = total = 0
    for name, command in GRID:
        found = compare(run_command(ROOT, command), run_command(parent, command))
        total += 1
        same += not found
        print(f"{'DIFFERS  ' if found else 'identical'}  {name}: steinerlab {command}"
              + "".join(f"\n           {line}" for line in found), flush=True)
    for workload in DIGEST_WORKLOADS:
        mine, theirs = run_digests(ROOT, workload), run_digests(parent, workload)
        total += 1
        same += mine == theirs
        agree = sum(a == b for a, b in zip(mine, theirs))
        label = f"{workload} digests of the first {DIGEST_ITEMS} items (seed {DIGEST_SEED})"
        detail = f"{agree} of {DIGEST_ITEMS} agree; first: {mine[0][:16]} (parent {theirs[0][:16]})"
        print(f"{'identical' if mine == theirs else 'DIFFERS  '}  {label}"
              + ("" if mine == theirs else f"\n           {detail}"), flush=True)
    print(f"{same} of {total} identical to {parent}")
    mine, theirs = src_lines(ROOT), src_lines(parent)
    print(f"{'src non-blank lines':<24}{'this':>8}{'parent':>8}")
    for name in sorted(mine.keys() | theirs.keys()):
        print(f"  {name:<22}{mine.get(name, '-'):>8}{theirs.get(name, '-'):>8}")
    print(f"  {'total':<22}{sum(mine.values()):>8}{sum(theirs.values()):>8}")
    return 0 if same == total else 1


if __name__ == "__main__":
    sys.exit(main())
