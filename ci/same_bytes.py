#!/usr/bin/env python3
"""Same outputs as another tree of this repository, usually the parent commit.

    python ci/same_bytes.py OTHER_TREE

Runs every argv of ci/same-bytes.argv once with this tree's package and
once with OTHER_TREE's, both under this python with RuntimeWarning as an
error, and compares each pair of outputs.

- A ``verify`` output, JSON or CSV, is compared record by record, by check
  id, and each record prints SAME, MOVED, NEW or GONE.  The summary must
  follow from the records.  The other fields are compared after the schema
  string is normalized, and may differ only when report.SCHEMA_TAG changed.
  When the tag is unchanged and every record is SAME, the two files must
  have the same bytes.
- Every other output, a generator table or an ``identify`` payload, must
  have the same bytes after the schema string is normalized.
- An argv that exits 0 here but not in OTHER_TREE prints NEW and is not
  compared: it names a flag or a generator that OTHER_TREE does not have.

ci/moves.txt lists the check ids and argvs whose output may move in this
commit, one "ENTRY: REASON" a line.  The gate exits 1 when an unlisted id
is MOVED or GONE, when an unlisted argv's output differs, when a listed
entry did not move (so the file cannot go stale), or when an argv fails in
this tree; a failure prints the tail of that run's stderr.  Exits 0
otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
PLACEHOLDER = "SCHEMA"


def read_moves(path):
    """{entry: reason} of a moves file; an entry is a check id or an argv."""
    moves = {}
    for n, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        entry, sep, reason = line.partition(": ")
        if not sep or not entry.strip() or not reason.strip():
            sys.exit(f"{path}:{n}: want 'ENTRY: REASON', got {line!r}")
        moves[entry.strip()] = reason.strip()
    return moves


def parse_report(text, out_format):
    """(fields, records) of a verify report: its fields other than the
    records and the summary, in order, and {check id: record text}, in
    order.  Raises ValueError when the summary does not follow from the
    records."""
    if out_format == "json":
        payload = json.loads(text)
        checks = payload.pop("checks")
        summary = payload.pop("summary")
        ok = sum(1 for c in checks if c["passed"] is True)
        if summary != {"passed": ok, "failed": len(checks) - ok, "total": len(checks)}:
            raise ValueError(f"summary {summary} does not follow from the records")
        return list(payload.items()), {c["id"]: json.dumps(c) for c in checks}
    meta, columns, *rows = text.splitlines()
    return [meta, columns], {r.split(",", 1)[0]: r for r in rows}


def chunks(path, tag):
    """The bytes of a file, in chunks, with the first ``tag`` of its first
    4 KiB replaced by the placeholder; no chunk is empty."""
    with open(path, "rb") as f:
        head = f.read(4096)
        yield head.replace(tag.encode(), PLACEHOLDER.encode(), 1)
        while block := f.read(1 << 20):
            yield block


def same_chunks(a, b):
    """Whether two iterables of non-empty bytes chunks join to the same bytes."""
    a, b = iter(a), iter(b)
    x = y = b""
    while True:
        x = x or next(a, b"")
        y = y or next(b, b"")
        if not x or not y:
            return not x and not y
        n = min(len(x), len(y))
        if x[:n] != y[:n]:
            return False
        x, y = x[n:], y[n:]


class Gate:
    """Compares output pairs against a moves file and counts what fails."""

    def __init__(self, moves, tag_here, tag_other):
        self.moves = moves
        self.tags = (tag_here, tag_other)
        self.moved = set()
        self.bad = 0

    def fail(self, message):
        print(message)
        self.bad += 1

    def compare_report(self, line, here, other, out_format):
        """Diff two verify reports, given as text, record by record."""
        tags_differ = self.tags[0] != self.tags[1]
        try:
            fields, recs = parse_report(here.replace(self.tags[0], PLACEHOLDER, 1), out_format)
            fields_o, recs_o = parse_report(other.replace(self.tags[1], PLACEHOLDER, 1),
                                            out_format)
        except (ValueError, KeyError) as exc:
            return self.fail(f"UNREADABLE ({exc!r}): {line}")
        listed = line in self.moves
        # Whether a record moved or went, or the order or the fields changed.
        changed = False
        new = [i for i in recs if i not in recs_o]
        for check_id in [*recs, *(i for i in recs_o if i not in recs)]:
            mine, theirs = recs.get(check_id), recs_o.get(check_id)
            status = ("NEW" if theirs is None else "GONE" if mine is None
                      else "SAME" if mine == theirs else "MOVED")
            if status in ("SAME", "NEW"):
                print(f"{status} {check_id}: {line}")
                continue
            changed = True
            self.moved.add(check_id)
            detail = f"\n    was {theirs}" + ("" if mine is None else f"\n    now {mine}")
            if listed or check_id in self.moves:
                print(f"{status} {check_id} (listed): {line}{detail}")
            else:
                self.fail(f"{status} {check_id}, not in ci/moves.txt: {line}{detail}")
        if [i for i in recs if i in recs_o] != [i for i in recs_o if i in recs]:
            changed = True
            self.fail(f"ORDER of the records changed: {line}")
        if fields != fields_o:
            changed = True
            report = f"{line}\n    was {fields_o}\n    now {fields}"
            if tags_differ:
                print(f"FIELDS changed with the schema tag: {report}")
            else:
                self.fail(f"FIELDS changed, schema tag unchanged: {report}")
        if changed and listed:
            self.moved.add(line)
        if not (changed or new or tags_differ or here == other):
            self.fail(f"DIFFERS in bytes, every record SAME: {line}")

    def compare_output(self, line, here, other):
        """cmp two output files after the schema string is normalized."""
        if same_chunks(chunks(here, self.tags[0]), chunks(other, self.tags[1])):
            print(f"SAME: {line}")
        elif line in self.moves:
            self.moved.add(line)
            print(f"MOVED (listed): {line}")
        else:
            self.fail(f"DIFFERS: {line}")

    def finish(self):
        """Fail every listed entry that did not move; True when nothing failed."""
        for entry in self.moves:
            if entry not in self.moved:
                self.fail(f"STALE: {entry} is in ci/moves.txt but did not move")
        return self.bad == 0


def schema_tag(tree):
    """report.SCHEMA_TAG of a tree, imported from that tree and no other."""
    code = ("import sys, dirac_disquant.report as r\n"
            "if not r.__file__.startswith(sys.argv[1]):\n"
            "    sys.exit(f'imported {r.__file__}, not from {sys.argv[1]}')\n"
            "print(r.SCHEMA_TAG)")
    proc = subprocess.run([sys.executable, "-c", code, f"{tree}/src/"],
                          env={**os.environ, "PYTHONPATH": f"{tree}/src"},
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(proc.stderr)
    return proc.stdout.strip()


def run(tree, argv, out):
    """Run one argv with a tree's package; (exit status, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "dirac_disquant.cli",
         *argv, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": f"{tree}/src"},
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    return proc.returncode, proc.stderr


def tail(text, n):
    return "\n".join("    " + s for s in text.splitlines()[-n:])


def main(other):
    other = Path(other).resolve()
    gate = Gate(read_moves(HERE / "ci" / "moves.txt"), schema_tag(HERE), schema_tag(other))
    if gate.tags[0] != gate.tags[1]:
        print(f"schema tag changed from {gate.tags[1]} to {gate.tags[0]}")
    lines = [s.strip() for s in (HERE / "ci" / "same-bytes.argv").read_text().splitlines()]
    lines = [s for s in lines if s and not s.startswith("#")]
    new = 0
    with tempfile.TemporaryDirectory() as tmp:
        here_out, other_out = Path(tmp, "here"), Path(tmp, "other")
        for line in lines:
            argv = line.split()
            for path in (here_out, other_out):
                path.unlink(missing_ok=True)
            status, err = run(HERE, argv, here_out)
            if status != 0:
                gate.fail(f"FAILED (exit {status} in {HERE}): {line}\n{tail(err, 20)}")
                continue
            status, err = run(other, argv, other_out)
            if status != 0:
                print(f"NEW (exit {status} in {other}): {line}\n{tail(err, 1)}")
                new += 1
            elif argv[0] == "verify":
                out_format = argv[argv.index("--format") + 1] if "--format" in argv else "json"
                gate.compare_report(line, here_out.read_text(), other_out.read_text(),
                                    out_format)
            else:
                gate.compare_output(line, here_out, other_out)
    ok = gate.finish()
    print(f"{len(lines)} argvs compared with {other}: {new} new, {gate.bad} bad")
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(main(sys.argv[1]))
