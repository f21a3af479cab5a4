"""Check records, verification reports, and deterministic serialization."""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import require_positive

SCHEMA_TAG = "dirac-disquant/2"

#: Rows per block of a data table.  The generators evaluate, and the writers
#: format and write, this many rows at a time, so neither the whole row
#: array nor the whole text of a table is ever held.
CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class RunConfig:
    """Seed and physical parameters."""

    seed: int = 42
    m: float = 1.0
    m0: float = 1.0
    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        require_positive(m=self.m, m0=self.m0, hbar=self.hbar, c=self.c)


@dataclass(frozen=True)
class CheckRecord:
    """One verification check: pass iff both values are finite and
    residual <= tolerance."""

    check_id: str
    description: str
    residual: float
    tolerance: float
    seed: int

    @property
    def passed(self) -> bool:
        return (math.isfinite(self.residual) and math.isfinite(self.tolerance)
                and self.residual <= self.tolerance)

    def as_dict(self) -> dict:
        return {
            "id": self.check_id,
            "description": self.description,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "seed": self.seed,
        }


@dataclass
class VerificationReport:
    """Outcome of one suite.  Wall times are kept out of the serialized forms
    so identical (command, seed, config) runs produce byte-identical files:
    ``wall_time`` of the whole run and ``suite_times``, the seconds of each
    suite it ran, by name and in order."""

    suite: str
    seed: int
    records: list = field(default_factory=list)
    wall_time: float = 0.0
    suite_times: dict = field(default_factory=dict)

    def add(self, check_id, description, residual, tolerance):
        self.records.append(CheckRecord(
            check_id=check_id,
            description=description,
            residual=float(residual),
            tolerance=float(tolerance),
            seed=self.seed,
        ))

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def counts(self):
        ok = sum(1 for r in self.records if r.passed)
        return ok, len(self.records)

    def failures(self):
        return [r for r in self.records if not r.passed]

    def to_json(self) -> str:
        ok, total = self.counts
        payload = {
            "schema": SCHEMA_TAG,
            "kind": "verification-report",
            "suite": self.suite,
            "seed": self.seed,
            "summary": {"passed": ok, "failed": total - ok, "total": total},
            "checks": [r.as_dict() for r in self.records],
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_csv(self) -> str:
        lines = [f"# schema={SCHEMA_TAG} kind=verification-report suite={self.suite} "
                 f"seed={self.seed}",
                 "id,description,residual,tolerance,passed,seed"]
        for r in self.records:
            desc = r.description.replace(",", ";")
            lines.append(f"{r.check_id},{desc},{fmt(r.residual)},{fmt(r.tolerance)},"
                         f"{int(r.passed)},{r.seed}")
        return "\n".join(lines) + "\n"

    def render(self, out_format):
        return self.to_json() if out_format == "json" else self.to_csv()


def fmt(x) -> str:
    """17 significant digits, '.' decimal separator, no locale surprises."""
    x = float(x)
    if x == 0.0:
        x = 0.0     # normalize -0.0
    return format(x, ".17g")


def row_blocks(n, rows_of):
    """The row blocks of an n-row table, made one at a time:
    ``rows_of(slice)`` for each consecutive ``CSV_BLOCK_ROWS``-row slice."""
    return (rows_of(slice(start, start + CSV_BLOCK_ROWS))
            for start in range(0, n, CSV_BLOCK_ROWS))


def csv_chunks(header_meta: dict, columns: list, blocks):
    """Yield a CSV file: '#' metadata lines and one header line, then the
    lines of each row block, 17-digit numbers.

    ``blocks`` yields (k, len(columns)) arrays, or anything ``np.asarray``
    makes one of.  Each row is written as ``fmt`` writes its values:
    "%.17g", with -0.0 as 0.  Every chunk ends with a whole line, so where
    the blocks split the rows changes no byte.

    Each block is one ``%`` call: a column that holds one value over the
    whole block is formatted once, into the line template, and the other
    values fill k copies of that template.  NaN never equals itself, so a
    NaN column is never taken as constant.
    """
    lines = [f"# {k}={fmt(v) if isinstance(v, float) else v}\n"
             for k, v in header_meta.items()]
    lines.append(",".join(columns) + "\n")
    yield "".join(lines)
    for block in blocks:
        # + 0.0 turns -0.0 into 0.0 and leaves every other value as it is.
        block = np.asarray(block, dtype=float) + 0.0
        if not len(block):
            continue
        const = (block == block[0]).all(axis=0)
        cells = [format(v, ".17g") if same else "%.17g"
                 for v, same in zip(block[0].tolist(), const.tolist())]
        line = ",".join(cells) + "\n"
        yield (line * len(block)) % tuple(block[:, ~const].ravel().tolist())


def json_chunks(meta: dict, columns: list, blocks):
    """Yield the same table as JSON; -0.0 stays -0.0.

    The text is ``json.dumps(payload, indent=2) + "\n"`` of the payload
    {"schema", **meta, "columns", "rows"}, with ``blocks`` as in
    ``csv_chunks``.  ``json.dumps`` writes everything but the rows; each
    block is formatted on its own, one ``%r`` line per value, which is the
    encoder's float repr.  Its NaN and Infinity spellings are put in
    afterwards, since repr says nan and inf.
    """
    # The payload without its rows, less the closing "\n}".
    head = json.dumps({"schema": SCHEMA_TAG, **meta, "columns": columns}, indent=2)[:-2]
    yield head + ',\n  "rows": ['
    values = ",\n".join(["      %r"] * len(columns))
    row = f"    [\n{values}\n    ]" if values else "    []"
    # The first row opens on a new line, every later one after a comma.
    sep = "\n"
    for block in blocks:
        block = np.asarray(block, dtype=float)
        if not len(block):
            continue
        text = ",\n".join([row % tuple(r) for r in block.tolist()])
        if not np.isfinite(block).all():
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        yield sep + text
        sep = ",\n"
    yield "]\n}\n" if sep == "\n" else "\n  ]\n}\n"


def _array_blocks(rows):
    rows = np.asarray(rows, dtype=float)
    return row_blocks(len(rows), rows.__getitem__)


def csv_table(header_meta: dict, columns: list, rows) -> str:
    """The whole text of ``csv_chunks`` for an (n, len(columns)) array of
    rows, or anything ``np.asarray`` makes one of."""
    return "".join(csv_chunks(header_meta, columns, _array_blocks(rows)))


def json_table(meta: dict, columns: list, rows) -> str:
    """The whole text of ``json_chunks`` for the rows of ``csv_table``."""
    return "".join(json_chunks(meta, columns, _array_blocks(rows)))
