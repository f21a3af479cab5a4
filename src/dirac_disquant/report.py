"""Check records, verification reports, and deterministic serialization."""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

SCHEMA_TAG = "dirac-disquant/1"

#: Rows formatted per block by ``csv_table`` and ``json_table``; bounds
#: their temporary lists.
CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class RunConfig:
    """Seed, tolerance scale, and physical parameters."""

    seed: int = 42
    tol_scale: float = 1.0
    m: float = 1.0
    m0: float = 1.0
    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        for name in ("tol_scale", "m", "m0", "hbar", "c"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise DomainError(f"{name.replace('_', '-')} must be finite and "
                                  f"positive, got {value!r}")


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
    """Outcome of one suite.  Wall time is kept out of the serialized forms
    so identical (command, seed, config) runs produce byte-identical files."""

    suite: str
    seed: int
    tol_scale: float
    records: list = field(default_factory=list)
    wall_time: float = 0.0

    def add(self, check_id, description, residual, tolerance):
        self.records.append(CheckRecord(
            check_id=check_id,
            description=description,
            residual=float(residual),
            tolerance=float(tolerance) * self.tol_scale,
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
            "tol_scale": self.tol_scale,
            "summary": {"passed": ok, "failed": total - ok, "total": total},
            "checks": [r.as_dict() for r in self.records],
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_csv(self) -> str:
        lines = [f"# schema={SCHEMA_TAG} kind=verification-report suite={self.suite} "
                 f"seed={self.seed} tol_scale={fmt(self.tol_scale)}",
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


def csv_table(header_meta: dict, columns: list, rows) -> str:
    """A CSV file: '#' metadata lines, one header line, 17-digit numbers.

    ``rows`` is an (n, len(columns)) array or anything ``np.asarray`` makes
    one of.  Each row is written as ``fmt`` writes its values: "%.17g",
    with -0.0 as 0.
    """
    lines = [f"# {k}={fmt(v) if isinstance(v, float) else v}"
             for k, v in header_meta.items()]
    lines.append(",".join(columns))
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * len(columns))
    for start in range(0, len(rows), CSV_BLOCK_ROWS):
        # + 0.0 turns -0.0 into 0.0 and leaves every other value as it is.
        block = rows[start:start + CSV_BLOCK_ROWS] + 0.0
        lines.append("\n".join([line % tuple(row) for row in block.tolist()]))
    return "\n".join(lines) + "\n"


def json_table(meta: dict, columns: list, rows) -> str:
    """The same table as JSON; -0.0 stays -0.0.

    The text is ``json.dumps(payload, indent=2) + "\n"`` of the payload
    {"schema", **meta, "columns", "rows"}.  ``json.dumps`` writes everything
    but the rows; the rows are formatted in blocks of ``CSV_BLOCK_ROWS``, one
    ``%r`` line per value, which is the encoder's float repr.  Its NaN and
    Infinity spellings are put in afterwards, since repr says nan and inf.
    """
    # The payload without its rows, less the closing "\n}".
    head = json.dumps({"schema": SCHEMA_TAG, **meta, "columns": columns}, indent=2)[:-2]
    rows = np.asarray(rows, dtype=float)
    if len(rows) == 0:
        return head + ',\n  "rows": []\n}\n'
    values = ",\n".join(["      %r"] * rows.shape[1])
    row = f"    [\n{values}\n    ]" if values else "    []"
    blocks = []
    for start in range(0, len(rows), CSV_BLOCK_ROWS):
        block = rows[start:start + CSV_BLOCK_ROWS]
        text = ",\n".join([row % tuple(r) for r in block.tolist()])
        if not np.isfinite(block).all():
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        blocks.append(text)
    body = ",\n".join(blocks)
    return f'{head},\n  "rows": [\n{body}\n  ]\n}}\n'
