"""The byte gate's record comparison, on synthetic verify reports."""

import importlib.util
from pathlib import Path

import pytest

from dirac_disquant.report import SCHEMA_TAG, VerificationReport

_spec = importlib.util.spec_from_file_location(
    "same_bytes", Path(__file__).resolve().parent.parent / "ci" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)

LINE = "verify all"


def report(out_format, *records):
    """A rendered report of (check id, residual, tolerance) records."""
    rep = VerificationReport(suite="all", seed=42)
    for check_id, residual, tolerance in records:
        rep.add(check_id, f"the {check_id} check", residual, tolerance)
    return rep.render(out_format)


BASE = (("alpha", 1e-14, 1e-12), ("beta", 0.0, 1e-10), ("gamma", 3e-9, 1e-8))


def gate_result(out_format, here, moves=(), other=BASE, tags=(SCHEMA_TAG, SCHEMA_TAG)):
    """(whether it passed, the gate) of a gate over one pair of reports."""
    gate = same_bytes.Gate({entry: "reason" for entry in moves}, *tags)
    gate.compare_report(LINE, report(out_format, *here), report(out_format, *other),
                        out_format)
    return gate.finish(), gate


@pytest.fixture(params=["json", "csv"])
def out_format(request):
    return request.param


TOLERANCE_CHANGED = (BASE[0], ("beta", 0.0, 1e-11), BASE[2])


def test_unlisted_tolerance_change_fails(out_format, capsys):
    passed, gate = gate_result(out_format, TOLERANCE_CHANGED)
    out = capsys.readouterr().out
    assert not passed and gate.bad == 1
    assert "MOVED beta, not in ci/moves.txt: verify all" in out
    assert "SAME alpha: verify all" in out and "SAME gamma: verify all" in out


def test_listed_tolerance_change_passes(out_format, capsys):
    passed, gate = gate_result(out_format, TOLERANCE_CHANGED, moves=["beta"])
    assert passed and gate.bad == 0
    assert "MOVED beta (listed): verify all" in capsys.readouterr().out


def test_new_check_prints_new(out_format, capsys):
    passed, _ = gate_result(out_format, (*BASE, ("delta", 0.5, 1.0)))
    assert passed
    assert "NEW delta: verify all" in capsys.readouterr().out


def test_listed_id_that_does_not_move_fails(out_format, capsys):
    passed, gate = gate_result(out_format, BASE, moves=["beta"])
    assert not passed and gate.bad == 1
    assert "STALE: beta is in ci/moves.txt but did not move" in capsys.readouterr().out


def test_gone_check_fails_unless_listed(out_format, capsys):
    assert not gate_result(out_format, BASE[:2])[0]
    assert "GONE gamma, not in ci/moves.txt" in capsys.readouterr().out
    assert gate_result(out_format, BASE[:2], moves=["gamma"])[0]


def test_fields_may_change_only_with_the_tag(out_format, capsys):
    here = report(out_format, *BASE)
    other = here.replace(SCHEMA_TAG, "old/1").replace("42", "43", 1)
    for tags, passed in (((SCHEMA_TAG, SCHEMA_TAG), False), ((SCHEMA_TAG, "old/1"), True)):
        gate = same_bytes.Gate({}, *tags)
        gate.compare_report(LINE, here, other, out_format)
        assert gate.finish() is passed
    out = capsys.readouterr().out
    assert "FIELDS changed, schema tag unchanged" in out
    assert "FIELDS changed with the schema tag" in out


def test_same_records_in_other_bytes_fail_under_one_tag(capsys):
    here = report("json", *BASE)
    gate = same_bytes.Gate({}, SCHEMA_TAG, SCHEMA_TAG)
    gate.compare_report(LINE, here, here.replace("\n", "\r\n"), "json")
    assert not gate.finish()
    assert "DIFFERS in bytes, every record SAME" in capsys.readouterr().out


def test_summary_must_follow_from_the_records(capsys):
    here = report("json", *BASE).replace('"failed": 0', '"failed": 1')
    gate = same_bytes.Gate({}, SCHEMA_TAG, SCHEMA_TAG)
    gate.compare_report(LINE, here, report("json", *BASE), "json")
    assert not gate.finish()
    assert "UNREADABLE" in capsys.readouterr().out


def test_output_comparison_normalizes_the_tag_only(tmp_path):
    here, other = tmp_path / "here", tmp_path / "other"
    body = "".join(f"{i},{i * 0.5}\n" for i in range(3000))
    here.write_text(f'{{"schema": "{SCHEMA_TAG}"}}\n{body}')
    other.write_text(f'{{"schema": "old/10"}}\n{body}')
    assert same_bytes.same_chunks(same_bytes.chunks(here, SCHEMA_TAG),
                                  same_bytes.chunks(other, "old/10"))
    other.write_text(f'{{"schema": "old/10"}}\n{body}x')
    assert not same_bytes.same_chunks(same_bytes.chunks(here, SCHEMA_TAG),
                                      same_bytes.chunks(other, "old/10"))


@pytest.mark.parametrize("size", [1, 7, 4096])
def test_chunk_boundaries_do_not_matter(size):
    data = bytes(range(256)) * 40
    split = [data[i:i + size] for i in range(0, len(data), size)]
    assert same_bytes.same_chunks(split, [data])
    assert not same_bytes.same_chunks(split, [data[:-1]])
    assert not same_bytes.same_chunks([data[:-1]], split)
