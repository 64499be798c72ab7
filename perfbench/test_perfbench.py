"""Tests of the benchmark's own arithmetic and correctness gate.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
from spans import layer_totals, self_times  # noqa: E402


def test_self_time_subtracts_nested_children():
    # main > mobius_one_var > predecessor_table, then main > invert_zeta > verify_inverse
    spans = [
        (0, -1, "cli.main", 0.0, 10.0),
        (1, 0, "mobius.mobius_one_var", 1.0, 7.0),
        (2, 1, "poset.predecessor_table", 2.0, 6.0),
        (3, 0, "mobius.invert_zeta", 7.5, 9.5),
        (4, 3, "mobius.verify_inverse", 8.0, 9.0),
    ]
    assert self_times(spans) == {0: 2.0, 1: 2.0, 2: 4.0, 3: 1.0, 4: 1.0}
    totals = layer_totals(spans)
    assert totals["mobius.invert_zeta"] == (1.0, 1)
    # self times partition the root span
    assert sum(self_s for self_s, _ in totals.values()) == 10.0


def test_self_time_clips_and_merges_children():
    spans = [
        (0, -1, "outer", 0.0, 4.0),
        (1, 0, "a", 1.0, 3.0),
        (2, 0, "b", 2.0, 5.0),  # overlaps a and runs past the parent
    ]
    assert self_times(spans)[0] == 1.0


def _trace(tmp_path: Path, *argv: str) -> dict:
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "trace_driver.py"), str(spans_path), "--", *argv],
        cwd=tmp_path, env=run.child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans_path.read_text(encoding="utf-8"))


def test_traced_command_nests_the_layer_calls(tmp_path):
    recorded = _trace(tmp_path, "mobius-matrix", "-n", "30", "--out", "m.csv")
    by_id = {s[0]: s for s in recorded["spans"]}
    names = {s[0]: s[2] for s in recorded["spans"]}
    parent_of = {s[2]: names.get(s[1]) for s in recorded["spans"] if s[2] != "trace.count"}
    assert parent_of["mobius.verify_inverse"] == "mobius.invert_zeta"
    assert parent_of["poset.predecessor_table"] == "mobius.zeta_matrix"
    assert parent_of["cli.main"] is None
    own = self_times(recorded["spans"])
    assert all(v >= 0 for v in own.values())
    # self times partition the root spans: cli.main and the count after it
    roots = [s for s in by_id.values() if s[1] == -1]
    assert abs(sum(own.values()) - sum(end - start for *_, start, end in roots)) < 1e-9
    invert = next(s for s in by_id.values() if s[2] == "mobius.invert_zeta")
    verify = next(s for s in by_id.values() if s[2] == "mobius.verify_inverse")
    assert own[invert[0]] < invert[4] - invert[3] - (verify[4] - verify[3]) + 1e-9

    recorded = _trace(tmp_path, "sums", "-n", "1000")
    names = {s[0]: s[2] for s in recorded["spans"]}
    parent_of = {s[2]: names.get(s[1]) for s in recorded["spans"] if s[2] != "trace.count"}
    assert parent_of["poset.predecessor_table"] == "mobius.mobius_one_var"
    assert recorded["counters"]["poset.pred_entries"] > 0


def test_gate_counts_one_altered_bfile_value(tmp_path):
    from trimobius import classical_mertens, classical_mobius, format_bfile

    expected = format_bfile(classical_mertens(classical_mobius(1000)).ys)
    cmd = run.Command(
        "classical", ("classical", "-n", "1000", "--series", "mertens", "--format", "bfile"),
        1000, "classical.b",
        gate.bfile_check(1000, 2, hashlib.sha256(expected.encode("ascii")).hexdigest()),
    )
    outcome = run.run_command(cmd, tmp_path, traced=False, deadline=perf_counter() + 120)
    attempted, errors = run.tally([outcome], None)
    assert (attempted, errors) == (3, [])

    path = tmp_path / "classical.b"
    lines = path.read_text(encoding="ascii").splitlines(keepends=True)
    index, value = lines[499].split()
    lines[499] = f"{index} {int(value) + 1}\n"
    path.write_text("".join(lines), encoding="ascii")
    outcome.check_error = run.check_output(cmd, "", tmp_path)
    attempted, errors = run.tally([outcome], None)
    assert errors and "sha256" in errors[0]
    assert run.failed_frac(attempted, errors) > 0


def test_oracle_flags_a_missing_hasse_edge(tmp_path):
    from trimobius import DivisibilityPoset, SequenceKind, hasse_to_dot

    outputs = [cmd.out for cmd in run.WORKLOADS["hasse"]]
    assert outputs == ["hasse.dot", "hasse-identity.dot"]  # the files the oracle reads
    for name, kind in zip(outputs, (SequenceKind.TRIANGULAR, SequenceKind.IDENTITY)):
        graph = DivisibilityPoset(kind, 30).hasse_edges(30)
        (tmp_path / name).write_text(hasse_to_dot(graph), encoding="ascii")
    assert gate.oracle_hasse(tmp_path, random.Random(5)) is None

    # drop the in-edges of 30 from the identity diagram; some seed samples row 30
    path = tmp_path / "hasse-identity.dot"
    kept = [line for line in path.read_text(encoding="ascii").splitlines(keepends=True)
            if not line.endswith("-> 30;\n")]
    path.write_text("".join(kept), encoding="ascii")
    assert any(gate.oracle_hasse(tmp_path, random.Random(seed)) for seed in range(20))
