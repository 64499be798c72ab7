"""Correctness gate for the benchmark's commands.

Every check returns None when the output is right and a one-line reason
when it is not.  The expected values are those of the seed implementation;
exact-integer outputs are also pinned by their SHA-256.  The seeded oracle
checks sample rows and recompute them by an independent route; they run
after the timed passes and import trimobius from the working tree.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

SHA256 = {
    "hasse": "3e398ff08c3513fcce5aa64ec4024a06fc69b6eefdf0f68d344ebc6204459678",
    "hasse-identity": "7dec14255a1af989668124fc45d578e566a3fc545a9fffe4673fd2b34b0fafa6",
    "mobius-matrix": "9bfc9bd29283f3bf5d6491d470c858e3a9fa1809870047f056f58674e600e8ac",
    "classical": "cebc4c6db547d5f25b6a7b60d18d51cd71a2170498922ced864ba9853ed28913",
}

# Rows each oracle check samples per output file.
ORACLE_ROWS = 6


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _hash_error(path: Path, expected: str) -> str | None:
    actual = _sha256(path)
    if actual != expected:
        return f"{path.name}: sha256 {actual[:12]}... differs from the pinned {expected[:12]}..."
    return None


def check_sums(stdout: str, path: Path) -> str | None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if len(payload["ys"]) != 100_000:
        return f"sums: {len(payload['ys'])} values, expected 100000"
    if payload["final_value"] != -3708:
        return f"sums: final value {payload['final_value']}, expected -3708"
    if payload.get("slope_estimate_exact") != "-3709/99999":
        return f"sums: exact slope {payload.get('slope_estimate_exact')}, expected -3709/99999"
    return None


def check_ratio_sums(stdout: str, path: Path) -> str | None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if len(payload["ys"]) != 100_000:
        return f"ratio-sums: {len(payload['ys'])} values, expected 100000"
    final = payload["final_value"]
    if abs(final - 0.49860073566269036) > 1e-12:
        return f"ratio-sums: final value {final!r}, expected 0.49860073566269036 within 1e-12"
    return None


def check_abs_sums_svg(stdout: str, path: Path) -> str | None:
    text = path.read_text(encoding="utf-8")
    # |mu| partial sums never decrease, so the y-axis maximum is the final value
    if 'text-anchor="end">49118</text>' not in text:
        return "abs-sums: y-axis maximum label is not the final value 49118"
    points = text.split('points="', 1)[1].split('"', 1)[0].split()
    if len(points) != 100_000:
        return f"abs-sums: polyline has {len(points)} points, expected 100000"
    return None


def dot_check(edge_count: int, sha256: str):
    def check(stdout: str, path: Path) -> str | None:
        text = path.read_text(encoding="utf-8")
        edges = text.count(" -> ")
        if edges != edge_count:
            return f"{path.name}: {edges} edges, expected {edge_count}"
        return _hash_error(path, sha256)

    return check


def bfile_check(last_index: int, last_value: int, sha256: str):
    def check(stdout: str, path: Path) -> str | None:
        with path.open("rb") as fh:
            fh.seek(max(0, path.stat().st_size - 64))
            last = fh.read().decode("ascii").splitlines()[-1]
        if last != f"{last_index} {last_value}":
            return f"{path.name}: last line {last!r}, expected '{last_index} {last_value}'"
        return _hash_error(path, sha256)

    return check


def sha_check(sha256: str):
    def check(stdout: str, path: Path) -> str | None:
        return _hash_error(path, sha256)

    return check


def check_verify(stdout: str, path: None) -> str | None:
    return None if stdout == "OK\n" else f"verify: printed {stdout[:80]!r}, expected 'OK'"


def check_props(stdout: str, path: None) -> str | None:
    lines = stdout.splitlines()
    if [line[:8] for line in lines] != ["prop1 OK", "prop2 OK"]:
        return f"props: printed {stdout[:120]!r}, expected prop1 OK and prop2 OK"
    return None


def check_oeis_diff(stdout: str, path: None) -> str | None:
    if not stdout.startswith("match over indices 1..10 "):
        return f"oeis-diff: printed {stdout[:80]!r}, expected a match over indices 1..10"
    return None


# Seeded oracle checks: (workdir, rng) -> None or a reason.


def oracle_tri_series(workdir: Path, rng: random.Random) -> str | None:
    """Zero sum of sampled rows of the sums output over trial-division predecessors."""
    from trimobius import DivisibilityPoset, SequenceKind

    ys = json.loads((workdir / "sums.json").read_text(encoding="utf-8"))["ys"]
    mu = [0, ys[0]] + [b - a for a, b in zip(ys, ys[1:])]
    poset = DivisibilityPoset(SequenceKind.TRIANGULAR, len(ys))
    for k in sorted(rng.sample(range(2, len(ys) + 1), ORACLE_ROWS)):
        if mu[k] + sum(mu[d] for d in poset.strict_predecessors_trial(k)) != 0:
            return f"sums: mu({k}) from the output breaks the zero sum over trial predecessors"
    return None


def _read_dot(path: Path) -> tuple[int, dict[int, list[int]]]:
    """Element count and in-edges per element of a DOT Hasse diagram."""
    n = 0
    edges: dict[int, list[int]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.strip().rstrip(";").split(" -> ")
        if len(fields) == 2:
            edges.setdefault(int(fields[1]), []).append(int(fields[0]))
        elif fields[0].isdigit():
            n = max(n, int(fields[0]))
    return n, edges


def oracle_hasse(workdir: Path, rng: random.Random) -> str | None:
    """DOT in-edges of sampled elements against covers() over trial predecessors."""
    from trimobius import DivisibilityPoset, SequenceKind

    for name, kind in (("hasse.dot", SequenceKind.TRIANGULAR),
                       ("hasse-identity.dot", SequenceKind.IDENTITY)):
        n, edges = _read_dot(workdir / name)
        poset = DivisibilityPoset(kind, n)
        for j in sorted(rng.sample(range(2, n + 1), ORACLE_ROWS)):
            expected = [i for i in poset.strict_predecessors_trial(j) if poset.covers(i, j)]
            found = sorted(edges.get(j, []))
            if found != expected:
                return f"{name}: in-edges of {j} are {found}, covers give {expected}"
    return None


def _classical_mu(n: int) -> int:
    """Classical Mobius value by trial division."""
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def oracle_checks(workdir: Path, rng: random.Random) -> str | None:
    """Sampled steps of the classical Mertens b-file against trial-division mu."""
    lines = (workdir / "classical.b").read_text(encoding="ascii").splitlines()
    mertens = [0] + [int(line.split()[1]) for line in lines]
    for n in sorted(rng.sample(range(1, len(lines) + 1), 50 * ORACLE_ROWS)):
        if mertens[n] - mertens[n - 1] != _classical_mu(n):
            return f"classical.b: M({n}) - M({n - 1}) is not the classical mu({n})"
    return None
