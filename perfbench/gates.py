"""Certificate gates, output fingerprint and exact output counts, all read
from the files an nsac CLI study wrote.

A gate is (name, passed, detail). The thresholds are the acceptance
criteria's: the energy audit tolerance and the maximum-principle bounds of
criteria 3 and 4, the REI and weak-strong checks of criteria 6 and 7, and
the convergence-order ranges of the ``mms`` command.
"""

from __future__ import annotations

import hashlib
import math
import os

MANIFEST = "manifest.json"  # carries wall-clock timestamps, so not hashed
AUDIT_TOL = 1e-6
MAX_PRINCIPLE_TOL = 1e-6
REI_SLACK_TOL = 1e-3


def read_csv(path: str) -> dict[str, list[float]]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def read_vtk(path: str) -> dict[str, list[float]]:
    """Cell scalars of a legacy ASCII STRUCTURED_POINTS file by name."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    fields = {}
    ncells = 0
    i = 0
    while i < len(lines):
        words = lines[i].split()
        if words[:1] == ["CELL_DATA"]:
            ncells = int(words[1])
        elif words[:1] == ["SCALARS"]:
            start = i + 2  # skip LOOKUP_TABLE
            fields[words[1]] = [float(v) for v in lines[start:start + ncells]]
            i = start + ncells - 1
        i += 1
    return fields


def _finite(columns) -> bool:
    return all(math.isfinite(v) for col in columns for v in col)


def simulate_gates(out: str, cfg: dict) -> tuple[list, bool]:
    energy = read_csv(os.path.join(out, "energy.csv"))
    finite = _finite(energy.values())
    worst = max(energy["audit_violation"])
    gates = [("energy.audit", worst <= AUDIT_TOL,
              f"max audit_violation {worst:.3e} <= {AUDIT_TOL:g}")]
    snaps = sorted(f for f in os.listdir(out) if f.endswith(".vtk"))
    c0 = read_vtk(os.path.join(out, snaps[0]))["c"]
    # criterion 4: hull of the initial range and the quartic minimizers +-1
    lo, hi = min(min(c0), -1.0), max(max(c0), 1.0)
    for name in snaps:
        fields = read_vtk(os.path.join(out, name))
        finite = finite and _finite(fields.values())
        c = fields["c"]
        ok = lo - MAX_PRINCIPLE_TOL <= min(c) and max(c) <= hi + MAX_PRINCIPLE_TOL
        gates.append((f"max_principle.{name}", ok,
                      f"c in [{min(c):.9f}, {max(c):.9f}] within [{lo:.9f}, {hi:.9f}] +- 1e-6"))
    return gates, finite


def wsu_gates(out: str, cfg: dict) -> tuple[list, bool]:
    levels = [int(v) for v in cfg["wsu.levels"].split(",")]
    entropy = {n: read_csv(os.path.join(out, f"entropy_{n}.csv")) for n in levels}
    rei = {n: read_csv(os.path.join(out, f"rei_{n}.csv")) for n in levels}
    finite = all(_finite(t.values()) for t in list(entropy.values()) + list(rei.values()))
    maxima = [max(entropy[n]["E"]) for n in levels]
    ratio = maxima[0] / maxima[1] if maxima[1] > 0 else math.inf

    def excess(n):
        r = rei[n]
        worst = 0.0
        for gap, visc, ac, slack in zip(r["lhs_entropy_gap"], r["lhs_visc"],
                                        r["lhs_ac"], r["slack"]):
            lhs = gap + visc + ac
            worst = max(worst, -slack - REI_SLACK_TOL * (1.0 + abs(lhs)))
        return worst

    def raw(n):
        return max(0.0, max(-s for s in rei[n]["slack"]))

    coarse, mid = levels[-3], levels[-2]
    gates = [
        ("wsu.twin_zero", maxima[-1] == 0.0, f"twin max E {maxima[-1]!r} bitwise 0"),
        ("wsu.monotone", all(b < a for a, b in zip(maxima, maxima[1:])),
         f"max E {maxima} strictly decreasing"),
        ("wsu.ratio", ratio >= 2.0, f"max E ratio {coarse}/{mid} {ratio:.3f} >= 2"),
        ("rei.tolerance", excess(mid) == 0.0,
         f"{mid}^2 slack beyond -1e-3(1+|LHS|): {excess(mid):.3e} == 0"),
        ("rei.refinement", raw(coarse) >= 2.0 * raw(mid),
         f"raw deficit {coarse}^2 {raw(coarse):.3e} >= 2x {mid}^2 {raw(mid):.3e}"),
    ]
    return gates, finite


def mms_gates(out: str, cfg: dict) -> tuple[list, bool]:
    spatial = read_csv(os.path.join(out, "mms_spatial.csv"))
    temporal = read_csv(os.path.join(out, "mms_temporal.csv"))
    finite = _finite(spatial.values()) and _finite(temporal.values())
    gates = []
    for label, errors, lo, hi in (("spatial", spatial["error"], 1.7, 2.3),
                                  ("temporal", temporal["difference"], 0.8, 1.2)):
        for i in range(len(errors) - 1):
            order = math.log2(errors[i] / errors[i + 1]) if errors[i + 1] > 0 else math.nan
            gates.append((f"mms.{label}_order_{i}", lo <= order <= hi,
                          f"{label} order {order:.4f} in [{lo}, {hi}]"))
    return gates, finite


def fingerprint(out: str) -> str:
    """sha256 over the names and bytes of every output but the manifest."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        if name == MANIFEST:
            continue
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out, name), "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    return digest.hexdigest()


def output_counts(out: str) -> dict[str, int]:
    """Files, bytes and CSV data rows written (the manifest excluded)."""
    names = [n for n in sorted(os.listdir(out)) if n != MANIFEST]
    counts = {"io.files": len(names),
              "io.bytes_written": sum(os.path.getsize(os.path.join(out, n)) for n in names)}
    for name in names:
        if name.endswith(".csv"):
            with open(os.path.join(out, name)) as fh:
                counts[f"rows.{name}"] = sum(1 for line in fh if line.strip()) - 1
    return counts
