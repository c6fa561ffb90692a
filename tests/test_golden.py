"""Golden outputs: each CLI command runs on a small config under
``tests/golden/``, and every file it writes (the manifest, which holds
timestamps, excepted) must match the sha256 recorded in
``tests/golden/outputs.json``, as must its exit code.

A change that is meant to alter the numerics records the hashes again in
the same commit, with ``PYTHONPATH=src python tests/test_golden.py`` (which
prints each changed exit code and each output file added, removed or
changed), and names each altered file and its tolerance in ``CHANGES.md``.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from nsac.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RECORD = GOLDEN / "outputs.json"
RUNS = (
    ("simulate", "spinodal-16.cfg"),
    ("energy-audit", "spinodal-16.cfg"),
    ("perturb", "bubble-8-32.cfg"),
    ("wsu", "bubble-8-32.cfg"),
    ("wsu", "bubble-16-64.cfg"),
    ("mms", "mms-8-16.cfg"),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(command: str, config: str, out: Path) -> dict:
    """Exit code, and per output file its sha256 and a short hash per line
    (the line hashes locate the first difference)."""
    code = main([command, "--config", str(GOLDEN / config), "--out", str(out), "--quiet"])
    files = {}
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            data = path.read_bytes()
            lines = " ".join(_sha256(line)[:8] for line in data.splitlines())
            files[path.name] = {"sha256": _sha256(data), "lines": lines}
    return {"code": code, "files": files}


def _first_difference(name: str, want: dict, got: dict, out: Path) -> str:
    lines = (out / name).read_bytes().splitlines()
    recorded, now = want["lines"].split(), got["lines"].split()
    for i, (a, b) in enumerate(zip(recorded, now)):
        if a != b:
            return f"{name} line {i + 1} differs, now {lines[i].decode()!r}"
    return f"{name} has {len(now)} lines, recorded {len(recorded)}"


@pytest.mark.parametrize("command, config", RUNS)
def test_outputs_match_the_recorded_hashes(tmp_path, command, config):
    record = json.loads(RECORD.read_text())
    want = record["runs"][f"{command} {config}"]
    got = _run(command, config, tmp_path)
    versions = f"hashes recorded with numpy {record['numpy']}, running {np.__version__}"
    assert got["code"] == want["code"], versions
    assert sorted(got["files"]) == sorted(want["files"]), versions
    for name, digest in want["files"].items():
        if got["files"][name]["sha256"] != digest["sha256"]:
            pytest.fail(f"{_first_difference(name, digest, got['files'][name], tmp_path)}; "
                        f"{versions}")


def changes(old: dict, new: dict) -> list[str]:
    """One line per run whose exit code changed, and per output file added,
    removed or changed, between two records' ``runs``."""
    lines = []
    for run in sorted(old.keys() | new.keys()):
        was, now = old.get(run), new.get(run)
        if was is None or now is None:
            lines.append(f"{run}: run {'added' if was is None else 'removed'}")
            continue
        if was["code"] != now["code"]:
            lines.append(f"{run}: exit code {was['code']} -> {now['code']}")
        for name in sorted(was["files"].keys() | now["files"].keys()):
            if name not in was["files"]:
                lines.append(f"{run}: {name} added")
            elif name not in now["files"]:
                lines.append(f"{run}: {name} removed")
            elif was["files"][name]["sha256"] != now["files"][name]["sha256"]:
                lines.append(f"{run}: {name} changed")
    return lines


def test_changes_name_each_changed_code_and_file():
    """The re-record report: a changed exit code, and each output file
    added, removed or changed; an unchanged file is not named."""
    def run(code, **files):
        return {"code": code, "files": {k: {"sha256": v, "lines": ""} for k, v in files.items()}}
    old = {"simulate a": run(0, kept="1", changed="2", gone="3"), "mms b": run(0, x="1")}
    new = {"simulate a": run(2, kept="1", changed="9", new="4"), "mms b": run(0, x="1")}
    assert changes(old, new) == ["simulate a: exit code 0 -> 2", "simulate a: changed changed",
                                 "simulate a: gone removed", "simulate a: new added"]
    assert changes(old, old) == []


def record():
    """Run every golden command, rewrite ``outputs.json`` and print what
    changed against the previous record."""
    runs = {}
    for command, config in RUNS:
        with tempfile.TemporaryDirectory() as out:
            runs[f"{command} {config}"] = _run(command, config, Path(out))
    old = json.loads(RECORD.read_text())["runs"] if RECORD.exists() else {}
    text = json.dumps({"numpy": np.__version__, "runs": runs}, indent=1, sort_keys=True)
    RECORD.write_text(text + "\n")
    for line in changes(old, runs) or ["no run or file changed"]:
        print(line)


if __name__ == "__main__":
    sys.exit(record())
