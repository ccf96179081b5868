"""Byte-level goldens: the SHA-256 of every bundled problem's result document.

The digests were taken before the polynomial, root-adjoining and dispatch
code was merged; any change to a result document must show up here.
"""

import hashlib
import os
import subprocess
import sys

import pytest
from helpers import PROBLEMS, load_raw

from coxlift.cli import main

ROOT = PROBLEMS.parent

GOLDEN_SHA256 = {
    "a1_into_half11.json": "8d974ddbf9e0b2122c16ddc9c31d2c78de085c3de8ba9abab98633a3eb7b9256",
    "decompose_half11_root.json": "bc14ab1a6221fdf7b9d31861a76b18b19dfaa69e81209e8bdf758eb174d9f85b",
    "identity_half11.json": "35eef88121c931d35c4b68f4cb0f7655d86d04f6d9a507ceb5db25fa76f88a72",
    "mu3.json": "de3046661d11d59a8dff574aac58ef40228298f9d41ab86ebf4baeb4c4745657",
    "mu3_zero.json": "ca7a4e4fee342e861995960245605a9bb82520042c27b3f32da91a7b34e955a2",
    "mu4.json": "1f39a2c44e0263c980e00f8fce023ef8a949d00b60d69714412df32d708b52e4",
    "origin_into_half11.json": "eff9b2a7437f1f0b723b58f521810879e228474795efe97dba7ebdc824a6879d",
}


def test_every_bundled_problem_has_a_golden():
    assert sorted(p.name for p in PROBLEMS.glob("*.json")) == sorted(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_result_document_is_byte_identical(name, tmp_path):
    problem = str(PROBLEMS / name)
    out = tmp_path / "result.json"
    command = "decompose" if "decompose" in load_raw(name[:-len(".json")]) else "lift"
    assert main([command, problem, "--out", str(out), "--log", "json"]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert hashlib.sha256(text[:-1].encode()).hexdigest() == GOLDEN_SHA256[name]
    if command == "lift":
        assert main(["verify", problem, str(out), "--log", "json"]) == 0


def test_run_examples_script_reports_every_problem():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_examples.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    sections = [lines[i + 1] for i in range(len(lines) - 2)
                if lines[i] == "=" * 72 and lines[i + 2] == "=" * 72]
    assert sections == sorted(GOLDEN_SHA256)
    assert "FAILED" not in out.stdout


# the result document of the Z/150 chain x1 rooted by 5, 5, 3, 2, which ends
# in a failed reconstruction check; a change that mends that re-pins it
CHAIN_SHA256 = "d4adb4b2f9b4c629763dfbfd0a001d217e3bb892de9673a023802701d60900f1"


def test_chain_time_script_reports_the_pinned_digest():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "chain_time.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert "status: failed:reconstruction" in lines
    assert f"sha256: {CHAIN_SHA256}" in lines
