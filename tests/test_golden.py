"""Byte-for-byte regression against the frozen CLI outputs in ``tests/golden``."""

from __future__ import annotations

from make_golden import COMMANDS, GOLDEN, run_commands


def tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_outputs_match_golden_bytes(tmp_path):
    run_commands(tmp_path)
    for name, _ in COMMANDS:
        got = tree(tmp_path / name)
        want = tree(GOLDEN / name)
        assert sorted(got) == sorted(want), name
        for filename, content in want.items():
            assert got[filename] == content, f"{name}/{filename} differs from the golden output"
