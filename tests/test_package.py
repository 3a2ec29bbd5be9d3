"""The package's public names."""

from __future__ import annotations

import jrank


def test_every_exported_name_resolves_and_appears_once():
    assert len(jrank.__all__) == len(set(jrank.__all__))
    assert [name for name in jrank.__all__ if not hasattr(jrank, name)] == []
