"""The package surface: every exported name resolves."""

import fedseg


def test_every_export_resolves():
    assert [name for name in fedseg.__all__ if not hasattr(fedseg, name)] == []
    assert len(set(fedseg.__all__)) == len(fedseg.__all__)
