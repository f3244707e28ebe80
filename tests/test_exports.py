"""The package's public export list."""

import qcflow


def test_every_export_resolves():
    missing = [name for name in qcflow.__all__ if not hasattr(qcflow, name)]
    assert missing == []


def test_exports_sorted_without_duplicates():
    assert qcflow.__all__ == sorted(set(qcflow.__all__))
