"""The package namespace: every exported name resolves."""

import teleportsim


def test_every_exported_name_resolves():
    assert [name for name in teleportsim.__all__ if not hasattr(teleportsim, name)] == []
    assert len(set(teleportsim.__all__)) == len(teleportsim.__all__)


def test_star_import():
    namespace = {}
    exec("from teleportsim import *", namespace)
    assert set(teleportsim.__all__) <= namespace.keys()
