"""Tests for the package's public namespace."""

import cartanconn


def test_every_public_name_is_bound():
    # a name left in __all__ after its definition is gone breaks
    # `from cartanconn import *` and nothing else would notice
    missing = [name for name in cartanconn.__all__ if not hasattr(cartanconn, name)]
    assert not missing, missing
    assert len(set(cartanconn.__all__)) == len(cartanconn.__all__)
