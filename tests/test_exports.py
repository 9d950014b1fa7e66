"""The package's export list names only what the package defines."""
import iprox


def test_every_exported_name_resolves():
    assert [name for name in iprox.__all__ if not hasattr(iprox, name)] == []
    assert len(set(iprox.__all__)) == len(iprox.__all__)
