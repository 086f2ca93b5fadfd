"""The package's public names."""
import fairband


def test_every_public_name_resolves():
    missing = [name for name in fairband.__all__ if not hasattr(fairband, name)]
    assert missing == []
    assert len(set(fairband.__all__)) == len(fairband.__all__)
