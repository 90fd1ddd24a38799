from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"

# Reference first terms of the two headline presets.
STERN_TERMS = [0, 1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5, 2, 5, 3, 4, 1]
TWISTED_TERMS = [0, 1, -1, 0, 1, 1, 0, -1, -1, -2, -1, -1, 0, 1, 1, 2]


class FakeResponse:
    """Stands in for an HTTP response: a context manager with a fixed body."""

    def __init__(self, body: bytes = b"0 0\n1 1\n2 1\n"):
        self.body = body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return self.body


def scan_only(identity, e_max, n_max):
    """`verify` without the certificate: every instance of the grid is scanned."""
    from sternlike.identities import _verify
    return _verify(identity, e_max, n_max, 1, certify=False)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
