import pytest

from dspn import deformable


@pytest.fixture
def runner(monkeypatch):
    """``runner(helpers)`` puts a band runner with that many helper threads
    in place of the module's own and lets a map of two or more bands reach
    them, as the tests' maps are small; each is closed after the test."""
    made = []
    monkeypatch.setattr(deformable, "SHARED_BANDS", 2)

    def use(helpers):
        made.append(deformable._BandRunner(helpers))
        monkeypatch.setattr(deformable, "_RUNNER", made[-1])
        return made[-1]

    yield use
    for r in made:
        r.close()
