"""Shared fixtures for the test suite."""

import random
from pathlib import Path

import pytest
from hypothesis import Phase, settings

from repro.config import TESTBED_1991
from repro.core.symbols import video_block_model
from repro.disk import FreeMap, build_drive
from repro.fs import MultimediaStorageManager
from repro.rope import MultimediaRopeServer


GOLDEN_DIR = Path(__file__).parent / "golden"

#: ``--hypothesis-profile=mutants`` (``scripts/mutants.py``): a mutant is
#: killed by the first failing example, so that is not shrunk.
settings.register_profile(
    "mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate)
)
#: ``--hypothesis-profile=soak`` (``scripts/check.sh``'s ``pytest -m fuzz``
#: soak): a ``fuzz`` test runs this many examples, not its tier-1 budget.
settings.register_profile("soak", max_examples=400)


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/ baselines from the current run",
    )


@pytest.fixture
def golden(request):
    """Compare *content* against a committed golden file, byte for byte.

    Usage: ``golden("steady_snapshot.json", run.snapshot())``.  With
    ``--regen-golden`` the file is rewritten instead of compared — the
    diff then goes through code review like any other change.
    """
    regen = request.config.getoption("--regen-golden")

    def check(name: str, content: str) -> None:
        if not content.endswith("\n"):
            content += "\n"
        path = GOLDEN_DIR / name
        if regen:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(content)
            return
        assert path.exists(), (
            f"golden file {path} missing; regenerate intentionally with "
            "`pytest --regen-golden`"
        )
        expected = path.read_text()
        assert content == expected, (
            f"{name} drifted from its golden baseline; inspect the diff "
            "and, if the change is intended, run `pytest --regen-golden`"
        )

    return check


@pytest.fixture
def profile():
    """The standard §5 testbed profile."""
    return TESTBED_1991


@pytest.fixture
def drive():
    """A fresh testbed drive."""
    return build_drive()


@pytest.fixture
def freemap(drive):
    """A fresh free map matching the drive."""
    return FreeMap(drive.slots)


@pytest.fixture
def disk_params(drive):
    """Analytic parameters derived from the testbed drive."""
    return drive.parameters()


@pytest.fixture
def video_block(profile):
    """The standard 4-frame video block model."""
    return video_block_model(profile.video, 4)


@pytest.fixture
def msm(profile, drive):
    """A storage manager on a fresh drive."""
    return MultimediaStorageManager(
        drive,
        profile.video,
        profile.audio,
        profile.video_device,
        profile.audio_device,
    )


@pytest.fixture
def mrs(msm):
    """A rope server over the fresh storage manager."""
    return MultimediaRopeServer(msm)


@pytest.fixture
def rng():
    """A deterministic random source."""
    return random.Random(12345)
