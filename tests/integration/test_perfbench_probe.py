"""The benchmark probe still finds every entry point it patches.

``perfbench/probe.py`` wraps layer entry points by module binding and
class attribute (its ``ENTRY_POINTS``).  Renaming, moving or dropping
one of those names breaks the benchmark with an ``AttributeError``;
this test makes that a tier-1 failure rather than a benchmark-job one.
"""

from perfbench import probe
from perfbench.probe import Recorder


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_full_recorder_installs_and_uninstalls():
    rec = Recorder("t", full=True)
    rec.install()
    try:
        patched = rec.patched
        assert all(_current(owner, attr) is not original for owner, attr, original in patched)
    finally:
        rec.uninstall()
    assert len(patched) > len(probe.ENTRY_POINTS)
    assert not rec.patched and probe._ACTIVE is None
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, f"{owner!r}.{attr} still wrapped"
