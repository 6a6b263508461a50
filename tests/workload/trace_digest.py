"""A sha256 over submission streams, for tests that pin a drawn trace."""

from __future__ import annotations

import hashlib
from typing import Sequence


def trace_digest(streams: dict[str, list], assignments: Sequence[str] = ()) -> str:
    """sha256 of ``assignments`` (newline-joined), then each stream's
    (time, user, app, nodes, walltime) per submission, in dict order."""
    h = hashlib.sha256("\n".join(assignments).encode())
    for label, submissions in streams.items():
        for s in submissions:
            h.update(
                f"{label} {s.time!r} {s.user} {s.app_name} {s.nodes} "
                f"{s.profile.walltime_seconds!r}\n".encode()
            )
    return h.hexdigest()
