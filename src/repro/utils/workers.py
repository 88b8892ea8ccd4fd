"""Worker-count resolution shared by the sweep executor and the extractor.

One definition of "how many cores do we actually have" so the two
process-pool knobs (``Engine.sweep(parallel=...)`` and
``extract_workers``) can never silently diverge in their ``None``/``0``
semantics.
"""

from __future__ import annotations

import os


def available_workers() -> int:
    """Cores the scheduler actually grants this process.

    ``os.sched_getaffinity`` semantics (cgroup/affinity aware), with the
    portable ``os.cpu_count`` fallback off Linux.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux fallback
        return os.cpu_count() or 1


def clamp_workers(workers: "int | None", cap: int) -> int:
    """Clamp a worker-count request to ``[1, cap]``.

    ``None`` or 0 means "one worker per available core".  Raises
    ``ValueError`` on non-integer or negative input; callers wrap it in
    their own error types.
    """
    if workers is None or workers == 0:
        workers = available_workers()
    try:
        workers = int(workers)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"workers must be an integer, got {workers!r}") from exc
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return max(1, min(workers, cap))
