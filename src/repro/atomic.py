"""Write-then-rename file publication.

Every file the package publishes for other readers (result-store entries,
checkpoints, queue records, the service discovery file, converted traces)
goes through :func:`atomic_output`, so a reader sees either the previous
complete file or the new complete file, never a torn one.  Each writer gets
its own temp file beside the target -- the name carries the pid and a
random token -- so two threads or processes publishing the same path at
once each rename a complete file into place and the last rename wins.
Temp files end in ``.tmp``; ``venice-sim store gc`` sweeps stale ones a
killed writer left behind.
"""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, TextIO, Union


@contextmanager
def atomic_output(
    path: Union[str, Path], newline: Optional[str] = None
) -> Iterator[TextIO]:
    """Open a private temp file for writing; rename it onto ``path`` on exit.

    If the block raises, the temp file is removed and ``path`` is left as
    it was.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Publish ``text`` at ``path`` through :func:`atomic_output`."""
    with atomic_output(path) as handle:
        handle.write(text)
