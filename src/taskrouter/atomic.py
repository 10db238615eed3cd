"""Whole-file writes that never leave a half-written output behind.

Every file the package writes (state, registry manifest, corpus, eval report
and table) goes through :func:`write_atomic`: the bytes go to a temporary
file in the destination's directory, are flushed to disk, and the temporary
file is then renamed over the destination. A reader sees either the previous
file or the complete new one, and a failed write removes its temporary file.
"""

from __future__ import annotations

import os
import secrets
from pathlib import Path

__all__ = ["write_atomic"]


def write_atomic(destination: str | Path, *parts) -> None:
    """Write the concatenation of ``parts`` (bytes-like objects) to ``destination``.

    Buffers are written as they are, so a C-contiguous array can be passed
    without a ``tobytes()`` copy. A 1 MiB file buffer gathers small parts, so
    the thousand-odd rows of a state go out in a few writes.
    """
    path = Path(destination)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb", 1 << 20) as handle:  # buffering, in bytes
            for part in parts:
                handle.write(part)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
