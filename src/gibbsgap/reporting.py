"""Deterministic report emission: JSON-compatible structured text and CSV.

Every emitted file embeds the tool version and the fully resolved config,
and nothing time- or host-dependent, so re-running a command with the same
config and seeds is byte-identical.  numpy values need no conversion pass:
``np.float64`` is a ``float``, which json and csv both write with
``float.__repr__``; json's ``default`` hook writes any other numpy scalar or
array through ``tolist``.

A report is encoded in full before its path is touched, so a value that
cannot be encoded leaves the previous report as it was.  It is then written
as a new file: an existing report is unlinked, not truncated in place.
On ext4 (``auto_da_alloc``, its default) closing a file that was truncated
in place and rewritten starts its writeback, which costs a rerun into one
output directory several times the write itself; and a reader that holds
the old file keeps the old bytes whole.
A report path that was a symlink or a hard link becomes a regular file.
"""
from __future__ import annotations

import csv
import io
import json
import os
from typing import Any, Mapping, Sequence

import numpy as np

from . import __version__


def report_document(command: str, config: Mapping[str, Any], body: Mapping[str, Any]) -> dict:
    """Assemble the canonical report envelope."""
    return {
        "tool": "gibbsgap",
        "version": __version__,
        "command": command,
        "config": dict(config),
        "report": dict(body),
    }


def _numpy_value(obj: Any) -> Any:
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _replace_text(path: str, text: str) -> None:
    """Make ``path`` a new file holding the UTF-8 bytes of ``text``."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


def write_json(doc: Mapping[str, Any], path: str) -> None:
    """Write a ``report_document`` (numpy values allowed) as sorted JSON.

    Strict JSON: a NaN or infinite float raises ValueError, and a value json
    cannot encode TypeError, before the file is touched.
    """
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=_numpy_value)
    _replace_text(path, text + "\n")


def write_csv(rows: Sequence[Mapping[str, Any]], path: str, columns: Sequence[str]) -> None:
    """CSV of the given columns with a header row, '.' decimal separator,
    repr-exact floats; a column a row lacks, or a None, is left empty."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(c) for c in columns])
    _replace_text(path, buf.getvalue())
