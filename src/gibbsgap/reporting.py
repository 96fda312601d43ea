"""Deterministic report emission: JSON-compatible structured text and CSV.

Every emitted file embeds the tool version and the fully resolved config,
and nothing time- or host-dependent, so re-running a command with the same
config and seeds is byte-identical.  numpy values need no conversion pass:
``np.float64`` is a ``float``, which json and csv both write with
``float.__repr__``; json's ``default`` hook writes any other numpy scalar or
array through ``tolist``.
"""
from __future__ import annotations

import csv
import json
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


def write_json(doc: Mapping[str, Any], path: str) -> None:
    """Write a ``report_document`` (numpy values allowed) as sorted JSON.

    Strict JSON: a NaN or infinite float raises ValueError, and a value json
    cannot encode TypeError, before the file is opened.
    """
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=_numpy_value)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def write_csv(rows: Sequence[Mapping[str, Any]], path: str, columns: Sequence[str]) -> None:
    """CSV of the given columns with a header row, '.' decimal separator,
    repr-exact floats; a column a row lacks, or a None, is left empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c) for c in columns])
