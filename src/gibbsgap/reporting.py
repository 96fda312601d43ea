"""Deterministic report emission: JSON-compatible structured text and CSV.

Every emitted file embeds the tool version and the fully resolved config,
and nothing time- or host-dependent, so re-running a command with the same
config and seeds is byte-identical.
"""
from __future__ import annotations

import csv
import json
import os
from typing import Any, Mapping, Sequence

import numpy as np

from . import __version__


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def report_document(command: str, config: Mapping[str, Any], body: Mapping[str, Any]) -> dict:
    """Assemble the canonical report envelope, converted to plain JSON data."""
    return {
        "tool": "gibbsgap",
        "version": __version__,
        "command": command,
        "config": _jsonable(dict(config)),
        "report": _jsonable(dict(body)),
    }


def write_json(doc: Mapping[str, Any], path: str) -> None:
    """Write plain JSON data, such as a ``report_document``, as sorted JSON.

    Strict JSON: a NaN or infinite float raises ValueError before the file is
    opened.
    """
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def write_csv(rows: Sequence[Mapping[str, Any]], path: str, columns: Sequence[str]) -> None:
    """CSV of the given columns with a header row, '.' decimal separator,
    repr-exact floats; a column a row lacks is left empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in columns])


def _cell(value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def default_output_dir() -> str:
    """Output directory: GIBBSGAP_OUT env var or the working directory."""
    return os.environ.get("GIBBSGAP_OUT", ".")
