"""Parameter checkpoints.

Format: a .npz archive with a `meta` entry (JSON: architecture fingerprint
and format version) plus the parameter arrays in layer order. Loading into a
network with a different fingerprint is an error.
"""
from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from ..errors import ConfigError

FORMAT_VERSION = 1


def save_params(net, path: str | Path) -> None:
    arrays = {}
    for i, params in enumerate(net.params):
        if params is None:
            continue
        arrays[f"w{i}"] = params[0]
        arrays[f"b{i}"] = params[1]
    meta = json.dumps(
        {"format": FORMAT_VERSION, "fingerprint": net.fingerprint()},
        sort_keys=True,
    )
    np.savez(path, meta=np.array(meta), **arrays)


def load_params(net, path: str | Path) -> None:
    """Load a checkpoint into `net` in place. A file that does not read as a
    parameter archive with the arrays `net` needs is a ConfigError."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if meta.get("format") != FORMAT_VERSION:
                raise ConfigError(f"{path}: unsupported format {meta.get('format')}")
            if meta.get("fingerprint") != net.fingerprint():
                raise ConfigError(
                    f"{path}: checkpoint architecture {meta.get('fingerprint')!r} "
                    f"does not match network {net.fingerprint()!r}"
                )
            arrays = {i: (data[f"w{i}"].astype(net.dtype),
                          data[f"b{i}"].astype(net.dtype))
                      for i, params in enumerate(net.params) if params is not None}
    except (AttributeError, TypeError, KeyError, ValueError, EOFError,
            zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path}: not a parameter checkpoint ({exc})") from None
    for i, (w, b) in arrays.items():
        if w.shape != net.params[i][0].shape or b.shape != net.params[i][1].shape:
            raise ConfigError(f"{path}: parameter shape mismatch at layer {i}")
        net.params[i] = (w, b)
