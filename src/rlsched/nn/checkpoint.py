"""Parameter checkpoints.

Format: a .npz archive with a `meta` entry (JSON: architecture fingerprint
and format version) plus the parameter arrays in layer order. Loading into a
network with another fingerprint is an error; `saved_fingerprint` names it.
"""
from __future__ import annotations

import json
import zipfile
from contextlib import contextmanager
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


@contextmanager
def _archive(path: str | Path):
    """(archive, meta) at `path`; a bad file, here or in the block, is a
    ConfigError, and so is a path that does not open as a file."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if meta.get("format") != FORMAT_VERSION:
                raise ConfigError(f"{path}: unsupported format {meta.get('format')}")
            yield data, meta
    except (AttributeError, TypeError, KeyError, ValueError, EOFError,
            zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path}: not a parameter checkpoint ({exc})") from None
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"{path}: cannot read checkpoint ({exc.strerror})") from None


def saved_fingerprint(path: str | Path):
    """The fingerprint saved in the checkpoint at `path`; None if none."""
    with _archive(path) as (_, meta):
        return meta.get("fingerprint")


def load_params(net, path: str | Path) -> None:
    """Load a checkpoint into `net` in place. A file that does not read as a
    parameter archive with the real floating-point arrays `net` needs is a
    ConfigError; casting any other array would drop an imaginary part or read
    flags as weights."""
    with _archive(path) as (data, meta):
        if meta.get("fingerprint") != net.fingerprint():
            raise ConfigError(
                f"{path}: checkpoint architecture {meta.get('fingerprint')!r} "
                f"does not match network {net.fingerprint()!r}"
            )
        arrays = {i: (data[f"w{i}"], data[f"b{i}"])
                  for i, params in enumerate(net.params) if params is not None}
    for i, (w, b) in arrays.items():
        for name, array in ((f"w{i}", w), (f"b{i}", b)):
            if array.dtype.kind != "f":
                raise ConfigError(
                    f"{path}: array {name} is {array.dtype}, not real floating point")
        if w.shape != net.params[i][0].shape or b.shape != net.params[i][1].shape:
            raise ConfigError(f"{path}: parameter shape mismatch at layer {i}")
    # all arrays are checked before any is loaded: a failed load changes nothing
    for i, (w, b) in arrays.items():
        net.params[i] = (w.astype(net.dtype), b.astype(net.dtype))
