"""JSON file formats.

Complex entries are two-element [re, im] arrays; a matrix is a nested
list of rows of such pairs. Field order in files is irrelevant; output is
canonical (sorted keys) so identical inputs give byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .config import DEFAULT_TOL, MAX_DIM
from .errors import QrtModalError, ShapeError
from .kripke import KripkeModel, StarredModel
from .linalg import KrausChannel, density_matrices
from .qrt import ChannelDecl, Qrt, SystemDecl
from .translate import TranslationRecord


class FormatError(QrtModalError):
    """A file does not match the expected JSON shape."""


def encode_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _entry(re: Any, im: Any) -> complex:
    # complex() reads JSON true and false as 1 and 0
    if type(re) is bool or type(im) is bool:
        raise TypeError("true and false are not numbers")
    return complex(re, im)


def decode_matrix(data: Any) -> np.ndarray:
    try:
        rows = [[_entry(re, im) for re, im in row] for row in data]
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed matrix: entries must be [re, im] pairs ({exc})") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise FormatError("malformed matrix: rows are empty or ragged")
    return np.array(rows, dtype=complex)


def qrt_to_dict(q: Qrt) -> dict:
    return {
        "systems": [
            {
                "id": s.id,
                "dim": s.dim,
                "states": {st: encode_matrix(dm.mat) for st, dm in sorted(s.states.items())},
            }
            for s in q.systems
        ],
        "channels": [
            {
                "id": d.id,
                "from": d.src,
                "to": d.dst,
                "kraus": [encode_matrix(k) for k in d.channel.kraus_ops],
            }
            for d in q.channels
        ],
        **({"trivial": q.trivial_id} if q.trivial_id else {}),
    }


def _string(value: Any, what: str) -> str:
    if type(value) is str:
        return value
    raise FormatError(f"malformed theory file: {what} {value!r} is not a string")


def _list(value: Any, what: str) -> list:
    if type(value) is list:
        return value
    raise FormatError(f"malformed theory file: {what} is not a list")


def _states(states: dict, tol: float) -> dict:
    """A system's named states, checked by ``density_matrices``. When a
    matrix does not decode, the matrices before it are checked first, so
    the first bad state in file order raises its own error."""
    mats: list = []
    for mat in states.values():
        try:
            mats.append(decode_matrix(mat))
        except FormatError:
            density_matrices(mats, tol)
            raise
    return dict(zip(states, density_matrices(mats, tol)))


def qrt_from_dict(data: Any, tol: float = DEFAULT_TOL) -> Qrt:
    """The theory of a theory file. Ids are strings, "states" an object,
    "dim" an integer from 1 to MAX_DIM (checked before any matrix is
    built), and every matrix entry an [re, im] pair."""
    if not isinstance(data, dict):
        raise FormatError("malformed theory file: not a JSON object")
    try:
        systems = []
        for s in _list(data["systems"], "systems"):
            sid, dim, states = _string(s["id"], "system id"), s["dim"], s.get("states", {})
            if type(dim) is not int or not 1 <= dim <= MAX_DIM:
                raise FormatError(
                    f"malformed theory file: system {sid} has dim {dim!r},"
                    f" not an integer from 1 to {MAX_DIM}"
                )
            if not isinstance(states, dict):
                raise FormatError(f"malformed theory file: the states of {sid} are not an object")
            systems.append(SystemDecl(sid, dim, _states(states, tol)))
        channels = [
            ChannelDecl(
                _string(c["id"], "channel id"),
                _string(c["from"], "channel source"),
                _string(c["to"], "channel target"),
                KrausChannel([decode_matrix(k) for k in c["kraus"]]),
            )
            for c in _list(data.get("channels", []), "channels")
        ]
        trivial = data.get("trivial")
        if trivial is not None:
            _string(trivial, "trivial")
    except KeyError as exc:
        raise FormatError(f"malformed theory file: missing {exc}") from exc
    except (TypeError, ValueError, ShapeError) as exc:
        raise FormatError(f"malformed theory file: {exc}") from exc
    return Qrt(systems, channels, trivial, tol)


def model_to_dict(m: KripkeModel, order=None) -> dict:
    out = {
        "worlds": sorted(m.worlds),
        "access": sorted([a, b] for a, b in m.access),
        "domain": sorted(m.domain),
        "domains": {w: sorted(m.domains[w]) for w in sorted(m.worlds)},
        "interp": {a: m.interp[a] for a in sorted(m.domain)},
    }
    if order is not None:
        out["order"] = sorted([a, b] for a, b in order)
    return out


def _ids(value: Any, what: str) -> list:
    if type(value) is list and set(map(type, value)) <= {str}:
        return value
    raise FormatError(f"malformed model file: {what} is not a list of string ids")


def _pairs(value: Any, what: str) -> list:
    if type(value) is list:
        pairs = [
            tuple(p) for p in value
            if type(p) is list and len(p) == 2 and type(p[0]) is str and type(p[1]) is str
        ]
        if len(pairs) == len(value):
            return pairs
    raise FormatError(f"malformed model file: {what} is not a list of [id, id] pairs")


def model_from_dict(data: Any) -> KripkeModel | StarredModel:
    """The model (or starred model, when there is an "order") of a model
    file. Ids are strings, truth values the integers 0 and 1."""
    if not isinstance(data, dict):
        raise FormatError("malformed model file: not a JSON object")
    try:
        domains, interp = data.get("domains", {}), data["interp"]
        if not isinstance(domains, dict) or not isinstance(interp, dict):
            raise FormatError("malformed model file: domains and interp must be objects")
        for atom, v in interp.items():
            if type(v) is not int or v not in (0, 1):
                raise FormatError(f"malformed model file: {atom} has truth value {v!r}, not 0 or 1")
        model = KripkeModel(
            _ids(data["worlds"], "worlds"),
            _pairs(data.get("access", []), "access"),
            _ids(data["domain"], "domain"),
            {w: _ids(v, "a world's domain") for w, v in domains.items()},
            interp,
        )
        if "order" in data:
            return StarredModel(model, _pairs(data["order"], "order"))
        return model
    except KeyError as exc:
        raise FormatError(f"malformed model file: missing {exc}") from exc


def record_to_dict(rec: TranslationRecord, star: bool = False) -> dict:
    """A model file, with the preorder when ``star``, and the name maps
    alongside, so the output can be fed straight back into model-consuming
    commands. Worlds are named by their systems and atoms by their
    qualified states, so both maps send every id to itself."""
    out = model_to_dict(rec.model, rec.order if star else None)
    out["world_of"] = {w: w for w in rec.model.worlds}
    out["atom_of"] = {a: a for a in rec.model.domain}
    if rec.c_world is not None:
        out["c_world"] = rec.c_world
    return out


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:  # the decoder recurses once per nested array or object
            raise FormatError(f"{path}: the JSON is nested too deeply to read") from None


def save_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
