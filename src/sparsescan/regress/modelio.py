"""Binary container for trained ERD models.

Layout: magic "SLNM", u32 schema version, one kind byte, u32 header length,
a JSON header (dimensions, hyperparameters, feature stats, reconstruction
params, payload array shapes), the concatenated float64 little-endian
payload arrays, and a trailing CRC-32 of everything before it.  Floats that
must round-trip bit-exactly live in the payload, never in the JSON.
"""

import json
import struct
import zlib

import numpy as np

from ..features import FeatureStats
from ..recon import IdwParams
from .linear import LinearModel
from .mlp import HIDDEN_LAYERS, MlpModel
from .svr import SvrModel

MAGIC = b"SLNM"
SCHEMA_VERSION = 1
_KIND_BYTE = {"lsq": 1, "svr": 2, "nn": 3}
_BYTE_KIND = {v: k for k, v in _KIND_BYTE.items()}


class ModelFormatError(ValueError):
    pass


class ModelVersionError(ModelFormatError):
    pass


class ModelChecksumError(ModelFormatError):
    pass


class ModelKindError(ModelFormatError):
    pass


def _payload_arrays(kind: str, payload):
    if kind == "lsq":
        return [("theta", payload.theta)]
    if kind == "svr":
        return [
            ("support_vectors", payload.support_vectors),
            ("coefficients", payload.coefficients),
            ("bias", np.array([payload.bias])),
            ("support_indices", payload.support_indices.astype(np.float64)),
        ]
    arrays = []
    for i, w in enumerate(payload.weights):
        arrays.append((f"w{i}", w))
    for i, b in enumerate(payload.biases):
        arrays.append((f"b{i}", b))
    return arrays


def _hyper(kind: str, payload) -> dict:
    if kind == "lsq":
        return {"rank_deficient": bool(payload.rank_deficient)}
    if kind == "svr":
        return {
            "gamma": payload.gamma,
            "c": payload.c,
            "epsilon": payload.epsilon,
            "converged": bool(payload.converged),
        }
    return {"activation": payload.activation, "hidden_layers": HIDDEN_LAYERS}


def serialize_model(model) -> bytes:
    from . import ErdModel  # local to avoid import cycle

    if not isinstance(model, ErdModel):
        raise TypeError("expected an ErdModel")
    arrays = _payload_arrays(model.kind, model.payload)
    header = {
        "kind": model.kind,
        "feature_count": int(model.stats.means.shape[0]),
        "stats": {
            "means": model.stats.means.tolist(),
            "stds": model.stats.stds.tolist(),
        },
        "idw": {
            "neighbors": model.idw.neighbors,
            "power": model.idw.power,
            "window": model.idw.window,
        },
        "hyper": _hyper(model.kind, model.payload),
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays],
        "pretrained": bool(model.pretrained),
        "extra": model.extra,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", SCHEMA_VERSION)
    blob += struct.pack("B", _KIND_BYTE[model.kind])
    blob += struct.pack("<I", len(header_bytes))
    blob += header_bytes
    for _, arr in arrays:
        blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
    return bytes(blob)


def deserialize_model(blob: bytes):
    from . import ErdModel

    if len(blob) < 17:
        raise ModelFormatError(f"file too short ({len(blob)} bytes)")
    if blob[:4] != MAGIC:
        raise ModelFormatError(f"bad magic {blob[:4]!r}")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    actual_crc = zlib.crc32(blob[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise ModelChecksumError(
            f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )
    version = struct.unpack("<I", blob[4:8])[0]
    if version != SCHEMA_VERSION:
        raise ModelVersionError(f"schema version {version}, supported {SCHEMA_VERSION}")
    kind_byte = blob[8]
    if kind_byte not in _BYTE_KIND:
        raise ModelKindError(f"unknown kind byte {kind_byte}")
    header_len = struct.unpack("<I", blob[9:13])[0]
    header_end = 13 + header_len
    if header_end + 4 > len(blob):
        raise ModelFormatError("header length exceeds file size")
    header = json.loads(blob[13:header_end].decode("utf-8"))
    kind = header.get("kind")
    if kind != _BYTE_KIND[kind_byte]:
        raise ModelKindError(f"kind byte says {_BYTE_KIND[kind_byte]!r}, header says {kind!r}")

    arrays = {}
    pos = header_end
    for spec in header["arrays"]:
        shape = tuple(spec["shape"])
        size = 8 * int(np.prod(shape, dtype=np.int64)) if shape else 8
        raw = blob[pos : pos + size]
        if len(raw) < size:
            raise ModelFormatError(f"payload truncated at array {spec['name']!r}")
        arrays[spec["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        pos += size
    if pos != len(blob) - 4:
        raise ModelFormatError("payload size disagrees with declared arrays")
    means = np.array(header["stats"]["means"], dtype=np.float64)
    stds = np.array(header["stats"]["stds"], dtype=np.float64)
    for name, arr in [*arrays.items(), ("stats.means", means), ("stats.stds", stds)]:
        if not np.all(np.isfinite(arr)):
            raise ModelFormatError(f"array {name!r} holds non-finite values")

    stats = FeatureStats(means=means, stds=stds)
    idw = IdwParams(
        neighbors=int(header["idw"]["neighbors"]),
        power=float(header["idw"]["power"]),
        window=int(header["idw"]["window"]),
    )
    hyper = header["hyper"]
    if kind == "lsq":
        payload = LinearModel(
            theta=arrays["theta"], rank_deficient=bool(hyper["rank_deficient"])
        )
    elif kind == "svr":
        payload = SvrModel(
            support_vectors=arrays["support_vectors"],
            coefficients=arrays["coefficients"],
            bias=float(arrays["bias"][0]),
            gamma=float(hyper["gamma"]),
            c=float(hyper["c"]),
            epsilon=float(hyper["epsilon"]),
            converged=bool(hyper["converged"]),
            support_indices=arrays["support_indices"].astype(np.int64),
        )
    else:
        n_layers = HIDDEN_LAYERS + 1
        payload = MlpModel(
            weights=tuple(arrays[f"w{i}"] for i in range(n_layers)),
            biases=tuple(arrays[f"b{i}"] for i in range(n_layers)),
            activation=hyper["activation"],
        )
    return ErdModel(
        kind=kind,
        payload=payload,
        stats=stats,
        idw=idw,
        schema_version=version,
        pretrained=bool(header.get("pretrained", False)),
        extra=dict(header.get("extra", {})),
    )


def save_model(model, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))


def load_model(path):
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())
