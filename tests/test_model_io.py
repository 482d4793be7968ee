"""Tests for the binary model container: round trips and corruption checks."""

import dataclasses
import struct
import zlib

import numpy as np
import pytest

from sparsescan.features import FeatureStats
from sparsescan.recon import IdwParams
from sparsescan.regress import (
    ErdModel,
    LinearModel,
    ModelChecksumError,
    ModelFormatError,
    ModelKindError,
    ModelVersionError,
    fit_mlp,
    fit_svr,
    load_model,
    predict_batch,
    save_model,
)
from sparsescan.regress.modelio import (
    MAGIC,
    SCHEMA_VERSION,
    _payload_arrays,
    deserialize_model,
    serialize_model,
)


def make_stats(seed=0):
    rng = np.random.default_rng(seed)
    return FeatureStats(
        means=rng.standard_normal(6),
        stds=np.abs(rng.standard_normal(6)) + 0.5,
    )


def make_lsq_model(seed=0, **kwargs):
    rng = np.random.default_rng(seed + 1)
    return ErdModel(
        kind="lsq",
        payload=LinearModel(theta=rng.standard_normal(6), rank_deficient=False),
        stats=make_stats(seed),
        idw=IdwParams(neighbors=10, power=2.0, window=15),
        **kwargs,
    )


def make_svr_model(seed=0):
    rng = np.random.default_rng(seed + 2)
    V = rng.standard_normal((40, 6))
    R = np.sin(V[:, 0]) + 0.1 * rng.standard_normal(40)
    return ErdModel(
        kind="svr",
        payload=fit_svr(V, R),
        stats=make_stats(seed),
        idw=IdwParams(neighbors=8, power=2.0, window=11),
    )


def make_nn_model(seed=0):
    rng = np.random.default_rng(seed + 3)
    V = rng.standard_normal((64, 6))
    R = V @ rng.standard_normal(6)
    from sparsescan.regress import MlpConfig

    payload, _ = fit_mlp(V, R, MlpConfig(epochs=3, seed=seed))
    return ErdModel(
        kind="nn",
        payload=payload,
        stats=make_stats(seed),
        idw=IdwParams(neighbors=12, power=2.0, window=9),
        extra={"note": "fixture"},
    )


ALL_MAKERS = [make_lsq_model, make_svr_model, make_nn_model]


class TestRoundTrip:
    def test_all_kinds_round_trip_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(9)
        probe = rng.standard_normal((17, 6))
        for maker in ALL_MAKERS:
            model = maker()
            path = tmp_path / f"{model.kind}.slnm"
            save_model(model, path)
            back = load_model(path)
            assert back.kind == model.kind
            assert back.schema_version == SCHEMA_VERSION
            assert back.pretrained == model.pretrained
            assert back.extra == model.extra
            np.testing.assert_array_equal(back.stats.means, model.stats.means)
            np.testing.assert_array_equal(back.stats.stds, model.stats.stds)
            assert back.idw == model.idw
            np.testing.assert_array_equal(
                predict_batch(back, probe), predict_batch(model, probe)
            )

    def test_payload_fields_survive_exactly(self, tmp_path):
        model = make_svr_model()
        path = tmp_path / "m.slnm"
        save_model(model, path)
        back = load_model(path).payload
        np.testing.assert_array_equal(back.support_vectors, model.payload.support_vectors)
        np.testing.assert_array_equal(back.coefficients, model.payload.coefficients)
        np.testing.assert_array_equal(back.support_indices, model.payload.support_indices)
        assert back.support_indices.dtype == np.int64
        assert back.bias == model.payload.bias
        assert back.gamma == model.payload.gamma
        assert back.converged == model.payload.converged

    def test_mlp_weights_survive_exactly(self, tmp_path):
        model = make_nn_model()
        path = tmp_path / "m.slnm"
        save_model(model, path)
        back = load_model(path).payload
        for got, want in zip(back.weights, model.payload.weights):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(back.biases, model.payload.biases):
            np.testing.assert_array_equal(got, want)
        assert back.activation == model.payload.activation

    def test_serialization_is_deterministic(self):
        a = serialize_model(make_lsq_model())
        b = serialize_model(make_lsq_model())
        assert a == b

    def test_pretrained_flag_round_trips(self, tmp_path):
        model = make_lsq_model(pretrained=True, extra={"sha256": "ab" * 32})
        path = tmp_path / "m.slnm"
        save_model(model, path)
        back = load_model(path)
        assert back.pretrained is True
        assert back.extra == {"sha256": "ab" * 32}


class TestLayout:
    def test_header_fields_sit_at_fixed_offsets(self):
        blob = serialize_model(make_lsq_model())
        assert blob[:4] == MAGIC
        assert struct.unpack("<I", blob[4:8])[0] == SCHEMA_VERSION
        assert blob[8] == 1  # lsq kind byte
        header_len = struct.unpack("<I", blob[9:13])[0]
        header = blob[13 : 13 + header_len].decode("utf-8")
        assert header.startswith("{") and '"kind":"lsq"' in header
        stored = struct.unpack("<I", blob[-4:])[0]
        assert stored == zlib.crc32(blob[:-4]) & 0xFFFFFFFF

    def test_kind_bytes_cover_all_kinds(self):
        assert serialize_model(make_lsq_model())[8] == 1
        assert serialize_model(make_svr_model())[8] == 2
        assert serialize_model(make_nn_model())[8] == 3


class TestCorruption:
    def test_every_flipped_payload_byte_is_caught(self):
        # CRC-32 guarantees detection of any single-byte change
        blob = bytearray(serialize_model(make_lsq_model()))
        for pos in range(13, len(blob) - 4, 7):
            broken = bytearray(blob)
            broken[pos] ^= 0xFF
            with pytest.raises(ModelChecksumError):
                deserialize_model(bytes(broken))

    def test_bad_magic(self):
        blob = bytearray(serialize_model(make_lsq_model()))
        blob[:4] = b"XXXX"
        with pytest.raises(ModelFormatError) as err:
            deserialize_model(bytes(blob))
        assert not isinstance(err.value, ModelChecksumError)
        assert "magic" in str(err.value)

    def test_unsupported_version(self):
        blob = bytearray(serialize_model(make_lsq_model()))
        struct.pack_into("<I", blob, 4, 99)
        # keep the checksum consistent so the version check is what fires
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
        with pytest.raises(ModelVersionError) as err:
            deserialize_model(bytes(blob))
        assert "99" in str(err.value)

    def test_kind_byte_header_disagreement(self):
        blob = bytearray(serialize_model(make_lsq_model()))
        blob[8] = 2  # claims svr while the header still says lsq
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
        with pytest.raises(ModelKindError):
            deserialize_model(bytes(blob))

    def test_unknown_kind_byte(self):
        blob = bytearray(serialize_model(make_lsq_model()))
        blob[8] = 7
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
        with pytest.raises(ModelKindError):
            deserialize_model(bytes(blob))

    def test_truncated_file(self):
        blob = serialize_model(make_lsq_model())
        with pytest.raises(ModelFormatError):
            deserialize_model(blob[:10])
        with pytest.raises(ModelFormatError):
            deserialize_model(b"")

    @pytest.mark.parametrize("maker", ALL_MAKERS, ids=["lsq", "svr", "nn"])
    @pytest.mark.parametrize("bad", (float("nan"), float("inf")), ids=["nan", "inf"])
    def test_non_finite_payload_value_is_rejected(self, maker, bad):
        model = maker()
        last = _payload_arrays(model.kind, model.payload)[-1][0]
        blob = bytearray(serialize_model(model))
        struct.pack_into("<d", blob, len(blob) - 12, bad)  # last value of the last array
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
        with pytest.raises(ModelFormatError, match=f"'{last}'") as err:
            deserialize_model(bytes(blob))
        assert not isinstance(err.value, ModelChecksumError)

    @pytest.mark.parametrize("field", ("means", "stds"))
    def test_non_finite_stats_are_rejected(self, field):
        model = make_lsq_model()
        values = {"means": model.stats.means.copy(), "stds": model.stats.stds.copy()}
        values[field][2] = np.inf
        model = dataclasses.replace(model, stats=FeatureStats(**values))
        with pytest.raises(ModelFormatError, match=f"stats.{field}"):
            deserialize_model(serialize_model(model))

    def test_errors_share_a_catchable_base(self):
        assert issubclass(ModelChecksumError, ModelFormatError)
        assert issubclass(ModelVersionError, ModelFormatError)
        assert issubclass(ModelKindError, ModelFormatError)
        assert issubclass(ModelFormatError, ValueError)

    def test_load_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "absent.slnm")
