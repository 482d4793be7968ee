"""Binary PGM (P5) reader/writer contract tests."""

import numpy as np
import pytest

from sparsescan.pgm import (
    PgmDepthError,
    PgmError,
    PgmHeaderError,
    PgmTruncationError,
    parse_pgm,
    read_pgm,
    serialize_pgm,
    write_pgm,
)


@pytest.fixture
def gradient_image():
    return np.arange(48, dtype=np.uint8).reshape(6, 8) * 5


class TestRoundTrip:
    def test_serialize_parse_identity(self, gradient_image):
        blob = serialize_pgm(gradient_image)
        out = parse_pgm(blob)
        assert np.array_equal(out, gradient_image)
        assert out.dtype == np.uint8

    def test_file_round_trip(self, tmp_path, gradient_image):
        path = tmp_path / "img.pgm"
        write_pgm(path, gradient_image)
        assert np.array_equal(read_pgm(path), gradient_image)

    def test_serialized_header_is_canonical(self, gradient_image):
        blob = serialize_pgm(gradient_image)
        assert blob.startswith(b"P5\n8 6\n255\n")
        assert len(blob) == len(b"P5\n8 6\n255\n") + 48

    def test_single_pixel(self):
        img = np.array([[200]], dtype=np.uint8)
        assert parse_pgm(serialize_pgm(img)) == img

    def test_extremes_preserved(self):
        img = np.array([[0, 255], [255, 0]], dtype=np.uint8)
        assert np.array_equal(parse_pgm(serialize_pgm(img)), img)


class TestHeaderVariants:
    def test_any_single_whitespace_separator_works(self):
        # tokens may be separated by any one whitespace byte
        blob = b"P5 2\t2\r255\n" + bytes([1, 2, 3, 4])
        assert np.array_equal(parse_pgm(blob), [[1, 2], [3, 4]])

    def test_double_separator_is_rejected(self):
        blob = b"P5\n\n2 2\n255\n" + bytes(4)
        with pytest.raises(PgmHeaderError):
            parse_pgm(blob)

    def test_spec_example_bytes(self):
        blob = b"P5\n2 2\n255\n" + bytes([0, 255, 17, 34])
        out = parse_pgm(blob)
        assert out.tolist() == [[0, 255], [17, 34]]


class TestErrors:
    def test_bad_magic_reports_offset_zero(self):
        with pytest.raises(PgmHeaderError) as err:
            parse_pgm(b"P6\n1 1\n255\n\x00")
        assert err.value.offset == 0
        assert "byte offset 0" in str(err.value)

    def test_wrong_maxval_is_depth_error_with_offset(self):
        blob = b"P5\n1 1\n65535\n\x00\x00"
        with pytest.raises(PgmDepthError) as err:
            parse_pgm(blob)
        assert err.value.offset == blob.index(b"65535")

    def test_truncated_payload(self):
        blob = b"P5\n4 4\n255\n" + bytes(10)
        with pytest.raises(PgmTruncationError) as err:
            parse_pgm(blob)
        assert err.value.offset == len(blob)

    def test_trailing_bytes_rejected(self):
        blob = b"P5\n2 2\n255\n" + bytes(5)
        with pytest.raises(PgmError):
            parse_pgm(blob)

    def test_zero_dimension_rejected(self):
        with pytest.raises(PgmHeaderError):
            parse_pgm(b"P5\n0 3\n255\n")

    def test_nonnumeric_dimension(self):
        with pytest.raises(PgmHeaderError):
            parse_pgm(b"P5\nab 3\n255\n")

    def test_empty_input(self):
        with pytest.raises(PgmError):
            parse_pgm(b"")

    def test_all_errors_are_value_errors(self):
        for blob in (b"", b"P6\n1 1\n255\n\x00", b"P5\n1 1\n64\n\x00"):
            with pytest.raises(ValueError):
                parse_pgm(blob)

    def test_writer_rejects_non_uint8(self, tmp_path):
        with pytest.raises((ValueError, TypeError)):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2), dtype=np.float64))

    def test_failed_write_keeps_the_file(self, tmp_path, gradient_image):
        # the pixels are checked before the file is touched
        path = tmp_path / "x.pgm"
        write_pgm(path, gradient_image)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write_pgm(path, np.zeros((2, 2), dtype=np.float64))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.pgm"]
