"""The diff rules of tools/compare.py, on synthetic output directories."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CFG = b"model=/tmp/a/perfbench/models/lsq.slnm\nimage=/tmp/a/out/blob-64.pgm\nseed=0\n"


def make_outputs(top: Path, cfg: bytes = CFG, history: bytes = b"step,row\n1,2\n") -> Path:
    (top / "run-lsq-64").mkdir(parents=True)
    (top / "run-lsq-64" / "effective.cfg").write_bytes(cfg)
    (top / "run-lsq-64" / "history.csv").write_bytes(history)
    (top / "mask_010.pgm").write_bytes(bytes(range(256)))
    return top


def test_identical_directories_match(compare, tmp_path):
    a, b = make_outputs(tmp_path / "a"), make_outputs(tmp_path / "b")
    assert compare.compare_dirs(a, b) == []


def test_other_absolute_model_and_image_paths_match(compare, tmp_path):
    other = CFG.replace(b"/tmp/a/", b"/var/tmp/b/")
    a, b = make_outputs(tmp_path / "a"), make_outputs(tmp_path / "b", cfg=other)
    assert compare.compare_dirs(a, b) == []


@pytest.mark.parametrize(
    "cfg",
    [
        CFG.replace(b"seed=0", b"seed=1"),  # another option
        CFG.replace(b"image=/tmp/a/out/", b"image=out/"),  # a relative path
        CFG.replace(b"model=", b"matmul="),  # a path under another key
        CFG + b"image=/tmp/a/out/blob-64.pgm\n",  # one line more
    ],
    ids=["seed", "relative-path", "other-key", "extra-line"],
)
def test_any_other_config_difference_fails(compare, tmp_path, cfg):
    a, b = make_outputs(tmp_path / "a"), make_outputs(tmp_path / "b", cfg=cfg)
    assert compare.compare_dirs(a, b) == ["differs: run-lsq-64/effective.cfg"]


def test_a_changed_byte_fails(compare, tmp_path):
    a, b = make_outputs(tmp_path / "a"), make_outputs(tmp_path / "b")
    blob = bytearray((b / "mask_010.pgm").read_bytes())
    blob[100] ^= 1
    (b / "mask_010.pgm").write_bytes(bytes(blob))
    assert compare.compare_dirs(a, b) == ["differs: mask_010.pgm"]


def test_a_missing_file_fails(compare, tmp_path):
    a, b = make_outputs(tmp_path / "a"), make_outputs(tmp_path / "b")
    (b / "run-lsq-64" / "history.csv").unlink()
    assert compare.compare_dirs(a, b) == [f"only in {a}: run-lsq-64/history.csv"]


def test_made_models_must_cmp_equal_to_the_committed_ones(compare, tmp_path):
    made, committed = tmp_path / "made", tmp_path / "committed"
    made.mkdir()
    committed.mkdir()
    for name in ("lsq.slnm", "nn.slnm"):
        (made / name).write_bytes(b"SLNM" + name.encode())
        (committed / name).write_bytes(b"SLNM" + name.encode())
    assert compare.compare_models(made, committed) == []
    (made / "nn.slnm").write_bytes(b"SLNM" + b"nn.slnM")
    (made / "lsq.slnm").unlink()
    assert compare.compare_models(made, committed) == [
        "make_models.py wrote no lsq.slnm",
        f"{made / 'nn.slnm'} differs from {committed / 'nn.slnm'}",
    ]


@pytest.mark.parametrize("same", [True, False])
def test_the_working_directory_is_kept_only_for_a_difference(
    compare, tmp_path, monkeypatch, capsys, same
):
    checkout = tmp_path / "checkout"
    for part in ("src", "perfbench"):
        (checkout / part).mkdir(parents=True)
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(compare, "ROOT", checkout)
    monkeypatch.setattr(compare.tempfile, "tempdir", str(temp))
    monkeypatch.setattr(compare, "extract", lambda rev, dest: dest.mkdir())

    def produce(tree, out, log):
        history = b"1,2\n" if same or tree.name == "parent" else b"1,3\n"
        make_outputs(out, history=history)
        return []

    monkeypatch.setattr(compare, "produce", produce)
    assert compare.main(["--parent", "REV"]) == (0 if same else 1)
    kept = list(temp.iterdir())
    if same:
        assert kept == []
    else:
        assert len(kept) == 1 and f"kept {kept[0]}" in capsys.readouterr().out
