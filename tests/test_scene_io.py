import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pcrefine.scene_io as scene_io
from pcrefine import PointCloudScene, load_scene, save_scene
from pcrefine.embeddings import load_embeddings, save_embeddings
from pcrefine.errors import AlignmentError, ConfigError, ContractError, FormatError
from pcrefine.scene_io import (
    Manifest,
    MissingLabelWarning,
    SceneEntry,
    _drop_mapped_pages,
    _mapping_of,
    _parse_header,
    _read_ascii,
    _read_geometry,
    _vertex_count,
    _write_vertices,
    load_labels,
    load_manifest,
    load_mask,
    load_support,
    save_labels,
    save_manifest,
)


def make_scene(n=3, colors=True, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloudScene(
        positions=rng.uniform(-5, 5, size=(n, 3)),
        labels=rng.integers(-1, 6, size=n),
        colors=rng.integers(0, 256, size=(n, 3)) / 255.0 if colors else None,
    )


def test_round_trip(tmp_path):
    scene = make_scene(17)
    path = tmp_path / "scene.ply"
    save_scene(scene, path)
    back = load_scene(path)
    assert back.point_count == 17
    # Positions are stored as float32.
    np.testing.assert_array_equal(
        back.positions.astype(np.float32), scene.positions.astype(np.float32)
    )
    np.testing.assert_array_equal(back.labels, scene.labels)
    np.testing.assert_allclose(back.colors, scene.colors, atol=1 / 510)


def test_double_round_trip_is_identity(tmp_path):
    scene = make_scene(9, seed=5)
    p1, p2 = tmp_path / "a.ply", tmp_path / "b.ply"
    save_scene(scene, p1)
    first = load_scene(p1)
    save_scene(first, p2)
    second = load_scene(p2)
    np.testing.assert_array_equal(first.positions, second.positions)
    np.testing.assert_array_equal(first.labels, second.labels)
    np.testing.assert_array_equal(first.colors, second.colors)


def test_ascii_reader(tmp_path):
    path = tmp_path / "ascii.ply"
    path.write_text(
        "ply\nformat ascii 1.0\ncomment written by hand\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "property int label\nend_header\n"
        "0.5 -1.25 2 255 0 51 3\n"
        "0.1 0 -7.5 0 128 255 -1\n"
        "\n"
        "1e3 4 0.25 10 20 30 12\n"
    )
    scene = load_scene(path)
    # Positions pass through float32, as a binary file stores them.
    np.testing.assert_array_equal(
        scene.positions,
        np.array([[0.5, -1.25, 2.0], [0.1, 0.0, -7.5], [1000.0, 4.0, 0.25]],
                 dtype=np.float32).astype(np.float64),
    )
    assert scene.positions.dtype == np.float64
    np.testing.assert_array_equal(
        scene.colors, np.array([[255, 0, 51], [0, 128, 255], [10, 20, 30]]) / 255.0
    )
    np.testing.assert_array_equal(scene.labels, [3, -1, 12])
    assert scene.labels.dtype == np.int64


def test_no_colors(tmp_path):
    scene = make_scene(4, colors=False)
    save_scene(scene, tmp_path / "s.ply")
    back = load_scene(tmp_path / "s.ply")
    assert back.colors is None


@pytest.mark.parametrize("value", [2**31, 2**32 + 3])
def test_label_past_int32_is_contract_error_and_writes_nothing(tmp_path, value):
    # An int32 cast would wrap 2**32 + 3 to the valid class 3, and 2**31 to -2**31.
    path = tmp_path / "s.ply"
    scene = PointCloudScene(np.zeros((3, 3)), np.array([0, value, 5]))
    with pytest.raises(ContractError, match=f"s.ply: label {value} at point 1 breaks"):
        save_scene(scene, path)
    assert not path.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_position_is_contract_error_and_writes_nothing(tmp_path, value):
    # load_scene would refuse the file, so save_scene writes none.
    path = tmp_path / "s.ply"
    positions = np.zeros((3, 3))
    positions[1, 2] = value
    with pytest.raises(ContractError, match=rf"s.ply: position \[0.0, 0.0, {value}\] of point 1 is not finite"):
        save_scene(PointCloudScene(positions, np.array([0, 1, 2])), path)
    assert not path.exists()


def test_faults_name_the_path_as_normalised(tmp_path, monkeypatch):
    # Read as "./d//x.ply", the file is named d/x.ply by a position fault
    # and by a label fault alike.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    head = ("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
            "property float z\nproperty int label\nend_header\n")
    for body, fault in [("0 0 0 0\n0 0 nan 1\n0 0 0 2\n", "position [0.0, 0.0, nan] of point 1 "),
                        ("0 0 0 0\n0 0 0 1\n0 0 0 -5\n", "label -5 at point 2 ")]:
        (tmp_path / "d/x.ply").write_text(head + body)
        with pytest.raises(ContractError) as info:
            load_scene("./d//x.ply")
        assert str(info.value).startswith(f"d/x.ply: {fault}")


def test_pipe_is_read_and_file_is_mapped(tmp_path):
    # A regular file's record is a read-only view of its mapping; a pipe
    # cannot be mapped, so it is read, to the same scene.
    path = tmp_path / "s.ply"
    save_scene(make_scene(5), path)
    assert not _read_geometry(path)[2].flags.writeable
    read, write = os.pipe()
    os.write(write, path.read_bytes())
    os.close(write)
    try:
        piped = load_scene(f"/dev/fd/{read}")
    finally:
        os.close(read)
    mapped = load_scene(path)
    for name in ("positions", "labels", "colors"):
        np.testing.assert_array_equal(getattr(piped, name), getattr(mapped, name))


def test_vertex_count_reads_only_the_header(tmp_path):
    path = tmp_path / "s.ply"
    save_scene(make_scene(5), path)
    assert _vertex_count(path) == 5
    path.write_bytes(path.read_bytes()[:-7])  # a body _read_geometry refuses
    assert _vertex_count(path) == 5
    path.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nend_header\n")
    with pytest.raises(FormatError, match="missing vertex property 'y'"):
        _vertex_count(path)


def test_int32_extreme_labels_round_trip(tmp_path):
    save_scene(PointCloudScene(np.zeros((3, 3)), np.array([-1, 2**31 - 1, 5])), tmp_path / "s.ply")
    assert load_scene(tmp_path / "s.ply").labels.tolist() == [-1, 2**31 - 1, 5]


def test_missing_label_property_warns(tmp_path):
    path = tmp_path / "nolabel.ply"
    body = (
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
        "0 0 0\n1 1 1\n"
    )
    path.write_text(body)
    with pytest.warns(MissingLabelWarning):
        scene = load_scene(path)
    assert (scene.labels == -1).all()


@pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
def test_no_vertices_rejected(tmp_path, fmt):
    path = tmp_path / "empty.ply"
    path.write_text(
        f"ply\nformat {fmt} 1.0\nelement vertex 0\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property int label\nend_header\n"
    )
    with pytest.raises(AlignmentError, match=f"^{re.escape(str(path))}: a scene must contain"):
        load_scene(path)


def test_truncated_ascii_payload(tmp_path):
    path = tmp_path / "trunc.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 5\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property int label\nend_header\n0 0 0 1\n"
    )
    with pytest.raises(FormatError, match="truncated"):
        load_scene(path)


def test_truncated_binary_payload(tmp_path):
    scene = make_scene(10)
    path = tmp_path / "full.ply"
    save_scene(scene, path)
    data = path.read_bytes()
    short = tmp_path / "short.ply"
    short.write_bytes(data[:-8])
    with pytest.raises(FormatError, match="byte offset"):
        load_scene(short)


def test_unknown_property_rejected(tmp_path):
    path = tmp_path / "odd.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float curvature\nend_header\n0 0 0 0\n"
    )
    with pytest.raises(FormatError, match="curvature"):
        load_scene(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text("plx\nformat ascii 1.0\nend_header\n")
    with pytest.raises(FormatError, match="line 1"):
        load_scene(path)


ASCII_PLY = (
    "ply\nformat ascii 1.0\nelement vertex 2\n"
    "property float x\nproperty float y\nproperty float z\n"
    "property uchar red\nproperty uchar green\nproperty uchar blue\n"
    "property int label\nend_header\n"
    "0.5 -1.25 2 10 20 30 1\n"
    "0.1 0 -7.5 40 50 60 2\n"
)


@pytest.mark.parametrize("fmt, edits", [
    ("ascii", [("element vertex 2", "element")]),
    ("ascii", [("element vertex 2", "element vertex -5")]),
    ("binary", [("element vertex 2", "element vertex -5")]),
    ("binary", [("element vertex 2", "element vertex abc")]),
    ("ascii", [("-1.25 2 10", "abc 2 10")]),
    ("ascii", [("60 2\n", "60 2.5\n")]),
    ("ascii", [("60 2\n", "60 nan\n")]),
    ("ascii", [("40 50 60", "300 50 60")]),
    # The body loses the green column too, so only the header is at fault.
    ("ascii", [("property uchar green\n", ""), ("10 20 30", "10 30"), ("40 50 60", "40 60")]),
    ("binary", [("property uchar green\n", "")]),
    ("ascii", [("property float z\n", "property float z\nproperty float x\n"),
               ("2 10 20", "2 0 10 20"), ("-7.5 40", "-7.5 0 40")]),
    ("ascii", [("format ascii 1.0", "format binary_big_endian 1.0")]),
    ("ascii", [("property int label", "property list uchar int label")]),
    ("ascii", [("element vertex 2\n", "element vertex 2\nobj_info scanner\n")]),
    ("ascii", [("format ascii 1.0\n", "")]),
    # No property may come before the element line, so they go with it.
    ("ascii", [("element vertex 2\n" + "".join(
        f"property {t} {n}\n" for t, n in [("float", "x"), ("float", "y"), ("float", "z"),
                                            ("uchar", "red"), ("uchar", "green"),
                                            ("uchar", "blue"), ("int", "label")]), "")]),
    ("ascii", [("50 60 2\n", "")]),
], ids=["element_alone", "negative_count_ascii", "negative_count_binary",
        "non_numeric_count", "non_number_value", "fractional_label", "nan_label",
        "colour_300", "red_without_green_ascii", "red_without_green_binary",
        "repeated_x", "unsupported_format", "malformed_property", "unexpected_keyword",
        "no_format_line", "no_element_line", "ascii_cut_mid_line"])
def test_malformed_ply_is_format_error_naming_file(tmp_path, fmt, edits):
    """Each fault in a two-vertex coloured PLY, ASCII or binary as save_scene
    writes it, is a FormatError whose message names the file."""
    if fmt == "ascii":
        data = ASCII_PLY.encode()
    else:
        save_scene(make_scene(2), tmp_path / "clean.ply")
        data = (tmp_path / "clean.ply").read_bytes()
    for old, new in edits:
        assert old.encode() in data
        data = data.replace(old.encode(), new.encode(), 1)
    path = tmp_path / "fault.ply"
    path.write_bytes(data)
    with pytest.raises(FormatError) as info:
        load_scene(path)
    assert str(path) in str(info.value)


def test_ascii_and_binary_decode_alike(tmp_path):
    """The same vertices as ASCII text and as binary load to equal arrays."""
    ascii_path = tmp_path / "a.ply"
    ascii_path.write_text(ASCII_PLY)
    from_ascii = load_scene(ascii_path)
    save_scene(from_ascii, tmp_path / "b.ply")
    from_binary = load_scene(tmp_path / "b.ply")
    for field in ("positions", "labels", "colors"):
        a, b = getattr(from_ascii, field), getattr(from_binary, field)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("fmt", ["ascii", "binary"])
def test_comment_ending_in_end_header_does_not_end_the_header(tmp_path, fmt):
    """The header ends at a line that is exactly end_header; a comment line
    that ends with the word is skipped like any other comment."""
    ascii_path = tmp_path / "a.ply"
    ascii_path.write_text(ASCII_PLY)
    if fmt == "ascii":
        data = ASCII_PLY.encode()
    else:
        save_scene(load_scene(ascii_path), tmp_path / "b.ply")
        data = (tmp_path / "b.ply").read_bytes()
    path = tmp_path / "commented.ply"
    path.write_bytes(data.replace(b"element vertex 2\n",
                                  b"comment written by tool_end_header\nelement vertex 2\n", 1))
    assert _vertex_count(path) == 2
    scene, want = load_scene(path), load_scene(ascii_path)
    for field in ("positions", "labels", "colors"):
        np.testing.assert_array_equal(getattr(scene, field), getattr(want, field))


def encode_tobytes(scene):
    """The reference: save_scene's bytes as it was written, casting whole
    (N, 3) arrays and writing the record through tobytes()."""
    has_color = scene.colors is not None
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {scene.point_count}"]
    header += ["property float x", "property float y", "property float z"]
    fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4")]
    if has_color:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
        fields += [("red", "u1"), ("green", "u1"), ("blue", "u1")]
    header += ["property int label", "end_header"]
    fields += [("label", "<i4")]
    rec = np.empty(scene.point_count, dtype=np.dtype(fields))
    pos = scene.positions.astype("<f4")
    rec["x"], rec["y"], rec["z"] = pos[:, 0], pos[:, 1], pos[:, 2]
    if has_color:
        rgb = np.clip(np.rint(scene.colors * 255.0), 0, 255).astype(np.uint8)
        rec["red"], rec["green"], rec["blue"] = rgb[:, 0], rgb[:, 1], rgb[:, 2]
    rec["label"] = scene.labels.astype("<i4")
    return ("\n".join(header) + "\n").encode("ascii") + rec.tobytes()


def decode_stack(path):
    """The reference: load_scene's arrays as it built them, stacking the
    record's fields and casting the (N, 3) stack."""
    data = path.read_bytes()
    fmt, count, dtype, body_offset = _parse_header(path, data)
    if fmt == "ascii":
        rec = _read_ascii(path, data[body_offset:], count, dtype)
    else:
        rec = np.frombuffer(data, dtype=dtype, count=count, offset=body_offset)
    positions = np.stack([rec["x"], rec["y"], rec["z"]], axis=1).astype(np.float64)
    colors = None
    if "red" in dtype.names:
        colors = np.stack([rec["red"], rec["green"], rec["blue"]], axis=1) / 255.0
    labels = (rec["label"].astype(np.int64) if "label" in dtype.names
              else np.full(count, -1, dtype=np.int64))
    return positions, colors, labels


def assert_same_bytes(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def drawn_colors(rng, n, kind):
    """Colours in [0, 1], outside it, or on the half steps where rint ties."""
    if kind == "unit":
        return rng.uniform(0, 1, size=(n, 3))
    if kind == "outside":
        return rng.uniform(-0.6, 1.6, size=(n, 3))
    return rng.integers(-4, 515, size=(n, 3)) / 510.0


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e4, 3e38]),
    colors=st.sampled_from([None, "unit", "outside", "halves"]),
)
def test_save_scene_bytes_equal_tobytes_reference(tmp_path_factory, n, seed, scale, colors):
    rng = np.random.default_rng(seed)
    scene = PointCloudScene(
        positions=scale * rng.uniform(-1, 1, size=(n, 3)),
        labels=rng.integers(-1, 2**31 - 1, size=n),
        colors=None if colors is None else drawn_colors(rng, n, colors),
    )
    path = tmp_path_factory.mktemp("save") / "s.ply"
    save_scene(scene, path)
    assert path.read_bytes() == encode_tobytes(scene)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    fmt=st.sampled_from(["ascii", "binary_little_endian"]),
    colored=st.booleans(),
    labelled=st.booleans(),
    order=st.randoms(use_true_random=False),
)
def test_load_scene_arrays_equal_stack_reference(tmp_path_factory, n, seed, fmt, colored,
                                                  labelled, order):
    """Any declared property order, ASCII or binary, with or without colour
    and label, loads to the reference's arrays byte for byte."""
    names = ["x", "y", "z"] + ["red", "green", "blue"] * colored + ["label"] * labelled
    order.shuffle(names)
    types = {"x": ("float", "<f4"), "y": ("float", "<f4"), "z": ("float", "<f4"),
             "red": ("uchar", "u1"), "green": ("uchar", "u1"), "blue": ("uchar", "u1"),
             "label": ("int", "<i4")}
    rng = np.random.default_rng(seed)
    rec = np.empty(n, dtype=[(name, types[name][1]) for name in names])
    for name in names:
        if name in "xyz":
            rec[name] = rng.uniform(-1e3, 1e3, size=n)
        elif name == "label":
            rec[name] = rng.integers(-1, 100, size=n)
        else:
            rec[name] = rng.integers(0, 256, size=n)
    header = ["ply", f"format {fmt} 1.0", f"element vertex {n}"]
    header += [f"property {types[name][0]} {name}" for name in names] + ["end_header", ""]
    if fmt == "ascii":
        body = "".join(" ".join(map(repr, row)) + "\n" for row in rec.tolist()).encode()
    else:
        body = rec.tobytes()
    path = tmp_path_factory.mktemp("load") / "s.ply"
    path.write_bytes("\n".join(header).encode() + body)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MissingLabelWarning)
        got = load_scene(path)
    positions, colors, labels = decode_stack(path)
    assert_same_bytes(got.positions, positions)
    assert_same_bytes(got.colors, colors)
    assert_same_bytes(got.labels, labels)


@pytest.mark.parametrize("n", [1, 6, 7, 8, 14, 15, 3000])
def test_chunked_read_and_write_equal_the_references(tmp_path, monkeypatch, n):
    # 7 rows at a time, the mapping's pages released behind each chunk: the
    # arrays and bytes of the unchunked references, around every boundary
    # and across pages.
    monkeypatch.setattr(scene_io, "_RECORD_CHUNK", 7)
    scene = make_scene(n, seed=n)
    path = tmp_path / "s.ply"
    save_scene(scene, path)
    assert path.read_bytes() == encode_tobytes(scene)
    got = load_scene(path)
    positions, colors, labels = decode_stack(path)
    assert_same_bytes(got.positions, positions)
    assert_same_bytes(got.colors, colors)
    assert_same_bytes(got.labels, labels)
    for source in (None, path):  # through the mapping, and file to file
        _write_vertices(tmp_path / "copy.ply", [_read_geometry(path)[2]], source)
        assert (tmp_path / "copy.ply").read_bytes() == path.read_bytes()


def mapped_kb(path):
    """Resident kB of this process's mappings of path, from Linux's smaps."""
    name, total, inside = os.path.realpath(path), 0, False
    with open("/proc/self/smaps") as f:
        for line in f:
            if re.match(r"[0-9a-f]+-[0-9a-f]+ ", line):
                inside = line.rstrip("\n").endswith(" " + name)
            elif inside and line.startswith("Rss:"):
                total += int(line.split()[1])
    return total


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="reads Linux's smaps")
def test_mapped_pages_leave_once_read_and_are_not_mapped_back_to_write(tmp_path):
    # The whole file is never resident in the process beside the copies
    # made of it, and writing the record out copies it file to file.
    path = tmp_path / "s.ply"
    save_scene(make_scene(200_000), path)
    rec = _read_geometry(path)[2]
    assert mapped_kb(path) == 0
    _write_vertices(tmp_path / "copy.ply", [rec, rec[:3]], path)
    assert mapped_kb(path) == 0
    _write_vertices(tmp_path / "reference.ply", [np.array(rec), np.array(rec[:3])])
    assert (tmp_path / "copy.ply").read_bytes() == (tmp_path / "reference.ply").read_bytes()
    # Read again, the record's pages come back from the page cache: the
    # check above would see them.
    assert mapped_kb(path) >= 0.9 * path.stat().st_size // 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="reads Linux's smaps")
def test_feature_rows_released_by_row_stride(tmp_path):
    # A GFVE matrix's rows are 4 x 300 bytes apart, past a 20-byte header:
    # releasing rows [a, b) drops the pages from the one holding row a to the
    # one holding row b, and the last rows release to the end of the file.
    # Where the kernel maps a large folio whole (2 MiB), a cut inside it may
    # release all of it: FOLIO kB of slack at each cut.
    path = tmp_path / "f.gfve"
    n, d, FOLIO = 20_000, 300, 2048
    save_embeddings(np.random.default_rng(0).standard_normal((n, d)), path)
    feats = load_embeddings(path)
    total = feats.sum(dtype=np.float64)  # every page mapped
    size_kb = -(-path.stat().st_size // 4096) * 4
    assert mapped_kb(path) == size_kb

    def page(row):
        return (20 + row * d * 4) // 4096 * 4

    _drop_mapped_pages(feats, _mapping_of(feats), 5000, 10_000)
    rows_kb = page(10_000) - page(5000)
    assert rows_kb <= size_kb - mapped_kb(path) <= rows_kb + 2 * FOLIO
    _drop_mapped_pages(feats, _mapping_of(feats), 16_000, n)
    kept_kb = page(5000) + page(16_000) - page(10_000)
    assert kept_kb - 3 * FOLIO <= mapped_kb(path) <= kept_kb
    assert feats.sum(dtype=np.float64) == total  # mapped back from the page cache
    # A matrix in memory is left alone.
    copy = np.array(feats)
    _drop_mapped_pages(copy, _mapping_of(copy), 0, n)
    assert (copy == feats).all()


@pytest.mark.parametrize("fault", ["missing", "error", "short", "resized"])
def test_file_to_file_copy_falls_back_to_the_mapping(tmp_path, monkeypatch, fault):
    # Where the kernel cannot copy, or the file is no longer the one mapped,
    # the record is written from its mapping, over any bytes copied so far.
    path = tmp_path / "s.ply"
    save_scene(make_scene(5000), path)
    rec = _read_geometry(path)[2]
    expected = path.read_bytes()
    copy_file_range = getattr(os, "copy_file_range", None)

    def short(src, dst, count, offset_src, offset_dst):  # two pages, then end of file
        if offset_src >= 8192:
            return 0
        return copy_file_range(src, dst, min(count, 4096), offset_src, offset_dst)

    def failing(*args):
        raise OSError(18, "Invalid cross-device link")

    if fault == "missing":
        monkeypatch.delattr(os, "copy_file_range", raising=False)
    elif fault == "error":
        monkeypatch.setattr(os, "copy_file_range", failing, raising=False)
    elif fault == "short":
        if copy_file_range is None:
            pytest.skip("no os.copy_file_range here")
        monkeypatch.setattr(os, "copy_file_range", short)
    else:  # replaced since it was read: the mapping keeps the old file
        save_scene(make_scene(5001, seed=1), tmp_path / "other.ply")
        os.replace(tmp_path / "other.ply", path)
    _write_vertices(tmp_path / "copy.ply", [rec], path)
    assert (tmp_path / "copy.ply").read_bytes() == expected


@pytest.mark.parametrize("mask", [
    np.array([True, False, True]), np.array([1, 0, 1], dtype=np.uint8),
    np.array([1, 0, 1], dtype=np.int64),
])
def test_mask_of_bools_or_zeros_and_ones(tmp_path, mask):
    np.save(tmp_path / "m.npy", mask)
    out = load_mask(tmp_path / "m.npy")
    assert out.dtype == bool and out.tolist() == [True, False, True]


@pytest.mark.parametrize("mask", [
    np.array(["a", "b", "c"]), np.full(3, 2), np.array([1, 0, -1]),
    np.array([1.0, 0.0, 1.0]), np.ones((3, 1), dtype=bool), np.array(True),
])
def test_other_mask_is_format_error(tmp_path, mask):
    np.save(tmp_path / "m.npy", mask)
    with pytest.raises(FormatError, match="m.npy"):
        load_mask(tmp_path / "m.npy")


def test_mask_of_another_length_is_alignment_error(tmp_path):
    # The file is well formed: its length disagrees with the scene's point count.
    np.save(tmp_path / "m.npy", np.array([True, False, True]))
    with pytest.raises(AlignmentError) as caught:
        load_mask(tmp_path / "m.npy", 4)
    assert str(caught.value) == f"{tmp_path / 'm.npy'} mask of shape (3,) is not 4 entries, one per point"
    assert load_mask(tmp_path / "m.npy", 3).tolist() == [True, False, True]


@pytest.mark.parametrize("mask", [np.ones((3, 1), dtype=bool), np.array(True)], ids=["2-D", "0-D"])
def test_mask_not_1d_is_format_error_whatever_the_count(tmp_path, mask):
    np.save(tmp_path / "m.npy", mask)
    with pytest.raises(FormatError) as caught:
        load_mask(tmp_path / "m.npy", 3)
    assert str(caught.value) == f"{tmp_path / 'm.npy'} mask of shape {mask.shape} is not a 1-D vector"


def test_labels_npy_round_trip(tmp_path):
    labels = np.array([-1, 0, 7, 3], dtype=np.int64)
    save_labels(labels, tmp_path / "l.npy")
    np.testing.assert_array_equal(load_labels(tmp_path / "l.npy"), labels)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint16, np.uint32, np.uint64])
def test_integer_labels_load_as_int64(tmp_path, dtype):
    # The largest label each dtype holds, up to int64 max, loads unchanged.
    top = min(int(np.iinfo(dtype).max), 2**63 - 1)
    np.save(tmp_path / "l.npy", np.array([0, 7, top], dtype=dtype))
    got = load_labels(tmp_path / "l.npy")
    assert got.dtype == np.int64 and got.tolist() == [0, 7, top]


@pytest.mark.parametrize("value", [2**63, 2**64 - 1])
def test_uint64_label_past_int64_max_is_contract_error(tmp_path, value):
    # An int64 cast would wrap it to a negative label: 2**64 - 1 to -1, the background.
    np.save(tmp_path / "l.npy", np.array([0, 7, value, 3], dtype=np.uint64))
    with pytest.raises(ContractError, match=f"l.npy: label {value} at point 2 "):
        load_labels(tmp_path / "l.npy")


@pytest.mark.parametrize("load, array", [
    (load_labels, np.array([0, 7, 3], dtype=np.int64)),
    (load_mask, np.array([True, False, True])),
], ids=["labels", "mask"])
def test_npz_archive_at_npy_path_is_format_error_and_closed(tmp_path, monkeypatch, load, array):
    # np.load reads the archive as an NpzFile, which is no array; the archive is closed.
    path = tmp_path / "a.npy"
    with open(path, "wb") as f:
        np.savez(f, data=array)
    opened, real_load = [], np.load

    def recording_load(*args, **kwargs):
        opened.append(real_load(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(np, "load", recording_load)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: expected an .npy array, "
                                          "got an .npz archive$"):
        load(path)
    assert len(opened) == 1 and opened[0].fid is None and opened[0].zip is None


def test_manifest_round_trip(tmp_path, schema):
    manifest = Manifest(
        schema=schema,
        scenes=[
            SceneEntry("s0", "scenes/s0.ply", "train", embedding="emb/s0.gfve"),
            SceneEntry("s1", "scenes/s1.ply", "test"),
        ],
        support="support.json",
    )
    save_manifest(manifest, tmp_path / "manifest.json")
    back = load_manifest(tmp_path / "manifest.json")
    assert back.schema == schema
    assert back.support == "support.json"
    assert [e.scene_id for e in back.entries("train")] == ["s0"]
    assert back.entries("train")[0].embedding == "emb/s0.gfve"
    assert back.resolve("scenes/s0.ply") == tmp_path / "scenes/s0.ply"
    assert back.source_path == tmp_path / "manifest.json"


def test_entries_keep_manifest_order_across_roles(schema):
    manifest = Manifest(schema=schema, scenes=[
        SceneEntry("s0", "s0.ply", "test"), SceneEntry("s1", "s1.ply", "train"),
        SceneEntry("s2", "s2.ply", "support"), SceneEntry("s3", "s3.ply", "train"),
    ])
    assert [e.scene_id for e in manifest.entries("train")] == ["s1", "s3"]
    assert [e.scene_id for e in manifest.entries("train", "test")] == ["s0", "s1", "s3"]
    assert manifest.entries() == []


def test_no_support_entry_names_the_manifest_file(tmp_path, schema):
    manifest = Manifest(schema=schema)
    with pytest.raises(ConfigError, match="^manifest has no support entry$"):
        load_support(manifest)
    save_manifest(manifest, tmp_path / "manifest.json")
    with pytest.raises(ConfigError) as info:
        load_support(load_manifest(tmp_path / "manifest.json"))
    assert str(info.value) == f"{tmp_path / 'manifest.json'}: manifest has no support entry"


def test_manifest_bad_json(tmp_path):
    (tmp_path / "m.json").write_text("{not json")
    with pytest.raises(FormatError):
        load_manifest(tmp_path / "m.json")
