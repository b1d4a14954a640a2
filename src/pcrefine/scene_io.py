"""Corpus file I/O: PLY scenes, label and mask arrays, and the two JSON
files of a corpus, manifest.json and support.json.

Supported PLY vertex layout: x, y, z as float32 (required), red/green/blue
as uint8 (optional, all three or none), label as int32 (optional; missing
labels load as -1 with a MissingLabelWarning). Reads ASCII and binary
little-endian PLY into one vertex record; writes binary little-endian.
Both JSON files carry "version": FORMAT_VERSION, a JSON integer.
"""

from __future__ import annotations

import json
import os
import stat
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import AlignmentError, ConfigError, ContractError, FormatError
from .scene import ClassSchema, PointCloudScene, check_finite, checked_labels, checked_mask

# embeddings and prototypes are imported where support sets and replaced
# files are handled, so reading a scene or a manifest loads neither.
if TYPE_CHECKING:
    from .embeddings import FileFeatureProvider
    from .prototypes import SupportSet

# The version of manifest.json and support.json; command output documents
# are versioned apart, by the CLI's REPORT_SCHEMA_VERSION.
FORMAT_VERSION = 1


class MissingLabelWarning(UserWarning):
    """Raised as a warning when a PLY file carries no 'label' property."""


# Rows of a vertex record copied out at a time: about 1.3 MB of a coloured
# record, whose pages are then released if the record is mapped.
_RECORD_CHUNK = 2**16

# Vertex property name -> (the PLY type names it may be declared as, the
# first being the one written, and the little-endian numpy type it is stored as).
_PROPERTIES = {
    **dict.fromkeys(("x", "y", "z"), (("float", "float32"), "<f4")),
    **dict.fromkeys(("red", "green", "blue"), (("uchar", "uint8"), "u1")),
    "label": (("int", "int32"), "<i4"),
}


def save_scene(scene: PointCloudScene, path: str | Path) -> None:
    """Write a scene as binary little-endian PLY; positions stored as float32,
    labels as int32. A label of 2**31 or more, or a NaN or infinite position,
    which load_scene would refuse, is a ContractError naming the file, and no
    file is written."""
    checked_labels(f"{path}:", scene.labels, hi=2**31)
    check_finite(str(path), scene.positions.T)
    _write_vertices(path, [_vertex_record(scene.positions, scene.labels, scene.colors)])


def _vertex_dtype(has_color: bool) -> np.dtype:
    """The vertex record save_scene writes: x, y, z, then red, green, blue
    if has_color, then label."""
    names = ("x", "y", "z", *(("red", "green", "blue") if has_color else ()), "label")
    return np.dtype([(name, _PROPERTIES[name][1]) for name in names])


def _vertex_record(
    positions: np.ndarray, labels: np.ndarray, colors: np.ndarray | None
) -> np.ndarray:
    """Points encoded as save_scene writes them, colours in [0, 1] rounded to bytes."""
    # Each column is cast straight into the record: no float32 or uint8 (N, 3) copy.
    rec = np.empty(positions.shape[0], dtype=_vertex_dtype(colors is not None))
    for k, name in enumerate(("x", "y", "z")):
        rec[name] = positions[:, k]
    if colors is not None:
        rgb = colors * 255.0
        np.clip(np.rint(rgb, out=rgb), 0, 255, out=rgb)
        for k, name in enumerate(("red", "green", "blue")):
            rec[name] = rgb[:, k]
    rec["label"] = labels
    return rec


def _write_vertices(
    path: str | Path, records: list[np.ndarray], source: Path | None = None
) -> None:
    """Write vertex records of one dtype, one after another, as one binary
    little-endian PLY, under a temporary name then moved over path: a
    record mapped from path itself (_read_geometry) can be written back.
    source, if given, is the file the mapped records were read from: their
    bytes are copied from it by the kernel where it can, so the pages
    _read_geometry released are not mapped back in."""
    from .embeddings import _replacing

    names = records[0].dtype.names
    header = ["ply", "format binary_little_endian 1.0",
              f"element vertex {sum(rec.shape[0] for rec in records)}"]
    header += [f"property {_PROPERTIES[name][0][0]} {name}" for name in names]
    with _replacing(path) as f:
        f.write(("\n".join(header + ["end_header"]) + "\n").encode("ascii"))
        for rec in records:
            if source is None or not _copy_mapped(rec, source, f):
                f.write(rec)


def _copy_mapped(rec: np.ndarray, source: Path, f) -> bool:
    """Append rec's bytes to the file f by copying them from source with
    os.copy_file_range, if rec views source's mapping; True if done. False,
    with f as it was, for a record in memory, where the call is missing
    (outside Linux) or fails, or if source is no longer the size mapped."""
    view = _mapping_of(rec)
    copy = getattr(os, "copy_file_range", None)
    if view is None or copy is None:
        return False
    mapping, offset = view
    f.flush()
    start, done = f.tell(), 0
    try:
        with open(source, "rb") as src:
            if os.fstat(src.fileno()).st_size == len(mapping):
                while done < rec.nbytes:
                    n = copy(src.fileno(), f.fileno(), rec.nbytes - done, offset + done,
                             start + done)
                    if not n:
                        break
                    done += n
    except OSError:
        pass
    # The copy writes at explicit offsets and leaves f's position alone.
    f.seek(start + done if done == rec.nbytes else start)
    return done == rec.nbytes


def _append_blocks(
    path: str | Path,
    rec: np.ndarray,
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]],
    source: Path | None = None,
) -> None:
    """Write a base vertex record as read from source, then (positions,
    labels, colors) blocks encoded, as the PLY save_scene would write for
    the whole: colours are kept only if the base and every block have them.
    A base record laid out otherwise (another property order, no label,
    colours to drop) is copied field by field into save_scene's layout
    first, a missing label as -1; each field converts exactly, so the bytes
    are the same."""
    has_color = "red" in rec.dtype.names and all(colors is not None for *_, colors in blocks)
    dtype = _vertex_dtype(has_color)
    if rec.dtype != dtype:
        # By name: astype would assign structured fields by position.
        base = np.empty(rec.shape[0], dtype=dtype)
        for name in dtype.names:
            base[name] = rec[name] if name in rec.dtype.names else -1
        rec = base
    encoded = [_vertex_record(p, labels, c if has_color else None) for p, labels, c in blocks]
    _write_vertices(path, [rec, *encoded], source)


def load_scene(path: str | Path) -> PointCloudScene:
    """Read a PLY scene.

    Every malformed header or body is a FormatError naming the file, and
    the line number or byte offset; a NaN or infinite position, or a label
    below -1, is a ContractError naming the file and the point, raised by
    _read_geometry's checks. A missing 'label' property yields all-(-1)
    labels and a MissingLabelWarning.
    """
    columns, labels, rec, _, _ = _read_geometry(path)
    colors = None
    if "red" in rec.dtype.names:
        # Filled a column at a time, so no (3, N) stack is transposed.
        colors = np.empty((rec.shape[0], 3))
        for k, name in enumerate(("red", "green", "blue")):
            colors[:, k] = rec[name]
        colors /= 255.0
    return PointCloudScene(columns.T, labels.astype(np.int64), colors, source_path=str(path))


def _read_geometry(
    path: str | Path, n_classes: int = np.iinfo(np.int64).max
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]:
    """A PLY file's x, y and z as the contiguous rows of a (3, N) float32
    array, checked finite (and at least one point), its labels as a
    contiguous int32 vector checked in [-1, n_classes), its vertex record,
    whose colours are left unread, the (3, 2) float32 [min, max] of each
    column, which _cell_keys takes rather than reading the columns again,
    and the labels' (min, max). Every scene PLY read, load_scene's and the
    CLI's, bounds its labels here: a label fault is checked_labels'
    ContractError naming the file. Raises and warns as load_scene.

    A binary record is a read-only view of the mapped file, which stays
    mapped while the record lives: its pages are the page cache's, so no
    copy of the file is read into fresh memory for each scene. The columns
    and labels are copied out _RECORD_CHUNK rows at a time, and each
    chunk's pages leave the process once copied, so the whole file is never
    resident beside the heap; a later read of the record maps them back.
    Truncating the file while the record is alive raises SIGBUS on access."""
    path = Path(path)
    data = _mapped(path)
    fmt, count, dtype, body_offset = _parse_header(path, data)
    if fmt == "ascii":
        rec = _read_ascii(path, data[body_offset:], count, dtype)
    else:
        need = count * dtype.itemsize
        avail = len(data) - body_offset
        if avail < need:
            raise FormatError(
                f"{path}: truncated payload at byte offset {body_offset + avail}: "
                f"need {need} bytes for {count} vertices, have {avail}"
            )
        rec = np.frombuffer(data, dtype=dtype, count=count, offset=body_offset)

    if count < 1:
        raise AlignmentError(f"{path}: a scene must contain at least one point")
    # Labels are kept in the file's int32: one copy out of the packed record.
    has_labels = "label" in dtype.names
    columns = np.empty((3, count), dtype=np.float32)
    labels = np.empty(count, dtype=np.int32) if has_labels else np.full(count, -1, dtype=np.int32)
    for start in range(0, count, _RECORD_CHUNK):
        stop = min(start + _RECORD_CHUNK, count)
        chunk = rec[start:stop]
        for k, name in enumerate(("x", "y", "z")):
            columns[k, start:stop] = chunk[name]
        if has_labels:
            labels[start:stop] = chunk["label"]
        _drop_mapped_pages(rec, start, stop)
    # A NaN or an infinity shows in its column's min or max; check_finite's
    # exact scan then names the first such point.
    extremes = np.stack([columns.min(axis=1), columns.max(axis=1)], axis=1)
    if not np.isfinite(extremes).all():
        check_finite(str(path), columns)
    if not has_labels:
        warnings.warn(
            f"{path}: no 'label' property; labels default to -1", MissingLabelWarning
        )
    lo, hi = int(labels.min()), int(labels.max())
    if lo < -1 or hi >= n_classes:
        # Raised on the int64 cast, so the message reads as for any label file.
        checked_labels(f"{path}:", labels.astype(np.int64), hi=n_classes)
    return columns, labels, rec, extremes, (lo, hi)


def _mapping_of(rec: np.ndarray) -> "tuple[mmap.mmap, int] | None":
    """The mapped file a record views (_read_geometry's) and the record's
    byte offset in it, or None for a record in memory."""
    base = rec.base
    while isinstance(base, np.ndarray):  # a view of the record
        base = base.base
    mapping = getattr(base, "obj", None)  # np.frombuffer's memoryview of the mmap
    if not hasattr(mapping, "madvise"):
        return None
    return mapping, (rec.__array_interface__["data"][0]
                     - np.frombuffer(mapping, np.uint8).__array_interface__["data"][0])


def _drop_mapped_pages(rec: np.ndarray, start: int, stop: int) -> None:
    """Release this process's pages of rows start to stop of a record that
    views a mapped file, once they are read: from the page holding row
    start to the one holding row stop, which the next chunk still uses, or
    to the file's end after the last row. The pages stay in the page cache,
    so touching those rows again maps them back. A record in memory is left
    alone."""
    view = _mapping_of(rec)
    if view is None:
        return
    import mmap  # loaded already: the record is mapped

    mapping, first = view
    page = mmap.PAGESIZE
    lo = (first + start * rec.dtype.itemsize) // page * page
    hi = (len(mapping) if stop == rec.shape[0]
          else (first + stop * rec.dtype.itemsize) // page * page)
    if hi > lo:
        mapping.madvise(mmap.MADV_DONTNEED, lo, hi - lo)


def _mapped(path: Path) -> "mmap.mmap | bytes":
    """A file's bytes, as a read-only mapping, or read when the file cannot
    be mapped: an empty file or a pipe."""
    import mmap  # here, as in load_embeddings: keeps CLI start-up lean

    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size:
            return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        return f.read()


def _vertex_count(path: Path) -> int:
    """The vertex count a PLY file's header declares, its body unread.
    Raises as _parse_header."""
    return _parse_header(path, _mapped(path))[1]


def _parse_header(path: Path, data: bytes) -> tuple[str, int, np.dtype, int]:
    """The format, vertex count, record dtype (the declared properties in file
    order, typed by _PROPERTIES) and body offset of a PLY file."""
    end = data.find(b"end_header\n")
    if end < 0:
        raise FormatError(f"{path}: missing 'end_header' line")
    body_offset = end + len(b"end_header\n")
    # A non-ASCII byte decodes to U+FFFD, which matches no keyword, name or type.
    lines = data[:body_offset].decode("ascii", "replace").splitlines()
    if lines[0].strip() != "ply":
        raise FormatError(f"{path}: line 1: expected 'ply' magic")
    fmt = None
    count = None
    fields: dict[str, str] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"{path}: line {lineno}"
        tokens = line.split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if len(tokens) != 3 or tokens[1] not in ("ascii", "binary_little_endian"):
                raise FormatError(f"{where}: unsupported format '{line.strip()}'")
            fmt = tokens[1]
        elif tokens[0] == "element":
            # An ASCII string of digits: a vertex count of 0 or more.
            if len(tokens) != 3 or tokens[1] != "vertex" or not tokens[2].isdigit():
                raise FormatError(f"{where}: expected 'element vertex <count>': '{line.strip()}'")
            count = int(tokens[2])
        elif tokens[0] == "property":
            if count is None:
                raise FormatError(f"{where}: property outside vertex element")
            if len(tokens) != 3:
                raise FormatError(f"{where}: malformed property '{line.strip()}'")
            typ, name = tokens[1], tokens[2]
            if name not in _PROPERTIES:
                raise FormatError(f"{where}: unknown property '{name}'")
            if name in fields:
                raise FormatError(f"{where}: property '{name}' declared twice")
            ply_types, np_type = _PROPERTIES[name]
            if typ not in ply_types:
                raise FormatError(f"{where}: '{name}' must be {np.dtype(np_type).name}, got {typ}")
            fields[name] = np_type
        elif tokens[0] == "end_header":
            break
        else:
            raise FormatError(f"{where}: unexpected keyword '{tokens[0]}'")
    if fmt is None:
        raise FormatError(f"{path}: header missing 'format' line")
    if count is None:
        raise FormatError(f"{path}: header missing 'element vertex' line")
    for group, required in ((("x", "y", "z"), True), (("red", "green", "blue"), False)):
        missing = [name for name in group if name not in fields]
        if missing and (required or len(missing) < len(group)):
            raise FormatError(f"{path}: missing vertex property '{missing[0]}' ({'/'.join(group)})")
    return fmt, count, np.dtype(list(fields.items())), body_offset


def _read_ascii(path: Path, body: bytes, count: int, dtype: np.dtype) -> np.ndarray:
    """The first count non-blank lines of an ASCII body as a record of dtype.
    A value that is not a number, or that an integer column's type cannot
    hold exactly (a fraction, NaN, a colour of 300), is a FormatError."""
    # A non-ASCII byte decodes to U+FFFD, which no number parses.
    rows = [ln.split() for ln in body.decode("ascii", "replace").splitlines() if ln.strip()]
    if len(rows) < count:
        raise FormatError(
            f"{path}: truncated payload: header declares {count} vertices, "
            f"found {len(rows)} data lines"
        )
    n_props = len(dtype.names)
    values = np.empty((count, n_props), dtype=np.float64)
    for i, parts in enumerate(rows[:count]):
        if len(parts) != n_props:
            raise FormatError(
                f"{path}: vertex line {i + 1} has {len(parts)} values, expected {n_props}"
            )
        try:
            values[i] = [float(p) for p in parts]
        except ValueError as e:
            raise FormatError(f"{path}: vertex line {i + 1}: {e}") from None
    rec = np.empty(count, dtype=dtype)
    for j, name in enumerate(dtype.names):
        # NaN, infinities and out-of-range values cast to garbage in an
        # integer column, so the column must round-trip exactly.
        with np.errstate(invalid="ignore", over="ignore"):
            rec[name] = values[:, j]
        if dtype[name].kind in "iu" and not (rec[name] == values[:, j]).all():
            i = int(np.argmax(rec[name] != values[:, j]))
            raise FormatError(f"{path}: vertex line {i + 1}: '{name}' value "
                              f"{values[i, j].item()!r} does not fit {dtype[name].name}")
    return rec


def save_labels(labels: np.ndarray, path: str | Path) -> None:
    """Write labels, checked by checked_labels (no upper bound), as int64 .npy."""
    np.save(path, checked_labels(f"{path}:", labels))


def load_labels(path: str | Path) -> np.ndarray:
    """A 1-D integer label array as int64; any other array is a FormatError,
    and an unsigned label past int64 max a ContractError naming it."""
    labels = load_npy(path)
    if labels.ndim != 1 or labels.dtype.kind not in "iu":
        raise FormatError(
            f"{path}: expected a 1-D integer label array, got {labels.ndim}-D {labels.dtype}"
        )
    if labels.dtype.kind == "u":  # the int64 cast would wrap 2**63 and above to negatives
        return checked_labels(f"{path}:", labels, hi=2**63)
    return labels.astype(np.int64, copy=False)


def load_mask(path: str | Path, n: int | None = None) -> np.ndarray:
    """A support mask file as bool: checked_mask's rule, stored as bools or
    integers (never floats), one entry per point of a scene of n points if
    n is given. A 1-D mask of another length is checked_mask's
    AlignmentError naming the file; any other fault is a FormatError."""
    mask = load_npy(path)
    if mask.dtype.kind not in "biu":
        raise FormatError(f"{path}: expected a mask of bools or 0/1 integers, got {mask.dtype}")
    try:
        # A mask that is not 1-D is refused as such, whatever n is.
        return checked_mask(str(path), mask, n if mask.ndim == 1 else None)
    except ContractError as exc:
        if isinstance(exc, AlignmentError) and mask.ndim == 1:
            raise  # its length: the file is well formed, the scene disagrees
        raise FormatError(str(exc)) from exc


def load_npy(path: str | Path) -> np.ndarray:
    """The array in an .npy file; a file numpy cannot parse, or an .npz
    archive (closed before the raise), is a FormatError."""
    try:
        array = np.load(path)
    except (ValueError, EOFError) as exc:
        raise FormatError(f"{path}: malformed .npy file: {exc}") from exc
    if not isinstance(array, np.ndarray):
        array.close()
        raise FormatError(f"{path}: expected an .npy array, got an .npz archive")
    return array


ROLES = ("train", "test", "support")


@dataclass
class SceneEntry:
    scene_id: str
    path: str
    role: str  # one of ROLES
    embedding: str | None = None
    raw_predictions: str | None = None
    base_labels: str | None = None

    def to_dict(self) -> dict:
        files = {"embedding": self.embedding, "raw_predictions": self.raw_predictions,
                 "base_labels": self.base_labels}
        return {"id": self.scene_id, "path": self.path, "role": self.role,
                **{name: rel for name, rel in files.items() if rel}}


@dataclass
class Manifest:
    schema: ClassSchema
    scenes: list[SceneEntry] = field(default_factory=list)
    support: str | None = None
    root: Path = Path(".")
    source_path: Path | None = None  # the manifest file, when loaded from one

    def entries(self, role: str) -> list[SceneEntry]:
        return [e for e in self.scenes if e.role == role]

    def resolve(self, rel: str) -> Path:
        return self.root / rel


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    doc = {
        "version": FORMAT_VERSION,
        "schema": manifest.schema.to_dict(),
        "scenes": [e.to_dict() for e in manifest.scenes],
    }
    if manifest.support:
        doc["support"] = manifest.support
    Path(path).write_text(json.dumps(doc, indent=2))


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    try:
        doc = json.loads(path.read_bytes())
        _check_version(path, doc, "manifest")
        try:
            schema = ClassSchema.from_dict(doc["schema"])
        except ConfigError as exc:  # keeps its type, so its exit code
            raise ConfigError(f"{path}: {exc}") from exc
        scenes = []
        for e in doc.get("scenes", []):
            scenes.append(SceneEntry(
                scene_id=_id_field(path, e),
                path=_path_field(path, e, "path", required=True),
                role=_role_field(path, e),
                embedding=_path_field(path, e, "embedding"),
                raw_predictions=_path_field(path, e, "raw_predictions"),
                base_labels=_path_field(path, e, "base_labels"),
            ))
        support = _path_field(path, doc, "support")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"{path}: malformed manifest: {type(exc).__name__}: {exc}") from exc
    # A scene's id names its output files, so two scenes of one role with
    # one id would write to one <id>.npy.
    seen = set()
    for e in scenes:
        if (e.role, e.scene_id) in seen:
            raise FormatError(
                f"{path}: scene id {e.scene_id!r} appears twice in role {e.role!r}"
            )
        seen.add((e.role, e.scene_id))
    return Manifest(schema, scenes, support, root=path.parent, source_path=path)


def _id_field(manifest: Path, entry: dict) -> str:
    """A scene id names the scene's output files (<id>.npy, <id>.ply), so it
    is a non-empty string without '/' or NUL."""
    scene_id = entry["id"]
    if not (isinstance(scene_id, str) and scene_id and not {"/", "\0"} & set(scene_id)):
        raise FormatError(
            f"{manifest}: manifest field 'id' must be a file name without '/' or NUL, "
            f"got {scene_id!r}"
        )
    return scene_id


def _role_field(manifest: Path, entry: dict) -> str:
    role = entry.get("role")
    if role not in ROLES:
        raise FormatError(
            f"{manifest}: scene {entry['id']!r}: manifest field 'role' must be "
            f"one of {', '.join(ROLES)}, got {role!r}"
        )
    return role


def _check_version(path: Path, doc: dict, kind: str) -> None:
    """A corpus file's version must be the JSON integer FORMAT_VERSION:
    true and 1.0 equal 1 in Python, but are not accepted."""
    version = doc.get("version")
    if not (type(version) is int and version == FORMAT_VERSION):
        raise FormatError(f"{path}: unsupported {kind} version {json.dumps(version)}, "
                          f"expected the integer {FORMAT_VERSION}")


def _path_field(path: Path, obj: dict, name: str, required: bool = False) -> str | None:
    """A relative-path field of an object in the corpus file at path: a
    string without NUL (no file system takes one), or absent/null unless
    required."""
    value = obj[name] if required else obj.get(name)
    if isinstance(value, str) and "\0" in value:
        raise FormatError(f"{path}: field '{name}' holds a NUL character")
    if not (isinstance(value, str) or (value is None and not required)):
        raise FormatError(
            f"{path}: field '{name}' must be a string path, got {type(value).__name__}"
        )
    return value


def save_support(support: SupportSet, out: str | Path, embed) -> None:
    """Write out/support.json and the files it lists under out/support: each
    distinct support scene and its features embed(scene) once, and one mask
    .npy per shot."""
    from .embeddings import save_embeddings

    out = Path(out)
    (out / "support").mkdir(parents=True, exist_ok=True)
    doc = {"version": FORMAT_VERSION, "k": support.k, "classes": {}}
    saved: dict[int, str] = {}
    for c in support.classes():
        entries = []
        for j, shot in enumerate(support.shots[c]):
            if id(shot.scene) not in saved:
                sid = f"support_{len(saved):03d}"
                save_scene(shot.scene, out / f"support/{sid}.ply")
                save_embeddings(embed(shot.scene), out / f"support/{sid}.gfve")
                saved[id(shot.scene)] = sid
            sid = saved[id(shot.scene)]
            entry = {"scene": f"support/{sid}.ply", "embedding": f"support/{sid}.gfve",
                     "mask": f"support/mask_c{c}_s{j}.npy"}
            np.save(out / entry["mask"], shot.mask)
            entries.append(entry)
        doc["classes"][str(c)] = entries
    (out / "support.json").write_text(json.dumps(doc, indent=2))


def load_support(manifest: Manifest) -> tuple[SupportSet, FileFeatureProvider]:
    """The corpus's support set, each support scene file loaded once, and a
    FileFeatureProvider of each support scene's one embedding file.

    A manifest without a support entry (named by its source_path, if any),
    or a missing support file, is a ConfigError; a support.json that is not
    JSON, has another version, no `classes` object, a non-integer class key,
    a shot without a string `scene` or `mask` path, a `k` other than every
    class's integer shot count, or a scene listed with two embedding files
    is a FormatError naming the file. A shot may omit its scene's file.
    """
    from .embeddings import FileFeatureProvider
    from .prototypes import SupportSet, SupportShot

    if not manifest.support:
        where = f"{manifest.source_path}: " if manifest.source_path else ""
        raise ConfigError(f"{where}manifest has no support entry")
    path = manifest.resolve(manifest.support)
    if not path.exists():
        raise ConfigError(f"support file not found: {path}")
    try:
        doc = json.loads(path.read_bytes())
        _check_version(path, doc, "support file")
        parsed = {
            int(c): [(_path_field(path, e, "scene", required=True),
                      _path_field(path, e, "mask", required=True),
                      _path_field(path, e, "embedding")) for e in shot_entries]
            for c, shot_entries in doc["classes"].items()
        }
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"{path}: malformed support file: {type(exc).__name__}: {exc}") from exc
    counts = {len(shots) for shots in parsed.values()}
    if "k" in doc and not (type(doc["k"]) is int and counts <= {doc["k"]}):
        raise FormatError(f"{path}: field 'k' must be the integer shot count of every "
                          f"class, got {json.dumps(doc['k'])} for counts {sorted(counts)}")
    # By file, not spelling: support/a.ply and support/../support/a.ply are
    # one scene, and name one embedding file alike.
    scenes: dict[tuple[int, int], PointCloudScene] = {}
    embeddings: dict[str, Path] = {}
    shots = {}
    for c, shot_paths in parsed.items():
        class_shots = []
        for scene_rel, mask_rel, embedding_rel in shot_paths:
            scene_path = manifest.resolve(scene_rel)
            st = os.stat(scene_path)
            key = (st.st_dev, st.st_ino)
            if key not in scenes:
                scenes[key] = load_scene(scene_path)
            scene = scenes[key]
            if embedding_rel is not None:
                embedding = manifest.resolve(embedding_rel)
                listed = embeddings.setdefault(scene.source_path, embedding)
                if listed != embedding and listed.resolve() != embedding.resolve():
                    raise FormatError(f"{path}: support scene {scene.source_path} is listed "
                                      f"with two embedding files, {listed} and {embedding}")
            mask = load_mask(manifest.resolve(mask_rel), scene.point_count)
            class_shots.append(SupportShot(scene, mask))
        shots[c] = tuple(class_shots)
    return SupportSet(schema=manifest.schema, shots=shots), FileFeatureProvider(embeddings)
