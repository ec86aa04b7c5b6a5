"""The committed record of the canonical runs, and the script that re-pins it.

Each run in RUNS is recorded in <name>.json beside this script: its
exit code, stdout and stderr, and every artifact but timings.json,
parsed: JSON as JSON, CSV as rows (one object per row, keyed by column),
pencil.bin as its header and arrays, complex values as [re, im].  The
outputs directory, which report.json echoes, reads "<out>".
tests/test_golden.py runs each in-process and requires `differences`
to find none.

A number's move is |new - old| over its scale: its own magnitude, or
for an exact 0 the largest magnitude in its list.  A list of two floats
is a complex number [re, im], as every artifact writes one, and moves
by its modulus.  Numbers may move by RTOL; strings, integers, booleans,
keys and lengths may not.  `max_retained_residual` measures rounding,
which moves with BLAS blocking and thread counts, so it is held to the
bound recorded beside the value, BOUND_FACTOR times the pinned value,
and not to the value itself.

    PYTHONPATH=src python tests/golden/repin.py

runs every canonical run, prints each field's largest move against the
record it replaces, and rewrites the record.
"""

import contextlib
import io
import json
import math
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from conespectra import cli
from conespectra.discretize import load_pencil

HERE = Path(__file__).resolve().parent
RUNS = {
    "example52": ["example52"],
    "example52-a1-bi1": ["example52", "--a", "1", "--b-im", "1"],
    "example53": ["example53"],
    "example53-a1-bi1": ["example53", "--a", "1", "--b-im", "1"],
    "certify-a1-b1": ["certify", "--a", "1", "--b", "1"],
    "spectrum-alpha2": ["spectrum", "--alpha", "2"],
    "complete-alpha2": ["complete", "--alpha", "2"],
    "embed": ["embed"],
}
RTOL = 1e-8
BOUNDED = "max_retained_residual"
BOUND_FACTOR = 2.0


def _numbers(array) -> list:
    """An array as JSON numbers, a complex value as [re, im]."""
    if np.iscomplexobj(array):
        return np.stack((array.real, array.imag), axis=-1).tolist()
    return array.tolist()


def _pencil(path: Path) -> dict:
    with open(path, "rb") as fh:
        (length,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(length))
    pencil = load_pencil(path)
    arrays = {
        f"{name}_{part}": _numbers(getattr(matrix, part))
        for name, matrix in (("k", pencil.K), ("m", pencil.M))
        for part in ("diag", "off", "border", "corner")
    }
    return {"header": header, "arrays": arrays}


def _csv(path: Path) -> list:
    lines = path.read_text().splitlines()
    columns = lines[0].split(",")

    def number(cell):
        try:
            return int(cell)
        except ValueError:
            return float(cell)

    return [dict(zip(columns, map(number, line.split(",")))) for line in lines[1:]]


def _without_out(value, out: str):
    if isinstance(value, dict):
        return {key: _without_out(item, out) for key, item in value.items()}
    if isinstance(value, list):
        return [_without_out(item, out) for item in value]
    return "<out>" if value == out else value


def capture(argv, out: Path) -> dict:
    """Run the CLI in-process with --out out and read back what the record holds, bounds included."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", str(out)])
    artifacts = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json" and path.name != "timings.json":
            artifacts[path.name] = _without_out(json.loads(path.read_text()), str(out))
        elif path.suffix == ".csv":
            artifacts[path.name] = _csv(path)
        elif path.name == "pencil.bin":
            artifacts[path.name] = _pencil(path)
    record = {
        "argv": list(argv),
        "exit_code": code,
        "stdout": stdout.getvalue().splitlines(),
        "stderr": stderr.getvalue().splitlines(),
        "artifacts": artifacts,
    }
    residual = artifacts.get("spectrum.json", {}).get(BOUNDED)
    if residual is not None:
        record["bounds"] = {BOUNDED: BOUND_FACTOR * residual}
    return record


def _move(old, new, scale: float) -> float:
    if old == new or (old != old and new != new):  # equal, or both NaN
        return 0.0
    size = abs(old) or scale
    move = abs(new - old) / size if size else math.inf
    return move if math.isfinite(move) else math.inf


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(type(v) is float for v in value)


def _moves(old, new, field: str, scale: float = 0.0):
    """(field, move, old, new) for each leaf of the record old against the capture new; inf where they differ in kind."""
    if type(old) is not type(new):
        yield field, math.inf, old, new
    elif isinstance(old, dict):
        if old.keys() != new.keys():
            yield f"{field} (keys)", math.inf, sorted(old), sorted(new)
            return
        for key in old:
            yield from _moves(old[key], new[key], f"{field}/{key}")
    elif isinstance(old, list):
        if len(old) != len(new):
            yield f"{field} (length)", math.inf, len(old), len(new)
        elif _is_pair(old) and _is_pair(new):
            yield field, _move(complex(*old), complex(*new), 0.0), old, new
        else:
            floats = [abs(v) for v in old if type(v) is float and math.isfinite(v)]
            for item, other in zip(old, new):
                yield from _moves(item, other, f"{field}[]", max(floats, default=0.0))
    elif type(old) is float:
        yield field, _move(old, new, scale), old, new
    else:
        yield field, 0.0 if old == new else math.inf, old, new


def largest_moves(old: dict, new: dict) -> dict:
    """Each field's largest move, with the old and new value there, from the record old to the capture new, bounds left out."""
    worst = {}
    old, new = ({key: value for key, value in r.items() if key != "bounds"} for r in (old, new))
    for field, move, before, after in _moves(old, new, ""):
        if field not in worst or move > worst[field][0]:
            worst[field] = (move, before, after)
    return worst


def _bounded(value, field: str):
    """(field, value) for every BOUNDED key in an artifact."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key == BOUNDED:
                yield f"{field}/{key}", item
            else:
                yield from _bounded(item, f"{field}/{key}")


def differences(old: dict, new: dict) -> list:
    """What the capture new changes past the record old's tolerances, as lines; none for a match."""
    found = [
        f"{field}: {before!r} -> {after!r}"
        for field, (move, before, after) in largest_moves(old, new).items()
        if move > RTOL and not field.endswith("/" + BOUNDED)
    ]
    bound = old.get("bounds", {}).get(BOUNDED)
    for field, value in _bounded(new["artifacts"], ""):
        if bound is None or not 0.0 <= value <= bound:
            found.append(f"{field} = {value!r} exceeds its bound {bound!r}")
    return found


def record_path(name: str) -> Path:
    return HERE / f"{name}.json"


def load_record(name: str) -> dict:
    return json.loads(record_path(name).read_text())


def dump_record(record: dict) -> str:
    """The record as sorted JSON, one line per artifact."""
    artifacts = record["artifacts"]
    head = json.dumps({**record, "artifacts": {}}, sort_keys=True, indent=1)
    body = ",\n".join(f"  {json.dumps(name)}: {json.dumps(artifacts[name], sort_keys=True)}" for name in sorted(artifacts))
    return head.replace('"artifacts": {}', '"artifacts": {\n' + body + "\n }") + "\n"


def main() -> int:
    for name, argv in RUNS.items():
        with tempfile.TemporaryDirectory() as out:
            new = capture(argv, Path(out))
        path = record_path(name)
        print(f"{name} ({' '.join(argv)}): exit {new['exit_code']}")
        if path.exists():
            moved = {field: worst for field, worst in largest_moves(load_record(name), new).items() if worst[0]}
            for field, (move, before, after) in sorted(moved.items()):
                exact = math.isinf(move) or field.endswith("/" + BOUNDED)
                shown = f"{before!r} -> {after!r}" if exact else f"{move:.3g}"
                print(f"  {field.removeprefix('/artifacts/')}: {shown}")
            if not moved:
                print("  nothing moved")
        path.write_text(dump_record(new))
    return 0


if __name__ == "__main__":
    sys.exit(main())
