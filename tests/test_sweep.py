"""A seeded sweep of single-field mutations of generated files, each read by
every command that reads a file: verify, reflect, orbit, conjugate and
export.  Every command must end with exit 0, 1 or 3 and no escaped
exception, and a command that exits 3 must leave no output file."""

import json
import random

import pytest

from minnet.cli import main

SEED = 20241
MUTATIONS = 40            # per file: 280 in all, about 4 s

FILES = ["enn.iso", "enn.asym", "enn.grid", "plan.iso", "tet.iso", "tet.asym", "tet.orbit"]
# replacements for any node of a document; DELETE removes it from its parent
DELETE = object()
VALUES = [0, -1, 2, 0.5, -0.0, 1e-320, 1e300, -1e308, 2 ** 70, float("nan"), float("inf"),
          True, None, "x", [], {}, [0, 0, 0], [[0, 0]], DELETE]


@pytest.fixture(scope="module")
def pieces(tmp_path_factory):
    """The text of each file of FILES: a side-4 Enneper (K = 3) piece, a
    side-4 planar Enneper piece and a resolution-2 tetrahedral piece with
    its orbit."""
    root = tmp_path_factory.mktemp("pieces")
    for family, base in ((["enneper", "--k", "3", "--size", "4"], "enn"),
                         (["planar-enneper", "--size", "4"], "plan"),
                         (["platonic", "--preset", "tetrahedral", "--resolution", "2", "--orbit"],
                          "tet")):
        assert main(["generate", *family, "--out", str(root / base),
                     "--report", str(root / f"{base}.report.json")]) == 0
    return {name: (root / f"{name}{'.json' if 'orbit' in name else '.dnet.json'}").read_text()
            for name in FILES}


def nodes(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from nodes(value, path + (key,))


def mutated(doc, rng: random.Random) -> tuple[tuple, object]:
    """Change one node of doc in place; returns its path and new value.

    Half the changes move a number by a relative step, the other half put
    a value of VALUES in place of any node, or delete it."""
    paths = list(nodes(doc))[1:]
    numbers = [p for p in paths if type(_get(doc, p)) in (int, float)]
    if rng.random() < 0.5:
        path = rng.choice(numbers)
        x = _get(doc, path)
        value = x + rng.choice([1e-9, 1e-6, 1e-3, 0.5, -0.5]) * (1 + abs(x))
    else:
        path, value = rng.choice(paths), rng.choice(VALUES)
    parent = _get(doc, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return path, value


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("name", FILES)
def test_mutated_files_end_in_a_typed_exit(tmp_path, capsys, pieces, name):
    rng = random.Random(f"{SEED}:{name}")
    src, report, out, obj = (tmp_path / f for f in ("m.json", "r.json", "o.json", "o.obj"))
    reflect = ["reflect", src, "--row", "0", "--out", out]
    if ".asym" in name:
        reflect.append("--asymptotic")
    commands = [["verify", src, "--report", report], reflect,
                ["orbit", src, "--max-word", "8", "--out", out, "--obj", obj],
                ["conjugate", src, "--out", out], ["export", src, obj]]
    for _ in range(MUTATIONS):
        doc = json.loads(pieces[name])
        path, value = mutated(doc, rng)
        src.write_text(json.dumps(doc))
        for argv in commands:
            for f in (report, out, obj):
                f.unlink(missing_ok=True)
            where = f"{argv[0]} of {name} with {path} = {value!r}"
            try:
                code = main([str(arg) for arg in argv])
            except (Exception, SystemExit) as exc:
                pytest.fail(f"{where}: {exc!r}")
            capsys.readouterr()
            assert code in (0, 1, 3), where
            if code == 3:
                assert not [f.name for f in (report, out, obj) if f.exists()], where
