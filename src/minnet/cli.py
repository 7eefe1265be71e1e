"""Command-line front end: argv parsing, dispatch, exit codes, verification
of generated and read nets, and export.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 numeric/input failure, 141 (128 + SIGPIPE) output pipe closed by its
reader, as by `| head`.  MINNET_THREADS (an integer >= 1) caps minnet's
own workers; minnet runs in one thread.  It does not govern the threads
that numpy's BLAS library starts: OPENBLAS_NUM_THREADS or OMP_NUM_THREADS
set those.

The commands that compute with arrays live in the `commands` layer.  It
and numpy load only when such a command runs: importing this module,
--help, usage errors and export never load them.  export reads an orbit
file through the numpy-free jsonio, and a net file through the numpy-free
dnet, the reader behind every command's net files.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from . import battery, commands, dnet, holomorphic, minimal, net, reflection
from .errors import BadParameter, MinnetError, ParseError
from .jsonio import json_float, json_int, load_json, write_text


def __getattr__(name: str):
    """minnet.cli.power_function is holomorphic's, read on first use: the
    benchmark's tracing test reads it here."""
    if name == "power_function":
        return holomorphic.power_function
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_PIPE = 141


def _read_threads() -> None:
    """MinnetError unless MINNET_THREADS, when set, is an integer >= 1."""
    raw = os.environ.get("MINNET_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise MinnetError(f"MINNET_THREADS must be an integer, got {raw!r}")
    if value < 1:
        raise MinnetError("MINNET_THREADS must be at least 1")


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def verify_pair(pair: minimal.MinimalPair, tol: float = 1e-9, lines: dict | None = None) -> dict:
    """All invariants of a generated isothermic/asymptotic/gauss triple; lines
    are its boundary.boundary_lines at tol when the caller has fitted them."""
    nets = battery._Nets(tol, pair.isothermic, pair.gauss, pair.grid.labels, pair.asymptotic,
                         pair.grid)
    if lines is not None:
        nets.iso_lines = lines
    return battery._run_checks(nets)


def verify_net_file(path: str, tol: float, as_isothermic: bool = False,
                    conjugate: str | None = None, grid_path: str | None = None) -> dict:
    """The battery on a net file and its optional companions.

    The file is the isothermic net when it carries normals, when
    as_isothermic is set or when it is not asymptotic; otherwise it is the
    asymptotic net.  The conjugate file takes the other role.
    """
    iso = net.read_net(path)
    asym = net.read_net(conjugate) if conjugate is not None else None
    grid = holomorphic.read_grid(grid_path) if grid_path is not None else None
    nets = battery._Nets(tol, asym=iso.net, grid=grid)
    if iso.normals is None and not as_isothermic and nets.asymptotic_stars().ok:
        iso, asym = asym, iso          # nets keeps the star and quad fits of the test
    else:
        nets = battery._Nets(tol, asym=asym.net if asym is not None else None, grid=grid)
    if iso is not None:
        nets.iso, nets.labels, nets.normals = iso.net, iso.labels, iso.normals
    return battery._run_checks(nets)


# ---------------------------------------------------------------------------
# OBJ export
# ---------------------------------------------------------------------------

def _write_obj(path: str, vertex_lines: list[str], faces) -> None:
    """OBJ of the vertices' "v x y z" lines and 0-based quads (1-based indices)."""
    write_text(path, "".join(vertex_lines)
               + "".join(["f %d %d %d %d\n" % (a + 1, b + 1, c + 1, d + 1)
                          for a, b, c, d in faces]))


def _vertex_lines(points: list) -> list[str]:
    """The OBJ line of each [x, y, z] point, with 17 significant digits."""
    return ["v %.17g %.17g %.17g\n" % tuple(p) for p in points]


def export_net_obj(doc: dnet.NetDoc, path: str) -> None:
    """Quad OBJ of a read net file, with deterministic m-major vertex order."""
    _write_obj(path, _vertex_lines(doc.points), doc.quads())


def export_orbit_obj(orbit: reflection.SymmetryOrbit, path: str, rows: list[str]) -> None:
    """OBJ of an orbit, reusing the numbers of its vertices' JSON rows (net.json_rows)."""
    _write_obj(path, ["v %s\n" % r[1:-1].replace(",", "") for r in rows], orbit.faces)


def _file_key(path: str):
    """(device, inode) of an existing file, so that hard links match too, or
    the os.path.realpath of a path that does not exist yet."""
    try:
        stat = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return stat.st_dev, stat.st_ino


def _check_paths(*outputs: str | None, inputs: tuple) -> None:
    """BadParameter naming the first output path whose directory does not
    exist, or that is the same file as an input or an earlier output, so
    that a command fails before it reads or computes rather than after, and
    never writes over a file it reads or writes."""
    named = {_file_key(path): f"the input {path}" for path in filter(None, inputs)}
    for path in filter(None, outputs):
        directory = os.path.dirname(path)
        if directory and not os.path.isdir(directory):
            raise BadParameter(f"cannot write {path}: {directory} is not a directory")
        key = _file_key(path)
        if key in named:
            raise BadParameter(f"cannot write {path}: it is the same file as {named[key]}")
        named[key] = f"the output {path}"


def export_obj(path_in: str, path_out: str) -> None:
    """OBJ export of a net file or an orbit JSON file, read, checked and
    written as lists, without numpy."""
    _check_paths(path_out, inputs=(path_in,))
    doc = load_json(path_in)
    if isinstance(doc, dict) and doc.get("kind") == "orbit":
        try:
            vertices = [[json_float(x) for x in v] for v in doc["vertices"]]
            faces = [[json_int(i) for i in face] for face in doc["faces"]]
            if not vertices or any(len(v) != 3 for v in vertices):
                raise ValueError("orbit vertices must have 3 coordinates")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad orbit record: {exc!r}") from exc
        for i, v in enumerate(vertices):
            if not all(map(math.isfinite, v)):
                raise ParseError(f"bad orbit record: vertex {i} is {v}")
        for i, face in enumerate(faces):
            if len(face) != 4:
                raise ParseError(f"bad orbit record: face {i} {face} is not a quad")
            if not all(0 <= v < len(vertices) for v in face):
                raise ParseError(f"bad orbit record: face {i} {face} indexes past the "
                                 f"{len(vertices)} vertices")
        _write_obj(path_out, _vertex_lines(vertices), faces)
    else:
        export_net_obj(dnet.read_doc(doc), path_out)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# Each command's help and options, and each generate family's options, in
# the order --help lists them.  An option is (flags, argparse keywords);
# "--a|--b" is a required choice of one of the two.  The families have no help.
_K = {"type": int, "required": True}
_TOL = {"type": float, "default": 1e-9}
_FLAG = {"action": "store_true"}
_REQUIRED = {"required": True}
_MAX_WORD = {"type": int, "default": 16}
_SIZE = {"type": int, "default": 8}
_SOLVE = (("--solver-tol", {"type": float, "default": 1e-10}),
          ("--max-iter", {"type": int, "default": 500}))
_GENERATE = (("--tol", _TOL), ("--out", {}), ("--report", {}), ("--orbit", _FLAG),
             ("--max-word", _MAX_WORD))
_COMMANDS = {
    "generate": ("build a fundamental piece (and orbit)", ()),
    "conjugate": ("asymptotic net from a grid file", (("grid", {}), ("--out", _REQUIRED))),
    "reflect": ("extend a net across a boundary line",
                (("net", {}), ("--row|--col", {"type": int}),
                 ("--asymptotic", {**_FLAG, "help": "use the 180-degree line rotation extension"}),
                 ("--tol", _TOL), ("--out", _REQUIRED))),
    "orbit": ("symmetry orbit of a net file",
              (("net", {}), ("--out", _REQUIRED), ("--obj", {}), ("--tol", _TOL),
               ("--max-word", _MAX_WORD))),
    "verify": ("run all applicable invariant checks",
               (("net", {}), ("--tol", _TOL), ("--as-isothermic", _FLAG), ("--conjugate", {}),
                ("--grid", {}), ("--report", {}))),
    "export": ("export a net or orbit file to OBJ", (("path_in", {}), ("path_out", {}))),
}
_FAMILIES = {
    "enneper": (("--k", _K), ("--size", _SIZE), *_GENERATE),
    "planar-enneper": (("--size", _SIZE), *_GENERATE),
    "knoid": (("--k", _K), ("--nmax", {"type": int, "default": 3}),
              ("--mmax", {"type": int, "default": 10}), *_SOLVE, ("--seed-file", {}),
              *_GENERATE),
    # literal, so that parsing does not load bvp; a test pins them to its presets
    "platonic": (("--preset", {"choices": ("icosahedral", "octahedral", "tetrahedral"),
                               **_REQUIRED}),
                 ("--resolution", {"type": int, "default": 3}), *_SOLVE, *_GENERATE),
}


def _add_options(parser: argparse.ArgumentParser, options) -> None:
    for flags, keywords in options:
        if "|" in flags:
            group = parser.add_mutually_exclusive_group(required=True)
            for flag in flags.split("|"):
                group.add_argument(flag, **keywords)
        else:
            parser.add_argument(flags, **keywords)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The minnet parser for argv: every command and generate family, and
    the options of only the one that argv names, the only subparser that
    argparse runs.  It is named by argv's first token that is not an
    option, and for generate by the next one too: the top-level and
    generate parsers have no option but -h, so no option value comes
    before it."""
    path = [token for token in argv if not token.startswith("-")][:2]
    parser = argparse.ArgumentParser(
        prog="minnet",
        description="Discrete minimal nets: generation, reflection, verification")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=text)
        if path[:1] == [command]:
            _add_options(command_parser, options)
    families = sub.choices["generate"].add_subparsers(dest="family", required=True)
    for family, options in _FAMILIES.items():
        family_parser = families.add_parser(family)
        if path == ["generate", family]:
            _add_options(family_parser, options)
    return parser


def main(argv=None) -> int:
    """Run one minnet command; returns its exit code.

    The cyclic collector is off while the command runs, and main leaves
    it as it found it: on if it was on.  The objects made by importing
    numpy and minnet live until the process exits, so a collection during
    a command walks them and frees almost nothing.
    """
    argv = sys.argv[1:] if argv is None else argv
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            args = build_parser(argv).parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        # inf passes every check and NaN or a negative bound fails every one
        for name in ("tol", "solver_tol"):
            value = getattr(args, name, 0.0)
            if not 0.0 <= value < math.inf:
                raise BadParameter(f"--{name.replace('_', '-')} must be finite and "
                                   f"non-negative, got {value}")
        if getattr(args, "max_word", 1) < 1:
            raise BadParameter(f"--max-word must be at least 1, got {args.max_word}")
        _read_threads()
        if args.command == "export":
            export_obj(args.path_in, args.path_out)
            return EXIT_OK
        return getattr(commands, f"cmd_{args.command}")(args)
    except MinnetError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    """Entry point of the minnet script and of python -m minnet.cli.

    Runs main with the cyclic collector off, flushes stdout and stderr
    and ends the process with os._exit, which skips the interpreter's
    teardown: its final collections and the release of every module and
    object.  Every output file is closed by then (jsonio.write_text).
    When the reader of stdout or stderr has closed its pipe, the process
    ends quietly with EXIT_PIPE; os._exit flushes nothing, so nothing is
    written to the closed pipe again.  When another flush fails, the
    interpreter's own exit reports it and sets the status.  Any other
    exception that escapes main ends the process with its traceback, as
    usual.
    """
    # Off before main, so main leaves it off: re-enabled, the collector's
    # next young collection would walk every object the command made.
    gc.disable()
    code = None
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:      # None when the descriptor was closed at start
                stream.flush()
    except BrokenPipeError:
        os._exit(EXIT_PIPE)
    except (OSError, ValueError):
        if code is None:                # raised by main
            raise
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    # python -m minnet.cli runs this file as __main__; registered as
    # minnet.cli too, it is not compiled and run again when commands imports it
    sys.modules["minnet.cli"] = sys.modules[__name__]
    run()
