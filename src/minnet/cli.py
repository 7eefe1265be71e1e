"""Command-line frontend: generation pipelines, verification and export.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 numeric/input failure, 141 (128 + SIGPIPE) output pipe closed by its
reader, as by `| head`.  MINNET_THREADS (an integer >= 1) caps minnet's
own workers; minnet runs in one thread.  It does not govern the threads
that numpy's BLAS library starts: OPENBLAS_NUM_THREADS or OMP_NUM_THREADS
set those.

numpy and the array layers load only when a command computes with arrays:
importing this module, --help, usage errors and export never load them.
export reads an orbit file through the numpy-free jsonio, and a net file
through the numpy-free dnet, the reader behind every command's net files.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from . import battery, bvp, dnet, holomorphic, minimal, mobius, net, reflection
from .errors import BadParameter, MinnetError, NotReflectable, ParseError
from .jsonio import (MAX_MAGNITUDE, _fmt_float, json_float, json_int, json_list, load_json,
                     write_text)


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

def verify_pair(pair: minimal.MinimalPair, tol: float = 1e-9) -> dict:
    """All invariants of a generated isothermic/asymptotic/gauss triple."""
    return battery._run_checks(battery._Nets(tol, pair.isothermic, pair.gauss,
                                             pair.grid.labels, pair.asymptotic, pair.grid))


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


def orbit_to_json(orbit: reflection.SymmetryOrbit, rows: list[str]) -> str:
    """The .orbit.json document of an orbit, with 17-significant-digit floats,
    given the JSON rows of its vertices (net.json_rows)."""
    elements = [f'{{"matrix": {json_list(net.json_rows(e.matrix))}, '
                f'"translation": {json_list(map(_fmt_float, e.translation.tolist()))}}}'
                for e in orbit.elements]
    return (f'{{"kind": "orbit", "vertices": {json_list(rows)}, '
            f'"faces": {json_list(["[%d, %d, %d, %d]" % f for f in orbit.faces])}, '
            f'"elements": {json_list(elements)}, '
            f'"weld_residual": {_fmt_float(orbit.weld_residual)}}}')


def export_obj(path_in: str, path_out: str) -> None:
    """OBJ export of a net file or an orbit JSON file, read, checked and
    written as lists, without numpy."""
    _check_output_dirs(path_out)
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
# Generation pipelines
# ---------------------------------------------------------------------------

def _boundary_reflections(net: net.Net3, normals: net.Net3, tol: float) -> list[mobius.Isometry]:
    """Plane reflections of every reflectable boundary line of the piece."""
    dom = net.domain
    generators = []
    for axis, index in (("row", dom.n0), ("col", dom.m0), ("row", dom.n1),
                        ("col", dom.m1)):
        analysis = reflection.analyze_boundary_isothermic(net, normals, index, axis, tol)
        if analysis.kind == "planar_curvature_line":
            generators.append(mobius.Isometry.plane_reflection(analysis.plane))
    return generators


def _write_orbit(piece: net.Net3, normals: net.Net3, tol: float, max_word: int, path: str,
                 obj_path: str | None) -> reflection.SymmetryOrbit:
    """Close the group of the piece's boundary reflections; write the orbit.

    A boundary line counts as planar at max(tol, 1e-7) of its size.  Group
    elements merge at max(tol, 1e-6): distinct elements of a finite group
    differ by O(1), while products of reflections carry roundoff that can
    exceed 1e-9.  A generator fixes a piece vertex, and the copies it
    relates share that vertex, when it moves it at most max(tol, 1e-9) of
    the piece's size: 1e-6 would count vertices near a mirror of a large
    piece as on it.
    """
    generators = _boundary_reflections(piece, normals, max(tol, 1e-7))
    if not generators:
        raise NotReflectable("no reflectable boundary lines found")
    orbit = reflection.build_orbit(piece, generators, max_word=max_word,
                                   dedup_tol=max(tol, 1e-6), weld_tol=max(tol, 1e-9))
    rows = net.json_rows(orbit.vertices)        # each coordinate formatted once
    write_text(path, orbit_to_json(orbit, rows) + "\n")
    if obj_path:
        export_orbit_obj(orbit, obj_path, rows)
    return orbit


def _family_pair(family: str, args) -> tuple[minimal.MinimalPair, dict]:
    info: dict = {"family": family}
    if family in ("enneper", "planar_enneper"):
        if family == "planar_enneper":
            gamma = 3.0
        elif args.k < 1:
            raise BadParameter("enneper requires k >= 1")
        else:
            gamma = 2.0 * args.k / (args.k + 1.0)
        try:
            grid = holomorphic.power_function(gamma, args.size, args.size)
        except ValueError as exc:
            raise BadParameter(f"--size {args.size}: {exc}") from exc
        info["gamma"] = gamma
        return minimal.MinimalPair.from_grid(grid), info
    if family == "knoid":
        spec = bvp.BoundarySpec(args.k, args.nmax, args.mmax)
        seed = None
        if args.seed_file:
            doc = load_json(args.seed_file)
            try:
                seed = [json_float(v) for v in doc["params"]]
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ParseError(f"seed file {args.seed_file}: {exc!r}") from exc
            for i, value in enumerate(seed):
                if not math.isfinite(value):
                    raise ParseError(f"seed file {args.seed_file}: params[{i}] is {value}")
                if abs(value) > MAX_MAGNITUDE:
                    raise ParseError(f"seed file {args.seed_file}: params[{i}] = {value} "
                                     f"exceeds the magnitude bound {MAX_MAGNITUDE:g}")
        result = bvp.solve_knoid(spec, tol=args.solver_tol, max_iter=args.max_iter,
                                 seed_params=seed)
    else:
        result = bvp.solve_platonic(args.preset, args.resolution, tol=args.solver_tol,
                                    max_iter=args.max_iter)
    info["solver"] = _solver_info(result)
    return minimal.MinimalPair.from_grid(result.grid), info


def _solver_info(result: bvp.SolveResult) -> dict:
    """Report entry of a solve; the trace goes to the report only, never
    into a .dnet.json file."""
    return {"iterations": result.iterations,
            "residuals": {k: float(v) for k, v in result.residuals.items()},
            "trace": result.trace}


def _write_pair(base: str, pair: minimal.MinimalPair) -> list[str]:
    iso, asym, gauss, grid = paths = [f"{base}.{suffix}.dnet.json"
                                      for suffix in ("iso", "asym", "gauss", "grid")]
    net.write_net(iso, pair.isothermic, pair.grid.labels, pair.gauss)
    net.write_net(asym, pair.asymptotic, pair.grid.labels)
    net.write_net(gauss, pair.gauss)
    holomorphic.write_grid(grid, pair.grid)
    return paths


def _check_output_dirs(*paths: str | None) -> None:
    """BadParameter naming the first path whose directory does not exist,
    so that a command fails before it computes rather than after."""
    for path in filter(None, paths):
        directory = os.path.dirname(path)
        if directory and not os.path.isdir(directory):
            raise BadParameter(f"cannot write {path}: {directory} is not a directory")


def cmd_generate(args) -> int:
    family = args.family.replace("-", "_")
    base = args.out or family
    _check_output_dirs(base, args.report)
    pair, info = _family_pair(family, args)
    files = _write_pair(base, pair)

    report = verify_pair(pair, args.tol)
    report["info"] = info
    report["files"] = files

    if args.orbit:
        orbit_path, obj_path = f"{base}.orbit.json", f"{base}.orbit.obj"
        orbit = _write_orbit(pair.isothermic, pair.gauss, args.tol, args.max_word,
                             orbit_path, obj_path)
        files.extend([orbit_path, obj_path])
        report["orbit"] = {"elements": len(orbit.elements),
                           "vertices": int(len(orbit.vertices)),
                           "weld_residual": float(orbit.weld_residual),
                           "closure_residual": float(orbit.closure_residual())}

    _emit_report(report, args.report)
    return EXIT_OK if report["ok"] else EXIT_VERIFY


def cmd_conjugate(args) -> int:
    _check_output_dirs(args.out)
    grid = holomorphic.read_grid(args.grid)
    net.write_net(args.out, minimal.weierstrass_asymptotic(grid), grid.labels)
    return EXIT_OK


def cmd_reflect(args) -> int:
    _check_output_dirs(args.out)
    bundle = net.read_net(args.net)
    if bundle.labels is None:
        raise ParseError("reflection requires edge labels in the net file")
    axis, index = ("row", args.row) if args.row is not None else ("col", args.col)
    if args.asymptotic:
        net_ext, labels_ext = reflection.rotate_extend_asymptotic(bundle.net, index, axis,
                                                                  args.tol, bundle.labels)
        net.write_net(args.out, net_ext, labels_ext)
    else:
        if bundle.normals is None:
            raise ParseError("isothermic reflection requires normals in the net file")
        net_ext, normals_ext, labels_ext = reflection.reflect_isothermic(
            bundle.net, bundle.normals, index, axis, args.tol, bundle.labels)
        net.write_net(args.out, net_ext, labels_ext, normals_ext)
    return EXIT_OK


def cmd_orbit(args) -> int:
    _check_output_dirs(args.out, args.obj)
    bundle = net.read_net(args.net)
    if bundle.normals is None:
        raise ParseError("orbit construction requires normals in the net file")
    _write_orbit(bundle.net, bundle.normals, args.tol, args.max_word, args.out, args.obj)
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_output_dirs(args.report)
    report = verify_net_file(args.net, args.tol, as_isothermic=args.as_isothermic,
                             conjugate=args.conjugate, grid_path=args.grid)
    _emit_report(report, args.report)
    return EXIT_OK if report["ok"] else EXIT_VERIFY


def _emit_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2)
    if path:
        write_text(path, text + "\n")
    else:
        print(text)
    failures = [name for name, chk in report.get("checks", {}).items()
                if not chk.get("ok", True)]
    if failures:
        print("FAILED checks: " + ", ".join(failures), file=sys.stderr)
    else:
        print("all checks passed", file=sys.stderr)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minnet",
        description="Discrete minimal nets: generation, reflection, verification")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a fundamental piece (and orbit)")
    gen_sub = gen.add_subparsers(dest="family", required=True)

    p_enn = gen_sub.add_parser("enneper")
    p_enn.add_argument("--k", type=int, required=True)
    p_enn.add_argument("--size", type=int, default=8)
    p_plan = gen_sub.add_parser("planar-enneper")
    p_plan.add_argument("--size", type=int, default=8)
    p_kno = gen_sub.add_parser("knoid")
    p_kno.add_argument("--k", type=int, required=True)
    p_kno.add_argument("--nmax", type=int, default=3)
    p_kno.add_argument("--mmax", type=int, default=10)
    p_kno.add_argument("--solver-tol", type=float, default=1e-10)
    p_kno.add_argument("--max-iter", type=int, default=500)
    p_kno.add_argument("--seed-file", type=str, default=None)
    p_pla = gen_sub.add_parser("platonic")
    # literal, so that parsing does not load bvp; a test pins them to its presets
    p_pla.add_argument("--preset", choices=("icosahedral", "octahedral", "tetrahedral"),
                       required=True)
    p_pla.add_argument("--resolution", type=int, default=3)
    p_pla.add_argument("--solver-tol", type=float, default=1e-10)
    p_pla.add_argument("--max-iter", type=int, default=500)
    for p in (p_enn, p_plan, p_kno, p_pla):
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--report", type=str, default=None)
        p.add_argument("--orbit", action="store_true")
        p.add_argument("--max-word", type=int, default=16)

    con = sub.add_parser("conjugate", help="asymptotic net from a grid file")
    con.add_argument("grid")
    con.add_argument("--out", required=True)

    ref = sub.add_parser("reflect", help="extend a net across a boundary line")
    ref.add_argument("net")
    line = ref.add_mutually_exclusive_group(required=True)
    line.add_argument("--row", type=int)
    line.add_argument("--col", type=int)
    ref.add_argument("--asymptotic", action="store_true",
                     help="use the 180-degree line rotation extension")
    ref.add_argument("--tol", type=float, default=1e-9)
    ref.add_argument("--out", required=True)

    orb = sub.add_parser("orbit", help="symmetry orbit of a net file")
    orb.add_argument("net")
    orb.add_argument("--out", required=True)
    orb.add_argument("--obj", default=None)
    orb.add_argument("--tol", type=float, default=1e-9)
    orb.add_argument("--max-word", type=int, default=16)

    ver = sub.add_parser("verify", help="run all applicable invariant checks")
    ver.add_argument("net")
    ver.add_argument("--tol", type=float, default=1e-9)
    ver.add_argument("--as-isothermic", action="store_true")
    ver.add_argument("--conjugate", default=None)
    ver.add_argument("--grid", default=None)
    ver.add_argument("--report", default=None)

    exp = sub.add_parser("export", help="export a net or orbit file to OBJ")
    exp.add_argument("path_in")
    exp.add_argument("path_out")
    return parser


def main(argv=None) -> int:
    """Run one minnet command; returns its exit code.

    The cyclic collector is off while the command runs, and main leaves
    it as it found it: on if it was on.  The objects made by importing
    numpy and minnet live until the process exits, so a collection during
    a command walks them and frees almost nothing.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        # inf passes every check and NaN or a negative bound fails every one
        for name in ("tol", "solver_tol"):
            value = getattr(args, name, 0.0)
            if not 0.0 <= value < math.inf:
                raise BadParameter(f"--{name.replace('_', '-')} must be finite and "
                                   f"non-negative, got {value}")
        _read_threads()
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "conjugate":
            return cmd_conjugate(args)
        if args.command == "reflect":
            return cmd_reflect(args)
        if args.command == "orbit":
            return cmd_orbit(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "export":
            export_obj(args.path_in, args.path_out)
            return EXIT_OK
        return EXIT_USAGE
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
    run()
