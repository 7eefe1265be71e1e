"""The commands that compute with arrays: generate, conjugate, reflect,
orbit and verify.  cli parses argv and dispatches here, so --help, usage
errors and export never run this layer.  Each command checks its output
directories first, and one that fails with a typed error writes no file.
"""

from __future__ import annotations

import json
import math
import sys

from . import boundary, bvp, holomorphic, lattice, minimal, net, reflection
from .cli import (EXIT_OK, EXIT_VERIFY, _check_paths, export_orbit_obj, verify_net_file,
                  verify_pair)
from .errors import BadParameter, NotReflectable, ParseError
from .jsonio import MAX_MAGNITUDE, _fmt_float, json_float, json_list, load_json, write_text


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


def _boundary_reflections(lines: dict, tol: float) -> list[boundary.BoundaryAnalysis]:
    """The boundary lines (boundary.boundary_lines) that are planar curvature
    lines at tol of their size: the mirrors of the piece's orbit, each with its
    plane and its lattice line."""
    return [a for a in (line.at(tol) for line in lines.values())
            if a.kind == "planar_curvature_line"]


def _orbit(piece: lattice.Net3, lines: dict, tol: float, max_word: int) -> reflection.SymmetryOrbit:
    """The orbit of the piece under the group of its boundary reflections, from
    the plane fits of its boundary lines; a line counts as planar at
    max(tol, 1e-7) of its size."""
    mirrors = _boundary_reflections(lines, max(tol, 1e-7))
    if not mirrors:
        raise NotReflectable("no reflectable boundary lines found")
    return reflection.build_orbit(piece, mirrors, max_word)


def _write_orbit(orbit: reflection.SymmetryOrbit, path: str, obj_path: str | None) -> None:
    """The orbit's .orbit.json file, and its OBJ file when obj_path is given."""
    rows = net.json_rows(orbit.vertices)        # each coordinate formatted once
    write_text(path, orbit_to_json(orbit, rows) + "\n")
    if obj_path:
        export_orbit_obj(orbit, obj_path, rows)


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


def _write_pair(paths: list[str], pair: minimal.MinimalPair) -> None:
    """The iso, asym, gauss and grid files of a pair.  The Gauss map's rows
    are formatted once: they are the iso file's normals and the gauss file's
    points."""
    iso, asym, gauss, grid = paths
    gauss_rows = net.json_rows(pair.gauss.points)

    def rows(points):
        return gauss_rows if points is pair.gauss.points else net.json_rows(points)

    net.write_net(iso, pair.isothermic, pair.grid.labels, pair.gauss, rows)
    net.write_net(asym, pair.asymptotic, pair.grid.labels)
    net.write_net(gauss, pair.gauss, rows=rows)
    holomorphic.write_grid(grid, pair.grid)


def cmd_generate(args) -> int:
    family = args.family.replace("-", "_")
    base = args.out or family
    files = [f"{base}.{suffix}.dnet.json" for suffix in ("iso", "asym", "gauss", "grid")]
    orbit_files = [f"{base}.orbit.json", f"{base}.orbit.obj"] if args.orbit else []
    _check_paths(*files, *orbit_files, args.report,
                       inputs=(getattr(args, "seed_file", None),))
    pair, info = _family_pair(family, args)
    # one plane fit per boundary line, for the battery and the orbit's mirrors
    lines = boundary.boundary_lines(pair.isothermic, pair.gauss, args.tol)
    # built before the first file is written, so that a group that does not
    # close leaves no file
    orbit = _orbit(pair.isothermic, lines, args.tol, args.max_word) if args.orbit else None
    _write_pair(files, pair)

    report = verify_pair(pair, args.tol, lines)
    report["info"] = info
    report["files"] = files

    if orbit is not None:
        _write_orbit(orbit, *orbit_files)
        files.extend(orbit_files)
        report["orbit"] = {"elements": len(orbit.elements),
                           "vertices": int(len(orbit.vertices)),
                           "weld_residual": float(orbit.weld_residual),
                           "closure_residual": float(orbit.closure_residual())}

    _emit_report(report, args.report)
    return EXIT_OK if report["ok"] else EXIT_VERIFY


def cmd_conjugate(args) -> int:
    _check_paths(args.out, inputs=(args.grid,))
    grid = holomorphic.read_grid(args.grid)
    net.write_net(args.out, minimal.weierstrass_asymptotic(grid), grid.labels)
    return EXIT_OK


def cmd_reflect(args) -> int:
    _check_paths(args.out, inputs=(args.net,))
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
    _check_paths(args.out, args.obj, inputs=(args.net,))
    bundle = net.read_net(args.net)
    if bundle.normals is None:
        raise ParseError("orbit construction requires normals in the net file")
    lines = boundary.boundary_lines(bundle.net, bundle.normals, args.tol)
    _write_orbit(_orbit(bundle.net, lines, args.tol, args.max_word), args.out, args.obj)
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_paths(args.report, inputs=(args.net, args.conjugate, args.grid))
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
