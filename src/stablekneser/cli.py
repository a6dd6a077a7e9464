"""Batch command-line front end.

One subcommand per module concern; machine-readable JSON (or CSV for the
geometry sweep) first, human tables behind --pretty.  Reports are
deterministic for a fixed seed, and the exit code is nonzero whenever an
underlying check reports a violation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import signal
import sys
from typing import Optional, Sequence

from . import charclasses, complexes, geometry, graphs, matroid


class RunConfig(graphs._Frozen):
    __slots__ = ("command", "n", "k", "m", "n_range", "max_degree", "samples", "seed",
                 "out", "pretty", "chromatic", "critical", "aut", "sweep")

    def __init__(self, command: str, n: Optional[int] = None, k: Optional[int] = None,
                 m: Optional[int] = None, n_range: Optional[tuple[int, int]] = None,
                 max_degree: int = 64, samples: int = 100000, seed: int = 0,
                 out: Optional[str] = None, pretty: bool = False, chromatic: bool = False,
                 critical: bool = False, aut: bool = False, sweep: bool = False):
        self._init(command, n, k, m, n_range, max_degree, samples, seed, out, pretty,
                   chromatic, critical, aut, sweep)


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        a, b = int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected LO..HI or a single N, got %r" % text) from None
    if b < a:
        raise argparse.ArgumentTypeError("empty range %r" % text)
    return a, b


def sphere_betti(k: int) -> list[int]:
    if k == 0:
        return [2]
    return [1] + [0] * (k - 1) + [1]


def cmd_graph(cfg: RunConfig) -> tuple[dict, int]:
    g = graphs.stable_kneser_graph(cfg.n, cfg.k)
    report = {
        "command": "graph",
        "n": cfg.n,
        "k": cfg.k,
        "m": 2 * cfg.n + cfg.k,
        "vertex_count": g.n,
        "edge_count": len(g.edges()),
    }
    status = 0
    chi = certificates = None
    if cfg.critical:
        m = report["m"]
        symmetries = [graphs.vertex_permutation(g, graphs.DihedralElement.sigma(m)),
                      graphs.vertex_permutation(g, graphs.DihedralElement.rho(m))]
        # the refutation at chi - 1 certifies the orbits that --critical checks
        certificates = dict.fromkeys(graphs.vertex_orbits(g, symmetries).values())
    if cfg.chromatic:
        chi, witness = graphs.chromatic_number(g, return_colouring=True,
                                               certificates=certificates)
        report["chi"] = chi
        report["chi_witness"] = witness
        if not graphs.is_valid_colouring(g, witness):
            status = 1
    if cfg.critical:
        report["critical"] = graphs.vertex_criticality_check(g, chi, symmetries, certificates)
    if cfg.aut:
        report["aut_order"] = graphs.automorphism_group_order(g)
    return report, status


def cmd_homology(cfg: RunConfig) -> tuple[dict, int]:
    g = graphs.stable_kneser_graph(cfg.n, cfg.k)
    try:
        hom_betti = list(complexes.hom_betti(graphs.k2(), g))
        nc_betti = list(complexes.z2_betti(complexes.neighbourhood_complex(g)))
    except ValueError as exc:
        raise ValueError("homology of (n, k) = (%d, %d): %s" % (cfg.n, cfg.k, exc)) from exc
    expected = sphere_betti(cfg.k)
    report = {
        "command": "homology",
        "n": cfg.n,
        "k": cfg.k,
        "hom_betti": hom_betti,
        "neighbourhood_betti": nc_betti,
        "expected_sphere_betti": expected,
        "matches_sphere": hom_betti == expected and nc_betti == expected,
    }
    return report, 0 if report["matches_sphere"] else 1


def cmd_matroid(cfg: RunConfig) -> tuple[dict, int]:
    report = {
        "command": "matroid",
        "m": cfg.m,
        "k": cfg.k,
        "covectors": matroid.count_covectors(cfg.m, cfg.k),
        "cocircuits": matroid.cocircuit_count(cfg.m, cfg.k),
    }
    status = 0
    try:
        report["realization"] = geometry.verify_realization(
            cfg.m, cfg.k, samples=cfg.samples, seed=cfg.seed)
    except geometry.RealizationError as exc:
        report["realization"] = exc.report
        report["realization"]["status"] = "fail"
        status = 1
    return report, status


def cmd_classify(cfg: RunConfig) -> tuple[dict, int]:
    lo, hi = cfg.n_range if cfg.n_range else (cfg.n, cfg.n)
    # classify depends on n only through ring_for(n, k) and the n and m fields,
    # so each ring is analysed once and its report copied to every n it serves.
    by_ring: dict[str, dict] = {}
    rows = []
    for n in range(lo, hi + 1):
        ring = charclasses.ring_for(n, cfg.k)
        if ring not in by_ring:
            by_ring[ring] = charclasses.classify(n, cfg.k, cfg.max_degree).to_json_dict()
        rows.append(dict(by_ring[ring], n=n, m=2 * n + cfg.k))
    report = {"command": "classify", "k": cfg.k,
              "max_degree": cfg.max_degree, "reports": rows}
    return report, 0


GEOMETRY_COLUMNS = ("n", "k", "min_vertex_norm", "max_edge_defect",
                    "eq3_sigma_dev", "eq3_rho_dev", "eq3_period_dev", "group_relation_dev")


def geometry_csv(rows: Sequence[dict]) -> str:
    lines = [",".join(GEOMETRY_COLUMNS)]
    lines += [",".join(repr(row[c]) for c in GEOMETRY_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_geometry(cfg: RunConfig) -> tuple[str, int]:
    if cfg.sweep:
        lo, hi = cfg.n_range if cfg.n_range else (cfg.n, cfg.n)
        ns = range(lo, hi + 1)
    else:
        ns = [cfg.n]
    rows = [geometry.geometry_row(n, cfg.k) for n in ns]
    status = 0
    for row in rows:
        worst = max(row[c] for c in GEOMETRY_COLUMNS if c.endswith("_dev"))
        if worst >= geometry.ZERO_TOL:
            status = 1
    return geometry_csv(rows), status


def _pretty_lines(doc: dict) -> str:
    lines = []
    for key, value in doc.items():
        if key == "reports" and isinstance(value, list):
            lines.append("reports:")
            for row in value:
                lines.append("  n=%-3d k=%-3d m=%-3d %-24s window=%s" % (
                    row["n"], row["k"], row["m"], row["verdict"],
                    row["window"]))
        else:
            lines.append("%s: %s" % (key, value))
    return "\n".join(lines) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later one;
    callers must not mutate it.  Absent options stay out of each parse's
    fresh namespace, so RunConfig holds the defaults."""
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--pretty", action="store_true",
                        help="human-readable output instead of JSON")
    common.add_argument("--out", help="write the report to this path")
    parser = argparse.ArgumentParser(
        prog="stablekneser",
        description="stable Kneser graphs, their matroid, homology, "
                    "geometry and characteristic-class classification")
    add = functools.partial(parser.add_subparsers(dest="command", required=True).add_parser,
                            parents=[common], argument_default=argparse.SUPPRESS)

    p = add("graph", help="graph-level invariants of SG_{n,k}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--chromatic", action="store_true")
    p.add_argument("--critical", action="store_true")
    p.add_argument("--aut", action="store_true")

    p = add("homology", help="Betti numbers of Hom(K_2, SG) and N(SG)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("matroid", help="covector counts and realization check")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)

    p = add("classify", help="test-graph classification sweep")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--n-range", type=_parse_range)
    p.add_argument("--max-degree", type=int)

    p = add("geometry", help="norm/defect/equivariance CSV")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--n-range", type=_parse_range)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


def run(cfg: RunConfig) -> tuple[str, int]:
    if cfg.n is not None and cfg.n_range is not None:
        raise ValueError("%s takes --n or --n-range, not both" % cfg.command)
    if cfg.command == "graph":
        doc, status = cmd_graph(cfg)
    elif cfg.command == "homology":
        doc, status = cmd_homology(cfg)
    elif cfg.command == "matroid":
        doc, status = cmd_matroid(cfg)
    elif cfg.command == "classify":
        if cfg.n_range is None and cfg.n is None:
            raise ValueError("classify needs --n or --n-range")
        doc, status = cmd_classify(cfg)
    elif cfg.command == "geometry":
        if cfg.pretty:
            raise ValueError("geometry prints CSV; --pretty applies to the JSON subcommands")
        if cfg.n is None and not (cfg.sweep and cfg.n_range is not None):
            raise ValueError("geometry needs --n, or --sweep with --n-range")
        text, status = cmd_geometry(cfg)
        return text, status
    else:  # pragma: no cover - argparse guards this
        raise SystemExit("unknown command %r" % cfg.command)
    if cfg.pretty:
        return _pretty_lines(doc), status
    return json.dumps(doc, sort_keys=True) + "\n", status


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point: a refused input or an unwritable --out path is one
    line on stderr, exit code 2; any other exception, an interrupt included,
    propagates.  The --out file is opened before the work, so a path that
    cannot be opened is refused first, and is emptied and written only once
    the report is ready: a run that raises leaves an existing file as it was
    and removes a file that this run created.  While main runs, SIGTERM
    raises SystemExit(128 + SIGTERM), so a terminated run cleans up the same
    way, and so does SIGHUP (exit code 129) where the platform has it; the
    previous handlers are restored on return.
    """
    cfg = config_from_args(build_parser().parse_args(argv))
    stops = [signal.SIGTERM] + ([signal.SIGHUP] if hasattr(signal, "SIGHUP") else [])
    previous = {sig: signal.signal(sig, _exit_on_signal) for sig in stops}
    created = False
    try:
        if cfg.out:
            try:
                open(cfg.out, "x").close()
                created = True
            except FileExistsError:
                open(cfg.out, "a").close()
        text, status = run(cfg)
        with open(cfg.out, "w") if cfg.out else contextlib.nullcontext(sys.stdout) as fh:
            fh.write(text)
    except BaseException as exc:
        if created:
            os.remove(cfg.out)
        if not isinstance(exc, (ValueError, OSError)):
            raise
        sys.stderr.write("stablekneser: error: %s\n" % exc)
        return 2
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return status


if __name__ == "__main__":
    sys.exit(main())
