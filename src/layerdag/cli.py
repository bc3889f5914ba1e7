"""Command-line interface.

Subcommands operate either on chain files (layer, roots, finality,
export-dot) or on full simulations (run, verify, replay).  Simulations
and the offline roots and finality commands layer by longest path, as
the consensus does; only ``layer --algo cg --width N`` offers the
width-bounded Coffman-Graham layering.  The seed can be overridden
through the ONLAY_SEED environment variable, which takes priority over
--seed.
"""

from __future__ import annotations

import argparse
import io as stringio
import os
import sys
from pathlib import Path

from . import io as chainio
from .chain import Chain
from .errors import ConfigError, LayerDagError
from .layering import layer_cg, layer_lpl, max_width, transitive_reduce
from .node import NodeState
from .simnet import (
    RunResult,
    SimConfig,
    check_consistent_chains,
    check_consistent_cut,
    check_equivalence_theorems,
    check_fork_exclusion,
    check_identical_orders,
    run as run_sim,
    validate_width,
)

import math

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2


def _parse_byzantine(spec: str) -> dict[int, str]:
    out: dict[int, str] = {}
    if not spec:
        return out
    for part in spec.split(","):
        nid, _, kind = part.partition(":")
        try:
            out[int(nid)] = kind
        except ValueError as exc:
            raise ConfigError(f"bad byzantine spec {part!r}") from exc
    return out


def _parse_delay(spec: str) -> tuple[str, float]:
    model, _, arg = spec.partition(":")
    if model == "lockstep":
        return model, 0.0
    if model in ("rand", "reorder"):
        try:
            return model, float(arg or 0)
        except ValueError as exc:
            raise ConfigError(f"bad delay spec {spec!r}") from exc
    if model == "drop":
        try:
            return model, float(arg)
        except ValueError as exc:
            raise ConfigError(f"bad delay spec {spec!r}") from exc
    raise ConfigError(f"unknown delay model {spec!r}")


def _sim_config(args: argparse.Namespace) -> SimConfig:
    model, delay_arg = _parse_delay(args.delay)
    cfg = SimConfig(
        n=args.nodes,
        k=args.k,
        steps=args.steps,
        seed=args.seed,
        byzantine=_parse_byzantine(args.byzantine),
        w_p=args.wp,
        w_c=args.wc,
        delay_model=model,
        delay_arg=delay_arg,
    )
    cfg.validate()
    return cfg


def _load_chain(path: str) -> Chain:
    with open(path) as fh:
        return chainio.read_chain(fh)


def _offline_node(chain: Chain) -> NodeState:
    """Replay a chain file through a single consensus pipeline run.

    The run hands every event to one engine update, as
    ``build_root_graph`` does, and then to the election.
    """
    creators = chain.creators()
    if not creators:
        raise ConfigError("chain file is empty")
    n = max(creators) + 1
    node = NodeState(n, n, k=min(3, n))
    node.ingest_events(list(chain.in_insertion_order()))
    node.run_pipeline()
    return node


def _write_run_artifacts(result: RunResult, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    for nid in sorted(result.nodes):
        with open(out / f"node{nid}.snapshot", "w") as fh:
            chainio.write_snapshot(result.nodes[nid], fh)
    with open(out / "trace.txt", "w") as fh:
        chainio.write_trace(result.trace, fh)
    byz = ",".join(f"{i}:{k}" for i, k in sorted(cfg.byzantine.items()))
    delay = cfg.delay_model
    if cfg.delay_arg:
        delay += f":{cfg.delay_arg:g}"
    with open(out / "manifest.txt", "w") as fh:
        chainio.write_manifest(
            [
                ("nodes", cfg.n),
                ("k", cfg.k if cfg.k is not None else min(3, cfg.n)),
                ("steps", cfg.steps),
                ("seed", cfg.seed),
                ("byzantine", byz),
                ("wp", cfg.w_p),
                ("wc", cfg.w_c),
                ("delay", delay),
            ],
            fh,
        )


def _verification_report(result: RunResult) -> list[tuple[str, str]]:
    """One PASS/FAIL line per theorem-level oracle."""
    cfg = result.config
    report: list[tuple[str, str]] = []

    def check(name: str, fn) -> None:
        try:
            fn()
        except (AssertionError, LayerDagError) as exc:
            report.append((name, f"FAIL {exc}"))
        else:
            report.append((name, "PASS"))

    check("chain-consistency", lambda: check_consistent_chains(result))
    check("order-identity", lambda: check_identical_orders(result))

    def cuts() -> None:
        for nid in sorted(result.nodes):
            node = result.nodes[nid]
            check_consistent_cut(node, node.estimate_global_state())

    check("consistent-cut", cuts)
    if cfg.byzantine:
        check("fork-exclusion", lambda: check_fork_exclusion(result))
    else:
        ref = result.nodes[sorted(result.nodes)[0]]
        check(
            "layering-equivalence",
            lambda: check_equivalence_theorems(ref.chain, cfg.n, cfg.w_p, cfg.w_c),
        )
    return report


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _sim_config(args)
    result = run_sim(cfg)
    report = _verification_report(result)
    if args.out:
        _write_run_artifacts(result, Path(args.out))
        with open(Path(args.out) / "report.txt", "w") as fh:
            for name, status in report:
                fh.write(f"{name}={status}\n")
    ref = result.nodes[sorted(result.nodes)[0]]
    print(f"nodes={cfg.n} steps={cfg.steps} seed={cfg.seed}")
    print(f"events={len(ref.chain)} finalized={len(ref.order.ordered_events)}")
    for name, status in report:
        print(f"{name}={status}")
    if any(status != "PASS" for _, status in report):
        return EXIT_FAILED
    return EXIT_OK


def cmd_layer(args: argparse.Namespace) -> int:
    validate_width(args.width, args.wp, args.wc)
    chain = _load_chain(args.chain)
    if args.algo == "cg":
        width = args.width
        if width is None:
            n = len(chain.creators())
            width = math.ceil(max_width(n, args.wp, args.wc))
        layering = layer_cg(chain, width, transitive_reduce(chain))
    else:
        layering = layer_lpl(chain)
    for line in chainio.layering_lines(chain, layering):
        print(line)
    return EXIT_OK


def cmd_roots(args: argparse.Namespace) -> int:
    node = _offline_node(_load_chain(args.chain))
    for line in chainio.roots_lines(node.chain, node.engine.graph):
        print(line)
    return EXIT_OK


def cmd_finality(args: argparse.Namespace) -> int:
    node = _offline_node(_load_chain(args.chain))
    for line in chainio.finality_lines(node):
        print(line)
    return EXIT_OK


def cmd_export_dot(args: argparse.Namespace) -> int:
    chain = _load_chain(args.chain)
    layering = layer_lpl(chain)
    if args.out:
        with open(args.out, "w") as fh:
            chainio.export_dot(chain, layering, fh)
    else:
        chainio.export_dot(chain, layering, sys.stdout)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _sim_config(args)
    result = run_sim(cfg)
    report = _verification_report(result)
    for name, status in report:
        print(f"{name}={status}")
    if any(status != "PASS" for _, status in report):
        return EXIT_FAILED
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    src = Path(args.dir)
    manifest = src / "manifest.txt"
    if not manifest.exists():
        raise ConfigError(f"no manifest in {src}")
    # manifest keys are the run flags and an empty value is the flag's
    # default; parsing here rather than in main keeps ONLAY_SEED from
    # overriding the recorded seed
    flags = [
        f"--{line}"
        for line in manifest.read_text().splitlines()
        if not line.endswith("=")
    ]
    result = run_sim(_sim_config(build_parser().parse_args(["run", *flags])))
    mismatches = []
    for nid in sorted(result.nodes):
        buf = stringio.StringIO()
        chainio.write_snapshot(result.nodes[nid], buf)
        recorded = (src / f"node{nid}.snapshot").read_text()
        if buf.getvalue() != recorded:
            mismatches.append(f"node{nid}.snapshot")
    buf = stringio.StringIO()
    chainio.write_trace(result.trace, buf)
    if buf.getvalue() != (src / "trace.txt").read_text():
        mismatches.append("trace.txt")
    if mismatches:
        for m in mismatches:
            print(f"MISMATCH {m}")
        return EXIT_FAILED
    print("OK")
    return EXIT_OK


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", type=int, default=5)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", default="0")
    p.add_argument("--byzantine", default="")
    p.add_argument("--wp", type=int, default=0)
    p.add_argument("--wc", type=int, default=0)
    p.add_argument("--delay", default="lockstep")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerdag", description="layered DAG consensus simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a simulation and write artifacts")
    _add_sim_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("layer", help="layer a chain file")
    p.add_argument("chain")
    p.add_argument("--algo", choices=("lpl", "cg"), default="lpl")
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--wp", type=int, default=0)
    p.add_argument("--wc", type=int, default=0)
    p.set_defaults(func=cmd_layer)

    p = sub.add_parser("roots", help="print the root frames of a chain file")
    p.add_argument("chain")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("finality", help="print the final order of a chain file")
    p.add_argument("chain")
    p.set_defaults(func=cmd_finality)

    p = sub.add_parser("export-dot", help="emit Graphviz for a chain file")
    p.add_argument("chain")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("verify", help="run a simulation and check invariants")
    _add_sim_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay", help="re-run a recorded simulation and compare")
    p.add_argument("dir")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "seed" in args:
            args.seed = os.environ.get("ONLAY_SEED", args.seed)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LayerDagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
