"""Command-line front end: every study as a seeded batch job emitting CSV/JSON.

Commands: evolve, ose, xxz-scan, haar-avg, doped-scan, truncate-study,
nullity. Output embeds the tool version, seed and full parameter set in the
header so any file can be regenerated from its own provenance. Angles are
radians, with pi-fraction syntax ("pi/8", "3*pi/4") accepted. The CLI only
parses arguments and formats what the library returns: it tests no Renyi
index, and haar-avg asks `haar` for its closed form and asymptote at every
index, leaving a cell blank where haar has none. It checks only what the
library never sees: parse errors, `--circuits` (doped-scan's count of
circuits) and `--sre-samples` (nullity's, where 0 switches the SRE columns
off). Every other rule, such as `--n`, `--workers` or `--clifford-depth`,
is the library's, and so is its message. Exit codes: 0 ok, 1 bad input (a
size too large to allocate included), 2 internal error.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import re
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .dense import avg_linear_ose, avg_linear_sre, circuit_unitary, stabilizer_nullity
from .haar import asymptotic_avg_purity, closed_form_avg_purity, mc_average_purities
from .heisenberg import Circuit, doped_circuit, evolve_ensemble, evolve_heisenberg, parse_angle
from .measures import ose_scan, ose_scans
from .paulis import (
    SparseOperator,
    expectation_error_bound,
    parse_pauli_text,
    single_site_pauli,
    truncation_sweep,
)
from .xxz import XxzParams, closed_form_ose, simulate_scan


class CliError(ValueError):
    """Invalid input reported with exit code 1."""


def parse_alpha(text: str) -> float:
    """One Renyi index; float() reads inf and infinity in any letter case.
    Its range, nan included, is checked by the code that takes it."""
    try:
        return float(text)
    except ValueError:
        raise CliError(f"cannot parse alpha {text.strip()!r}") from None


def parse_alphas(text: str) -> list[float]:
    """Comma list of Renyi indices: the value of an --alpha option."""
    return _nonempty([parse_alpha(tok) for tok in text.split(",") if tok.strip()], "--alpha", text)


def parse_range(text: str, option: str = "range") -> list[int]:
    """Integer list: '4', '1..8', or '1,3,5'."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"{option} {text!r} is not a list or range of integers") from None
    except OverflowError:  # a range longer than any list
        raise CliError(f"{option} {text!r} spans more than {sys.maxsize} values") from None
    return _nonempty(values, option, text)


def non_negative_int(text: str) -> int:
    """A --seed value: numpy's seeding takes non-negative integers only."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _nonempty(values: list, option: str, text: str) -> list:
    if not values:
        raise CliError(f"{option} {text!r} gives an empty list")
    return values


def load_circuit(path: str) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return Circuit.from_json_dict(json.loads(text))
    return Circuit.from_text(text)


_NOT_PARAMS = frozenset({"command", "func", "out", "format"})


def _meta(args) -> dict:
    """Provenance: every parsed option of the command except where its output goes."""
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
    return {"tool": "opmagic", "version": __version__, "command": args.command, "params": params}


def _emit(args, header: list[str], rows: list[list]) -> None:
    meta = _meta(args)
    if args.format == "json":
        text = json.dumps(dict(meta, columns=header, rows=rows), indent=2) + "\n"
    else:
        buf = io.StringIO()
        for key, value in meta.items():
            if key == "params":
                buf.write(f"# params={json.dumps(value, sort_keys=True)}\n")
            else:
                buf.write(f"# {key}={value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    _write_out(args.out, text)


def _write_out(out: str | None, text: str) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _evolution_options(p) -> None:
    """--circuit and --seed-op, which `_evolved` reads."""
    p.add_argument("--circuit", required=True)
    p.add_argument("--seed-op", required=True, help='e.g. "X0 X1" or "+XZI"')


def _evolved(args) -> tuple[SparseOperator, SparseOperator]:
    """The --seed-op string and its Heisenberg evolution through --circuit."""
    circuit = load_circuit(args.circuit)
    seed = SparseOperator.from_pauli(*parse_pauli_text(args.seed_op, circuit.n_qubits))
    return seed, evolve_heisenberg(seed, circuit)


def _cmd_evolve(args) -> None:
    _, evolved = _evolved(args)
    payload = _meta(args)
    payload["operator"] = evolved.to_json_dict()
    _write_out(args.out, json.dumps(payload) + "\n")


def _cmd_ose(args) -> None:
    seed, evolved = _evolved(args)
    rows = [
        [_fmt_alpha(rep.alpha), rep.purity, rep.ose, rep.linear_ose, rep.rank, rep.support_size]
        for rep in ose_scan(evolved, seed, parse_alphas(args.alpha))
    ]
    _emit(args, ["alpha", "purity", "ose", "linear_ose", "rank", "support"], rows)


def _fmt_alpha(alpha: float) -> str:
    if math.isinf(alpha):
        return "inf"
    return f"{alpha:g}"


def _cmd_xxz_scan(args) -> None:
    j = parse_angle(args.J)
    ts = parse_range(args.t, "--t")
    alphas = parse_alphas(args.alpha)
    rows = []
    for t in ts:
        grid = [XxzParams(j=j, t=t, alpha=a, a_x=args.ax, a_y=args.ay, a_z=args.az) for a in alphas]
        if args.simulate:
            cells = [(c.closed, c.simulated, c.abs_diff) for c in simulate_scan(grid)]
        else:
            cells = [(closed_form_ose(p), "", "") for p in grid]
        for alpha, cell in zip(alphas, cells):
            rows.append([j, t, _fmt_alpha(alpha), args.ax, args.ay, args.az, *cell])
    _emit(args, ["J", "t", "alpha", "a_x", "a_y", "a_z", "closed", "simulated", "diff"], rows)


def _cmd_haar_avg(args) -> None:
    alphas = parse_alphas(args.alpha)
    estimates = mc_average_purities(
        args.n, alphas, args.samples, seed=args.seed, workers=args.workers
    )
    dim = 1 << args.n  # after haar has capped --n
    rows = [
        [args.n, _fmt_alpha(alpha), args.samples, est.mean, est.stderr,
         _reference(closed_form_avg_purity, dim, alpha), _reference(asymptotic_avg_purity, dim, alpha)]
        for alpha, est in zip(alphas, estimates)
    ]
    _emit(args, ["n", "alpha", "samples", "mc_mean", "stderr", "closed_form", "asymptotic"], rows)


def _reference(form, dim: int, alpha: float) -> float | str:
    """haar's reference at one index, or a blank cell where haar has none."""
    try:
        return form(dim, alpha)
    except ValueError:
        return ""


def _cmd_doped_scan(args) -> None:
    alphas = parse_alphas(args.alpha)
    if args.circuits < 1:
        raise CliError(f"--circuits must be at least 1, got {args.circuits}")
    rng = np.random.default_rng(args.seed)
    circuits = (
        doped_circuit(args.n, args.tau, args.clifford_depth, int(rng.integers(2**63 - 1)))
        for _ in range(args.circuits)
    )
    first = next(circuits)  # built before the seed, so that a bad size is the builder's to report
    seed_op = SparseOperator.from_pauli(single_site_pauli(0, "X", args.n))
    evolved = evolve_ensemble(seed_op, itertools.chain((first,), circuits))
    rows = [
        [index, args.tau, _fmt_alpha(rep.alpha), rep.ose, rep.rank]
        for index, reports in enumerate(ose_scans(evolved, seed_op, alphas))
        for rep in reports
    ]
    _emit(args, ["circuit", "tau", "alpha", "ose", "rank"], rows)


def _cmd_truncate_study(args) -> None:
    _, evolved = _evolved(args)
    chis = parse_range(args.chi, "--chi") if args.chi else list(range(1, len(evolved) + 1))
    rows = [
        [chi, kept, kept_weight, epsilon, expectation_error_bound(epsilon), state_bound]
        for chi, (kept, kept_weight, epsilon, state_bound) in zip(chis, truncation_sweep(evolved, chis))
    ]
    _emit(args, ["chi", "kept_terms", "kept_weight", "epsilon", "hs_bound", "state_bound"], rows)


def _cmd_nullity(args) -> None:
    if args.sre_samples < 0:
        raise CliError(f"--sre-samples must be at least 0, got {args.sre_samples}")
    circuit = load_circuit(args.circuit)
    u = circuit_unitary(circuit)
    report = stabilizer_nullity(u)
    mean_ose = avg_linear_ose(u, alpha=2.0)
    bound = 1.0 - 2.0**-report.nu
    row = [report.s_count, report.nu, mean_ose, bound]
    header = ["s_count", "nu", "avg_linear_ose", "nullity_bound"]
    if args.sre_samples > 0:
        mean_sre = avg_linear_sre(u, args.sre_samples, seed=args.seed)
        header += ["avg_linear_sre", "sre_over_ose"]
        row += [mean_sre, mean_sre / mean_ose if mean_ose else ""]
    _emit(args, header, [row])


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse reads a token with one leading '-' as a value only when it
        # matches this pattern. Any such token that is not a registered option
        # (-h) is a value, so `--alpha -inf`, `--seed-op -XX` and `--ax -6e-1`
        # reach their own checks. Subparsers are of this class too.
        self._negative_number_matcher = re.compile(r"-(?!-)")

    def error(self, message: str):  # bad flags are user error, exit 1 not 2
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="opmagic", description=__doc__)
    parser.add_argument("--version", action="version", version=f"opmagic {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--out", default=None, help="output path; stdout if omitted")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if seeded:
            p.add_argument("--seed", type=non_negative_int, default=0)

    p = sub.add_parser("evolve", help="Heisenberg-evolve a Pauli seed, emit operator JSON")
    _evolution_options(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("ose", help="operator stabilizer entropy of an evolved seed")
    _evolution_options(p)
    p.add_argument("--alpha", default="2", help="comma list, inf allowed")
    common(p)
    p.set_defaults(func=_cmd_ose)

    p = sub.add_parser("xxz-scan", help="closed-form (and optionally simulated) XXZ sweep")
    p.add_argument("--J", required=True, help="coupling, radians or pi fraction")
    p.add_argument("--t", required=True, help="layer range like 1..8")
    p.add_argument("--alpha", default="2")
    p.add_argument("--ax", type=float, default=1.0)
    p.add_argument("--ay", type=float, default=0.0)
    p.add_argument("--az", type=float, default=0.0)
    p.add_argument("--simulate", action="store_true", help="cross-check by sparse evolution")
    common(p)
    p.set_defaults(func=_cmd_xxz_scan)

    p = sub.add_parser("haar-avg", help="Monte Carlo Haar-averaged purity vs closed form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", default="2")
    p.add_argument("--samples", type=int, default=2000)
    common(p, seeded=True)
    p.add_argument(
        "--workers", type=int, default=1, help="RNG stream partitions, run one after another"
    )
    p.set_defaults(func=_cmd_haar_avg)

    p = sub.add_parser("doped-scan", help="OSE statistics over doped Clifford circuits")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--circuits", type=int, default=20)
    p.add_argument("--alpha", default="2")
    p.add_argument("--clifford-depth", type=int, default=None)
    common(p, seeded=True)
    p.set_defaults(func=_cmd_doped_scan)

    p = sub.add_parser("truncate-study", help="truncation error and bound per chi")
    _evolution_options(p)
    p.add_argument("--chi", default=None, help="range like 1..16; all ranks if omitted")
    common(p)
    p.set_defaults(func=_cmd_truncate_study)

    p = sub.add_parser("nullity", help="stabilizer nullity and the averaged linear OSE bound")
    p.add_argument("--circuit", required=True)
    p.add_argument("--sre-samples", type=int, default=0, help="also MC the state-SRE side")
    common(p, seeded=True)
    p.set_defaults(func=_cmd_nullity)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except CliError as exc:
        print(f"opmagic: error: {exc}", file=sys.stderr)
        return 1
    try:
        args.func(args)
        return 0
    except (ValueError, OSError, KeyError) as exc:  # CliError, JSONDecodeError included
        print(f"opmagic: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a requested size that cannot be allocated is bad input
        print(f"opmagic: error: {args.command}: not enough memory: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"opmagic: internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
