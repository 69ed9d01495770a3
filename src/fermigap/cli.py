"""Command-line interface: reproducible gap experiments with file I/O.

Each cmd_* returns its exit code and stdout text; main writes the text.
Exit codes: 0 success, 1 usage error, 2 invalid input or a failed stdout
write, 3 numerical failure, 4 conformance-check failure.  All numeric output
uses repr round-trip precision; CSV always uses '.' as the decimal separator.
JSON output is standard JSON: a NaN or infinity in it is a numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import _blas
from .errors import CapacityError, ConformanceError, InputError, NumericalError
from . import ensembles as ens
from . import io as fio
from . import lattice as lat
from . import quadform as qf
from . import spinrep as sr

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_CONFORMANCE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# glibc serves blocks below M_MMAP_THRESHOLD from the heap and gives the
# heap's free top back to the kernel once it exceeds M_TRIM_THRESHOLD.  Left
# alone it sets both from the largest block freed so far, so a loop that
# frees a few arrays per step gives the memory back and faults it in again
# on the next step.  On a 2-core x86-64 VM, 1000 survival samples at n = 128
# took 194k minor page faults (640 with the settings below), and one
# 2^20-site structured gap 75 ms (49 ms).  A fermigap run is short, so its
# heap is never trimmed; the memory goes back at exit.  32 MiB is the
# largest mmap threshold glibc accepts on 64-bit, which keeps the 2^20-site
# buffers on the heap.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3     # mallopt parameter numbers
_MMAP_THRESHOLD = 32 << 20


def _retain_freed_heap() -> None:
    """Keep freed heap memory in this process (glibc only; elsewhere a no-op)."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, -1)    # -1: never trim


def _resolve_seed(value: str | None) -> int:
    """The run's seed: --seed, else FERMIGAP_SEED, else 0; a non-negative integer."""
    if value is None:
        value = os.environ.get("FERMIGAP_SEED", "0")
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {value!r}")
    return seed


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _json_text(doc: dict) -> str:
    """Standard JSON only: a NaN or infinity in the output is a numerical failure."""
    try:
        return json.dumps(doc, indent=2, default=_json_default, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"non-finite value in JSON output: {exc}") from exc


_CSV_BOOL = {True: "true", False: "false"}


def _csv_cells(column):
    """One column's cells: repr of each Python number, or true/false."""
    column = np.asarray(column)
    return map(_CSV_BOOL.__getitem__ if column.dtype == bool else repr, column.tolist())


def _csv_text(header, columns) -> str:
    """CSV text of equal-length columns of numbers or booleans."""
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*map(_csv_cells, columns))))
    lines.append("")    # the final newline, without copying the text
    return "\n".join(lines)


def _write_run(out_dir: str, command: str, parameters: dict, seed: int | None,
               outputs: dict[str, str]) -> None:
    """Write each output and a manifest.json listing them into out_dir.

    The manifest's parameters end with what the run's loop ran on, if it
    ran one (_blas.last_loop).  Its worker_peak_rss_mb varies from run to
    run, so it goes into the manifest only, never into an output.  InputError
    if the directory or a file in it cannot be written; the files written
    before the failing one stay behind.
    """
    loop = dict(_blas.last_loop)
    measured = {key: loop.pop(key) for key in ("worker_peak_rss_mb",) if key in loop}
    manifest = _json_text({
        "command": command,
        "parameters": {**parameters, **loop},
        "seed": seed,
        "tool_version": __version__,
        "outputs": list(outputs),
        **measured,
    })
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in {**outputs, "manifest.json": manifest}.items():
            (out_dir / name).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write the run directory {str(out_dir)!r}: {exc}") from None


def _write_stdout(text: str) -> None:
    """Write all of text to the file under stdout's buffers, or raise OSError.

    Each write advances by the count it returns: a reader that closes early
    cuts one short, and the next raises BrokenPipeError.  Nothing is left in
    Python's buffers for the flush at exit to fail on.
    """
    if sys.stdout is None:      # Python started with fd 1 closed
        if text:
            raise OSError(errno.EBADF, "stdout is closed")
        return
    sys.stdout.flush()
    sink = getattr(sys.stdout, "buffer", None)
    if sink is None:        # a text-only stream, such as io.StringIO
        sys.stdout.write(text)
        return
    sink = getattr(sink, "raw", sink)
    data = memoryview(text.encode(sys.stdout.encoding))
    while data:
        data = data[sink.write(data):]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gap(args) -> tuple[int, str]:
    report = qf.ground_gap(fio.load_pair_or_structured(args.input), args.tol)
    return EXIT_OK, _json_text(dataclasses.asdict(report))


def cmd_spectrum(args) -> tuple[int, str]:
    source = fio.load_pair_or_structured(args.input)
    energies = qf.subset_sum_spectrum(source.singular_values())
    return EXIT_OK, _json_text({"n": source.n, "energies": energies.tolist()})


# The per-point arrays, lists and CSV text take about 220 bytes per grid
# point: a 2-site profile peaks at about 250 MB RSS at this cap, and 10^9
# points would need 8 GB for the grid alone.
PROFILE_GRID_CAP = 10 ** 6

# Work caps, grid points x n for a structured spec and grid points x n^3 for a
# dense pair.  On a 2-core x86-64 VM the full pass over the stored half of a
# 2^20-site symbol takes 4-6 ns per site, so the structured cap stands for
# about 4 minutes of worst-case single-core work (a point usually evaluates
# far fewer modes; see lattice.structured_gap_profile).  A values-only SVD
# took 0.34-0.53 ns per n^3 for n = 256..2048, so the dense cap stands for
# about 10 minutes (a dense profile that forks a worker takes about half as
# long).  The benchmark's 101 x 2^20 and 101 x 256^3 are 1.1e8 and 1.7e9.
PROFILE_STRUCTURED_WORK_CAP = 4 * 10 ** 10
PROFILE_DENSE_WORK_CAP = 10 ** 12


def _check_profile_work(grid: int, n: int, dense: bool) -> None:
    """CapacityError if a profile of grid points over n sites exceeds its work cap."""
    work, cap, unit = ((grid * n ** 3, PROFILE_DENSE_WORK_CAP, "grid x n^3") if dense
                       else (grid * n, PROFILE_STRUCTURED_WORK_CAP, "grid x n"))
    if work > cap:
        raise CapacityError(f"a {grid}-point profile of {n} sites is {work:.3g} {unit}, "
                            f"above the cap of {cap:.3g}")


def cmd_profile(args) -> tuple[int, str]:
    if not 2 <= args.grid <= PROFILE_GRID_CAP:
        raise InputError(f"grid size must lie in [2, {PROFILE_GRID_CAP}], got {args.grid}")
    source = fio.load_pair_or_structured(args.input)
    dense = isinstance(source, qf.CoefficientPair)
    _check_profile_work(args.grid, source.n, dense)
    s_grid = np.linspace(0.0, 1.0, args.grid)
    if dense:
        profile = qf.gap_profile(source, s_grid, args.tol)
    else:
        profile = lat.structured_gap_profile(source, s_grid, args.tol)
    csv_text = _csv_text(("s", "gap", "degenerate"),
                         (profile.s, profile.gap, profile.num_zero_modes > 0))
    summary_text = _json_text(profile.summary)
    if args.out:
        parameters = {"input": str(args.input), "grid": args.grid, "tol": args.tol}
        _write_run(args.out, "profile", parameters, None,
                   {"profile.csv": csv_text, "summary.json": summary_text})
        return EXIT_OK, ""
    return EXIT_OK, csv_text + summary_text


def cmd_lattice(args) -> tuple[int, str]:
    spec = fio.load_pair_or_structured(args.input)
    if isinstance(spec, qf.CoefficientPair):
        raise InputError("lattice expand needs a structured spec document (with a 'kind' key)")
    return EXIT_OK, _json_text(fio.pair_to_dict(lat.expand(spec)))


_SURVIVAL_X = [0.5, 1.0, 2.0]


def cmd_ensemble(args) -> tuple[int, str]:
    kind, experiment = ens.EXPERIMENTS[args.experiment]
    if args.kind not in (None, kind):
        raise InputError(f"experiment {args.experiment!r} draws from the {kind} "
                         f"ensemble, got --kind {args.kind}")
    if args.experiment != "survival" and args.x is not None:
        raise InputError(f"--x applies to the survival experiment only, "
                         f"not {args.experiment!r}")
    samples = args.samples
    if args.experiment == "survival":
        args.x = _SURVIVAL_X if args.x is None else args.x
        summary, tables = experiment(args.n, samples, args.seed, args.x)
    elif args.experiment == "figure2":
        samples = 1     # one evolution, sample 0, whatever --samples says
        summary, tables = experiment(args.n, args.seed)
    else:
        summary, tables = experiment(args.n, samples, args.seed)
    parameters = {"kind": kind, "n": args.n, "samples": samples, "x": args.x}
    summary_text = _json_text({
        "experiment": args.experiment,
        "config": {**parameters, "seed": args.seed},
        **summary,
    })
    outputs = {name: _csv_text(*table) for name, table in tables.items()}
    # Nothing is written until every output is in hand: a run that fails
    # leaves no directory behind.
    _write_run(args.out, f"ensemble {args.experiment}", parameters, args.seed,
               {**outputs, "summary.json": summary_text})
    return EXIT_OK, summary_text


def cmd_jw(args) -> tuple[int, str]:
    source = fio.load_pair_or_w(args.input)
    if isinstance(source, sr.PauliHamiltonian):
        return EXIT_OK, _json_text(fio.pair_to_dict(source.to_pair()))
    return EXIT_OK, _json_text(fio.w_to_dict(sr.PauliHamiltonian(sr.ab_to_w(source))))


def cmd_cluster(args) -> tuple[int, str]:
    h = sr.build_cluster_w(args.n)
    return EXIT_OK, _json_text(fio.pair_to_dict(h.to_pair()) if args.as_pair
                               else fio.w_to_dict(h))


def cmd_ising(args) -> tuple[int, str]:
    h = sr.build_ising_w(args.n, args.s)
    return EXIT_OK, _json_text(fio.pair_to_dict(h.to_pair()) if args.as_pair
                               else fio.w_to_dict(h))


# ---------------------------------------------------------------------------
# Conformance suite
# ---------------------------------------------------------------------------

# Levels of the subset-sum trials' oracle spectra held at once: the trials
# run in batches whose spectra, kept until their loop joins, hold at most
# this many (unless one trial alone holds more), 1 MiB of float64.
VERIFY_BATCH_LEVELS = 1 << 17

# Work of an order-d eigvalsh in the unit of _blas.WORK_PER_WORKER, where a
# values-only SVD of order d costs d^3: d^3 // EIGVALSH_WORK_DIVISOR.  Set
# from the verify rows of _blas's break-even table.  It puts the threshold
# between 8 x 3 and 9 x 1, whose ranges for one and two processes overlap,
# and below 9 x 3, 10 x 1 and 8 x 17, where two processes clearly won: two
# start at n_max 9 from 3 trials, at n_max 10 from 1 and at n_max 8 from 17.
EIGVALSH_WORK_DIVISOR = 4


def _oracle_spectra(ws: list):
    """sr.dense_spectrum_oracle of each W, its parity blocks split over processes.

    One _blas.forked_chunks item per block: every W's even block in the
    order of ws, then every odd one.  Item 0, computed before any fork, is
    the first W's even block, and the two halves hold the same block sizes.
    Each spectrum is merged as the oracle merges it, so bit-identically.
    """
    hams = [sr.PauliHamiltonian(w) for w in ws]
    items = [(h, parity) for parity in (0, 1) for h in hams]
    orders = [1 << (h.n - 1) for h, _ in items]
    chunks = _blas.forked_chunks(
        lambda lo, hi: [sr.sector_spectrum(*item) for item in items[lo:hi]],
        len(items), max(orders), "parity blocks",
        work=sum(d ** 3 for d in orders[1:]) // EIGVALSH_WORK_DIVISOR)
    blocks = [block for chunk in chunks for block in chunk]
    half = len(hams)
    return (np.sort(np.concatenate([blocks[k], blocks[half + k]])) for k in range(half))


def _verify_checks(n_max: int, trials: int, seed: int):
    """Yield (check name, tolerance, cases), cases a list of (residual, replay info)."""
    cases = []
    batch = max(1, VERIFY_BATCH_LEVELS // ((2 << n_max) - 2))    # a trial's 2 + 4 + ... + 2^n_max
    for first in range(0, trials, batch):
        keys = [(t, n) for t in range(first, min(first + batch, trials))
                for n in range(1, n_max + 1)]
        ws = [ens.seeded_rng(seed, 0, t, n).standard_normal((n, n)) for t, n in keys]
        for (t, n), w, dense in zip(keys, ws, _oracle_spectra(ws)):
            lam = sr.w_to_ab(w).singular_values()
            sub = qf.subset_sum_spectrum(lam)
            # lam is descending, so lam[0] is the 2-norm of A + B
            res = float(np.max(np.abs(sub - dense))) / (1.0 + lam[0])
            cases.append((res, {"trial": t, "n": n}))
    yield "subset-sum-vs-dense", 1e-8, cases

    n = min(n_max, 6)
    w = ens.seeded_rng(seed, 1).standard_normal((n, n))
    pair = sr.w_to_ab(w)
    dense = sr.dense_hamiltonian(sr.PauliHamiltonian(w))
    ferm = sr.fermionic_assembly(pair, sr.jw_operators(n))
    yield "route-equality", 1e-12, [(float(np.max(np.abs(dense - ferm))), {"n": n})]

    pair = qf.symmetrize_split(ens.seeded_rng(seed, 2).standard_normal((4, 4)))
    decomp = qf.lieb_decompose(pair)
    etas = sr.unitary_fcr_transform(sr.jw_operators(4),
                                    (decomp.x + decomp.y) / 2.0,
                                    (decomp.x - decomp.y) / 2.0)
    op_sets = [*(({"set": "jw", "n": n}, sr.jw_operators(n))
                 for n in range(1, min(n_max, 8) + 1)),
               ({"set": "spin32", "n": 2}, sr.spin32_operators(2)),
               ({"set": "eta", "n": 4}, etas)]
    yield "fcr-suites", 1e-12, [(sr.fcr_check(ops), replay) for replay, ops in op_sets]

    cases = []
    specs = {"xy_cycle": lat.build_xy_cycle(12),
             "torus_2d": lat.stack(lat.build_xy_cycle(4), 4),
             "torus_3d": lat.stack(lat.stack(lat.build_xy_cycle(3), 3), 3)}
    for name, spec in specs.items():
        pair = lat.expand(spec)
        g = pair.c @ (pair.a - pair.b)
        dense = np.sort(np.linalg.eigvalsh(g))
        fast = np.sort(lat.g_eigenvalues(spec))
        scale = 1.0 + np.linalg.norm(g, 2)
        cases.append((float(np.max(np.abs(dense - fast))) / scale,
                      {"spec": name, "n": spec.n}))
    yield "structured-vs-dense", 1e-8, cases


def _worst_case(check: str, cases: list) -> tuple[float, dict]:
    """The largest residual of a check's cases and the replay info of the first that has it.

    A residual that is not finite raises NumericalError: a running maximum
    would pass over a NaN and report a vacuous pass.
    """
    for res, info in cases:
        if not np.isfinite(res):
            raise NumericalError(f"{check}: residual {res} at {info}")
    return max(cases, key=lambda case: case[0])


# Each trial adds n_max subset-sum cases of about 265 bytes (--n-max 1, 2-core
# x86-64 VM): 35 MB at the cap with --n-max 13.
VERIFY_TRIAL_CAP = 10 ** 4


def cmd_verify(args) -> tuple[int, str]:
    if not 1 <= args.n_max <= sr.DENSE_QUBIT_CAP:
        raise InputError(f"--n-max must lie in [1, {sr.DENSE_QUBIT_CAP}], got {args.n_max}")
    if not 1 <= args.trials <= VERIFY_TRIAL_CAP:
        raise InputError(f"--trials must lie in [1, {VERIFY_TRIAL_CAP}], got {args.trials}")
    checks = []
    try:
        for name, tol, cases in _verify_checks(args.n_max, args.trials, args.seed):
            residual, replay = _worst_case(name, cases)
            checks.append({"check": name, "cases": len(cases), "max_residual": residual,
                           "tolerance": tol, "passed": residual <= tol, "replay": replay,
                           "seed": args.seed})
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"conformance suite: {exc}") from exc
    all_pass = all(check["passed"] for check in checks)
    return (EXIT_OK if all_pass else EXIT_CONFORMANCE,
            _json_text({"checks": checks, "passed": all_pass, "seed": args.seed}))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_SEED_HELP = "non-negative integer (default: $FERMIGAP_SEED, else 0)"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fermigap",
                     description="Spectral gaps of quadratic fermionic Hamiltonians")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gap", help="ground energy and gap of a pair or structured file")
    p.add_argument("input")
    p.add_argument("--tol", type=float, default=None,
                   help="zero-singular-value tolerance (default n*eps*sigma_max)")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("spectrum", help="all 2^n subset-sum energies")
    p.add_argument("input")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("profile", help="gap along the adiabatic interpolation "
                                       "(CSV columns: s, gap, degenerate)")
    p.add_argument("input", help="pair or structured JSON; structured inputs "
                                 "use the FFT fast path")
    p.add_argument("--grid", type=int, default=101, help="uniform grid size on [0,1]")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None, help="directory for CSV + manifest")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("lattice", help="structured lattice utilities")
    lat_sub = p.add_subparsers(dest="lattice_command", required=True)
    pe = lat_sub.add_parser("expand", help="emit the dense pair JSON of a structured spec")
    pe.add_argument("input")
    pe.set_defaults(func=cmd_lattice)

    p = sub.add_parser("ensemble", help="random-ensemble experiments")
    p.add_argument("--kind", choices=ens.ENSEMBLE_KINDS, default=None,
                   help="ensemble of the experiment (default: the one it draws from)")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--samples", type=int, default=1000,
                   help="samples drawn (figure2 always draws one)")
    p.add_argument("--seed", default=None, help=_SEED_HELP)
    p.add_argument("--experiment", choices=sorted(ens.EXPERIMENTS), required=True)
    p.add_argument("--x", type=float, nargs="+", default=None,
                   help="x values for the survival experiment")
    p.add_argument("--out", default="fermigap-out")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("jw", help="convert between W JSON and pair JSON")
    p.add_argument("input")
    p.set_defaults(func=cmd_jw)

    p = sub.add_parser("cluster", help="1D cluster-state parent Hamiltonian")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--as-pair", action="store_true")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("ising", help="transverse-field Ising chain at parameter s")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--as-pair", action="store_true")
    p.set_defaults(func=cmd_ising)

    p = sub.add_parser("verify", help="run the oracle-equivalence conformance suite")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", default=None, help=_SEED_HELP)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _retain_freed_heap()
    _blas.last_loop.clear()
    try:
        if "seed" in args:
            args.seed = _resolve_seed(args.seed)
        code, text = args.func(args)
        _write_stdout(text)
        return code
    except OSError as exc:
        # stdout's: the commands turn every other OSError into InputError
        print(f"fermigap: cannot write to stdout: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InputError, CapacityError) as exc:
        print(f"fermigap: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"fermigap: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConformanceError as exc:
        print(f"fermigap: conformance error: {exc}", file=sys.stderr)
        return EXIT_CONFORMANCE


if __name__ == "__main__":
    sys.exit(main())
