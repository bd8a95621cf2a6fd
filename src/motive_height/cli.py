"""Command-line front end.

    motive-height validate <doc>
    motive-height height <doc> [--window a,b] [--format text|rows]
    motive-height local <doc> --p <prime>
    motive-height invariants <doc>
    motive-height experiment <doc> <spec> [-n N]
    motive-height batch <docs-or-dir...> [--jobs N] [--format text|rows]
    motive-height example <name>

Global flags: --precision <bits> (default 128), --digits <display digits>.
Exit codes: 0 success, 1 validation or experiment failure, 2 precision
exhaustion, 3 malformed input.  ``batch`` prints every good row, reports
each bad document on stderr as ``<path>: <message>`` and exits with the
highest code seen.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from mpmath import nstr

from .balls import MIN_BITS, PrecisionExhausted, RealBall, working_precision
from .documents import (
    DocumentError,
    canonical_bytes,
    example_document,
    load_document,
    parse_motive,
    parse_quotient_spec,
)
from .experiments import (
    ABC_HEADER,
    AbcRow,
    IncompatibleSpec,
    StrongDivisibilityLost,
    check_s_equals_t,
    invariance_experiment,
    n_of_m,
)
from .motive import InvalidMotive, WindowMismatch, height, validate
from .rational import is_prime

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PRECISION = 2
EXIT_MALFORMED = 3

# what each failure prints and exits with; the exit codes rank the failures
_FAILURES = (
    (DocumentError, "malformed input", EXIT_MALFORMED),
    (PrecisionExhausted, "precision exhausted", EXIT_PRECISION),
    (InvalidMotive, "invalid", EXIT_INVALID),
    (IncompatibleSpec, "invalid", EXIT_INVALID),
    (StrongDivisibilityLost, "invalid", EXIT_INVALID),
    (WindowMismatch, "invalid", EXIT_INVALID),
)
_FAILURE_TYPES = tuple(t for t, _, _ in _FAILURES)


def _failure(exc: Exception) -> tuple[int, str]:
    return next((code, f"{prefix}: {exc}") for t, prefix, code in _FAILURES
                if isinstance(exc, t))


def _ball_str(b: RealBall, digits: int) -> str:
    if b.rad == 0:
        return f"{nstr(b.mid, digits)} ± 0"
    return f"{nstr(b.mid, digits)} ± {nstr(b.rad, 3)}"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}")


def _at_least(value: int, minimum: int, flag: str) -> int:
    if value < minimum:
        raise DocumentError(f"{flag}: expected an integer >= {minimum}, got {value}")
    return value


def _load_motive(path: str):
    return parse_motive(load_document(_read(path)))


def _parse_window(text):
    if text is None:
        return None
    try:
        a, b = text.split(",")
        return (int(a), int(b))
    except ValueError:
        raise DocumentError(f"bad --window {text!r}, expected a,b")


def _row(m, rep) -> str:
    return AbcRow(rep.label, rep.window, rep.h, n_of_m(m)).render()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    m = _load_motive(args.document)
    report = validate(m)
    if report.ok:
        print(f"{m.label}: valid ({m.rank} x {m.rank}, weight {m.weight}, "
              f"window {m.window})")
        return EXIT_OK
    for issue in report.issues:
        print(f"invalid: {issue}", file=sys.stderr)
    return EXIT_INVALID


def cmd_height(args) -> int:
    m = _load_motive(args.document)
    rep = height(m, window=_parse_window(args.window))
    if args.format == "rows":
        print(_row(m, rep))
        return EXIT_OK
    d = args.digits
    a, b = rep.window
    print(f"id: {rep.label}")
    print(f"window: a = {a}, b = {b}")
    print(f"h = {_ball_str(rep.h, d)}")
    print(f"H = {_ball_str(rep.multiplicative, d)}")
    print(f"|e| = {_ball_str(rep.metric, d)}")
    print(f"lattice scalar = {rep.lattice_scalar}")
    if rep.per_prime:
        for p, r, v in rep.per_prime:
            print(f"  local contribution: p = {p}, r = {r}, v = {v}")
    else:
        print("  local contributions: none")
    for w in rep.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK


def cmd_local(args) -> int:
    if not is_prime(args.p):
        raise DocumentError(f"--p: expected a prime, got {args.p}")
    m = _load_motive(args.document)
    report = validate(m)
    if not report.ok:
        for issue in report.issues:
            print(f"invalid: {issue}", file=sys.stderr)
        return EXIT_INVALID
    spec = m.local_spec(args.p)
    print(f"p = {spec.p} ({spec.provenance})")
    for r, v in spec.v:
        print(f"  v({r}) = {v}")
    return EXIT_OK


def cmd_invariants(args) -> int:
    m = _load_motive(args.document)
    rep = check_s_equals_t(m)
    print(f"s = {rep.s}")
    print(f"t = {rep.t}")
    print(f"s = t: {'pass' if rep.passed else f'FAIL (defect {rep.defect})'}")
    return EXIT_OK if rep.passed else EXIT_INVALID


def cmd_experiment(args) -> int:
    m = _load_motive(args.document)
    spec = parse_quotient_spec(load_document(_read(args.spec)), m)
    rep = invariance_experiment(m, spec, None if args.n is None else _at_least(args.n, 0, "-n"))
    d = args.digits
    print(f"id: {rep.label}   p = {rep.p}   n = {rep.exponent}")
    print(f"s(U) = {rep.s_u}, t(U) = {rep.t_u}")
    print(f"lattice ratio: {rep.lattice_ratio} "
          f"(expected p^(n s(U)) = {rep.lattice_ratio_expected}) "
          f"{'ok' if rep.lattice_identity_ok else 'FAIL'}")
    print(f"Betti index [H : H^(n)] = {rep.betti_index} "
          f"{'ok' if rep.betti_identity_ok else 'FAIL'}")
    print(f"h(M)     = {_ball_str(rep.base_height.h, d)}")
    print(f"h(M^(n)) = {_ball_str(rep.sub_height.h, d)}")
    print(f"heights match within radii: {'yes' if rep.heights_match else 'NO'}")
    return EXIT_OK if rep.passed else EXIT_INVALID


def _batch_paths(items) -> list[str]:
    paths = []
    for item in items:
        if os.path.isdir(item):
            paths.extend(os.path.join(item, f)
                         for f in sorted(os.listdir(item))
                         if f.endswith(".json"))
        else:
            paths.append(item)
    return paths


def _batch_worker(payload) -> tuple[int, str]:
    """(EXIT_OK, row) for a good document, else (exit code, message): a bad
    document fails alone."""
    path, bits, window = payload
    try:
        with working_precision(bits):
            m = _load_motive(path)
            return EXIT_OK, _row(m, height(m, window=window))
    except _FAILURE_TYPES as exc:
        code, message = _failure(exc)
        return code, f"{path}: {message}"


def cmd_batch(args) -> int:
    paths = _batch_paths(args.documents)
    window = _parse_window(args.window)
    payloads = [(path, args.precision, window) for path in paths]
    # the pool forks all its workers on the first task: none beyond the documents
    jobs = min(_at_least(args.jobs, 1, "--jobs"), len(paths))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_batch_worker, payloads))
    else:
        results = [_batch_worker(p) for p in payloads]
    if args.format == "text":
        print(ABC_HEADER)
    for code, text in results:
        print(text, file=sys.stderr if code else sys.stdout)
    return max((code for code, _ in results), default=EXIT_OK)


def cmd_example(args) -> int:
    doc = example_document(args.name)
    sys.stdout.write(canonical_bytes(doc).decode("utf-8"))
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache  # built once: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motive-height",
        description="Heights of motives over Q from realization data.")
    parser.add_argument("--precision", type=int, default=128,
                        help="working precision in bits (default 128)")
    parser.add_argument("--digits", type=int, default=30,
                        help="display digits for certified reals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a motive document")
    p.add_argument("document")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("height", help="compute h(M)")
    p.add_argument("document")
    p.add_argument("--window", help="override window a,b")
    p.add_argument("--format", choices=("text", "rows"), default="text")
    p.set_defaults(func=cmd_height)

    p = sub.add_parser("local", help="per-prime integral structure")
    p.add_argument("document")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("invariants", help="s and t invariants")
    p.add_argument("document")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("experiment", help="height-invariance experiment")
    p.add_argument("document")
    p.add_argument("spec")
    p.add_argument("-n", type=int, default=None, help="p-power exponent")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("batch", help="height table for many documents")
    p.add_argument("documents", nargs="+")
    p.add_argument("--window", help="override window a,b")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("text", "rows"), default="text")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("example", help="emit a builder document")
    p.add_argument("name", help="trivial | tate:<r> | elliptic:square")
    p.set_defaults(func=cmd_example)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _at_least(args.digits, 1, "--digits")
        with working_precision(_at_least(args.precision, MIN_BITS, "--precision")):
            return args.func(args)
    except _FAILURE_TYPES as exc:
        code, message = _failure(exc)
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
