"""Command-line front end.

Pipeline: one strict reader takes the request from the flags or a --job
file (group, parabolic subset, words, degrees), then one of four modes runs:

  constant  (--u --v --w)      one integer; --verbose adds the word's
                               relative matrix and both solution sets
  expand    (--u --v --expand) the full product expansion
  table     (--table d1 d2)    all products between two degree levels
  selftest  (--selftest)       built-in fixtures and spot properties

Exit codes: 0 success, 1 input error, 2 computation error (group size
bound, out of memory, or a negative constant, which means an internal
bug), 3 selftest failure.  Usage errors, such as an unknown flag, are
input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import schubert, weyl
from .errors import GroupTooLarge, NegativeConstant, SchubertError
from .frozen import Frozen
from .relmat import element_of_reduced_word, relative_matrix_of_letters
from .rootsys import CartanMatrix, cartan_matrix_by_name, validate_cartan
from .weyl import Word


class JobSpec(Frozen):
    """One request, as _read_request accepted it; group is None only in
    selftest mode."""

    __slots__ = ("group", "parabolic", "mode", "u_word", "v_word", "w_word", "table_degrees",
                 "include_zeros", "verbose", "max_group_order", "echo_matrix", "show_matrix")

    def __init__(
        self,
        group: Optional[CartanMatrix],
        parabolic: tuple[int, ...] = (),
        mode: str = "constant",
        u_word: Optional[Word] = None,
        v_word: Optional[Word] = None,
        w_word: Optional[Word] = None,
        table_degrees: Optional[tuple[int, int]] = None,
        include_zeros: bool = False,
        verbose: bool = False,
        max_group_order: int = weyl.DEFAULT_MAX_GROUP_ORDER,
        echo_matrix: bool = False,
        show_matrix: bool = False,
    ):
        for name, value in zip(self.__slots__, (
            group, parabolic, mode, u_word, v_word, w_word, table_degrees,
            include_zeros, verbose, max_group_order, echo_matrix, show_matrix,
        )):
            object.__setattr__(self, name, value)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other input error; argparse's own
    code 2 is what this CLI gives computation errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="schuprod",
        description="Multiply Schubert classes of a flag manifold from its Cartan matrix.",
    )
    # The input flags that carry a job file key store under it, and stay
    # None when not given.
    group = parser.add_argument_group("group input")
    group.add_argument("--type", dest="group", metavar="TYPE", help="named type and rank, e.g. G2, A4, B3")
    group.add_argument("--matrix", help="raw Cartan matrix as a JSON array of arrays")
    group.add_argument("--job", help="JSON job file (same schema as the flags)")
    parser.add_argument("--parabolic", help="indices generating W', e.g. 1,3")
    parser.add_argument("--u", dest="u", help="word for u, e.g. 2,1,2 (empty = identity)")
    parser.add_argument("--v", dest="v", help="word for v")
    parser.add_argument("--w", dest="w", help="word for w (constant mode)")
    parser.add_argument("--expand", action="store_true", help="expand the product of u and v")
    parser.add_argument("--table", nargs=2, type=int, metavar=("D1", "D2"),
                        help="all products between degree levels D1 and D2")
    parser.add_argument("--selftest", action="store_true", help="run built-in fixtures")
    parser.add_argument("--json", dest="as_json", action="store_true",
                        help="emit a JSON report instead of text")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--include-zeros", action="store_true", default=None,
                        help="keep zero terms in expansions")
    parser.add_argument("--max-group-order", type=_positive_int,
                        default=weyl.DEFAULT_MAX_GROUP_ORDER,
                        help="bound on the coset representatives walked, level by level "
                             "up to the deepest degree the run needs (default 10^6)")
    parser.add_argument("--echo-matrix", action="store_true",
                        help="print the validated Cartan matrix as JSON")
    parser.add_argument("--show-matrix", action="store_true",
                        help="print the relative matrix of the --w word as JSON")
    return parser


# The keys of a job file, the keys each mode needs with the refusal when
# one is missing, and the input keys each mode reads (w also under
# --show-matrix); selftest reads none.
_KEYS = ("group", "parabolic", "mode", "u", "v", "w", "table", "include_zeros")
_NEEDS = {
    "constant": (("u", "v", "w"), "constant mode needs --u, --v and --w"),
    "expand": (("u", "v"), "expand mode needs --u and --v"),
    "table": (("table",), "table mode needs two degree levels"),
    "inspect": ((), ""),
    "selftest": ((), ""),
}
_READS = {"constant": ("u", "v", "w"), "expand": ("u", "v", "include_zeros"),
          "table": ("table", "include_zeros"), "inspect": ("w",), "selftest": ()}


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"cannot parse {what} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ValueError(f"cannot parse {what}: nested too deeply") from None


def _parse_job_word(value, what: str) -> Word:
    """A word as the flags take it ("2,1,2") or as a JSON list of integers;
    floats and booleans are refused, not coerced."""
    if isinstance(value, str):
        return weyl.parse_word(value)
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise ValueError(
            f"job file {what} must be a string like '2,1,2' or a list of integers, got {value!r}"
        )
    return tuple(value)


def job_from_args(args) -> JobSpec:
    """The request of the --job file, or of the input flags read into the
    job file's schema; the output flags apply to either."""
    flags = ("group", "matrix", "parabolic", "u", "v", "w", "table", "include_zeros")
    request = {key: value for key in flags if (value := getattr(args, key)) is not None}
    modes = [mode for mode in ("selftest", "table", "expand") if getattr(args, mode)]
    if args.job is not None:
        if request or modes:
            raise ValueError("--job replaces the input flags; combine only with output flags")
        request = _load_json(Path(args.job).read_text(), f"job file {args.job}")
        if not isinstance(request, dict):
            raise ValueError(f"job file {args.job} must hold a JSON object")
        return _read_request(request, args)
    if len(modes) > 1:
        raise ValueError(f"a request names one mode, got --{' and --'.join(modes)}")
    if "matrix" in request:
        if "group" in request:
            raise ValueError("give either --type or --matrix, not both")
        # Validated here: a JSON string is a malformed matrix, not a type name.
        request["group"] = validate_cartan(_load_json(request.pop("matrix"), "--matrix"))
    elif "group" not in request and not args.selftest:
        raise ValueError("no group given (use --type, --matrix or --job)")
    if modes:
        request["mode"] = modes[0]
    else:
        # A lone --w word with --echo-matrix or --show-matrix is only inspected.
        described = args.echo_matrix or args.show_matrix
        constant = "w" in request and ("u" in request or "v" in request or not described)
        request["mode"] = "constant" if constant else "inspect"
    return _read_request(request, args)


def _read_request(raw: dict, args) -> JobSpec:
    """The one reader of a request, from a job file or the flags: every
    key known, every value of its type and every key its mode needs."""
    unknown = [key for key in raw if key not in _KEYS]
    if unknown:
        raise ValueError(f"unknown job file keys {', '.join(map(repr, unknown))} (known: {', '.join(_KEYS)})")
    mode = raw.get("mode", "constant")
    if mode == "selftest" and len(raw) > 1:
        raise ValueError(f"selftest mode takes no input, got {', '.join(k for k in raw if k != 'mode')}")
    group = raw.get("group")
    if isinstance(group, str):
        group = cartan_matrix_by_name(group)
    elif isinstance(group, list):
        group = validate_cartan(group)
    elif "group" in raw and not isinstance(group, CartanMatrix):
        raise ValueError(f"job file group must be a type name or a matrix, got {group!r}")
    elif "group" not in raw and mode != "selftest":
        raise ValueError("job file needs a 'group' entry (type name or matrix)")
    if not isinstance(mode, str) or mode not in _NEEDS:
        raise ValueError(f"unknown mode {mode!r} in job file")
    include_zeros = raw.get("include_zeros", False)
    if not isinstance(include_zeros, bool):
        raise ValueError(f"job file include_zeros must be true or false, got {include_zeros!r}")
    degrees = raw.get("table")
    if "table" in raw and not (
        isinstance(degrees, list) and len(degrees) == 2 and all(type(d) is int for d in degrees)
    ):
        raise ValueError(f"job file table must be two integer degree levels, got {degrees!r}")
    needed, refusal = _NEEDS[mode]
    if any(key not in raw for key in needed):
        raise ValueError(refusal)
    if mode == "inspect" and not (args.echo_matrix or args.show_matrix):
        raise ValueError("no action requested (use --w, --expand, --table or --selftest)")
    reads = _READS[mode] + (("w",) if args.show_matrix else ())
    unread = [key for key in ("u", "v", "w", "table", "include_zeros") if key in raw and key not in reads]
    if unread:
        raise ValueError(f"{mode} mode takes no {', '.join(unread)}")
    if args.verbose and mode != "constant":
        raise ValueError(f"--verbose applies to constant mode only, not {mode} mode")
    return JobSpec(
        group=group,
        parabolic=tuple(sorted(_parse_job_word(raw.get("parabolic", []), "parabolic"))),
        mode=mode,
        u_word=_parse_job_word(raw["u"], "u") if "u" in raw else None,
        v_word=_parse_job_word(raw["v"], "v") if "v" in raw else None,
        w_word=_parse_job_word(raw["w"], "w") if "w" in raw else None,
        table_degrees=tuple(degrees) if degrees else None,
        include_zeros=include_zeros,
        verbose=args.verbose,
        max_group_order=args.max_group_order,
        echo_matrix=args.echo_matrix,
        show_matrix=args.show_matrix,
    )


# -- execution -----------------------------------------------------------


def _record(u_word, v_word, w_word, value) -> dict:
    return {
        "u_word": list(u_word),
        "v_word": list(v_word),
        "w_word": list(w_word),
        "value": value,
    }


def run(spec: JobSpec) -> dict:
    if spec.mode == "selftest":
        if spec.echo_matrix or spec.show_matrix:
            raise ValueError("selftest mode has no matrix or word to show")
        # Imported here only: no other mode loads the selftest or its oracles.
        from . import selftest

        checks = [vars(result) for result in selftest.run_selftest()]
        return {"format_version": 1, "mode": "selftest", "checks": checks}
    c = spec.group
    # Built before any mode runs, so every mode refuses a bad subset.
    space = schubert.FlagManifold(c, spec.parabolic, spec.max_group_order)
    report: dict = {
        "format_version": 1,
        "mode": spec.mode,
        "group": c.as_lists(),
        "parabolic": list(spec.parabolic),
    }
    if spec.echo_matrix:
        report["matrix_echo"] = c.as_lists()
    if spec.mode == "constant":
        u, v, w = (element_of_reduced_word(word, c) for word in (spec.u_word, spec.v_word, spec.w_word))
        space.check_reps(u=u, v=v, w=w)
        (value,) = space.constants([(u, v, w)])
        report["record"] = _record(spec.u_word, spec.v_word, spec.w_word, value)
    elif spec.show_matrix:
        if spec.w_word is None:
            raise ValueError("--show-matrix needs --w")
        element_of_reduced_word(spec.w_word, c)
    # The --w letters are checked by now; the matrix and working shown are
    # those of the caller's word, whose constant is the one computed.
    if spec.show_matrix:
        report["relative_matrix"] = relative_matrix_of_letters(spec.w_word, c).as_lists()
    if spec.verbose:
        report["detail"] = _working(spec.w_word, u, v, c)
    if spec.mode in ("inspect", "constant"):
        return report

    if spec.mode == "expand":
        u, v = element_of_reduced_word(spec.u_word, c), element_of_reduced_word(spec.v_word, c)
        d1, d2 = u.length, v.length
        space.check_reps(u=u, v=v)
        pairs = [(u, v)]
        report["u"] = weyl.element_to_dict(u, c)
        report["v"] = weyl.element_to_dict(v, c)
    else:
        d1, d2 = spec.table_degrees
        if d1 < 0 or d2 < 0:
            raise ValueError("degree levels must be non-negative")
        pairs = [(x, y) for x in space.level(d1) for y in space.level(d2)]
        report["degrees"] = [d1, d2]
    report["records"] = _expansion_records(space, pairs, spec.include_zeros)
    report["evaluation"] = space.evaluation(d1, d2)
    return report


def _working(letters, u, v, c) -> dict:
    """The working of a^w_{u,v} on the caller's reduced word of w: its
    relative matrix, and for u and for v the solutions and the subword
    sum, one {exponents, coefficient} record per monomial in exponent order."""
    working = {"w_word": list(letters), "relative_matrix": relative_matrix_of_letters(letters, c).as_lists()}
    for name, x in (("u", u), ("v", v)):
        masks = schubert._solutions(letters, x, c)
        working[f"{name}_solutions"] = [list(L) for L in schubert._positions(masks)]
        exponents = sorted([m >> i & 1 for i in range(len(letters))] for m in masks)
        working[f"{name}_sum"] = [{"exponents": e, "coefficient": 1} for e in exponents]
    return working


def _expansion_records(space, pairs, include_zeros: bool) -> list[dict]:
    """Records of every pair's expansion over the representatives of its
    degree, pair by pair, each in canonical order."""
    return [
        _record(space.word(t.u), space.word(t.v), space.word(t.w), t.value)
        for t in space.expand(pairs, include_zeros)
    ]


# -- rendering -----------------------------------------------------------


def _class_name(word) -> str:
    return "P[e]" if not word else f"P[{weyl.format_word(word)}]"


def _sum_string(records) -> str:
    # Zero records only reach here under --include-zeros; keep them so the
    # text and JSON renderings carry identical numeric content.
    parts = [
        ("" if rec["value"] == 1 else f"{rec['value']}*") + _class_name(rec["w_word"])
        for rec in records
    ]
    return " + ".join(parts) if parts else "0"


def render_text(report: dict) -> str:
    lines = []
    if "matrix_echo" in report:
        lines.append(json.dumps(report["matrix_echo"], separators=(",", ":")))
    if "relative_matrix" in report:
        lines.append(json.dumps(report["relative_matrix"], separators=(",", ":")))
    mode = report["mode"]
    if mode == "selftest":
        for check in report["checks"]:
            suffix = f": {check['detail']}" if check["detail"] else ""
            lines.append(f"{'PASS' if check['passed'] else 'FAIL'} {check['name']}{suffix}")
    elif mode == "constant":
        if "detail" in report:
            d = report["detail"]
            lines.append(f"w word: {weyl.format_word(d['w_word'])}")
            lines.append("relative matrix:")
            for row in d["relative_matrix"]:
                lines.append("  " + " ".join(f"{x:3d}" for x in row))
            lines.append(
                "u solutions: " + (", ".join(str(tuple(s)) for s in d["u_solutions"]) or "(none)")
            )
            lines.append(
                "v solutions: " + (", ".join(str(tuple(s)) for s in d["v_solutions"]) or "(none)")
            )
        lines.append(str(report["record"]["value"]))
    elif mode == "expand":
        rec0 = report["records"]
        lhs = f"{_class_name(report['u']['word'])} * {_class_name(report['v']['word'])}"
        lines.append(f"{lhs} = {_sum_string(rec0)}")
    elif mode == "table":
        grouped: dict[tuple, list] = {}
        for rec in report["records"]:
            grouped.setdefault((tuple(rec["u_word"]), tuple(rec["v_word"])), []).append(rec)
        if grouped:
            width = max(
                len(f"{_class_name(u)} * {_class_name(v)}") for (u, v) in grouped
            )
            for (u_word, v_word), recs in grouped.items():
                lhs = f"{_class_name(u_word)} * {_class_name(v_word)}"
                lines.append(f"{lhs.ljust(width)} = {_sum_string(recs)}")
        else:
            lines.append("(empty table)")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = job_from_args(args)
        report = run(spec)
    except (GroupTooLarge, NegativeConstant) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # Its message is usually empty.
        print("error: out of memory", file=sys.stderr)
        return 2
    except (SchubertError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.as_json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            text = render_text(report)
            if text:
                print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone: send what is still buffered to devnull, so
        # the flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 3 if any(not check["passed"] for check in report.get("checks", ())) else 0


if __name__ == "__main__":
    sys.exit(main())
