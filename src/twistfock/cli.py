"""Command-line front end.

Subcommands: derivation-coefficient tables (``ajcoeffs``), coordinate-change
expansions (``delta-apply``), graded dimensions (``char``), truncated twisted
modules (``twist-build``), and the verification suite (``verify``).  Every
output is a pure function of the run configuration: exact fractions, stable
row order, no timestamps — rerunning a command reproduces its output byte
for byte.  A ``--decimal`` flag renders floating approximations, each marked
with a leading ``~``.

The subcommand parsers are the one table of options: each option's type,
default and choices are stated once, in its ``add_argument``, and
``verify``'s defaults are those of `verify.SuiteConfig`.  A config-file
entry ``key=value`` is the flag ``--key value``, with ``_`` for ``-`` in
the key, read by the flag's own type and checked against its choices.
"""

from __future__ import annotations

import argparse
import json
import sys

from .scalars import QQ, CycScalar, complex_embedding, require_order, scalar_str
from .formal import Window
from .fermion import NS, OMEGA, PSI, VACUUM, R, State, _level2
from .deltak import (
    FORWARD,
    INVERSE,
    MAX_CONJUGATION_DEPTH,
    apply_delta,
    solve_aj,
)
from .twist import TwistedModuleView
from .verify import (
    MAX_WEIGHT,
    SuiteConfig,
    parse_bool,
    parse_rational,
    run_suite,
    suite_json,
    suite_passed,
    suite_table,
)

FORMATS = ("json", "csv", "table")


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def parse_config_file(text: str) -> dict:
    """Parse the simple key=value format: one pair per line, blank lines and
    ``#`` comments skipped, values kept as strings."""
    mapping = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {ln} is not key=value: {line!r}")
        key, _, raw = stripped.partition("=")
        mapping[key.strip()] = raw.strip()
    return mapping


def _config_from_namespace(args: argparse.Namespace, options: dict):
    """The run configuration: the flags, overridden by the entries of the
    config file if one is given, and checked (k >= 1, each entry among its
    flag's choices); the library refuses a bad cutoff, depth or weight
    before any work.  ``options`` maps each config key of the subcommand to
    its flag's action (``build_parser``), whose type reads the entry:
    ``parse_bool`` for an on/off flag."""
    entries = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            entries = parse_config_file(handle.read())
    for key, raw in entries.items():
        action = options.get(key)
        if action is None:
            raise ValueError(
                f"config key {key!r} does not apply to this subcommand"
            )
        read = action.type or (parse_bool if action.nargs == 0 else str)
        try:
            setattr(args, action.dest, read(raw))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    require_order(args.k)
    for key in entries:
        choices, value = options[key].choices, getattr(args, options[key].dest)
        if choices is not None and value not in choices:
            raise ValueError(
                f"{key} must be one of {', '.join(choices)}, got {value!r}"
            )
    return args


# ---------------------------------------------------------------------------
# value and table rendering
# ---------------------------------------------------------------------------


def _value(x, decimal: bool) -> str:
    """Exact value by default; ``~``-marked float with --decimal.

    A cyclotomic scalar is shown by the real part of its complex embedding.
    Display only: no computed value is ever taken from the float.
    """
    if not decimal:
        return scalar_str(x)
    if isinstance(x, CycScalar):
        return f"~{complex_embedding(x).real!r}"
    return f"~{float(QQ(x))!r}"


def _render_table(header, rows) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    out = [line(header), line(tuple("-" * w for w in widths))]
    out.extend(line(row) for row in rows)
    return "\n".join(out) + "\n"


def _render_rows(fmt: str, header, rows, json_payload) -> str:
    if fmt == "json":
        return json.dumps(json_payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return "".join(
            ",".join(f'"{c}"' if "," in c else c for c in line) + "\n"
            for line in (header, *rows)
        )
    return _render_table(header, rows)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# state descriptions
# ---------------------------------------------------------------------------

_NAMED_STATES = {
    "vacuum": VACUUM,
    "1": VACUUM,
    "psi": PSI,
    "omega": OMEGA,
}


def parse_state(text: str) -> State:
    """A named generator (vacuum/1/psi/omega) or a comma-separated strictly
    increasing list of negative half-odd mode indices, e.g. ``-3/2,-1/2``.
    Each index is read by `parse_rational` and the word is encoded once
    into its doubled word by `NS.check_word`, which checks every index, so
    the state is built as the basis word with coefficient 1 without
    checking it again."""
    name = text.strip().lower()
    if name in _NAMED_STATES:
        return _NAMED_STATES[name]
    indices = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ValueError(f"empty mode index in state {text!r}")
        try:
            indices.append(parse_rational(part))
        except ValueError as exc:
            raise ValueError(f"bad mode index {part!r} in state") from exc
    return State._of(1, ((NS.check_word(indices), 1),))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ajcoeffs(cfg: argparse.Namespace) -> int:
    table = solve_aj(cfg.k, cfg.depth)
    rows = [
        (str(j), _value(value, cfg.decimal)) for j, value in table.rows()
    ]
    payload = {
        "k": cfg.k,
        "depth": cfg.depth,
        "rows": [{"j": int(j), "a": a} for j, a in rows],
    }
    _emit(_render_rows(cfg.fmt, ("j", "a_j"), rows, payload), cfg.out)
    return 0


def cmd_delta_apply(cfg: argparse.Namespace) -> int:
    """The coordinate change of one state, one row per kept piece: its
    weight drop j, its exponent and its state.  Every piece of the
    homogeneous input is homogeneous, and a piece that cancels is left
    out, so j is the level difference of the input and the piece, read on
    the doubled int levels."""
    state = parse_state(cfg.state)
    level2 = _level2(state)
    direction = INVERSE if cfg.inverse else FORWARD
    window = Window({"x": (cfg.lo, cfg.hi)})
    expansion = apply_delta(cfg.k, state, direction)
    rows = []
    json_pieces = []
    for exponent, piece in expansion.pieces:
        if not window.contains("x", exponent):
            continue
        j = str((level2 - _level2(piece)) // 2)
        rendered = piece.render()
        shown = _value(exponent, cfg.decimal)
        rows.append((j, shown, rendered))
        json_pieces.append({"j": j, "exponent": shown, "state": rendered})
    payload = {
        "k": cfg.k,
        "direction": direction,
        "input": state.render(),
        "weight": scalar_str(QQ(level2, 2)),
        "prefactor": _value(expansion.prefactor, cfg.decimal),
        "pieces": json_pieces,
    }
    _emit(_render_rows(cfg.fmt, ("j", "exponent", "state"), rows, payload), cfg.out)
    return 0


def cmd_char(cfg: argparse.Namespace) -> int:
    view = TwistedModuleView(cfg.k, cfg.cutoff)
    series = view.graded_dimension()
    rows = []
    for n, coeff in enumerate(series.coeffs):
        rows.append((_value(series.weight(n), cfg.decimal), str(int(coeff))))
    payload = {
        "k": cfg.k,
        "cutoff": cfg.cutoff,
        "offset": _value(series.offset, cfg.decimal),
        "step": _value(series.step, cfg.decimal),
        "terms": [{"exponent": e, "dim": int(d)} for e, d in rows],
    }
    _emit(_render_rows(cfg.fmt, ("exponent", "dimension"), rows, payload), cfg.out)
    return 0


def cmd_twist_build(cfg: argparse.Namespace) -> int:
    view = TwistedModuleView(cfg.k, cfg.cutoff)
    rows = []
    for word in view.basis():
        rows.append(
            (
                R.format_word(word),
                _value(view.sigma_weight(word), cfg.decimal),
                _value(view.t_grade(word), cfg.decimal),
                _value(view.expected_twisted_weight(word), cfg.decimal),
            )
        )
    payload = {
        "k": cfg.k,
        "cutoff": cfg.cutoff,
        "weight_constant": _value(view.weight_constant(), cfg.decimal),
        "basis": [
            {
                "word": w,
                "sigma_weight": sw,
                "grade": g,
                "twisted_weight": tw,
            }
            for w, sw, g, tw in rows
        ],
    }
    header = ("word", "sigma_weight", "grade", "twisted_weight")
    _emit(_render_rows(cfg.fmt, header, rows, payload), cfg.out)
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    suite_cfg = SuiteConfig(*[getattr(cfg, f) for f in SuiteConfig._fields])
    reports = run_suite(suite_cfg)
    if cfg.fmt == "json":
        text = suite_json(reports)
    elif cfg.fmt == "csv":
        header = (
            "check",
            "k",
            "window",
            "compared",
            "mismatches",
            "verdict",
            "expected",
            "as_expected",
        )
        rows = [
            (
                r.name,
                str(int(r.k)),
                r.window,
                str(int(r.compared)),
                str(len(r.mismatches)),
                r.verdict,
                r.expected_verdict,
                str(r.as_expected).lower(),
            )
            for r in reports
        ]
        text = _render_rows("csv", header, rows, None)
    else:
        text = suite_table(reports)
    _emit(text, cfg.out)
    return 0 if suite_passed(reports, strict=not cfg.expect_obstruction) else 1


_COMMANDS = {
    "ajcoeffs": cmd_ajcoeffs,
    "delta-apply": cmd_delta_apply,
    "char": cmd_char,
    "twist-build": cmd_twist_build,
    "verify": cmd_verify,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, *, default_format: str) -> list:
    """Add the options every subcommand takes; return the actions of those
    that are config keys, all but --config."""
    keyed = [
        parser.add_argument("--k", type=int, default=2, help="tensor order (>= 1)"),
        parser.add_argument("--format", dest="fmt", choices=FORMATS,
                            default=default_format,
                            help="output format (default: %(default)s)"),
        parser.add_argument("--out", default=None, help="output path (default: stdout)"),
    ]
    parser.add_argument(
        "--config",
        default=None,
        help="key=value file whose entries override the flags",
    )
    keyed.append(parser.add_argument(
        "--decimal",
        action="store_true",
        help="render ~-marked floating approximations instead of fractions",
    ))
    return keyed


def _argument_type(parse):
    """An argparse ``type`` that reports the reason a value was refused.

    argparse turns a plain ValueError into "invalid <function> value";
    re-raising it as ArgumentTypeError prints the parser's own message.
    """

    def convert(raw):
        try:
            return parse(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_RATIONAL_ARG = _argument_type(parse_rational)
_BOOL_ARG = _argument_type(parse_bool)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand: the one table of options.

    It carries two tables derived from its actions, once.  ``config_keys``
    maps each subcommand to its config keys, each a flag's name without its
    dashes and with ``_`` for ``-``, mapped to the flag's action.
    ``signed_flags`` holds the flags among them that take a value, which may
    start with "-": a number (--lo -1/3) or a mode word (--state -3/2,-1/2).
    """
    parser = argparse.ArgumentParser(
        prog="twistfock",
        description=(
            "Exact computations in the cyclic-twist correspondence for the "
            "free-fermion tensor power: derivation coefficients, "
            "coordinate-change expansions, twisted modules, characters, and "
            "the verification suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {}

    p = sub.add_parser(
        "ajcoeffs", help="derivation coefficient table a_1..a_depth"
    )
    options["ajcoeffs"] = _add_common(p, default_format="csv") + [
        p.add_argument(
            "--depth", type=int, default=4, help="number of coefficients"
        ),
    ]

    p = sub.add_parser(
        "delta-apply", help="apply the coordinate-change operator to a state"
    )
    options["delta-apply"] = _add_common(p, default_format="json") + [
        p.add_argument(
            "--state",
            default="psi",
            help="vacuum|1|psi|omega or mode indices, e.g. -3/2,-1/2",
        ),
        p.add_argument(
            "--inverse", action="store_true", help="apply the inverse direction"
        ),
        p.add_argument("--lo", type=_RATIONAL_ARG, default=None,
                       help="keep exponents >= lo"),
        p.add_argument("--hi", type=_RATIONAL_ARG, default=None,
                       help="keep exponents <= hi"),
    ]

    p = sub.add_parser(
        "char", help="graded dimension of the truncated twisted module"
    )
    options["char"] = _add_common(p, default_format="csv") + [
        p.add_argument(
            "--cutoff", type=int, default=7, help="number of graded pieces - 1"
        ),
    ]

    p = sub.add_parser(
        "twist-build", help="basis and weights of the truncated twisted module"
    )
    options["twist-build"] = _add_common(p, default_format="csv") + [
        p.add_argument(
            "--cutoff", type=int, default=4, help="largest included integer level"
        ),
    ]

    p = sub.add_parser("verify", help="run the verification suite")
    options["verify"] = _add_common(p, default_format="table") + [
        p.add_argument("--cutoff", type=int, help="character graded pieces"),
        p.add_argument(
            "--depth",
            type=int,
            help=f"conjugation expansion depth (at most {MAX_CONJUGATION_DEPTH})",
        ),
        p.add_argument(
            "--radius",
            type=_RATIONAL_ARG,
            help="exponent window radius (rational, e.g. 3/2)",
        ),
        p.add_argument(
            "--domain-level",
            dest="domain_level",
            type=_RATIONAL_ARG,
            help="largest twisted-module level acted on (rational)",
        ),
        p.add_argument(
            "--weight",
            type=_RATIONAL_ARG,
            help=("largest untwisted weight fed to coordinate-change checks "
                  f"(rational, at most {MAX_WEIGHT}, where k=2 takes about 2 s; "
                  "the time doubles about every two units)"),
        ),
        p.add_argument(
            "--jacobi",
            type=_BOOL_ARG,
            metavar="BOOL",
            help="include the three-variable kernel identity "
                 "(default: %(default)s)",
        ),
        p.add_argument(
            "--expect-obstruction",
            dest="expect_obstruction",
            action="store_true",
            help=(
                "succeed when every check matches its expected verdict, "
                "counting the odd-order obstruction's expected failure as success"
            ),
        ),
    ]
    # the suite's own defaults, --k's too; set after the actions exist, so
    # they replace the action defaults
    p.set_defaults(**SuiteConfig()._asdict())

    parser.config_keys = {
        command: {action.option_strings[0][2:].replace("-", "_"): action
                  for action in actions}
        for command, actions in options.items()
    }
    parser.signed_flags = frozenset(
        action.option_strings[0]
        for actions in options.values() for action in actions
        if action.nargs != 0
    )
    return parser


# The parser of this process, with the ``build_parser`` it came from: main
# builds it once through the module name and reuses it, and builds it again
# only when that name is rebound (a tracer or a test wrapping it).
_parser = (None, None)


def _shared_parser() -> argparse.ArgumentParser:
    global _parser
    source, parser = _parser
    if source is not build_parser:
        parser = build_parser()
        _parser = (build_parser, parser)
    return parser


def _join_signed_values(argv, signed_flags) -> list:
    """argv with each negative value of a flag in ``signed_flags`` joined to
    the flag by "=": argparse reads such a token as an option unless it is a
    plain number."""
    out = []
    for arg in argv:
        if out and out[-1] in signed_flags and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _shared_parser()
    args = parser.parse_args(_join_signed_values(argv, parser.signed_flags))
    try:
        cfg = _config_from_namespace(args, parser.config_keys[args.command])
        return _COMMANDS[cfg.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
