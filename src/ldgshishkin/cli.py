"""Command-line driver for convergence sweeps and projection studies.

Exit codes: 0 when every row succeeded, 2 when any row failed (the table
is still emitted), 1 on configuration or I/O errors.
"""

import argparse
import sys

from .errors import ConfigurationError
from .harness import FORMATS, NORMS, STUDIES, SweepConfig, emit_table, run_sweep

_CONFIG_KEYS = {
    "dim", "problem", "k", "n", "eps", "sigma", "quad-order", "norm",
    "out", "format", "study", "workers",
}


class _Parser(argparse.ArgumentParser):
    """Reports bad flags and values as ConfigurationError (exit 1): argparse's
    own exit status 2 would read as "a row failed"."""

    def error(self, message):
        raise ConfigurationError(message)


def _config_flags(path):
    """The flags a key=value config file stands for, one ``--key=value`` each."""
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected key=value, got {raw.strip()!r}"
                )
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
            flags.append(f"--{key}={value}")
    return flags


def _list_of(convert, kind):
    """An argparse type: a comma-separated list of ``convert`` values as a tuple."""

    def parse(text):
        try:
            return tuple(convert(part) for part in text.split(",") if part.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated {kind} list, got {text!r}") from None

    return parse


_int_list, _float_list = _list_of(int, "integer"), _list_of(float, "float")


def build_parser():
    """Every option but --config has a ``SweepConfig`` field as its dest and
    no default, so the values that were set are that config's arguments."""
    parser = _Parser(
        prog="ldgshishkin",
        description="LDG convergence studies for singularly perturbed "
                    "reaction-diffusion problems on Shishkin meshes.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--config", help="key=value file; explicit flags override it")
    parser.add_argument("--dim", type=int, choices=(1, 2))
    parser.add_argument("--problem", help="problem key (paper1d, poly1d, manufactured2d)")
    parser.add_argument("--k", dest="k_list", metavar="K", type=_int_list,
                        help="comma list of polynomial degrees, e.g. 1,2,3")
    parser.add_argument("--n", dest="n_list", metavar="N", type=_int_list,
                        help="comma list of doubling mesh sizes, e.g. 32,64,128")
    parser.add_argument("--eps", dest="eps_list", metavar="EPS", type=_float_list,
                        help="comma list of perturbation parameters")
    parser.add_argument("--sigma", type=float, help="mesh constant; unset means k+1 per k")
    parser.add_argument("--quad-order", dest="quad_order", type=int,
                        help="quadrature points per cell for error integrals and "
                             "projections, 1 to 64 (projections: at least k+1)")
    parser.add_argument("--norm", choices=NORMS)
    parser.add_argument("--out", help="output path ('-' for stdout)")
    parser.add_argument("--format", dest="fmt", choices=tuple(FORMATS))
    parser.add_argument("--study", choices=STUDIES)
    parser.add_argument("--workers", type=int)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        values = vars(parser.parse_args(argv))
        if "config" in values:
            # the file's flags come first, so explicit flags override them
            values = vars(parser.parse_args(_config_flags(values["config"]) + argv))
        values.pop("config", None)
        cfg = SweepConfig(**values)
        table = run_sweep(cfg)
        text = emit_table(table, fmt=cfg.fmt, out=cfg.out)
        if cfg.out in (None, "-"):
            sys.stdout.write(text)
        for row in table.rows:
            if row.failed:
                print(
                    f"row k={row.k} N={row.N} eps={row.eps:g} failed: {row.message}",
                    file=sys.stderr,
                )
        return 2 if table.any_failed else 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
