"""Command-line driver for convergence sweeps and projection studies.

Exit codes: 0 when every row succeeded, 2 when any row failed (the table
is still emitted), 1 on configuration or I/O errors.
"""

import argparse
import sys

from .errors import ConfigurationError
from .harness import SweepConfig, emit_table, run_sweep

_CONFIG_KEYS = {
    "dim", "problem", "k", "n", "eps", "sigma", "quad-order", "norm",
    "out", "format", "study", "workers",
}


def _parse_config_file(path):
    values = {}
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
            values[key] = value
    return values


def _int_list(text):
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigurationError(f"expected a comma-separated integer list, got {text!r}") from exc


def _float_list(text):
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigurationError(f"expected a comma-separated float list, got {text!r}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ldgshishkin",
        description="LDG convergence studies for singularly perturbed "
                    "reaction-diffusion problems on Shishkin meshes.",
    )
    parser.add_argument("--config", help="key=value file; explicit flags override it")
    parser.add_argument("--dim", type=int, choices=(1, 2))
    parser.add_argument("--problem", help="problem key (paper1d, poly1d, manufactured2d)")
    parser.add_argument("--k", help="comma list of polynomial degrees, e.g. 1,2,3")
    parser.add_argument("--n", help="comma list of doubling mesh sizes, e.g. 32,64,128")
    parser.add_argument("--eps", help="comma list of perturbation parameters")
    parser.add_argument("--sigma", type=float, help="mesh constant; default k+1 per k")
    parser.add_argument("--quad-order", dest="quad_order", type=int,
                        help="quadrature points per cell for error integrals")
    parser.add_argument("--norm", choices=("energy", "balanced", "both"))
    parser.add_argument("--out", help="output path ('-' for stdout)")
    parser.add_argument("--format", dest="fmt", choices=("csv", "markdown"))
    parser.add_argument("--study", choices=("solve", "projection"))
    parser.add_argument("--workers", type=int)
    return parser


def _merge(args, config_values):
    """Resolve each option: explicit flag, then config file, then default."""

    def pick(flag, key, default, convert=lambda v: v):
        val = getattr(args, flag)
        if val is not None:
            return val
        if key in config_values:
            return convert(config_values[key])
        return default

    dim = pick("dim", "dim", 1, int)
    problem_default = "paper1d" if dim == 1 else "manufactured2d"
    return SweepConfig(
        dim=dim,
        problem=pick("problem", "problem", problem_default, str),
        k_list=pick("k", "k", (1,), _int_list),
        n_list=pick("n", "n", (32, 64, 128), _int_list),
        eps_list=pick("eps", "eps", (1e-4, 1e-6, 1e-8, 1e-10, 1e-12), _float_list),
        sigma=pick("sigma", "sigma", None, float),
        quad_order=pick("quad_order", "quad-order", None, int),
        norm=pick("norm", "norm", "both", str),
        out=pick("out", "out", None, str),
        fmt=pick("fmt", "format", "csv", str),
        study=pick("study", "study", "solve", str),
        workers=pick("workers", "workers", 1, int),
    )


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config_values = _parse_config_file(args.config) if args.config else {}
        # string-valued flags arrive as text and need list conversion
        if args.k is not None:
            args.k = _int_list(args.k)
        if args.n is not None:
            args.n = _int_list(args.n)
        if args.eps is not None:
            args.eps = _float_list(args.eps)
        cfg = _merge(args, config_values)
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
