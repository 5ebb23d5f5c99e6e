"""Command-line front end.

Subcommands: ``generate`` (synthetic series), ``monitor`` (batch CSV or a
line-delimited stdin stream), ``calibrate`` (normed-ARL tables),
``coverage`` (interval coverage experiments), ``table1`` (limit-variance
grid over kernels and zeta), ``optkernel`` (optimal delay and kernel).

Every command is deterministic given --seed; without one a seed is drawn
from entropy and echoed.  A flat ``key = value`` config file supplies
defaults (flags win, the DRIFTWATCH_SEED environment variable is the
last-resort seed default).  Exit codes: 0 normal / no alarm, 3 alarm,
2 usage error or bad input: any ValueError (DriftwatchError included) or
OSError a command raises becomes one ``Error:`` line on stderr.
"""

from __future__ import annotations

import json
import os
import secrets
import sys

import click
import numpy as np

from . import calibration, kernels, limitsim, monitor, optkernel, seriesgen
from .estimator import SCALINGS, SmootherConfig

EXIT_ALARM = 3


def _parse_config(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: bad config line (need key = value): {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve_seed(ctx: click.Context, seed: int | None) -> int:
    if seed is None:
        cfg = (ctx.obj or {}).get("config", {})
        if "seed" in cfg:
            seed = int(cfg["seed"])
    if seed is None and os.environ.get("DRIFTWATCH_SEED"):
        seed = int(os.environ["DRIFTWATCH_SEED"])
    if seed is None:
        seed = secrets.randbits(63)
    click.echo(f"seed = {seed}", err=True)
    return seed


def _named_or_csv(name: str, by_name, load_csv):
    """A built-in by name (built-ins win over files), else a CSV at that path."""
    try:
        return by_name(name)
    except ValueError:
        if not os.path.exists(name):
            raise
    return load_csv(name)


def _kernel_arg(name: str) -> kernels.KernelSpec:
    return _named_or_csv(name, kernels.kernel_by_name, kernels.load_kernel_csv)


def _m0_arg(name: str) -> seriesgen.GenericAlternative:
    return _named_or_csv(name, seriesgen.alternative_by_name, seriesgen.load_alternative_csv)


class _BadInputExits2(click.Group):
    """The one exit-2 boundary for bad input raised anywhere below the group."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            click.echo(f"Error: {exc}", err=True)
            ctx.exit(2)


@click.group(cls=_BadInputExits2)
@click.option("--config", type=click.Path(dir_okay=False), default=None,
              help="Flat 'key = value' defaults file (flags override).")
@click.pass_context
def main(ctx, config):
    """Sequential drift monitoring for random walks: generate, monitor, calibrate."""
    cfg = {}
    if config is not None:
        cfg = _parse_config(config)
    ctx.obj = {"config": cfg}
    ctx.default_map = {name: cfg for name in main.commands}


_innovation_options = [
    click.option("--family", type=click.Choice(["iid_normal", "ar1", "garch11"]),
                 default="iid_normal", show_default=True),
    click.option("--sigma", type=float, default=1.0, show_default=True),
    click.option("--ar-a", type=float, default=None, help="AR(1) coefficient, |a| < 1."),
    click.option("--garch-alpha0", type=float, default=None),
    click.option("--garch-alpha1", type=float, default=None),
    click.option("--garch-beta1", type=float, default=None),
]


def _add(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


@main.command()
@click.option("--n", "n_obs", type=int, required=True, help="Series length N.")
@_add(_innovation_options)
@click.option("--m0", default="zero", show_default=True,
              help="Drift shape: zero|step|ramp or a t,m0 CSV path.")
@click.option("--beta", type=float, default=0.0, show_default=True)
@click.option("--cp1", type=int, default=None, help="Change point as a fixed index q.")
@click.option("--cp2", type=float, default=None, help="Change point as a fraction of N.")
@click.option("--h-link", type=float, default=None,
              help="Bandwidth linking the drift rescaling (required with a drift).")
@click.option("--design-gamma", type=float, default=None,
              help="Power time design F^{-1}(u) = u^(1/gamma).")
@click.option("--design-mode", type=click.Choice(["rolling", "fixed"]), default="fixed",
              show_default=True)
@click.option("--snap", type=float, default=None, help="Finest time-grid spacing to snap to.")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(dir_okay=False), default="series.csv", show_default=True)
@click.pass_context
def generate(ctx, n_obs, family, sigma, ar_a, garch_alpha0, garch_alpha1, garch_beta1,
             m0, beta, cp1, cp2, h_link, design_gamma, design_mode, snap, seed, out):
    """Generate a synthetic series and write it as a t,y CSV."""
    seed = _resolve_seed(ctx, seed)
    inno = seriesgen.InnovationSpec(family, sigma, ar_a, garch_alpha0, garch_alpha1, garch_beta1)
    alternative = _m0_arg(m0)
    drift = None
    if alternative.name != "zero":
        if cp1 is None and cp2 is None:
            raise click.UsageError("a drift needs --cp1 q or --cp2 theta")
        if cp1 is not None and cp2 is not None:
            raise click.UsageError("--cp1 and --cp2 are mutually exclusive")
        if h_link is None:
            raise click.UsageError("a drift needs --h-link (the rescaling bandwidth)")
        drift = seriesgen.DriftSpec(
            m0=alternative, beta=beta,
            cp_model="cp1" if cp1 is not None else "cp2",
            q=cp1, theta=cp2, h_link=h_link,
        )
    design = None
    if design_gamma is not None or snap is not None:
        design = seriesgen.TimeDesign(gamma=design_gamma if design_gamma is not None else 1.0,
                                      mode=design_mode, snap_grid=snap)
    series = seriesgen.generate(
        seriesgen.SeriesSpec(N=n_obs, innovations=inno, drift=drift, design=design), seed
    )
    seriesgen.save_series_csv(series, out)
    click.echo(f"wrote {n_obs} rows to {out}", err=True)


def _stream_records(fh):
    for raw in fh:
        line = raw.strip()
        if not line or line.startswith("t,"):
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise ValueError(f"bad stream record {line!r} (need t,y)")
        yield float(parts[0]), float(parts[1])


@main.command("monitor")
@click.option("--input", "input_path", default="-", show_default=True,
              help="Series CSV path, or '-' to stream t,y records from stdin.")
@click.option("--h", type=float, required=True, help="Smoothing bandwidth.")
@click.option("--kernel", default="gaussian", show_default=True)
@click.option("--scaling", type=click.Choice(SCALINGS), default="null_scale", show_default=True)
@click.option("--threshold", "-c", type=float, required=True)
@click.option("--start-fraction", type=float, default=0.0, show_default=True)
@click.option("--variance", type=click.Choice(["naive", "gasser", "rice"]), default=None,
              help="Standardize by this prequential variance estimate.")
@click.option("--prerun", type=click.Path(dir_okay=False), default=None,
              help="t,y CSV of a prerun segment seeding the variance estimator.")
@click.option("--horizon", type=int, default=None,
              help="Truncation horizon N (defaults to the series length in batch mode).")
@click.pass_context
def monitor_cmd(ctx, input_path, h, kernel, scaling, threshold, start_fraction,
                variance, prerun, horizon):
    """Run the truncated stopping rule; exit 3 on alarm, 0 on truncation."""
    k = _kernel_arg(kernel)
    pre = seriesgen.load_series_csv(prerun) if prerun is not None else None
    smoother = SmootherConfig(kernel=k, h=h, scaling=scaling)

    if input_path == "-":
        if horizon is None:
            raise click.UsageError("streaming mode needs --horizon")
        cfg = monitor.MonitorConfig(smoother=smoother, threshold=threshold, N=horizon,
                                    start_fraction=start_fraction, variance_method=variance)
        stream = monitor.StreamMonitor(cfg, prerun=pre)
        for t, y in _stream_records(sys.stdin):
            record = stream.update(t, y)
            if record is not None:
                click.echo(monitor.format_record(record))
                ctx.exit(EXIT_ALARM)
            if stream.n >= horizon:
                break
        click.echo(monitor.format_record(stream.truncation_record()))
        ctx.exit(0)

    series = seriesgen.load_series_csv(input_path)
    N = horizon if horizon is not None else len(series)
    cfg = monitor.MonitorConfig(smoother=smoother, threshold=threshold, N=N,
                                start_fraction=start_fraction, variance_method=variance)
    result = monitor.run_monitor(series, cfg, prerun=pre)
    stat = result.trajectory[result.alarm_index - 1]
    record = {
        "alarmed": result.alarmed,
        "index": result.alarm_index,
        "time": float(series.times[result.alarm_index - 1]),
        "statistic": None if not np.isfinite(stat) else float(stat),
        "threshold": threshold,
        "normed_time": result.normed_time,
    }
    click.echo(monitor.format_record(record))
    ctx.exit(EXIT_ALARM if result.alarmed else 0)


def _c_grid(c_min, c_max, c_points):
    if not c_max > c_min:
        raise click.UsageError("--c-max must exceed --c-min")
    return np.linspace(c_min, c_max, c_points)


@main.command()
@click.option("--variant", type=click.Choice(["finite", "limit"]), required=True)
@click.option("--n", "n_obs", type=int, default=None, help="Horizon N (finite variant).")
@click.option("--h", type=float, default=None, help="Bandwidth (finite variant).")
@click.option("--zeta", type=float, default=None, help="Horizon/bandwidth ratio (limit variant).")
@click.option("--grid-m", type=int, default=2048, show_default=True)
@click.option("--kernel", default="gaussian", show_default=True)
@click.option("--c-min", type=float, required=True)
@click.option("--c-max", type=float, required=True)
@click.option("--c-points", type=int, default=20, show_default=True)
@click.option("--reps", type=int, default=2000, show_default=True)
@click.option("--variance", type=click.Choice(["naive", "gasser", "rice"]), default=None)
@_add(_innovation_options)
@click.option("--seed", type=int, default=None)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default="arl.csv", show_default=True)
@click.pass_context
def calibrate(ctx, variant, n_obs, h, zeta, grid_m, kernel, c_min, c_max, c_points, reps,
              variance, family, sigma, ar_a, garch_alpha0, garch_alpha1, garch_beta1,
              seed, jobs, out):
    """Simulate a normed-ARL curve and write it as a c,normed_arl CSV."""
    seed = _resolve_seed(ctx, seed)
    k = _kernel_arg(kernel)
    grid = _c_grid(c_min, c_max, c_points)
    if variant == "finite":
        if n_obs is None or h is None:
            raise click.UsageError("finite variant needs --n and --h")
        inno = seriesgen.InnovationSpec(family, sigma, ar_a, garch_alpha0, garch_alpha1, garch_beta1)
        var = calibration.FiniteSampleVariant(N=n_obs, h=h, innovations=inno,
                                              variance_method=variance)
    else:
        if zeta is None:
            raise click.UsageError("limit variant needs --zeta")
        var = limitsim.LimitConfig(zeta=zeta, kernel=k, grid_M=grid_m)
    table = calibration.arl_curve(var, k, grid, reps, seed, jobs=jobs)
    with open(out, "w", newline="") as fh:
        fh.write("c,normed_arl\n")
        for c, a in zip(table.thresholds, table.normed_arl):
            fh.write(f"{float(c)!r},{float(a)!r}\n")
    click.echo(f"wrote {len(grid)} rows to {out}", err=True)


@main.command()
@click.option("--zeta", type=click.FloatRange(min=1.0), required=True)
@click.option("--n", "n_obs", type=int, required=True)
@click.option("--h", type=float, default=None,
              help="Bandwidth; defaults to round(N / zeta).")
@click.option("--kernel", default="gaussian", show_default=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--reps", type=int, default=2000, show_default=True)
@click.option("--variance", type=click.Choice(["naive", "gasser", "rice", "known"]),
              default="naive", show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Also append the JSON record to this file.")
@click.pass_context
def coverage(ctx, zeta, n_obs, h, kernel, alpha, reps, variance, seed, jobs, out):
    """Coverage of the asymptotic interval under the null; prints a JSON record."""
    seed = _resolve_seed(ctx, seed)
    k = _kernel_arg(kernel)
    h = float(round(n_obs / zeta)) if h is None else h
    method = None if variance == "known" else variance
    cov = calibration.coverage_sim(n_obs, h, k, alpha, reps, seed,
                                   variance_method=method, jobs=jobs)
    record = {"zeta": zeta, "N": n_obs, "h": h, "kernel": kernel, "alpha": alpha,
              "reps": reps, "coverage": cov}
    line = json.dumps(record)
    click.echo(line)
    if out is not None:
        with open(out, "a") as fh:
            fh.write(line + "\n")


@main.command()
@click.option("--zetas", default="10,5,4,2,1.5,1.2,1", show_default=True)
@click.option("--kernels", "kernel_names", default="gaussian,laplace,epanechnikov",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default="table1.csv", show_default=True)
def table1(zetas, kernel_names, out):
    """Limit variance at s=1 on a kernels x zeta grid, written as CSV."""
    zs = [float(z) for z in zetas.split(",") if z.strip()]
    names = [n.strip() for n in kernel_names.split(",") if n.strip()]
    rows = []
    for name in names:
        k = _kernel_arg(name)
        cells = [limitsim.sigma_k_sq(limitsim.LimitConfig(zeta=z, kernel=k), 1.0) for z in zs]
        rows.append(name + "," + ",".join(f"{v:.6f}" for v in cells) + "\n")
    with open(out, "w", newline="") as fh:
        fh.write("kernel," + ",".join(f"{z:g}" for z in zs) + "\n")
        fh.writelines(rows)
    click.echo(f"wrote {len(names)}x{len(zs)} grid to {out}", err=True)


@main.command("optkernel")
@click.option("--m0", required=True, help="Drift shape: step|ramp or a t,m0 CSV path.")
@click.option("--zeta", type=float, default=1.0, show_default=True)
@click.option("--c", type=float, required=True, help="Detection threshold.")
@click.option("--t-max", type=float, default=None,
              help="Truncation of the drift shape (defaults to zeta).")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the kernel tabulation as a z,k CSV.")
def optkernel_cmd(m0, zeta, c, t_max, out):
    """Optimal asymptotic normed delay and optimal kernel; prints a JSON record."""
    sol = optkernel.optimal_kernel(_m0_arg(m0), zeta, c, t_max)
    if out is not None:
        optkernel.save_solution_csv(sol, out)
    click.echo(json.dumps({
        "s_star": sol.s_star,
        "zeta": sol.zeta,
        "t_max": sol.t_max,
        "normalizer": sol.normalizer,
        "tabulated_points": len(sol.z),
        "out": out,
    }))


if __name__ == "__main__":
    main()
