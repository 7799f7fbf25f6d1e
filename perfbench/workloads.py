"""The benchmark's workloads: their inputs, one round of each, and the checks
that the round's outputs are right.

A round is the unit a user waits for: one campaign with its report written
to disk, or one CLI ``simulate`` -> ``psd`` -> ``fit-psd`` pass over both
axes.  Rounds of one run repeat the same inputs, drawn from the run's seed.

The checks compare outputs with references computed here, from the physics,
not with stored outputs of the program.  Their tolerances were sized on
seeds outside the benchmark's range (README, "Output checks").
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import hotbrownian as hb
import hotbrownian.cli as cli
import hotbrownian.io as hio
import hotbrownian.pipeline as pipeline

# Weak-heating slope of the centre-of-mass temperature at alpha_c = 1.
K_REFERENCE = math.pi / (math.pi + 8.0)
KAPPA_TRUE = 17.0                        # [K*hPa/mW], configured heating law
ROOM_K = 294.0

# Campaign checks: |pooled K - K_REFERENCE| per axis and the relative
# kappa_heat error.  Thermometry: the acceptance gate's own limits.
K_TOLERANCE = {"campaign_long": 0.20, "campaign_reps": 0.40}
CAMPAIGN_KAPPA_TOLERANCE = 0.01
THERMOMETRY_KAPPA_TOLERANCE = 0.05
STRAIN_WINDOW_K = (-5.0, -3.0)
FQ_TOLERANCE = 0.01

# Base seed per workload; a run uses base + --seed.
BASE_SEED = {"campaign_long": 42, "campaign_reps": 43,
             "thermometry_sweep": 7, "trace_io": 3}

# Trap of the bundled CLI example: label, stiffness coefficient, gain.
AXES = (("x", 2 * math.pi * 1.807e5, 1.0e9), ("y", 2 * math.pi * 1.549e5, 0.8e9))
PARTICLE = hb.ParticleModel(shape=hb.Sphere(radius=500e-9), density=3500.0)
HEATING = hb.HeatingLaw(kappa_heat=KAPPA_TRUE, T0=ROOM_K)


def trap_axes() -> tuple:
    return tuple(hb.TrapAxis(label=label, stiffness_coefficient=k, detection_gain=g)
                 for label, k, g in AXES)


# =============================================================================
# Output checks
# =============================================================================

def check_campaign(report, k_tolerance: float, check_verdict: bool) -> list[str]:
    """Failed checks of a trace campaign (cell errors are counted apart).

    ``check_verdict`` adds the check that both axes are classified thermal.
    """
    problems = []
    estimate = report.estimate
    for label, _, _ in AXES:
        if estimate is None or label not in estimate.k_per_axis:
            problems.append(f"axis {label}: no coupling estimate")
            continue
        k_pooled = estimate.k_per_axis[label][0]
        if not abs(k_pooled - K_REFERENCE) <= k_tolerance:
            problems.append(f"axis {label}: pooled K {k_pooled:.4f} not within "
                            f"{k_tolerance} of pi/(pi+8) = {K_REFERENCE:.4f}")
        verdict = estimate.classification.get(label)
        if check_verdict and verdict != "thermal":
            problems.append(f"axis {label}: classified {verdict!r}, not 'thermal'")
    problems += _check_kappa(report, CAMPAIGN_KAPPA_TOLERANCE)
    return problems


def check_thermometry(report) -> list[str]:
    """Failed checks of a thermometry-only campaign with a ZFS offset."""
    problems = _check_kappa(report, THERMOMETRY_KAPPA_TOLERANCE)
    if report.heating_fit is not None:
        lo, hi = STRAIN_WINDOW_K
        offset = report.heating_fit.strain_offset_K
        if not lo <= offset <= hi:
            problems.append(f"strain offset {offset:.3f} K outside [{lo}, {hi}] K")
    return problems


def _check_kappa(report, tolerance: float) -> list[str]:
    fit = report.heating_fit
    if fit is None:
        return ["no heating-law fit"]
    if not abs(fit.kappa_heat / KAPPA_TRUE - 1.0) <= tolerance:
        return [f"kappa_heat {fit.kappa_heat:.4f} not within {tolerance:.0%} "
                f"of {KAPPA_TRUE}"]
    return []


def check_axis_round_trip(label: str, read_back, reference, fit, expected_fq) -> list[str]:
    """Failed checks of one axis of the CLI trace path.

    ``read_back`` and ``reference`` are the samples read from the trace
    file and those of an in-memory ``simulate_trace``, both None when the
    file was already verified; ``fit`` is the JSON the ``fit-psd`` command
    printed (None if it printed none).
    """
    problems = []
    if reference is not None and (read_back.shape != reference.shape or not np.array_equal(
        read_back.view(np.uint64), reference.view(np.uint64)
    )):
        differ = (np.count_nonzero(read_back != reference)
                  if read_back.shape == reference.shape else "all")
        problems.append(f"axis {label}: {differ} samples read back differ from "
                        "simulate_trace")
    if fit is None:
        problems.append(f"axis {label}: fit-psd printed no fit")
    elif not abs(fit["f_q"] / expected_fq - 1.0) <= FQ_TOLERANCE:
        problems.append(f"axis {label}: fitted f_q {fit['f_q']:.1f} Hz not within "
                        f"{FQ_TOLERANCE:.0%} of {expected_fq:.1f} Hz")
    return problems


# =============================================================================
# Workloads
# =============================================================================

class Campaign:
    """``run_campaign`` followed by ``write_report``; an operation is a cell."""

    def __init__(self, config: hb.CampaignConfig, check, outdir: Path) -> None:
        self.config = config
        # The warm-up keeps the workload's trace length, so that the arrays
        # of the timed rounds have been allocated once before them.
        self.tiny = dataclasses.replace(config, rng_seed=1, repetitions=1, **TINY_GRID)
        self.check_report = check
        self.outdir = outdir
        reps = 1 if config.thermometry_only else config.repetitions
        self.ops = len(config.pressures_hpa) * len(config.laser_powers_mw) * reps

    def warm_up(self) -> None:
        report = pipeline.run_campaign(self.tiny)
        hio.write_report(report, self.outdir / "warm_up")

    def run_round(self):
        report = pipeline.run_campaign(self.config)
        hio.write_report(report, self.outdir / "report")
        return report

    def check(self, report) -> tuple[int, list[str]]:
        """(failed operations, failed-check messages) of one round."""
        problems = self.check_report(report)
        return min(len(report.errors) + len(problems), self.ops), problems

    def close(self) -> None:
        pass


class TraceIO:
    """CLI ``simulate`` -> ``psd`` -> ``fit-psd`` on a CSV trace, in-process.

    An operation is one axis round trip.
    """

    SIM = {"dt_s": 5e-7, "duration_s": 0.5, "laser_power_mw": 100.0,
           "pressure_hpa": 45.0, "alpha_c": 1.0, "molar_mass": 0.02897,
           "room_temperature": ROOM_K,
           "axes": [{"label": a, "stiffness_coefficient": k, "detection_gain": g}
                    for a, k, g in AXES],
           "particle": {"radius_m": 500e-9, "density": 3500.0},
           "heating": {"kappa_heat": KAPPA_TRUE, "T0": ROOM_K}}

    def __init__(self, seed: int, outdir: Path) -> None:
        self.seed = BASE_SEED["trace_io"] + seed
        self.outdir = outdir
        self.ops = len(AXES)
        outdir.mkdir(parents=True, exist_ok=True)
        self.config_path = outdir / "sim.json"
        self.config_path.write_text(json.dumps(self.SIM))
        self.tiny_path = outdir / "sim_warm_up.json"
        self.tiny_path.write_text(json.dumps({**self.SIM, "duration_s": 0.02}))
        self.verified_digest = None

    def _pass(self, config_path: Path, seed: int, stem: str) -> dict:
        """One simulate -> psd -> fit-psd pass; axis -> (exit codes, fit JSON)."""
        trace = self.outdir / f"{stem}.csv"
        code = self._cli(["simulate", "--config", str(config_path),
                          "--seed", str(seed), "--out", str(trace)])[0]
        results = {}
        for label, _, _ in AXES:
            psd = self.outdir / f"{stem}_psd_{label}.csv"
            codes = [code, self._cli(["psd", str(trace), "--axis", label,
                                      "--out", str(psd)])[0]]
            fit_code, printed = self._cli(["fit-psd", str(psd)])
            codes.append(fit_code)
            results[label] = (codes, json.loads(printed) if fit_code == 0 else None)
        return results

    @staticmethod
    def _cli(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def warm_up(self) -> None:
        self._pass(self.tiny_path, 1, "warm_up")

    def run_round(self) -> dict:
        return self._pass(self.config_path, self.seed, "trace")

    def reference(self) -> hb.SimulationConfig:
        """The simulation the CLI config describes, built without the CLI."""
        sim = self.SIM
        return hb.SimulationConfig(
            dt=sim["dt_s"], duration=sim["duration_s"], rng_seed=self.seed,
            axes=trap_axes(), laser_power=hb.mw_to_w(sim["laser_power_mw"]),
            gas=hb.GasEnvironment(pressure=sim["pressure_hpa"],
                                  molar_mass=sim["molar_mass"], temperature=ROOM_K),
            particle=PARTICLE, heating=HEATING, alpha_c=sim["alpha_c"],
        )

    def check(self, results: dict) -> tuple[int, list[str]]:
        trace = self.outdir / "trace.csv"
        digest = hashlib.sha256(trace.read_bytes()).digest()
        if digest == self.verified_digest:
            # The same bytes as a trace file that passed the read-back check.
            read_back, reference = None, None
        else:
            reference = hb.simulate_trace(self.reference()).signals
            # Columns t_s, Vx, Vy: write_trace sorts the axes by label, as AXES is.
            read_back = np.loadtxt(trace, delimiter=",", skiprows=1,
                                   usecols=range(1, 1 + len(AXES)), unpack=True, ndmin=2)
        power_w = hb.mw_to_w(self.SIM["laser_power_mw"])
        failed, problems = 0, []
        for i, (label, stiffness, _) in enumerate(AXES):
            codes, fit = results[label]
            axis_problems = [f"axis {label}: CLI exit codes {codes}"] if any(codes) else []
            axis_problems += check_axis_round_trip(
                label,
                None if reference is None else read_back[i],
                None if reference is None else reference[label],
                fit,
                stiffness * math.sqrt(power_w) / (2.0 * math.pi),
            )
            failed += bool(axis_problems)
            problems += axis_problems
        if reference is not None and not problems:
            self.verified_digest = digest
        return failed, problems

    def close(self) -> None:
        for path in self.outdir.glob("*.csv"):
            path.unlink()


# Campaign grids and the checks of their reports; the tiny grid is the
# warm-up.
SWEEP = dict(pressures_hpa=(45.0, 60.0, 80.0, 100.0),
             laser_powers_mw=tuple(float(p) for p in range(15, 151, 15)))
CAMPAIGNS = {
    "campaign_long": (
        dict(SWEEP, repetitions=1, duration_s=1.0),
        lambda report: check_campaign(report, K_TOLERANCE["campaign_long"], True)),
    # The verdict is not checked here: on some seeds one axis comes out
    # "undetermined" (CHANGES.md, FOUND), so a verdict check would make the
    # share of failed operations depend on the seed.
    "campaign_reps": (
        dict(SWEEP, repetitions=5, duration_s=0.1),
        lambda report: check_campaign(report, K_TOLERANCE["campaign_reps"], False)),
    "thermometry_sweep": (
        dict(pressures_hpa=tuple(np.linspace(15.0, 150.0, 20).tolist()),
             laser_powers_mw=tuple(1.5 * k for k in range(1, 101)),
             repetitions=1, duration_s=0.1, thermometry_only=True,
             esr=hb.EsrSettings(center_offset_hz=0.3e6)),
        check_thermometry),
}
TINY_GRID = dict(pressures_hpa=(45.0, 100.0), laser_powers_mw=(15.0, 75.0, 150.0))


def make(name: str, seed: int, outdir: Path):
    """The workload ``name`` with inputs drawn from ``seed``."""
    if name == "trace_io":
        return TraceIO(seed, outdir)
    grid, check = CAMPAIGNS[name]
    config = hb.CampaignConfig(axes=trap_axes(), particle=PARTICLE, heating=HEATING,
                               alpha_c=1.0, dt_s=1e-6, rng_seed=BASE_SEED[name] + seed,
                               **grid)
    return Campaign(config, check, outdir)
