"""Fixed-seed outputs of the toolkit, and the script that records them.

``expected.json`` beside this file holds three outputs on frozen seeds:

* ``mini_campaign``: ``report.json`` of the two-pressure, three-power,
  two-repetition campaign at seed 11 (the ``mini_campaign`` fixture of
  ``tests/test_pipeline.py``), without ``runtime_s``;
* ``cli_fit_psd``: per axis, the JSON that ``hotbrownian fit-psd``
  prints after ``simulate --seed 5`` (a 0.1 s trace of the default
  config) and ``psd --axis <axis>``;
* ``cli_fit_esr``: per sweep, the JSON that ``hotbrownian fit-esr``
  prints for a ``simulate_esr`` sweep written with ``write_esr``: a
  resolved pair of dips (8 MHz strain, seed 6) and coincident dips
  (no strain, seed 5), which the fit takes as a single dip.

``tests/test_bit_identity.py`` recomputes all three and compares floats at a
relative tolerance of 1e-12.  A change that moves the RNG stream or an
estimator regenerates the file on purpose, and names the fields that
moved in CHANGES.md.  Regenerate from the repository root with

    PYTHONPATH=src python tests/bit_identity/regenerate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import hotbrownian as hb
from hotbrownian import cli

EXPECTED = Path(__file__).with_name("expected.json")
CLI_SEED = 5
CLI_CONFIG = {"duration_s": 0.1}
# name -> (strain_E in Hz, seed) of the fit-esr sweeps; the rest of
# each sweep is ESR_SWEEP.
ESR_CASES = {"resolved": (8e6, 6), "single_dip": (0.0, 5)}
ESR_SWEEP = dict(laser_power=60.0, pressure=45.0, contrast=0.25, linewidth=2e6,
                 noise_level=0.5)


def mini_campaign(workdir: Path) -> dict:
    """``report.json`` of the seed-11 mini campaign, without ``runtime_s``."""
    axes = (
        hb.TrapAxis(label="x", stiffness_coefficient=2 * math.pi * 1.807e5,
                    detection_gain=1.0e9),
        hb.TrapAxis(label="y", stiffness_coefficient=2 * math.pi * 1.549e5,
                    detection_gain=0.8e9),
    )
    config = hb.CampaignConfig(
        pressures_hpa=(45.0, 100.0),
        laser_powers_mw=(30.0, 90.0, 150.0),
        repetitions=2,
        duration_s=0.3,
        dt_s=5e-7,
        axes=axes,
        particle=hb.ParticleModel(shape=hb.Sphere(radius=500e-9), density=3500.0),
        heating=hb.HeatingLaw(kappa_heat=17.0, T0=294.0),
        rng_seed=11,
    )
    path = hb.write_report(hb.run_campaign(config), workdir / "report", format="json")
    report = json.loads(path.read_text())
    del report["runtime_s"]
    return report


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"hotbrownian {' '.join(argv)} exited with {code}")
    return out.getvalue()


def cli_fit_psd(workdir: Path) -> dict:
    """Axis -> the JSON ``fit-psd`` prints on the CLI's simulate -> psd chain."""
    config = workdir / "sim.json"
    config.write_text(json.dumps(CLI_CONFIG))
    trace = workdir / "trace.csv"
    _cli("simulate", "--config", str(config), "--seed", str(CLI_SEED), "--out", str(trace))
    fits = {}
    for axis in json.loads(trace.with_suffix(".json").read_text())["axes"]:
        psd = workdir / f"psd_{axis}.csv"
        _cli("psd", str(trace), "--axis", axis, "--out", str(psd))
        fits[axis] = json.loads(_cli("fit-psd", str(psd)))
    return fits


def cli_fit_esr(workdir: Path) -> dict:
    """Sweep name -> the JSON ``fit-esr`` prints on the sweep's ESR CSV."""
    heating = hb.HeatingLaw(kappa_heat=17.0, T0=294.0)
    fits = {}
    for name, (strain, seed) in ESR_CASES.items():
        path = workdir / f"esr_{name}.csv"
        hb.write_esr(hb.simulate_esr(heating, hb.default_zfs_law(), strain_E=strain,
                                     rng_seed=seed, **ESR_SWEEP), path)
        fits[name] = json.loads(_cli("fit-esr", str(path)))
    return fits


def compute(workdir: Path) -> dict:
    """Every output, computed with ``workdir`` for their files."""
    return {"mini_campaign": mini_campaign(workdir), "cli_fit_psd": cli_fit_psd(workdir),
            "cli_fit_esr": cli_fit_esr(workdir)}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        EXPECTED.write_text(json.dumps(compute(Path(tmp)), indent=1) + "\n")
    print(EXPECTED)
