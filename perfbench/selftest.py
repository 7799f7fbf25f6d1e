"""Self-test of the benchmark's output checks: each accepts a right result and
rejects a deliberately wrong one.

Run from the root of a checkout:

    python3 perfbench/selftest.py

The results are stand-ins carrying the fields the checks read, so the test
needs no campaign and takes about a second.  It exits 1 if any check lets
a wrong result through or rejects a right one.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads as w  # noqa: E402

K_TOL = w.K_TOLERANCE["campaign_long"]


def campaign(k=w.K_REFERENCE, verdict="thermal", kappa=17.02, axes=("x", "y"),
             estimate=True, heating_fit=True):
    est = SimpleNamespace(k_per_axis={a: (k, 0.03) for a in axes},
                          classification={a: verdict for a in axes})
    fit = SimpleNamespace(kappa_heat=kappa, strain_offset_K=0.01)
    return SimpleNamespace(estimate=est if estimate else None,
                           heating_fit=fit if heating_fit else None)


def long_check(**fields) -> list[str]:
    """The campaign_long checks of a stand-in report with ``fields`` changed."""
    return w.check_campaign(campaign(**fields), K_TOL, True)


def thermometry(kappa=17.2, offset=-3.8):
    return SimpleNamespace(heating_fit=SimpleNamespace(kappa_heat=kappa,
                                                       strain_offset_K=offset),
                           estimate=None)


def main() -> int:
    samples = np.random.default_rng(0).standard_normal(1000) * 1e-3
    one_ulp = samples.copy()
    one_ulp[500] = np.nextafter(one_ulp[500], np.inf)
    fq = 57_000.0

    def trip(read_back=samples, fit={"f_q": fq * 1.004}):
        return w.check_axis_round_trip("x", read_back, samples, fit, fq)

    # (case, failed-check messages, whether the result is wrong)
    cases = [
        ("campaign: right result", long_check(), False),
        ("campaign: K too high", long_check(k=w.K_REFERENCE + 1.01 * K_TOL), True),
        ("campaign: K too low", long_check(k=w.K_REFERENCE - 1.01 * K_TOL), True),
        ("campaign: axes overheated", long_check(verdict="overheated"), True),
        ("campaign: axis y missing", long_check(axes=("x",)), True),
        ("campaign: no estimate", long_check(estimate=False), True),
        ("campaign: kappa_heat off",
         long_check(kappa=17.0 * (1 + 1.01 * w.CAMPAIGN_KAPPA_TOLERANCE)), True),
        ("campaign: no heating fit", long_check(heating_fit=False), True),
        ("campaign, verdict unchecked: undetermined axes",
         w.check_campaign(campaign(verdict="undetermined"), K_TOL, False), False),
        ("thermometry: right result", w.check_thermometry(thermometry()), False),
        ("thermometry: kappa_heat off", w.check_thermometry(
            thermometry(kappa=17.0 * (1 + 1.01 * w.THERMOMETRY_KAPPA_TOLERANCE))), True),
        ("thermometry: offset not seen", w.check_thermometry(thermometry(offset=-0.1)),
         True),
        ("thermometry: offset too large", w.check_thermometry(thermometry(offset=-5.2)),
         True),
        ("trace: right result", trip(samples.copy()), False),
        ("trace: one sample one ulp off", trip(one_ulp), True),
        ("trace: last sample lost", trip(samples[:-1]), True),
        ("trace: f_q off", trip(fit={"f_q": fq * (1 + 1.01 * w.FQ_TOLERANCE)}), True),
        ("trace: no fit printed", trip(fit=None), True),
        ("trace: file verified before, f_q off", w.check_axis_round_trip(
            "x", None, None, {"f_q": fq * (1 + 1.01 * w.FQ_TOLERANCE)}, fq), True),
    ]

    bad = 0
    for name, problems, wrong in cases:
        ok = bool(problems) == wrong
        bad += not ok
        detail = problems[0] if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"{len(cases) - bad}/{len(cases)} cases behave as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
