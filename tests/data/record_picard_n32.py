"""Rebuild picard_n32.json, the Picard iterates that
`test_picard_reproduces_recorded_iterates` replays with ==.

    PYTHONPATH=src python tests/data/record_picard_n32.py

The run's parameters (grid, data, stepper, kappas) are read from the file
itself; a0, a_n and a_bar_n of each kappa are recomputed and written back as
repr floats.  Run it when a change moves Picard's numbers on purpose.
"""

import json
from pathlib import Path

from strat2d.fields import random_spectrum
from strat2d.grid import GridSpec
from strat2d.picard import picard_run
from strat2d.solver import StepperConfig

PATH = Path(__file__).with_name("picard_n32.json")


def main() -> None:
    rec = json.loads(PATH.read_text())
    grid = GridSpec(rec["grid_n"])
    omega, rho = random_spectrum(grid, seed=rec["seed"], amplitude=rec["amplitude"],
                                 xi_lo=rec["xi_lo"], xi_hi=rec["xi_hi"], kmax=rec["kmax"])
    cfg = StepperConfig(scheme=rec["scheme"], dt=rec["dt"])
    for kappa, entry in rec["kappas"].items():
        traces = picard_run(omega, rho, float(kappa), rec["t_final"], rec["n_max"], cfg,
                            n_samples=rec["n_samples"])
        entry["a0"] = float(traces[0].a0)
        entry["a_n"] = [tr.a.tolist() for tr in traces]
        entry["a_bar_n"] = [None if tr.a_bar is None else tr.a_bar.tolist() for tr in traces]
    PATH.write_text(json.dumps(rec, indent=1) + "\n")


if __name__ == "__main__":
    main()
