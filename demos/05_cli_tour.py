"""Tour of the command-line interface: solve, sweep, spectrum.

The same functionality shown in the other demos is reachable without writing
Python: `pslr solve` runs one build+solve and emits a JSON stats record,
`pslr sweep` tabulates a parameter sweep as CSV, and `pslr spectrum` lists
the eigenvalues of one operator of the built preconditioner (ILUT factors at
--droptol; exact at --droptol 0) as re,im CSV.  Matrices come from Matrix
Market files (--matrix) or generated test problems (--problem).

Run:  python demos/05_cli_tour.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run(*args):
    cmd = [sys.executable, "-m", "pslr", *args]
    print("$ pslr " + " ".join(args))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode not in (0, 2):
        sys.exit(proc.stderr)
    return proc


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        stats_path = tmp / "stats.json"
        run("solve", "--problem", "lap3d:12,12,12,0.05", "--s", "8",
            "--out", str(stats_path))
        stats = json.loads(stats_path.read_text())
        print(f"  its={stats['its']} converged={stats['converged']} "
              f"fill_total={stats['fill_total']:.3f} "
              f"relres={stats['final_relres']:.2e}\n")

        sweep_path = tmp / "sweep.csv"
        run("sweep", "--problem", "lap3d:12,12,12,0.05", "--s", "8",
            "--axis", "m", "--values", "0,1,2,3", "--out", str(sweep_path))
        print("  " + sweep_path.read_text().replace("\n", "\n  ").rstrip())

        spec_path = tmp / "spectrum.csv"
        run("spectrum", "--problem", "lap3d:6,6,6,0.0", "--s", "4",
            "--target", "EsC0inv", "--out", str(spec_path))
        lines = spec_path.read_text().strip().splitlines()
        print(f"\n  {len(lines) - 1} eigenvalues written; largest modulus "
              f"(first row): {lines[1]}")


if __name__ == "__main__":
    main()
