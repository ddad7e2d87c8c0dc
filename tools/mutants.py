"""Mutation check of the tier-1 tests, run by hand (it takes several minutes):

    python tools/mutants.py [scratch_dir]

Each mutant is one exact string replacement in one file of ``src/``, a
fault the tests should see.  The script copies the repository into the
scratch directory (a new temporary one by default), runs tier-1 on the
unmutated copy, which must pass, then on one fresh copy per mutant, and
asserts that every mutant makes tier-1 fail.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__",
                                ".bench_out", "out")

# (name, file, exact text, replacement)
MUTANTS = [
    # slice checks
    ("sobolev rhs without boosts", "src/kgdecay/hyperboloid.py",
     "for s in samples) if rhs",
     'for s in (samples if row == "pointwise" else samples[:1])) if rhs'),
    ("sobolev weight (t/tau)^ell set to 1", "src/kgdecay/hyperboloid.py",
     "lambda c, t, tau, d: (t / tau) ** ell * c", "lambda c, t, tau, d: c"),
    ("sobolev lhs weight t^(d+ell-1) raised to t^(d+ell)", "src/kgdecay/hyperboloid.py",
     "t ** (d + ell - 1.0) * c", "t ** (d + ell) * c"),
    ("pointwise mass term dropped", "src/kgdecay/hyperboloid.py",
     '("m phi", lambda c, t, tau, d: t**d * c, _sup)',
     '("m phi", lambda c, t, tau, d: 0.0 * c, _sup)'),
    ("pointwise boost term dropped", "src/kgdecay/hyperboloid.py",
     '("L^i phi", lambda c, t, tau, d: t ** (d - 2.0) * c, _sup)',
     '("L^i phi", lambda c, t, tau, d: 0.0 * c, _sup)'),
    ("pointwise time-derivative weight tau^2 lowered to tau", "src/kgdecay/hyperboloid.py",
     "tau**2 * t ** (d - 2.0) * c", "tau * t ** (d - 2.0) * c"),
    ("pointwise rhs without boosts", "src/kgdecay/hyperboloid.py",
     "for s in samples) if rhs",
     'for s in (samples if row != "pointwise" else samples[:1])) if rhs'),
    ("energy boost weight 1/(t tau) set to 1/t", "src/kgdecay/hyperboloid.py",
     "c / (t * tau)", "c / t"),
    ("energy time-derivative weight tau/t dropped", "src/kgdecay/hyperboloid.py",
     "(tau / t) * c", "c"),
    ("mass left out of the m phi column", "src/kgdecay/hyperboloid.py",
     "[(m * s.phi) ** 2]", "[s.phi**2]"),
    ("boost values with tau in place of t", "src/kgdecay/hyperboloid.py",
     "slc.t * sample.grad[:, axis]", "slc.tau * sample.grad[:, axis]"),
    ("slice weight tau/t dropped", "src/kgdecay/hyperboloid.py",
     "weights = (tau / t) * grid.cell_volume", "weights = grid.cell_volume + 0.0 * t"),
    ("SLICE_PADDING set to 0", "src/kgdecay/hyperboloid.py",
     "SLICE_PADDING = 2.0", "SLICE_PADDING = 0.0"),
    ("boost mass term sign flipped", "src/kgdecay/propagator.py",
     "- x * data.f * data.mass**2", "+ x * data.f * data.mass**2"),
    # decay side
    ("localized td1_grad_phi_sq weighted by t^(d-2)", "src/kgdecay/decay.py",
     '("grad", 0, d - 1.0, 2))', '("grad", 0, d - 2.0, 2))'),
    ("Szego cosine factor set to 1", "src/kgdecay/decay.py",
     "lower[i] / np.cos(lattice.reach / lattice.resolution)", "lower[i] / 1.0"),
    ("mass-0 zero-mode term dropped", "src/kgdecay/propagator.py",
     "vals[:, 0] += dt * np.sum(gh[omega == 0.0].real)", "pass"),
    # Hermitian pairing of the modes, shared by the point evaluator and the sup sweep
    ("Nyquist-plane modes doubled too, their - half-waves dropped",
     "src/kgdecay/propagator.py",
     "np.where(own, np.conj(spectra[:, lead]), spectra[:, partner[lead]])\n"
     "    weight = np.where(own, 0.5, 1.0)\n",
     "np.where(own, 0.0, spectra[:, partner[lead]])\n    weight = 1.0\n"),
    ("Nyquist - half-waves dropped", "src/kgdecay/propagator.py",
     "np.where(own, np.conj(spectra[:, lead]),", "np.where(own, 0.0 * spectra[:, lead],"),
    ("+ half-waves not doubled", "src/kgdecay/propagator.py",
     "weight = np.where(own, 0.5, 1.0)", "weight = 0.5"),
    ("Nyquist-plane modes paired with their alias", "src/kgdecay/propagator.py",
     "(partner < 0) | np.any(signed == -n // 2, axis=-1)", "partner < 0"),
    # mode and mirror pairing of the point evaluator
    ("mirror values written with U and V swapped", "src/kgdecay/propagator.py",
     "vals[pairs] = (even_part - odd_part)", "vals[pairs] = (even_part + odd_part)"),
    ("the -k partner's coefficients dropped", "src/kgdecay/propagator.py",
     "spectra[:, partner[lead]])\n", "0.0 * spectra[:, partner[lead]])\n"),
    ("a two-level phase table shifted by one", "src/kgdecay/propagator.py",
     "unit * np.arange(s), r", "unit * np.arange(1, s + 1), r"),
    # the slice data's jet and the boosts read from it
    ("m^2 sign flipped in d_t^2 = Lap - m^2", "src/kgdecay/hyperboloid.py",
     "- m2 * u[_shift(k, d, -2)]", "+ m2 * u[_shift(k, d, -2)]"),
    ("alpha_i term of the boost rule dropped", "src/kgdecay/hyperboloid.py",
     "k[i] * v.get(_shift(_shift(k, i, -1), d), 0.0)", "0.0"),
    ("j term of the boost rule dropped", "src/kgdecay/hyperboloid.py",
     "k[d] * v.get(_shift(_shift(k, i), d, -1), 0.0)", "0.0"),
    ("x-derivative columns multiplied by xi in place of i xi", "src/kgdecay/propagator.py",
     "ixi = 1j * xi", "ixi = xi + 0j"),
    ("boosts applied right to left", "src/kgdecay/hyperboloid.py",
     "jets[axes[1:]], axes[0], slc.points[:, axes[0]]",
     "jets[axes[:-1]], axes[-1], slc.points[:, axes[-1]]"),
    ("slice rows read without their boosts' samples", "src/kgdecay/hyperboloid.py",
     "if rhs and len(samples) !=", "if False and len(samples) !="),
    ("lowfreq weight 1 + t replaced by t", "src/kgdecay/decay.py",
     "weight = 1.0 + t if band == LOW_PASS_BAND else t", "weight = t"),
    # the sup sampler: coarse lattice, candidate cells and their refinement
    ("half spectrum not zeroed before the scatter", "src/kgdecay/grid.py",
     "half = np.zeros(", "half = np.empty("),
    ("grad row overwritten by |d phi|^2 before its maximum is read", "src/kgdecay/decay.py",
     "    np.add(out[0], out[1], out=out[2])\n",
     "    out[2] = np.add(out[0], out[1], out=out[1])\n"),
    ("fine delta in place of delta0 in the candidate threshold", "src/kgdecay/decay.py",
     "top * np.cos(self.reach) ** 2, np.inf)",
     "top * np.cos(self.reach / self.resolution) ** 2, np.inf)"),
    ("squares compared against cos(reach), not cos^2", "src/kgdecay/decay.py",
     "top * np.cos(self.reach) ** 2, np.inf)", "top * np.cos(self.reach), np.inf)"),
    ("zero-field mask dropped", "src/kgdecay/decay.py",
     "np.where(top > 0.0,", "np.where(top >= 0.0,"),
    ("upper end read at twice the refined spacing", "src/kgdecay/decay.py",
     "np.cos(lattice.reach / lattice.resolution)",
     "np.cos(2 * lattice.reach / lattice.resolution)"),
    ("cell offsets halved", "src/kgdecay/decay.py",
     "/ (2 * self.resolution)", "/ (4 * self.resolution)"),
    ("each block of refinement rows cut to its first offset", "src/kgdecay/decay.py",
     "offsets[start : start + step]", "offsets[start : start + 1]"),
    ("phi refined in the derivative cells", "src/kgdecay/decay.py",
     "self._refine(weighted[:1], cells[0],", "self._refine(weighted[:1], cells[1],"),
    ("derivative rows refined in phi's cells", "src/kgdecay/decay.py",
     "self._refine(weighted[1:], cells[1],", "self._refine(weighted[1:], cells[0],"),
    ("conjugate image left out of the fold plan", "src/kgdecay/grid.py",
     "for k in (signed % m, -signed % m):", "for k in (signed % m,):"),
    # the partition's neighbour denominator and the ball sums
    ("cutoff denominator over centers within 1 of c_i", "src/kgdecay/partition.py",
     "self.centers[i], axis=-1) < 2.0]", "self.centers[i], axis=-1) < 1.0]"),
    ("ball sums read at radius 2", "src/kgdecay/partition.py",
     "p.centers[i], axis=-1) < 1.0)", "p.centers[i], axis=-1) < 2.0)"),
    # the radial bump
    ("bump radius read as the max norm", "src/kgdecay/bumps.py",
     "np.sqrt(r, out=r)", "np.max(np.abs(u), axis=0)"),
    ("derivative factor with r in place of u_a", "src/kgdecay/bumps.py",
     "-2.0 * sharpness * u[axis][inside]", "-2.0 * sharpness * ri"),
    # what a single-suite process loads
    ("every suite process loads the decay layer", "src/kgdecay/suites.py",
     "from .plan import RunPlan\n", "from .plan import RunPlan\nfrom . import decay  # noqa: F401\n"),
    # one sample order for every slice suite
    ("energy alone sampled at order 0", "src/kgdecay/plan.py",
     "order = sobolev_order(self.config.dim)",
     'order = 0 if self.config.suite == "energy" else sobolev_order(self.config.dim)'),
    # resolution gates
    ("resolution gates switched off", "src/kgdecay/plan.py",
     "if tail <= limit:", "if True:"),
    ("slice resolution gate switched off", "src/kgdecay/plan.py",
     '+ self._unresolved("slice data", self.slice_data, limit, at)', "+ []"),
    ("localized resolution gate switched off", "src/kgdecay/plan.py",
     'return self._unresolved("localized data", self.localized_data, MAX_NYQUIST_TAIL)',
     "return []"),
    ("fit-time gate on the mass switched off", "src/kgdecay/plan.py",
     "n_fit is not None and n_fit < MIN_FIT_SAMPLES", "False"),
    ("partition box gate switched off", "src/kgdecay/plan.py",
     "0.0 < c.box_length < 2.0 * PARTITION_ACTIVE_RADIUS", "False"),
    # one plan per run: the one validated is the one the suites read
    ("suites run on a fresh plan", "src/kgdecay/cli.py",
     "run_selected_suites(plan)", "run_selected_suites(RunPlan(config))"),
    # what each object derives and keeps
    ("band data re-transform their fields", "src/kgdecay/propagator.py",
     '            h.__dict__["spectrum"] = F\n', ""),
    ("one symbol for every band", "src/kgdecay/bands.py",
     "return self._symbols[k]", "return next(iter(self._symbols.values()))"),
    ("highfreq sweep on the configured grid in d = 1", "src/kgdecay/plan.py",
     "return HIGHFREQ_WIDE_FACTOR if self.config.dim == 1 else 1", "return 1"),
]


def tier1_passes(copy: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    run = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
    return run.returncode == 0


def fresh_copy(scratch: Path) -> Path:
    copy = scratch / "copy"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=IGNORE)
    return copy


def main() -> int:
    scratch = Path(sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="mutants-"))
    assert tier1_passes(fresh_copy(scratch)), "tier-1 fails on the unmutated copy"
    survivors = []
    for name, path, old, new in MUTANTS:
        copy = fresh_copy(scratch)
        target = copy / path
        text = target.read_text()
        assert text.count(old) == 1, f"{name}: {old!r} is not one exact match in {path}"
        target.write_text(text.replace(old, new))
        killed = not tier1_passes(copy)
        print(f"{'killed  ' if killed else 'SURVIVED'} {name}", flush=True)
        if not killed:
            survivors.append(name)
    shutil.rmtree(scratch / "copy", ignore_errors=True)
    assert not survivors, f"mutants tier-1 does not see: {survivors}"
    print(f"all {len(MUTANTS)} mutants make tier-1 fail")
    return 0


if __name__ == "__main__":
    sys.exit(main())
