"""The benchmark's three workloads. Each drives dc_optlab only through its
public functions and its CLI (``dc_optlab.cli.main``), and checks every
output it gets back.

A workload has a ``setup(dc, seed, out_dir)`` that turns the workload seed
into the program's inputs, and a ``cycle(dc, state, k, cyc)`` that runs
the k-th unit of work and records in the ``Cycle`` the program time of
each operation, the amount of work done, and the failures its checks
found. The runner repeats cycles for the requested seconds and calls
``summarize``.

Workloads, and why each was chosen:

* ``sgd-protocol`` — ``dc-optlab sweep`` on the paper grid with the
  protocol training settings; the path a paper reproduction waits on.
  Time goes to the per-minibatch step (``Dataset.subset``,
  ``loss_gradient`` on 75 rows, ``gd_step``), where per-call overhead
  dominates.
* ``gd-fullbatch`` — ``dc-optlab train --mode gd`` at m=100,000: the same
  layers the other way round, per-element kernel cost and the per-epoch
  metrics dominate and ``Dataset.subset`` is never called in the loop.
* ``certify`` — no training: per-config ``dc-optlab rates`` calls, the
  bracket certificate over every ``b`` of the seeded paper sample, and
  ``dc-optlab verify --suite all``. ``lambert_w``, ``convergence`` and
  ``verification`` do all their work here and none in the two others.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from measure import Clock, median, p90

FAMILIES = {"no_dc", "growing_dc", "decaying_dc", "grow_decay_dc"}


@dataclass
class Cycle:
    clock: Clock
    ops: dict[str, list[float]] = field(default_factory=dict)  # kind -> program seconds
    norm: dict[str, list[float]] = field(default_factory=dict)  # kind -> nominal-host seconds
    work: float = 0.0
    attempted: int = 0
    failed_ops: set[int] = field(default_factory=set)  # ops that failed a check
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    _timed: list[tuple[str, float, int, int]] = field(default_factory=list)  # kind, s, marks

    def timed(self, kind, fn, *args):
        m0, t0 = self.clock.mark(), self.clock.now()
        result = fn(*args)
        t1, m1 = self.clock.now(), self.clock.mark()
        self.ops.setdefault(kind, []).append(t1 - t0)
        self._timed.append((kind, t1 - t0, m0, m1))
        self.attempted += 1
        return result

    def check(self, ok: bool, what: str) -> bool:
        """Record a failed check against the most recent operation."""
        if not ok:
            self.failures.append(what)
            self.failed_ops.add(self.attempted)
        return ok

    def normalize(self, profile: dict[str, str], cycle_mark: int):
        """Convert each operation's time with the host-speed samples taken
        during it, or during its cycle when it was too short to be hit."""
        for kind, seconds, m0, m1 in self._timed:
            hit = m1 > m0
            scale = self.clock.scale_since(m0 if hit else cycle_mark, profile[kind],
                                           m1 if hit else None)
            self.norm.setdefault(kind, []).append(seconds * scale)

    def seconds(self) -> float:
        """Nominal-host seconds of all timed operations in this cycle."""
        return sum(sum(v) for v in self.norm.values())


def call_cli(main, argv) -> tuple[int | None, str]:
    """Run one CLI command with its console output captured; (exit code,
    error) where the code is None if the command raised."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv), ""
        except (Exception, SystemExit) as exc:  # an op failure, not ours
            return None, f"{type(exc).__name__}: {exc}"


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _per_cycle(cycles, kind) -> list[float]:
    """Nominal seconds of every op of one kind across cycles."""
    return [t for c in cycles for t in c.norm.get(kind, ())]


def _throughput(cycles, kind) -> float:
    return median([c.work / sum(c.norm[kind]) for c in cycles])


class SgdProtocol:
    """One cycle = one ``dc-optlab sweep`` over the paper grid (59,400
    points) with ``--pick-fraction 2.5e-05``, 1/1000 of the protocol's
    2.5%: ceil(2.5e-5 * 59,400) = 2 configs, one run each, with the
    protocol's m=1000, batch 75, 1,500 epochs and eta 0.01. ``--seed`` is
    the workload seed, so every cycle of a run repeats the same sweep and
    must return the same bytes."""

    name = "sgd-protocol"
    PASS = 1
    PROFILE = {"sweep": "small"}  # operation kind -> calibration kernel
    PICK = "2.5e-05"
    CONFIGS = 2
    EPOCHS = 1500
    PAPER_RUNS = 14_850  # 1,485 configs x 10 runs
    _EPOCH_RE = re.compile(r"at epoch (\d+)")

    def setup(self, dc, seed, out_dir):
        json_out, csv_out = out_dir / "sweep.json", out_dir / "sweep.csv"
        argv = ["sweep", "--pick-fraction", self.PICK, "--runs", "1",
                "--seed", str(seed), "--json-out", str(json_out), "--csv-out", str(csv_out)]
        return {"argv": argv, "json": json_out, "csv": csv_out, "seed": seed, "digest": None}

    def cycle(self, dc, state, k, cyc):
        rc, err = cyc.timed("sweep", call_cli, dc.cli.main, state["argv"])
        if not cyc.check(rc == 0, f"sweep exit {rc} {err}"):
            return
        raw_json, raw_csv = state["json"].read_bytes(), state["csv"].read_bytes()
        cyc.digest = _sha256(raw_json, raw_csv)
        if state["digest"] is None:
            state["digest"] = cyc.digest
        cyc.check(cyc.digest == state["digest"], "sweep output differs between identical calls")
        try:
            result = json.loads(raw_json)
            rows = list(csv.DictReader(io.StringIO(raw_csv.decode())))
            self._check(cyc, state, result, rows)
        except (ValueError, KeyError, TypeError) as exc:
            cyc.check(False, f"sweep output malformed: {exc}")

    def _check(self, cyc, state, result, rows):
        configs = result["per_config"]
        cyc.check(result["seed"] == state["seed"], "sweep seed not echoed")
        cyc.check(len(configs) == self.CONFIGS, f"{len(configs)} configs, want {self.CONFIGS}")
        cyc.check(len(rows) == self.CONFIGS, f"{len(rows)} CSV rows, want {self.CONFIGS}")
        excluded = 0
        for cfg, row in zip(configs, rows):
            (run,) = cfg["runs"]
            cyc.check(cfg["kind"] in FAMILIES, f"unknown family {cfg['kind']!r}")
            if run["error"] is None:
                acc, loss = run["final_accuracy"], run["final_loss"]
                cyc.check(_finite(acc, loss) and 0.0 <= acc <= 1.0 and loss <= 0.0,
                          f"bad run summary {run}")
                cyc.check(float(row["final_accuracy"]) == acc, "CSV and JSON disagree")
                cyc.work += self.EPOCHS
            else:
                # an excluded (diverged) run is still attempted work: count
                # the epochs it ran before the error
                excluded += 1
                hit = self._EPOCH_RE.search(run["error"])
                cyc.work += int(hit.group(1)) if hit else 0
        cyc.check(result["excluded_runs"] == excluded, "excluded_runs miscounted")

    def summarize(self, cycles):
        sweep_s = _per_cycle(cycles, "sweep")
        rate = _throughput(cycles, "sweep")
        return {
            "run_epochs_per_s": (rate, "1/s", f"runs x epochs per second, median of {len(cycles)} sweep calls"),
            "paper_sweep_est_h": (self.PAPER_RUNS * self.EPOCHS / rate / 3600.0, "h",
                                  "14,850 runs x 1,500 epochs at run_epochs_per_s"),
            "sweep_s_p50": (median(sweep_s), "s", f"one sweep call ({self.CONFIGS} runs), n={len(sweep_s)}"),
        }

    gated = {"work_per_s": "run_epochs_per_s", "call_s_p50": "sweep_s_p50"}


class GdFullbatch:
    """One cycle = one ``dc-optlab train --mode gd --m 100000 --epochs 50``.
    A full-batch epoch costs about 0.17 ms at m=1,000, nearly all of it
    per-call overhead, and about 3.9 ms at m=100,000, where that overhead
    is under a tenth and per-element work dominates.

    The cost of an epoch depends on the config several-fold (about 0.3 s
    to 1.4 s per cycle), so the 16 configs are drawn once from the paper
    grid's axes with a fixed generator and a run always covers whole passes
    over them; the workload seed draws each config's data and split seeds.
    A seed-drawn config list would make the median a different mix of slow
    and fast configs on every seed."""

    name = "gd-fullbatch"
    M = 100_000
    M_TRAIN = 80_000  # ceil(0.8 * M)
    EPOCHS = 50
    PASS = 16  # configs, cycled through in order
    PROFILE = {"train": "cache"}
    CONFIG_SEED = 20240801
    TRACE_HEADER = "epoch,train_loss,test_accuracy,theta_norm,min_normalized_margin"

    def setup(self, dc, seed, out_dir):
        spec = dc.sweep.GridSpec()
        axes = {
            "--r": np.linspace(*spec.r_range, spec.r_steps),
            "--c": np.linspace(*spec.c_range, spec.c_steps),
            "--d": np.linspace(*spec.d_range, spec.d_steps),
            "--p-d": np.linspace(*spec.p_d_range, spec.p_steps),
        }
        configs = np.random.default_rng(self.CONFIG_SEED)
        seeds = np.random.default_rng(seed)
        trace_out, weights_out = out_dir / "trace.csv", out_dir / "weights.json"
        argvs = []
        for _ in range(self.PASS):
            argv = ["train", "--mode", "gd", "--m", str(self.M), "--epochs", str(self.EPOCHS),
                    "--trace-out", str(trace_out), "--weights-out", str(weights_out)]
            for flag, axis in axes.items():
                argv += [flag, repr(float(axis[configs.integers(axis.size)]))]
            data_seed, split_seed = seeds.integers(0, 2**31, size=2)
            argv += ["--data-seed", str(data_seed), "--split-seed", str(split_seed)]
            argvs.append(argv)
        return {"argvs": argvs, "trace": trace_out, "weights": weights_out}

    def cycle(self, dc, state, k, cyc):
        argv = state["argvs"][k % self.PASS]
        rc, err = cyc.timed("train", call_cli, dc.cli.main, argv)
        if not cyc.check(rc == 0, f"train exit {rc} {err} for {argv}"):
            return
        raw_trace, raw_weights = state["trace"].read_bytes(), state["weights"].read_bytes()
        cyc.digest = _sha256(raw_trace, raw_weights)
        try:
            lines = raw_trace.decode().splitlines()
            cyc.check(lines[0] == self.TRACE_HEADER, "bad trace header")
            cyc.check(len(lines) == self.EPOCHS + 1, f"{len(lines) - 1} trace rows")
            for epoch, line in enumerate(lines[1:], start=1):
                e, loss, acc, norm, margin = line.split(",")
                vals = [float(loss), float(acc), float(norm), float(margin)]
                if not cyc.check(int(e) == epoch and _finite(*vals) and 0.0 <= vals[1] <= 1.0,
                                 f"bad trace row {line!r}"):
                    break
            theta = json.loads(raw_weights)["theta"]
            cyc.check(len(theta) == 2 and _finite(*theta), f"bad weights {theta}")
        except (ValueError, KeyError, IndexError) as exc:
            cyc.check(False, f"train output malformed: {exc}")
        cyc.work = self.M_TRAIN * self.EPOCHS

    def summarize(self, cycles):
        train_s = _per_cycle(cycles, "train")
        return {
            # over whole passes the config mix is the same in every run, so
            # the aggregate rate is steadier than a median of per-config rates
            "sample_epochs_per_s": (sum(c.work for c in cycles) / sum(train_s), "1/s",
                                    f"m_train x epochs per second, m_train={self.M_TRAIN}, "
                                    f"over {len(cycles) // self.PASS} passes of {self.PASS} configs"),
            "train_s_p50": (median(train_s), "s", f"one train call, n={len(train_s)}"),
        }

    gated = {"work_per_s": "sample_epochs_per_s", "call_s_p50": "train_s_p50"}


class Certify:
    """One cycle = 25 ``dc-optlab rates`` calls for the next configs of the
    seeded paper sample (1,485 configs, taken in sample order), one
    ``verify_theorem`` over every distinct ``b`` of a seeded paper sample
    against the theorem suite's z grid (200 points log-spaced in (e, 50]),
    and one ``dc-optlab verify --suite all``. Set-up builds the paper grid
    and draws the samples, so ``build_grid`` and ``sample_grid`` land in
    ``setup_s`` here.

    The certificate's cost depends on its sample about seven-fold: ``w0``
    iterates the whole array until every element meets its step
    tolerance, and most samples hold a few arguments within 1e-3 of the
    branch point that never do, so all 50 Halley rounds run; about one
    sample in eight holds none and stops after 4. So cycle k certifies
    sample k mod 16 (sample 0 is the seed's own, the others are drawn
    from seeds derived from it) and the median is taken over cycles."""

    name = "certify"
    PASS = 1
    PROFILE = {"rates": "small", "certificate": "stream", "verify_all": "small"}
    RATES_PER_CYCLE = 25
    CERT_SAMPLES = 16
    RATES_HEADER = ["z", "g_dc", "g_default", "lower", "upper", "z_min"]

    def setup(self, dc, seed, out_dir):
        spec = dc.sweep.GridSpec()
        grid = dc.sweep.build_grid(spec)
        sample_seeds = [seed] + [int(s) for s in np.random.SeedSequence(seed).generate_state(
            self.CERT_SAMPLES - 1)]
        samples = [dc.sweep.sample_grid(grid, spec.pick_fraction, s) for s in sample_seeds]
        rates_out, verify_out = out_dir / "rates.csv", out_dir / "verify.json"
        rates = [
            (p, ["rates", "--out", str(rates_out), "--r", repr(p.r), "--c", repr(p.c),
                 "--d", repr(p.d), "--p-d", repr(p.p_d)])
            for p in samples[0]
        ]
        return {"rates": rates, "rates_out": rates_out,
                "b": [np.unique([p.b for p in sample]) for sample in samples],
                "z": np.geomspace(np.nextafter(math.e, math.inf), 50.0, 200),
                "verify_argv": ["verify", "--suite", "all", "--json-out", str(verify_out)],
                "verify_out": verify_out}

    def cycle(self, dc, state, k, cyc):
        chunks = []
        n = len(state["rates"])
        for j in range(self.RATES_PER_CYCLE):
            params, argv = state["rates"][(k * self.RATES_PER_CYCLE + j) % n]
            rc, err = cyc.timed("rates", call_cli, dc.cli.main, argv)
            if cyc.check(rc == 0, f"rates exit {rc} {err} for {argv}"):
                raw = state["rates_out"].read_bytes()
                chunks.append(raw)
                self._check_rates(cyc, params, raw)

        b_values = state["b"][k % self.CERT_SAMPLES]
        report = cyc.timed("certificate", dc.convergence.verify_theorem, b_values, state["z"])
        cyc.check(report.all_passed, "bracket certificate failed")
        cyc.check(report.checked > 0
                  and report.checked + report.filtered_out == b_values.size * state["z"].size,
                  "certificate pair count does not add up")
        cyc.work = report.checked
        chunks.append(report.to_json().encode())

        rc, err = cyc.timed("verify_all", call_cli, dc.cli.main, state["verify_argv"])
        if cyc.check(rc == 0, f"verify exit {rc} {err}"):
            raw = state["verify_out"].read_bytes()
            chunks.append(raw)
            try:
                verdict = json.loads(raw)
                cyc.check(verdict["passed"] is True and len(verdict["suites"]) == 4,
                          "verify --suite all did not pass every suite")
            except (ValueError, KeyError) as exc:
                cyc.check(False, f"verify output malformed: {exc}")
        cyc.digest = _sha256(*chunks)

    def _check_rates(self, cyc, params, raw):
        try:
            rows = list(csv.reader(io.StringIO(raw.decode())))
            cyc.check(rows[0] == self.RATES_HEADER, "bad rates header")
            onset = math.log(-params.b) + 1.0
            last_z = -math.inf
            for row in rows[1:]:
                z, g, g_default, lower, upper, z_min = (float(v) for v in row)
                ok = (z > last_z and _finite(g) and g_default == z and z_min == onset)
                if z > math.e:
                    # the bracket, mapped onto the rate scale
                    ok = ok and lower <= g <= upper
                if not cyc.check(ok, f"bad rates row {row} for {params}"):
                    return
                last_z = z
            cyc.check(len(rows) > 1, "empty rate curve")
        except (ValueError, IndexError) as exc:
            cyc.check(False, f"rates output malformed: {exc}")

    def summarize(self, cycles):
        rates_s = _per_cycle(cycles, "rates")
        verify_s = _per_cycle(cycles, "verify_all")
        return {
            "rates_s_p50": (median(rates_s), "s", f"one rates call, n={len(rates_s)}"),
            "rates_s_p90": (p90(rates_s), "s", f"one rates call, n={len(rates_s)}"),
            "sample_cert_pairs_per_s": (_throughput(cycles, "certificate"), "1/s",
                                        f"checked (b, z) pairs per second, median of "
                                        f"{len(cycles)} certificates"),
            "verify_all_s_p50": (median(verify_s), "s", f"verify --suite all, n={len(verify_s)}"),
        }

    gated = {"work_per_s": "sample_cert_pairs_per_s", "call_s_p50": "rates_s_p50"}


WORKLOADS = {w.name: w for w in (SgdProtocol(), GdFullbatch(), Certify())}
