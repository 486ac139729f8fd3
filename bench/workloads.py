"""The three closed-loop workloads.

Each workload is one caller that issues its next request only after the
previous one returned.  ``prepare`` is the set-up a user pays once (config
files, tensors the checks compare against); ``request`` times only the calls
into the program; ``check`` verifies a request's outputs outside the timed
region; ``finish`` runs the checks that need the whole run.  Requests are
numbered, and every input a request uses is derived from (workload seed,
request number), so one seed always gives the same inputs.

Program functions are always looked up on their module at call time, so the
timing wrappers of a traced run see the calls.  Checks call the unwrapped
functions, so their work never shows up in the trace.
"""
from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import dataclass, field

UNIT_WEIGHT = {"poly": [1.0]}
SPEC_12 = {"t": 0.0, "T": 1.0, "k": 2, "indices": [1, 2], "weights": [UNIT_WEIGHT] * 2}
# k = 3, indices (1, 2, 1), weights 1, 1 + s, 1: one pair correction is active.
SPEC_121 = {"t": 0.0, "T": 1.0, "k": 3, "indices": [1, 2, 1],
            "weights": [UNIT_WEIGHT, {"poly": [1.0, 1.0]}, UNIT_WEIGHT]}


def request_seed(seed: int, i: int) -> int:
    """Program seed for request i of a run with the given workload seed."""
    return random.Random(f"{seed}:{i}").getrandbits(62)


def untraced(fn):
    return getattr(fn, "__wrapped__", fn)


@dataclass
class Outcome:
    """What one request did: work items, timed seconds per phase, and
    whatever the check needs.  ``scale`` converts measured seconds to
    seconds at the reference machine speed (set by the runner)."""

    items: int
    seconds: dict[str, float]
    data: dict = field(default_factory=dict)
    scale: float = 1.0

    @property
    def raw_latency(self) -> float:
        return sum(self.seconds.values())

    @property
    def latency(self) -> float:
        return self.raw_latency * self.scale


class Workload:
    name = ""
    item = ""  # what items_per_s counts

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _write_json(self, name: str, doc: dict) -> str:
        path = self._path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def prepare(self, itf) -> None:
        self.itf = itf

    def finish(self) -> list[str]:
        return []

    def report(self, items_per_s: float, outcomes: list[Outcome]) -> list[tuple]:
        """Workload-specific metrics as (name, value, unit)."""
        return []


class _Validate(Workload):
    """``itofourier validate`` through ``cli.run_cli``, one run per request."""

    item = "paths"
    config: dict = {}
    orders = ""
    threads = 1
    moment_n = None

    def prepare(self, itf) -> None:
        super().prepare(itf)
        self.config_path = self._write_json("config.json", self.config)
        self.out_path = self._path("report.json")

    def request(self, i: int) -> Outcome:
        argv = ["--threads", str(self.threads), "validate", "--config", self.config_path,
                "--orders", self.orders, "--paths", str(self.paths), "--steps",
                str(self.steps), "--seed", str(request_seed(self.seed, i)),
                "--out", self.out_path]
        if self.moment_n is not None:
            argv += ["--n", str(self.moment_n)]
        start = time.perf_counter()
        code = self.itf.cli.run_cli(argv)
        elapsed = time.perf_counter() - start
        return Outcome(self.paths, {"validate": elapsed}, {"code": code})

    def _payload(self, outcome: Outcome):
        if outcome.data["code"] != 0:
            return None, [f"validate exited {outcome.data['code']}"]
        with open(self.out_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        return payload, ([] if payload["pass"] is True else ["pass is false"])

    def report(self, items_per_s, outcomes):
        return [("paths_per_s", items_per_s, "1/s")]


class McLegendre(_Validate):
    """Criterion 7/8 config: k = 2, indices (1, 2), Legendre orders (0, 0),
    N = 4096, --n 2, one thread."""

    name = "mc-legendre"
    config = {"spec": SPEC_12, "basis": "legendre"}
    orders = "0,0"
    moment_n = 2

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.paths = 100 if tiny else 300
        self.steps = 256 if tiny else 4096
        # request -> (samples, mean_sq_diff, std_error, grid_allowance); keyed so
        # that a traced rerun of the same request is not counted twice
        self.pooled = {}

    def check(self, i, outcome):
        payload, failures = self._payload(outcome)
        if payload is None:
            return failures
        if abs(payload["parseval"] - 0.25) > 1e-12:
            failures.append(f"parseval {payload['parseval']!r} != 0.25")
        if payload["moment"]["pass"] is not True:
            failures.append("moment pass is false")
        self.pooled[i] = (payload["samples"], payload["mean_sq_diff"],
                          payload["std_error"], payload["grid_allowance"])
        return failures

    def finish(self):
        """Criterion-7 window on the estimate pooled over the whole run:
        one two-sided 3-SE test per run, not one per request."""
        if not self.pooled:
            return []
        pooled = list(self.pooled.values())
        n = sum(p[0] for p in pooled)
        mean = sum(p[0] * p[1] for p in pooled) / n
        se = math.sqrt(sum((p[0] * p[2]) ** 2 for p in pooled)) / n
        allowance = pooled[0][3]
        if 0.25 - 3 * se <= mean <= 0.25 + allowance + 3 * se:
            return []
        return [f"pooled mean_sq_diff {mean:.6f} outside 0.25 -3SE/+3SE+allowance "
                f"(SE {se:.6f}, {n} paths)"]


class McWalsh(_Validate):
    """k = 3, indices (1, 2, 1), Walsh orders 31, N = 4096, threaded."""

    name = "mc-walsh"
    config = {"spec": SPEC_121, "basis": "walsh"}

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.paths = 100
        self.steps = 256 if tiny else 4096
        self.orders = "7,7,7" if tiny else "31,31,31"
        self.threads = min(2, os.cpu_count() or 1)

    def check(self, i, outcome):
        return self._payload(outcome)[1]


class Tabulate(Workload):
    """``coeffs`` then ``approximate`` for spec k = 3 (1, 2, 1) over the four
    bases; one request is the round trip over all four."""

    name = "tabulate"
    item = "table entries"
    CASES = (("legendre", 12), ("trigonometric", 16), ("haar", 31), ("walsh", 31))
    TINY = (("legendre", 3), ("trigonometric", 4), ("haar", 3), ("walsh", 3))

    def prepare(self, itf) -> None:
        """Build each expected tensor and write each case's config."""
        super().prepare(itf)
        spec = itf.kernel.IntegralSpec.from_json(SPEC_121)
        self.cases = []
        for basis, order in (self.TINY if self.tiny else self.CASES):
            system = itf.basis.parse_basis(basis)
            orders = (order,) * 3
            self.cases.append({
                "basis": system,
                "orders": ",".join(str(o) for o in orders),
                "config": self._write_json(f"{basis}.json", {"spec": SPEC_121, "basis": basis}),
                "table": self._path(f"{basis}.csv"),
                "out": self._path(f"{basis}.approx.json"),
                "tensor": itf.coefficients.coefficient_tensor(spec, system, orders),
            })
        self.entries = sum(c["tensor"].values.size for c in self.cases)

    def request(self, i: int) -> Outcome:
        run_cli = self.itf.cli
        seed = str(request_seed(self.seed, i))
        write = read = 0.0
        codes = []
        for case in self.cases:
            start = time.perf_counter()
            codes.append(run_cli.run_cli(["coeffs", "--config", case["config"], "--orders",
                                          case["orders"], "--out", case["table"]]))
            mid = time.perf_counter()
            codes.append(run_cli.run_cli(["approximate", "--table", case["table"],
                                          "--seed", seed, "--out", case["out"]]))
            end = time.perf_counter()
            write += mid - start
            read += end - mid
        return Outcome(self.entries, {"coeffs": write, "approximate": read},
                       {"codes": codes, "seed": int(seed)})

    def check(self, i, outcome):
        """Each written table re-reads to the in-memory tensor bit for bit,
        and each approximate value equals truncated_expansion on the same
        seeded pool."""
        if any(outcome.data["codes"]):
            return [f"exit codes {outcome.data['codes']}"]
        itf = self.itf
        failures = []
        for case in self.cases:
            want = case["tensor"]
            if not _same_tensor(untraced(itf.coefficients.read_coefficient_table)(case["table"]),
                                want):
                failures.append(f"{case['basis'].value}: re-read table differs from "
                                f"coefficient_tensor")
            pool = untraced(itf.stochastic.gaussian_pool)(
                want.spec.iv, want.basis, max(want.spec.max_index, 1), max(want.orders),
                outcome.data["seed"])
            expected = untraced(itf.expansion.truncated_expansion)(want, pool).value
            with open(case["out"], encoding="utf-8") as fh:
                value = json.load(fh)["value"]
            if value != expected:
                failures.append(f"{case['basis'].value}: approximate {value!r} != "
                                f"truncated_expansion {expected!r}")
        return failures

    def report(self, items_per_s, outcomes):
        write = sum(o.seconds["coeffs"] * o.scale for o in outcomes)
        read = sum(o.seconds["approximate"] * o.scale for o in outcomes)
        entries = sum(o.items for o in outcomes)
        return [("coeffs_entries_per_s", entries / write, "1/s"),
                ("approximate_entries_per_s", entries / read, "1/s")]


def _same_tensor(got, want) -> bool:
    return (got.spec == want.spec and got.basis is want.basis and got.orders == want.orders
            and got.values.tobytes() == want.values.tobytes())


def tail_percentile(sorted_values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it: the
    eleventh-largest value, and which percentile that is.  With ten samples
    or fewer it is the largest."""
    n = len(sorted_values)
    index = max(n - 11, 0) if n > 10 else n - 1
    return sorted_values[index], 100.0 * (index + 1) / n


WORKLOADS = {cls.name: cls for cls in (McLegendre, McWalsh, Tabulate)}
