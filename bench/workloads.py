"""The benchmark's three workloads: seeded input pools, ops and their checks.

Every workload is built from the seed alone. An op's `run` makes only the
program calls the benchmark times; its `check` compares their output with
references computed during set-up and returns an Outcome. entcrit functions
are looked up through their modules at call time, so the traced run's
wrappers see every call.

criteria  search-heavy `entcrit analyze` of small states, plus
          Belinskii-Klyshko member searches and the GHZ-Werner visibility
          scans.
scale     the non-search path (tensor, table, local model, sampling,
          inverse) at N = 6..9.
cli       cold `python -m entcrit` processes on generated files, where
          import and state parsing dominate.
"""

from __future__ import annotations

import functools
import hashlib
import json
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import entcrit.bell as bell
import entcrit.cli as entcrit_cli
import entcrit.info as info
import entcrit.lhv as lhv
import entcrit.pauli as pauli
import entcrit.search as search
import entcrit.states as states
import entcrit.werner as werner
import oracles
from oracles import DECISION_TOL, INVERSE_TOL, SEARCH_TOL, VALUE_TOL
from tracing import NullTracer, Tracer

#: Restarts the repository's scripts use; the CLI defaults (32 and 64)
#: spend 20-35 s on a single three-qubit state.
RESTARTS = 8
#: The state cases of scripts/analyze_presets.py.
PRESET_CASES = [
    ("product_plus_x_minus_x", 2, None),
    ("product_all_plus_x", 3, None),
    ("maximally_mixed", 3, None),
    ("bell_phi_minus", 2, None),
    ("ghz", 3, None),
    ("werner_ghz", 2, 0.6),
    ("werner_ghz", 2, 0.8),
    ("werner_ghz", 3, 0.45),
    ("werner_ghz", 3, 0.55),
]
#: Seeded random two-qubit mixtures, by number of pure terms.
MIXTURE_TERMS = (2, 3)
#: The scans of scripts/run_werner_scan.py.
SCAN_QUBITS = (2, 3, 4)
SCAN_GRID = 1001
#: Monte-Carlo draws per sampled local model, and the largest N sampled.
SAMPLES = 4000
SAMPLE_MAX_N = 8
#: Each empirical entry averages SAMPLES values of +-1, so its standard
#: error is at most 1/sqrt(SAMPLES); six of them bound all 2^N entries.
SAMPLE_TOL = 6.0 / np.sqrt(SAMPLES)
INVERSE_MAX_N = 6
CHILD_TIMEOUT_S = 60


@dataclass
class Context:
    seed: int
    workdir: Path
    tracer: Any = field(default_factory=NullTracer)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "Outcome"]

    def execute(self, tracer) -> dict:
        """Time `run` under an op span, then check its output untimed."""
        start = time.perf_counter()
        try:
            with tracer.span("op"):
                out = self.run()
        except Exception as e:  # noqa: BLE001 - an op that raises is a failed op
            outcome = Outcome()
            outcome.expect(False, "raised", f"{type(e).__name__}: {e}")
            latency = time.perf_counter() - start
        else:
            latency = time.perf_counter() - start
            try:
                outcome = self.check(out)
            except Exception as e:  # noqa: BLE001 - malformed output fails its check
                outcome = Outcome()
                outcome.expect(False, "output", f"{type(e).__name__}: {e}")
        return {
            "label": self.label,
            "latency_s": latency,
            "failures": outcome.failures,
            "shortfall": outcome.shortfall,
            "counts": dict(outcome.counts),
        }


@dataclass
class Workload:
    ops: list
    warmup: Op
    #: whose ru_maxrss is the workload's peak: the worker's or its children's
    rss: str = "self"


class Outcome:
    """Failed checks of one op, its search shortfalls and its counters."""

    def __init__(self):
        self.failures: list[str] = []
        self.shortfall: dict[str, float] = {}
        self.counts: Counter = Counter()

    def expect(self, ok: bool, check: str, detail: str = "") -> bool:
        if not ok:
            self.failures.append(f"{check}: {detail}" if detail else check)
        return ok

    def within(self, check: str, error: float, tol: float) -> bool:
        return self.expect(error <= tol, check, f"error {error:.3e} > {tol:.1e}")

    def search(self, kind: str, found: float, reference: float) -> None:
        """A search maximum against its closed form; kind is 'info' or 'bell'."""
        gap = reference - found
        self.shortfall[kind] = max(self.shortfall.get(kind, -np.inf), gap)
        self.expect(
            abs(gap) <= SEARCH_TOL,
            f"{kind}_maximum",
            f"found {found!r}, reference {reference!r}",
        )


def _xy_settings(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.tile([1.0, 0.0, 0.0], (n, 1)), np.tile([0.0, 1.0, 0.0], (n, 1))


def _digest(m: np.ndarray) -> str:
    """Short fingerprint of a generated input, so reports name the exact state."""
    return hashlib.sha256(np.ascontiguousarray(m).tobytes()).hexdigest()[:8]


def _max_error(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _local_model(table):
    """The calls behind the CLI's local-model section: (evaluation, model, error)."""
    evaluation = bell.general_bell_lhs(table)
    try:
        model = lhv.construct_lhv(table)
    except lhv.BellBoundError:
        return evaluation, None, None
    return evaluation, model, lhv.verify_lhv(model, table)


def _check_local_model(o: Outcome, ref_table, evaluation, model, error) -> None:
    n = ref_table.ndim
    bound = 2.0**n
    ref_lhs = oracles.master_sum(ref_table)
    o.within("master_sum", abs(evaluation.lhs_general - ref_lhs), VALUE_TOL * bound)
    violated = ref_lhs > bound + DECISION_TOL
    if model is None:
        o.counts["lhv.refused"] += 1
        o.expect(violated, "lhv_refused", f"lhs {ref_lhs!r} is within the bound {bound}")
    else:
        o.expect(not violated, "lhv_built", f"lhs {ref_lhs!r} exceeds the bound {bound}")
        o.within("lhv_verify", error, VALUE_TOL)


def _check_section(o: Outcome, doc: dict, ref_table, command: str) -> None:
    """A `bell` or `lhv` report at fixed settings against the reference table."""
    n = ref_table.ndim
    bound = 2.0**n
    ref_lhs = oracles.master_sum(ref_table)
    violated = ref_lhs > bound + DECISION_TOL
    o.expect(doc["n_qubits"] == n and doc["bound"] == bound, f"{command}_fields")
    o.within(f"{command}_master_sum", abs(doc["lhs"] - ref_lhs), VALUE_TOL * bound)
    if command == "bell":
        moduli = [e["modulus"] for e in doc["per_s"]]
        o.within("per_s", _max_error(moduli, np.abs(oracles.signed_sums(ref_table))), VALUE_TOL)
        o.expect(doc["violated"] == violated, "bell_verdict", f"violated={doc['violated']}")
    elif o.expect(doc["refused"] == violated, "lhv_refused", f"refused={doc['refused']}"):
        if not violated:
            o.within("lhv_verify", doc["verify_max_abs_error"], VALUE_TOL)
            weights = [a["p"] for a in doc["model"]["atoms"]] + [doc["model"]["noise_weight"]]
            o.expect(
                min(weights) >= 0.0 and abs(sum(weights) - 1.0) <= VALUE_TOL,
                "lhv_model",
                f"weights are not a probability distribution (sum {sum(weights)!r})",
            )


# --------------------------------------------------------------- criteria


def _preset_matrix(kind: str, n: int, v) -> np.ndarray:
    if kind == "product_plus_x_minus_x":
        return oracles.product_matrix(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
    if kind == "product_all_plus_x":
        return oracles.product_matrix(np.tile([1.0, 0, 0], (n, 1)))
    if kind == "maximally_mixed":
        return np.eye(2**n, dtype=complex) / 2**n
    if kind == "bell_phi_minus":
        phi_minus = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0)
        return np.outer(phi_minus, phi_minus).astype(complex)
    return oracles.ghz_werner_matrix(n, 1.0 if kind == "ghz" else v)


def _preset_references(kind: str, n: int, v, rho) -> tuple[float, float]:
    """(information maximum, master ratio) in closed form."""
    if n == 2:
        return oracles.two_qubit_closed_form(rho)
    if kind == "product_all_plus_x":
        return 1.0, 1.0
    if kind == "maximally_mixed":
        return 0.0, 0.0
    v = 1.0 if kind == "ghz" else v
    return oracles.werner_info(n, v), oracles.werner_ratio(n, v)


def _analyze(ctx: Context, label: str, state_args: list[str], rho: np.ndarray, refs) -> Op:
    """One state through the CLI's `analyze`, run in process by `entcrit.cli.main`."""
    n = int(np.log2(rho.shape[0]))
    ref_info, ref_ratio = refs
    ref_tensor = oracles.tensor_by_trace(rho, n)
    closed_form = None
    if n == 2:
        t = pauli.correlation_tensor(states.DensityMatrix(2, rho))
        closed_form = info.two_qubit_info_criterion(t).max_total
    report = ctx.workdir / "analyze-report.json"
    argv = ["analyze", *state_args, "--restarts", str(RESTARTS), "--seed", str(ctx.seed),
            "--out", str(report)]

    def run():
        return entcrit_cli.main(argv)

    def check(code) -> Outcome:
        o = Outcome()
        if not o.expect(code == 0, "exit_code", str(code)):
            return o
        doc = json.loads(report.read_text(encoding="utf-8"))
        o.within("tensor", _max_error(doc["tensor"]["entries"], ref_tensor.ravel()), VALUE_TOL)
        found_info, found_ratio = doc["info"]["max_total"], doc["bell"]["ratio"]
        o.search("info", found_info, ref_info)
        if closed_form is not None:
            o.within("info_closed_form", abs(found_info - closed_form), SEARCH_TOL)
        o.search("bell", found_ratio, ref_ratio)
        if abs(ref_info - 1.0) > SEARCH_TOL:
            o.expect(
                doc["info"]["entangled"] == (ref_info > 1.0),
                "info_verdict",
                f"entangled={doc['info']['entangled']} at reference {ref_info!r}",
            )
        settings = doc["bell"]["settings"]
        ref_table = oracles.table_by_trace(
            rho, np.array([p["n1"] for p in settings]), np.array([p["n2"] for p in settings])
        )
        _check_section(o, doc["bell"], ref_table, "bell")
        _check_section(o, doc["lhv"], ref_table, "lhv")
        o.counts["lhv.refused"] += doc["lhv"]["refused"]
        if "werner" in doc:
            v = float(state_args[state_args.index("--visibility") + 1])
            o.within("werner_info_sum", abs(doc["werner"]["info_sum"] - ref_info), VALUE_TOL)
            o.expect(
                doc["werner"]["lr_describable"] == (v <= oracles.werner_threshold(n)),
                "werner_lr_describable",
                f"lr_describable={doc['werner']['lr_describable']} at V={v!r}",
            )
        return o

    return Op(f"analyze {label}", run, check)


def _analyze_preset(ctx: Context, kind: str, n: int, v) -> Op:
    rho = _preset_matrix(kind, n, v)
    label = f"{kind} N={n}" + (f" V={v:.4g}" if v is not None else "")
    args = ["--preset", kind, "--n", str(n)] + ([] if v is None else ["--visibility", repr(v)])
    return _analyze(ctx, label, args, rho, _preset_references(kind, n, v, rho))


def _analyze_mixture(ctx: Context, rho: np.ndarray, terms: int) -> Op:
    """A seeded two-qubit mixture, handed to the CLI as a state file."""
    path = ctx.workdir / f"mixture-{_digest(rho)}.json"
    path.write_text(states.serialize_state(states.DensityMatrix(2, rho)), encoding="utf-8")
    return _analyze(
        ctx, f"random N=2 mixture of {terms} [{_digest(rho)}]", ["-i", str(path)], rho,
        oracles.two_qubit_closed_form(rho),
    )


def _bk_member(n: int, v: float, opts) -> Op:
    """Belinskii-Klyshko member search (CHSH at N=2, Mermin at N=3)."""
    rho = oracles.ghz_werner_matrix(n, v)
    reference = oracles.bk_value(n, v)
    preset = states.StatePreset("werner_ghz", n, v)

    def run():
        tensor = pauli.correlation_tensor(states.build_preset(preset))
        sign = bell.belinskii_klyshko_sign_function(n)
        value, settings = bell.maximize_sign_function_value(tensor, sign, opts)
        return value, settings, sign

    def check(out) -> Outcome:
        value, settings, sign = out
        o = Outcome()
        o.search("bell", value / 2.0 ** (n - 1), reference)
        b = oracles.signed_sums(oracles.table_by_trace(rho, settings.n1, settings.n2))
        at_settings = abs(float(np.sum(sign.values.ravel() * b)))
        o.within("bk_value", abs(value - at_settings), VALUE_TOL * 2**n)
        return o

    name = "CHSH" if n == 2 else "Mermin"
    return Op(f"bk member {name} on werner_ghz N={n} V={v:.4f}", run, check)


def _scan(n: int, opts) -> Op:
    reference = oracles.werner_ratio(n, 1.0)
    bound = 2.0**n

    def run():
        return werner.visibility_scan(n, SCAN_GRID, opts)

    def check(rows) -> Outcome:
        o = Outcome()
        if not o.expect(len(rows) == SCAN_GRID, "scan_rows", f"{len(rows)} rows"):
            return o
        top = rows[-1].bell_ratio
        o.search("bell", top, reference)
        off = [
            r.visibility
            for i, r in enumerate(rows)
            if abs(r.visibility - i / (SCAN_GRID - 1)) > 1e-12
            or abs(r.info_sum - oracles.werner_info(n, r.visibility)) > 1e-12
            or abs(r.bell_ratio - r.visibility * top) > 1e-12
            or r.info_entangled != (r.info_sum > 1.0 + DECISION_TOL)
            or r.bell_violated != (r.bell_lhs > bound + DECISION_TOL)
        ]
        o.expect(not off, "scan_closed_form", f"{len(off)} rows, first at V={off[0]}" if off else "")
        return o

    return Op(f"werner scan N={n} grid={SCAN_GRID}", run, check)


def criteria(ctx: Context) -> Workload:
    rng = np.random.default_rng(ctx.seed)
    opts = search.OptimizerOptions(restarts=RESTARTS, seed=ctx.seed)
    ops = [_analyze_preset(ctx, kind, n, v) for kind, n, v in PRESET_CASES]
    for terms in MIXTURE_TERMS:
        ops.append(_analyze_mixture(ctx, oracles.random_mixture(rng, 2, terms), terms))
    for n in (2, 3):
        ops.append(_bk_member(n, float(rng.uniform(0.5, 1.0)), opts))
    ops += [_scan(n, opts) for n in SCAN_QUBITS]
    warmup = _analyze_preset(ctx, "bell_phi_minus", 2, None)
    return Workload([ops[i] for i in rng.permutation(len(ops))], warmup)


# ------------------------------------------------------------------ scale


def _scale_op(ctx: Context, label: str, n: int, build, ref_table, sample_seed) -> Op:
    """build -> validate -> tensor -> x/y table -> lhs -> local model
    (+ Monte-Carlo sampling at N <= 8, + inverse round trip at N <= 6)."""
    settings = bell.SettingsPair(*_xy_settings(n))

    def run():
        dm = build()
        invalid = states.validate_density_matrix(dm)
        tensor = pauli.correlation_tensor(dm)
        table = bell.correlation_table(tensor, settings)
        local = _local_model(table)
        sampled = back = None
        if local[1] is not None and n <= SAMPLE_MAX_N:
            rng = np.random.default_rng(sample_seed)
            sampled = lhv.empirical_table(*lhv.sample_outcome_arrays(local[1], SAMPLES, rng))
        if n <= INVERSE_MAX_N:
            back = pauli.density_from_tensor(tensor)
        return dm, invalid, table, local, sampled, back

    def check(out) -> Outcome:
        dm, invalid, table, local, sampled, back = out
        o = Outcome()
        o.expect(not invalid, "validate", str(invalid))
        o.within("table", _max_error(table.values, ref_table), VALUE_TOL)
        _check_local_model(o, ref_table, *local)
        if sampled is not None:
            o.within("monte_carlo", _max_error(sampled.values, table.values), SAMPLE_TOL)
        if back is not None:
            o.within("inverse_round_trip", _max_error(back.matrix, dm.matrix), INVERSE_TOL)
        return o

    return Op(label, run, check)


def scale(ctx: Context) -> Workload:
    rng = np.random.default_rng(ctx.seed)
    ops = []

    def from_matrix(n, m):
        def build():
            with ctx.tracer.span("states.build"):
                return states.DensityMatrix(n, m)

        return build

    for n in (6, 7, 8, 9):
        v = float(rng.uniform(0.5, 0.95)) * oracles.werner_threshold(n)
        preset = states.StatePreset("werner_ghz", n, v)
        ops.append(_scale_op(
            ctx, f"werner_ghz N={n} V={v:.4f}", n, lambda p=preset: states.build_preset(p),
            oracles.werner_xy_table(n, v), [ctx.seed, len(ops)],
        ))
    for n in (6, 7, 8):
        m = oracles.random_mixture(rng, n, 4)
        ops.append(_scale_op(
            ctx, f"random N={n} mixture of 4 [{_digest(m)}]", n, from_matrix(n, m),
            oracles.table_by_trace(m, *_xy_settings(n)), [ctx.seed, len(ops)],
        ))
    for n in (6, 7, 8, 9):
        b = oracles.random_blochs(rng, n)
        ops.append(_scale_op(
            ctx, f"random N={n} pure product [{_digest(b)}]", n,
            from_matrix(n, oracles.product_matrix(b)),
            oracles.product_table(b, *_xy_settings(n)), [ctx.seed, len(ops)],
        ))
    return Workload([ops[i] for i in rng.permutation(len(ops))], ops[0])


# -------------------------------------------------------------------- cli


def _malformed(kind: str) -> str:
    """A three-qubit state file the CLI must reject with exit code 2."""
    m = np.eye(8, dtype=complex) / 8
    if kind == "not_hermitian":
        m[0, 1] = 0.05
    elif kind == "bad_trace":
        m *= 2
    elif kind == "not_psd":
        m[0, 0], m[1, 1] = -0.05, 0.3
    text = states.serialize_state(states.DensityMatrix(3, m))
    if kind == "truncated":
        return text[: len(text) // 2]
    if kind == "wrong_rows":
        doc = json.loads(text)
        doc["matrix"]["entries"].pop()
        return json.dumps(doc)
    return text


MALFORMED_KINDS = ("truncated", "wrong_rows", "not_hermitian", "bad_trace", "not_psd")


class _Child:
    """Runs one CLI process. Traced runs go through cli_child.py, whose
    spans are adopted under the op's span."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.script = str(Path(__file__).with_name("cli_child.py"))
        self.spans = ctx.workdir / "child-spans.json"

    def __call__(self, argv: list[str] | None) -> subprocess.CompletedProcess:
        traced = isinstance(self.ctx.tracer, Tracer)
        if traced:
            cmd = [sys.executable, self.script, str(self.spans), *(argv or [])]
        elif argv is None:
            cmd = [sys.executable, "-c", "import entcrit"]
        else:
            cmd = [sys.executable, "-m", "entcrit", *argv]
        self.spans.unlink(missing_ok=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if traced:
            self.ctx.tracer.adopt(json.loads(self.spans.read_text()))
        return proc


def _exit_ok(o: Outcome, proc) -> bool:
    return o.expect(proc.returncode == 0, "exit_code", f"{proc.returncode}: {proc.stderr[-300:]}")


def cli(ctx: Context) -> Workload:
    rng = np.random.default_rng(ctx.seed)
    child = _Child(ctx)
    ops = []

    def file_op(label, rho, argv_rest, check_doc):
        path = ctx.workdir / f"state{len(ops)}.json"
        dm = states.DensityMatrix(int(np.log2(rho.shape[0])), rho)

        def run():
            path.write_text(states.serialize_state(dm), encoding="utf-8")
            return child([argv_rest[0], "-i", str(path), *argv_rest[1:]])

        def check(proc) -> Outcome:
            o = Outcome()
            if _exit_ok(o, proc):
                check_doc(o, json.loads(proc.stdout))
            return o

        ops.append(Op(label, run, check))

    def tensor_check(ref):
        def check_doc(o, doc):
            o.expect(doc["n_qubits"] == ref.ndim and doc["order"] == "xN_fastest", "tensor_fields")
            o.within("tensor", _max_error(doc["entries"], ref.ravel()), VALUE_TOL)

        return check_doc

    for _ in range(3):
        rho = oracles.random_mixture(rng, 5, 4)
        file_op(f"tensor -i random N=5 mixture [{_digest(rho)}]", rho, ["tensor"],
                tensor_check(oracles.tensor_by_trace(rho, 5)))
    for i in range(3):
        rho = oracles.random_mixture(rng, 6, 4)
        n1, n2 = oracles.random_blochs(rng, 6), oracles.random_blochs(rng, 6)
        settings = ctx.workdir / f"settings{i}.json"
        settings.write_text(json.dumps(
            {"pairs": [{"n1": list(a), "n2": list(b)} for a, b in zip(n1, n2)]}
        ), encoding="utf-8")
        ref_table = oracles.table_by_trace(rho, n1, n2)
        for command in ("bell", "lhv"):
            file_op(f"{command} -i random N=6 mixture [{_digest(rho)}] --settings", rho,
                    [command, "--settings", str(settings)],
                    functools.partial(_check_section, ref_table=ref_table, command=command))

    preset_ref = oracles.tensor_by_trace(_preset_matrix("bell_phi_minus", 2, None), 2)

    def preset_check(proc) -> Outcome:
        o = Outcome()
        if _exit_ok(o, proc):
            tensor_check(preset_ref)(o, json.loads(proc.stdout))
        return o

    preset = Op("tensor --preset bell_phi_minus",
                lambda: child(["tensor", "--preset", "bell_phi_minus"]), preset_check)
    ops += [preset, preset]

    for kind in rng.choice(MALFORMED_KINDS, size=2, replace=False):
        path = ctx.workdir / f"malformed-{kind}.json"
        text = _malformed(str(kind))

        def run(path=path, text=text):
            path.write_text(text, encoding="utf-8")
            return child(["tensor", "-i", str(path)])

        def check(proc) -> Outcome:
            o = Outcome()
            o.expect(
                proc.returncode == 2 and proc.stdout == "" and proc.stderr.startswith("error:"),
                "rejects_input",
                f"exit {proc.returncode}, stderr {proc.stderr[:120]!r}",
            )
            return o

        ops.append(Op(f"tensor -i malformed ({kind})", run, check))

    def import_check(proc) -> Outcome:
        o = Outcome()
        _exit_ok(o, proc)
        return o

    for i in range(2):
        ops.append(Op(f"import entcrit #{i}", lambda: child(None), import_check))
    return Workload([ops[i] for i in rng.permutation(len(ops))], preset, rss="children")


WORKLOADS = {"criteria": criteria, "scale": scale, "cli": cli}
