"""Seeded inputs, timed passes and output checks of the benchmark workloads.

A seed selects one of VARIANTS input variants (variant = seed % VARIANTS).
Every variant has its results recorded in reference.json, made by
record_reference.py from the unmodified package, so that every output of
every pass can be checked against a reference.

Draws are stratified: each swept value is drawn from its own octave
[2**k, 2**(k+1)), and only values that do not change the amount of work are
drawn (batch, prompt length, hardware and model constants).  gen_len, block
sizes, grid sizes and the options are fixed, so every variant evaluates the
same number of points and kernel entries: a second seed changes the numbers
the package computes, not the work it does.

A workload object has these methods:

* prepare(variant, work) writes the variant's input files into `work`;
* load(L) loads and validates the inputs with package `L` (part of setup);
* run(L) is one timed pass and returns its outputs;
* check(outputs, ref) compares them with the variant's reference and
  returns (operations attempted, [(operation, reason) for each failure]);
* record(L, outputs) makes the variant's reference from a pass's outputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import random
import traceback

VARIANTS = 16

# Relative tolerance for full-precision floats; integers, `bound`, `fits`
# and `mode` must match exactly.  CSV and SVG files, whose floats are
# printed to a fixed precision, must match byte for byte.
REL_TOL = 1e-9


def octave(rng: random.Random, k: int) -> int:
    """One value drawn from the octave [2**k, 2**(k+1))."""
    return rng.randrange(2**k, 2 ** (k + 1))


def write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
    return path


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def compare_value(name: str, got, want) -> str | None:
    """None when `got` matches the reference value `want`, else a reason."""
    if isinstance(got, float) and not math.isfinite(got):
        return f"{name} is not finite ({got!r})"
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return None
        return f"{name} {got!r} != {want!r} (rel tol {REL_TOL:g})"
    if type(got) is not type(want) or got != want:
        return f"{name} {got!r} != {want!r}"
    return None


def compare_row(got: dict, want: dict) -> str | None:
    for name, value in want.items():
        if name not in got:
            return f"missing field {name}"
        reason = compare_value(name, got[name], value)
        if reason:
            return reason
    return None


def invoke_cli(L, argv: list[str]) -> tuple[int | None, str, str]:
    """(exit code, stdout, stderr) of lmroofline.cli.main; code None on a traceback."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = L.cli.main(argv)
    except Exception:  # a traceback is a failed operation, not a benchmark crash
        return None, out.getvalue(), err.getvalue() + traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def check_analyze(code, out: str, err: str, want: dict) -> str | None:
    """Check `analyze` output: exit 0, a table, and a JSON line matching `want`."""
    if code is None:
        return "traceback: " + err.strip().splitlines()[-1]
    if code != 0:
        return f"exit {code}, want 0"
    lines = out.splitlines()
    try:
        row = json.loads(lines[-1])
    except (IndexError, ValueError):
        return "no JSON result line"
    if [line.split()[0] for line in lines[:-1]] != list(row):
        return "table fields do not match the JSON result"
    for value in row.values():
        if isinstance(value, float) and not math.isfinite(value):
            return f"non-finite number in the output ({value!r})"
    return compare_row(row, want)


class SweepWorkload:
    """A grid evaluated in-process: load_grid, run_sweep, emit_csv, emit_line_svg.

    The line plot (throughput against gen_len, one series per value of the
    slow axis) is what a user draws from such a sweep.  Each pass also runs
    `lmroofline analyze` on one cheap grid point, the way a user checks a
    point before sweeping; its result must equal that point's sweep row.
    This keeps the SVG emitter and the CLI on the path of both sweep
    workloads.
    """

    def __init__(self, name: str, make_grid, series_field: str, series_label: str,
                 probe_index: int):
        self.name = name
        self._make_grid = make_grid
        self._series_field = series_field
        self._series_label = series_label
        self._probe_index = probe_index

    def prepare(self, variant: int, work: str) -> None:
        rng = random.Random(f"{self.name}/{variant}")
        grid = self._make_grid(rng)
        points = list(itertools.product(*grid["axes"].values()))
        self.points_per_pass = len(points) + 1
        self.grid_path = write_json(os.path.join(work, "grid.json"), grid)
        probe = {k: v for k, v in grid.items() if k != "axes"}
        probe.update(zip(grid["axes"], points[self._probe_index]))
        self.probe_path = write_json(os.path.join(work, "probe.json"), probe)
        self.csv_path = os.path.join(work, "sweep.csv")
        self.svg_path = os.path.join(work, "throughput.svg")

    def load(self, L):
        return L.load_grid(self.grid_path)

    def run(self, L):
        rows = L.run_sweep(L.load_grid(self.grid_path))
        L.emit_csv(rows, self.csv_path)
        series: dict[int, list[tuple[float, float]]] = {}
        for row in rows:
            key = getattr(row, self._series_field)
            series.setdefault(key, []).append((float(row.Lg), row.throughput_tok_s))
        L.emit_line_svg(
            [(f"{self._series_label}={key}", pts) for key, pts in series.items()],
            self.svg_path,
            xlabel="gen_len",
            ylabel="throughput (tokens/s)",
            title=f"{self.name}: throughput vs gen_len",
        )
        return rows, invoke_cli(L, ["analyze", "-c", self.probe_path])

    def record(self, L, outputs) -> dict:
        rows = [dataclasses.asdict(row) for row in outputs[0]]
        return {
            "fields": list(rows[0]),
            "rows": [list(row.values()) for row in rows],
            "csv_sha256": sha256_file(self.csv_path),
            "svg_sha256": sha256_file(self.svg_path),
        }

    def check(self, outputs, ref) -> tuple[int, list[tuple[str, str]]]:
        rows, probe = outputs
        failures = []
        want_rows = [dict(zip(ref["fields"], values)) for values in ref["rows"]]
        if len(rows) != len(want_rows):
            failures.append(("rows", f"{len(rows)} rows, want {len(want_rows)}"))
        for idx, (row, want) in enumerate(zip(rows, want_rows)):
            reason = compare_row(dataclasses.asdict(row), want)
            if reason:
                failures.append((f"row{idx}", reason))
        for label, path, digest in (
            ("csv", self.csv_path, ref["csv_sha256"]),
            ("svg", self.svg_path, ref["svg_sha256"]),
        ):
            if sha256_file(path) != digest:
                failures.append((label, f"{os.path.basename(path)} differs from the reference"))
        reason = check_analyze(*probe, want_rows[self._probe_index])
        if reason:
            failures.append(("analyze", reason))
        return len(want_rows) + 3, failures


def arm_decode_grid(rng: random.Random) -> dict:
    # Decode adds one attention entry per generated token, so the gen_len
    # axis sets the work of kernels, phases and roofline.
    return {
        "model": "llama3-8b",
        "hardware": "rtx-a6000",
        "mode": "arm",
        "prompt_len": octave(rng, 11),
        "axes": {
            "batch": [octave(rng, k) for k in range(8)],
            "gen_len": [2**k for k in range(7, 13)],
        },
    }


def dlm_block_refresh_grid(rng: random.Random) -> dict:
    # Entries grow with the block count, and each block adds a full refresh
    # pass, so linear kernels dominate.  steps is omitted: K = gen_len.
    return {
        "model": "llada-8b",
        "hardware": "rtx-a6000",
        "mode": "dlm_block",
        "batch": octave(rng, rng.randrange(4)),
        "prompt_len": octave(rng, 10),
        "options": {"include_cache_refresh": True},
        "axes": {"block_size": [1, 8, 64], "gen_len": [1024, 4096]},
    }


@dataclasses.dataclass
class Op:
    """One CLI invocation of the cli-mixed corpus.

    expect is "row" (exit 0, analyze JSON line checked), "files" (exit 0,
    stdout and output files checked) or "reject" (exit 1).  For a row op,
    `twin` names the argv whose result is the reference when the op's own
    input is a documented spelling the reference commit does not accept.
    """

    name: str
    argv: list[str]
    expect: str
    outputs: tuple[str, ...] = ()
    twin: list[str] | None = None


# Spec cases the reference commit gets wrong.  They are counted as failed
# while the program gets them wrong; `correct` stays true as long as no
# other operation fails.
KNOWN_SEED_DEFECTS = ("spec-nan-peak-flops", "spec-dtype-bytes-bool", "spec-count-lm-head")


class CliWorkload:
    """lmroofline.cli.main over a seeded corpus of scenario and grid files."""

    name = "cli-mixed"

    def prepare(self, variant: int, work: str) -> None:
        rng = random.Random(f"{self.name}/{variant}")
        self.work = work

        def put(name: str, doc) -> str:
            return write_json(os.path.join(work, name), doc)

        put("hw.json", {
            "name": "bench-gpu",
            "peak_flops": rng.randrange(50, 400) * 1e12,
            "mem_bandwidth": rng.randrange(500, 3500) * 1e9,
            "mem_capacity": rng.choice((24, 40, 48, 80, 96)) * 1e9,
        })
        put("model.json", {
            "name": "bench-lm",
            "num_layers": rng.randrange(16, 48),
            "d_model": 4096,
            "num_heads": 32,
            "num_kv_heads": rng.choice((4, 8, 16, 32)),
            "head_dim": 128,
            "ffn_dim": 256 * rng.randrange(32, 64),
            "vocab_size": rng.randrange(32000, 160000),
            "mlp_kind": "gelu_2mat",
            "attention_kind": "causal_capable",
        })
        put("hw-nan.json", {
            "name": "nan-gpu",
            "peak_flops": float("nan"),
            "mem_bandwidth": 768e9,
            "mem_capacity": 48e9,
        })

        def scenario(model, hardware, mode, gen_len, **fields):
            doc = {
                "model": model,
                "hardware": hardware,
                "mode": mode,
                "batch": octave(rng, rng.randrange(6)),
                "prompt_len": octave(rng, rng.randrange(6, 11)),
                "gen_len": gen_len,
            }
            doc.update(fields)
            return doc

        def blocks(model, hardware, num_blocks, **fields):
            size = octave(rng, rng.randrange(2, 6))
            return scenario(model, hardware, "dlm_block", size * num_blocks, block_size=size, **fields)

        lm_head = {"include_lm_head": True}
        elementwise = {"count_elementwise_bytes": True}
        analyze = {
            "arm-registry": scenario("llama3-8b", "rtx-a6000", "arm", 32),
            "arm-files-no-prompt": scenario("model.json", "a100-80g", "arm", 24, prompt_len=0),
            "arm-hwfile-options": scenario(
                "llama3-8b", "hw.json", "arm", 48, options={**lm_head, **elementwise}
            ),
            "arm-files-int8-rect": scenario(
                "model.json", "hw.json", "arm", 16, dtype_bytes=1, options={"causal_exact": False}
            ),
            "naive-registry": scenario("llada-8b", "rtx-a6000", "dlm_naive", octave(rng, 7)),
            "naive-hwfile-steps": scenario(
                "llada-8b", "hw.json", "dlm_naive", octave(rng, 8), steps=64, options=lm_head
            ),
            "naive-modelfile": scenario(
                "model.json", "a100-80g", "dlm_naive", octave(rng, 6), options=elementwise
            ),
            "naive-fp32": scenario("llada-8b", "a100-80g", "dlm_naive", octave(rng, 9), dtype_bytes=4),
            "block-registry": blocks("llada-8b", "rtx-a6000", 4),
            "block-hwfile-refresh": blocks(
                "llada-8b", "hw.json", 8, options={"include_cache_refresh": True}
            ),
            "block-modelfile-refresh-head": blocks(
                "model.json", "rtx-a6000", 6, steps=96,
                options={"include_cache_refresh": True, **lm_head},
            ),
            "block-elementwise": blocks("llada-8b", "a100-80g", 3, options=elementwise),
        }

        naive_grid = {
            "model": "llada-8b",
            "hardware": "hw.json",
            "mode": "dlm_naive",
            "options": lm_head,
            "axes": {
                "batch": [octave(rng, k) for k in range(7)],
                "prompt_len": [octave(rng, k) for k in range(4, 14)],
                "gen_len": [octave(rng, k) for k in range(4, 14)],
            },
        }
        grid_size = math.prod(len(v) for v in naive_grid["axes"].values())

        gen = octave(rng, 6)
        rejects = {
            "reject-bad-json": None,
            "reject-unknown-field": scenario("llama3-8b", "rtx-a6000", "arm", 32, temperature=0.7),
            "reject-missing-gen-len": {
                k: v for k, v in scenario("llada-8b", "rtx-a6000", "dlm_naive", 64).items()
                if k != "gen_len"
            },
            "reject-block-gt-gen": scenario(
                "llada-8b", "rtx-a6000", "dlm_block", gen, block_size=gen + octave(rng, 3)
            ),
            "reject-steps-lt-blocks": scenario(
                "llada-8b", "rtx-a6000", "dlm_block", 8 * gen, block_size=gen, steps=7
            ),
            "reject-llada-arm": scenario("llada-8b", "rtx-a6000", "arm", 32),
            "reject-unknown-model": scenario("gpt-9", "rtx-a6000", "arm", 32),
            "spec-nan-peak-flops": scenario("llama3-8b", "hw-nan.json", "arm", 32),
            "spec-dtype-bytes-bool": scenario("llama3-8b", "rtx-a6000", "arm", 32, dtype_bytes=True),
        }

        ops = []
        self.scenario_paths = []
        for name, doc in analyze.items():
            path = put(f"{name}.json", doc)
            self.scenario_paths.append(path)
            ops.append(Op(name, ["analyze", "-c", path], "row"))
        count_lm_head = scenario("llama3-8b", "rtx-a6000", "arm", 32)
        twin = put("spec-count-lm-head.twin.json", {**count_lm_head, "options": lm_head})
        path = put("spec-count-lm-head.json", {**count_lm_head, "options": {"count_lm_head": True}})
        ops.append(Op("spec-count-lm-head", ["analyze", "-c", path], "row",
                      twin=["analyze", "-c", twin]))

        self.grid_path = grid_path = put("grid-naive.json", naive_grid)
        out = os.path.join(work, "out")
        os.makedirs(out, exist_ok=True)
        csv, roof, plot = (os.path.join(out, n) for n in ("sweep.csv", "roofline.svg", "plot.svg"))
        ops.append(Op("sweep-csv", ["sweep", "-c", grid_path, "-o", csv], "files", (csv,)))
        ops.append(Op("roofline-svg", ["roofline", "-c", grid_path, "-o", roof], "files", (roof,)))
        kind = rng.choice(("latency", "throughput", "ai"))
        ops.append(Op("plot-svg", ["plot", "--kind", kind, "-c", grid_path, "-o", plot],
                      "files", (plot,)))

        for name, doc in rejects.items():
            path = os.path.join(work, f"{name}.json")
            if doc is None:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write('{"model": "llama3-8b", "hardware": "rtx-a6000", "mode": ')
            else:
                put(f"{name}.json", doc)
            ops.append(Op(name, ["analyze", "-c", path], "reject"))
        bad_grid = put("reject-grid-point.json", {
            "model": "llada-8b",
            "hardware": "rtx-a6000",
            "mode": "dlm_block",
            "batch": 1,
            "prompt_len": octave(rng, 8),
            "block_size": 48,
            "axes": {"gen_len": [64, 96, 32]},
        })
        ops.append(Op("reject-grid-point", ["sweep", "-c", bad_grid, "-o", csv + ".rejected"],
                      "reject"))
        self.ops = ops
        # Scenarios the accepted operations evaluate: one per analyze, and
        # the whole grid for each of sweep, roofline and plot.
        self.points_per_pass = sum(op.expect == "row" for op in ops) + 3 * grid_size

    def load(self, L):
        return [L.load_scenario(path) for path in self.scenario_paths], L.load_grid(self.grid_path)

    def run(self, L):
        return [invoke_cli(L, op.argv) for op in self.ops]

    def _normalize(self, text: str) -> str:
        return text.replace(self.work, "<work>")

    def record(self, L, outputs) -> dict:
        """Reference results: what a correct program prints for each op."""
        ref = {}
        for op, (code, out, err) in zip(self.ops, outputs):
            if op.twin is not None:
                code, out, err = invoke_cli(L, op.twin)
            if op.name in KNOWN_SEED_DEFECTS and op.expect == "reject":
                ref[op.name] = {"exit": 1}
                continue
            want = {"row": 0, "files": 0, "reject": 1}[op.expect]
            if code != want:
                raise RuntimeError(f"{op.name}: exit {code}, want {want}: {err}")
            entry = {"exit": code}
            if op.expect == "row":
                entry["row"] = json.loads(out.splitlines()[-1])
            elif op.expect == "files":
                entry["stdout"] = self._normalize(out)
                entry["files"] = {os.path.basename(p): sha256_file(p) for p in op.outputs}
            ref[op.name] = entry
        return {"ops": ref}

    def check(self, outputs, ref) -> tuple[int, list[tuple[str, str]]]:
        failures = []
        for op, (code, out, err) in zip(self.ops, outputs):
            reason = self._check_op(op, code, out, err, ref["ops"][op.name])
            if reason:
                failures.append((op.name, reason))
        return len(self.ops), failures

    def _check_op(self, op: Op, code, out: str, err: str, want: dict) -> str | None:
        if op.expect == "row":
            return check_analyze(code, out, err, want["row"])
        if code is None:
            return "traceback: " + err.strip().splitlines()[-1]
        if code != want["exit"]:
            return f"exit {code}, want {want['exit']}"
        if op.expect == "reject":
            return None if out == "" else "a rejected input printed a result"
        if self._normalize(out) != want["stdout"]:
            return f"stdout {out.strip()!r} differs from the reference"
        for path in op.outputs:
            if sha256_file(path) != want["files"][os.path.basename(path)]:
                return f"{os.path.basename(path)} differs from the reference"
        return None


WORKLOADS = {
    # The analyzed probe point: batch 1 at gen_len 128 for the arm sweep, and
    # block_size 64 at gen_len 1024 (16 blocks) for the block sweep.
    "arm-decode-sweep": lambda: SweepWorkload("arm-decode-sweep", arm_decode_grid, "B", "B", 0),
    "dlm-block-refresh": lambda: SweepWorkload(
        "dlm-block-refresh", dlm_block_refresh_grid, "G", "block_size", 4
    ),
    "cli-mixed": CliWorkload,
}
