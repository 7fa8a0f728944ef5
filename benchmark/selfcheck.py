#!/usr/bin/env python3
"""Self-check of the benchmark: is it repeatable on this machine, right now?

Runs every workload of BENCHMARK.json twice untraced and once traced, all
with the same seed, and fails listing

  * each end-to-end metric whose two values differ by more than its own bound,
  * each deterministic metric (bound 0.001) or work digest that differs at all,
  * each shape guard broken: fewer than 100 ops, p90 / p50 > 4,
    unattributed_frac > 0.05, harness.trace_overhead_frac > 0.03.

Usage, from the repository root:  python3 benchmark/selfcheck.py [--seed N]
"""
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = 0.001


def run(workload, seed, trace):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload}: exit code {out.returncode}\n{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    head = {l.split()[0]: l.split()[1:] for l in lines if l.startswith(("workload ", "work_digest "))}
    ops = int(head["workload"][head["workload"].index("ops") + 1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return result, values, head["work_digest"][0], ops


def main():
    seed = int(sys.argv[sys.argv.index("--seed") + 1]) if "--seed" in sys.argv else 1
    problems = []
    for w in (w["name"] for w in SPEC["workloads"]):
        (r1, a, digest_a, ops), (r2, b, digest_b, _) = run(w, seed, 0), run(w, seed, 0)
        _, layers, digest_t, _ = run(w, seed, 1)
        for r in (r1, r2):
            if not r["correct"] or r["failed"]:
                problems.append(f"{w}: incorrect run ({r['failed']} of {r['attempted']} ops failed)")
        if len({digest_a, digest_b, digest_t}) != 1:
            problems.append(f"{w}: work digests differ: {digest_a} {digest_b} {digest_t}")
        for m in SPEC["end_to_end"]:
            x, y = a[m["name"]], b[m["name"]]
            if m["bound"] <= EXACT:
                if x != y:
                    problems.append(f"{w}: deterministic {m['name']} differs: {x} vs {y}")
            elif abs(x - y) / min(abs(x), abs(y)) > m["bound"]:
                problems.append(
                    f"{w}: {m['name']} {x:.6g} vs {y:.6g} {m['unit']} differ by more than {m['bound']:.0%}")
        guards = [
            ("ops >= 100", ops >= 100, ops),
            ("p90 / p50 <= 4", a["latency_p90_ms"] / a["latency_p50_ms"] <= 4,
             a["latency_p90_ms"] / a["latency_p50_ms"]),
            ("unattributed_frac <= 0.05", layers["unattributed_frac"] <= 0.05, layers["unattributed_frac"]),
            ("harness.trace_overhead_frac <= 0.03", layers["harness.trace_overhead_frac"] <= 0.03,
             layers["harness.trace_overhead_frac"]),
        ]
        for name, ok, value in guards:
            if not ok:
                problems.append(f"{w}: shape guard broken: {name} (got {value:.4g})")
        print(f"{w}: {a['throughput_ops_s']:.2f} / {b['throughput_ops_s']:.2f} ops/s, "
              f"p50 {a['latency_p50_ms']:.3f} / {b['latency_p50_ms']:.3f} ms, "
              f"unattributed {layers['unattributed_frac']:.3f}, "
              f"trace overhead {layers['harness.trace_overhead_frac']:.3f}", flush=True)
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
