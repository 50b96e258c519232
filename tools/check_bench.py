#!/usr/bin/env python3
"""Validate the machine-readable BENCH_*.json traces the benches emit.

Usage: tools/check_bench.py BENCH_lp.json BENCH_snd.json BENCH_service.json ...

Each file self-identifies through meta.bench; the matching schema check
runs and the script exits nonzero on the first violation. CI calls this
instead of inlining the assertions in the workflow, so the checks are
versioned with the code that produces the traces (schemas documented in
EXPERIMENTS.md).
"""

import json
import sys


class BenchError(Exception):
    pass


# Hard steady-state allocation budget for the sparse revised simplex,
# in amortized Gc minor words per pivot (lp.sparse.allocs_per_pivot,
# also words_per_pivot in BENCH_alloc.json). The Bigarray kernels
# measure ~220-310 words/pivot at n=128-256; the budget carries a ~3.3x
# headroom factor over that so refactorization-amortization drift (the
# gauge divides total words by pivot count, and refactor cadence shifts
# with Devex reference resets) never flaps the gate. This is headroom
# for *accounting* drift, not timing: minor-word deltas are
# deterministic allocation counts, so unlike the wall-clock gates no
# shared-runner relaxation applies and the budget is hard in every
# mode. For scale: the boxed-float kernels this replaced measured
# 3834.85 words/pivot at n=256 (recorded as baseline_words_per_pivot
# in BENCH_alloc.json), 3.7x over this budget.
WORDS_PER_PIVOT_BUDGET = 1024.0

# Hard ceilings on the LU engine's own deterministic counts over the lp
# bench's fixed n=128/256 anti-MST instances (identical in every mode),
# set at the figures measured on two identical smoke runs with OCaml
# 5.1. Pivots, refactorizations, cold rebuilds and dense fallbacks are
# pure functions of the instance and the code, so no runner-noise
# headroom applies: any increase is a change in the engine.
LU_COUNT_CEILINGS = {
    128: {"lu_pivots": 598, "lu_refactors": 8, "lu_rebuilds": 0, "lu_fallbacks": 0},
    256: {"lu_pivots": 1296, "lu_refactors": 12, "lu_rebuilds": 0, "lu_fallbacks": 0},
}


def need(obj, key, where):
    if key not in obj:
        raise BenchError(f"{where}: missing key {key!r}")
    return obj[key]


def check_lp(b):
    rows = need(b, "sparse", "lp_bench")
    if not rows:
        raise BenchError("lp_bench: empty sparse bench block")
    for row in rows:
        if row.get("agree") is not True:
            raise BenchError(f"lp_bench: sparse row disagrees: {row}")
        for key in ("n", "dense_ms", "sparse_ms", "speedup",
                    "dense_pivots", "sparse_pivots", "sparse_refactors"):
            need(row, key, "lp_bench sparse row")
    if need(b, "separation", "lp_bench").get("agree") is not True:
        raise BenchError(f"lp_bench: separation disagrees: {b['separation']}")
    meta = need(b, "meta", "lp_bench")
    if meta.get("sparse_backend") != "revised-simplex-sparse":
        raise BenchError(f"lp_bench: unexpected sparse backend: {meta}")
    if meta.get("sparse_engine") != "lu-ft":
        raise BenchError(f"lp_bench: sparse engine is not the LU default: {meta}")
    check_lp_lu(b, meta)
    summary = need(b, "summary", "lp_bench")
    for key in ("n64_speedup", "warm_pivots_total", "cold_pivots_total",
                "separation_speedup", "lu_max_n"):
        need(summary, key, "lp_bench summary")
    if summary["warm_pivots_total"] > summary["cold_pivots_total"]:
        raise BenchError(
            "lp_bench: warm-started cutting planes pivoted more than cold "
            f"({summary['warm_pivots_total']} > {summary['cold_pivots_total']})")


def check_lp_lu(b, meta):
    """The LU engine block (DESIGN.md section 11, EXPERIMENTS.md schema).

    Hard gates: rows present at the mode's required sizes, every row's
    cutting-plane cost agreeing with the independent LP (3) broadcast
    optimum on the same tree, the LU_COUNT_CEILINGS on pivots,
    refactorizations, cold rebuilds and dense fallbacks, and the
    allocs-per-pivot steady-state budget (hard — minor-word counts are
    deterministic allocation accounting, immune to shared-runner timing
    noise; see WORDS_PER_PIVOT_BUDGET).
    """
    rows = need(b, "lu", "lp_bench")
    if not rows:
        raise BenchError("lp_bench: empty lu bench block")
    required = {128, 256} if meta.get("mode") != "full" else {128, 256, 512, 1024}
    sizes = set()
    for row in rows:
        for key in ("n", "lu_ms", "lu_pivots", "lu_refactors", "lu_updates",
                    "lu_fill_nnz", "allocs_per_pivot", "lu_rebuilds",
                    "lu_fallbacks", "rounds", "cost", "lp3_cost"):
            need(row, key, "lp_bench lu row")
        n = row["n"]
        sizes.add(n)
        cost, lp3 = row["cost"], row["lp3_cost"]
        if row.get("agree") is not True or abs(cost - lp3) > 1e-6 * max(1.0, abs(lp3)):
            raise BenchError(
                f"lp_bench: LU cutting plane cost {cost} disagrees with the "
                f"LP (3) optimum {lp3} at n={n}: {row}")
        for key, ceiling in LU_COUNT_CEILINGS.get(n, {}).items():
            if row[key] > ceiling:
                raise BenchError(
                    f"lp_bench: {key} {row[key]} at n={n} exceeds the "
                    f"hard ceiling {ceiling}")
        if row["allocs_per_pivot"] > WORDS_PER_PIVOT_BUDGET:
            raise BenchError(
                f"lp_bench: lp.sparse.allocs_per_pivot "
                f"{row['allocs_per_pivot']:.0f} words at n={n} exceeds the "
                f"{WORDS_PER_PIVOT_BUDGET:.0f}-word hard budget")
    missing = required - sizes
    if missing:
        raise BenchError(
            f"lp_bench: lu block missing required sizes {sorted(missing)} "
            f"for mode {meta.get('mode')!r}")


def check_snd(b):
    frontier = need(b, "frontier", "snd_bench")
    if frontier.get("agree") is not True:
        raise BenchError(f"snd_bench: frontier disagrees with brute force: {frontier}")
    priced = need(need(frontier, "engine", "snd_bench frontier"),
                  "trees_priced", "snd_bench frontier.engine")
    total = need(frontier, "trees_total", "snd_bench frontier")
    if priced > total:
        raise BenchError(
            f"snd_bench: engine priced {priced} trees, brute enumerates {total}")
    for row in need(b, "scaling", "snd_bench"):
        if row.get("agree") is not True:
            raise BenchError(f"snd_bench: scaling row disagrees: {row}")
    summary = need(b, "summary", "snd_bench")
    if summary.get("frontier_target_met") is not True:
        raise BenchError(f"snd_bench: frontier solve-reduction target missed: {summary}")
    if need(summary, "max_n_engine", "snd_bench summary") < \
       need(summary, "max_n_brute", "snd_bench summary"):
        raise BenchError(f"snd_bench: engine scaled worse than brute force: {summary}")


def check_service(b):
    meta = need(b, "meta", "service_bench")
    load = need(b, "load", "service_bench")
    results = need(b, "results", "service_bench")
    latency = need(b, "latency_ms", "service_bench")
    requests = need(load, "requests", "service_bench load")
    if meta.get("mode") == "smoke" and requests < 1000:
        raise BenchError(f"service_bench: smoke replayed only {requests} requests (< 1000)")
    answered = sum(need(results, key, "service_bench results")
                   for key in ("ok", "deadline_expired", "parse_errors",
                               "solver_errors", "other_errors"))
    if answered != requests:
        raise BenchError(
            f"service_bench: {requests} requests but {answered} responses accounted for")
    if results["solver_errors"] != 0:
        raise BenchError(f"service_bench: {results['solver_errors']} solver errors")
    if results["deadline_expired"] < 1:
        raise BenchError("service_bench: no deadline expiry observed")
    if need(results, "cache_hits", "service_bench results") < 1:
        raise BenchError("service_bench: no cache hit observed")
    p50 = need(latency, "p50", "service_bench latency_ms")
    p99 = need(latency, "p99", "service_bench latency_ms")
    if not (0.0 <= p50 <= p99 <= need(latency, "max", "service_bench latency_ms")):
        raise BenchError(f"service_bench: latency percentiles out of order: {latency}")
    if need(b, "throughput_rps", "service_bench") <= 0.0:
        raise BenchError("service_bench: nonpositive throughput")

    # Sharding at saturation (DESIGN.md section 12): N >= 2 shards must
    # not be slower than the single-dispatcher baseline. Timing floor
    # follows the repo's shared-runner policy: hard >= 0.8x with a
    # warning below 1.0x in smoke mode, strict >= 1.0x in full mode.
    strict = meta.get("mode") == "full"
    sat = need(b, "saturation", "service_bench")
    if need(sat, "shards", "service_bench saturation") < 2:
        raise BenchError("service_bench: saturation block ran with < 2 shards")
    for key in ("baseline_rps", "sharded_rps"):
        if need(sat, key, "service_bench saturation") <= 0.0:
            raise BenchError(f"service_bench: nonpositive saturation {key}")
    speedup = need(sat, "speedup", "service_bench saturation")
    floor = 1.0 if strict else 0.8
    if speedup < floor:
        raise BenchError(
            f"service_bench: {sat['shards']} shards reached only "
            f"{speedup:.2f}x the single-dispatcher saturation rps "
            f"(floor {floor:.1f}x)")
    if not strict and speedup < 1.0:
        print(f"WARNING: service_bench: sharded saturation speedup "
              f"{speedup:.2f}x < 1.0x (smoke timing, advisory)",
              file=sys.stderr)

    # Open-loop overload (EXPERIMENTS.md schema): every offered request
    # answered (shed-not-crash), zero solver errors under overload, real
    # shedding at 2x, shed counts monotone in load, and p99 monotone in
    # load (warn below 1.0x for shared-runner noise, hard fail below
    # 0.5x — inverted latency means the harness is broken).
    ol = need(b, "open_loop", "service_bench")
    runs = need(ol, "runs", "service_bench open_loop")
    if len(runs) < 2:
        raise BenchError("service_bench: open_loop needs runs at >= 2 load factors")
    per_run = need(ol, "requests_per_run", "service_bench open_loop")
    by_load = {}
    for run in runs:
        where = "service_bench open_loop run"
        load = need(run, "load_factor", where)
        answered = sum(need(run, key, where)
                       for key in ("ok", "shed", "deadline_expired", "errors"))
        if answered != per_run:
            raise BenchError(
                f"service_bench: open loop at {load}x answered {answered} of "
                f"{per_run} offered requests")
        if run["errors"] != 0:
            raise BenchError(
                f"service_bench: {run['errors']} solver errors under "
                f"{load}x open-loop load")
        lat = need(run, "latency_ms", where)
        if not (0.0 <= need(lat, "p50", where) <= need(lat, "p99", where)
                <= need(lat, "p999", where) <= need(lat, "max", where)):
            raise BenchError(
                f"service_bench: open-loop latency percentiles out of order "
                f"at {load}x: {lat}")
        by_load[load] = run
    if 1.0 not in by_load or 2.0 not in by_load:
        raise BenchError(
            f"service_bench: open loop must include 1.0x and 2.0x runs, "
            f"got {sorted(by_load)}")
    run_1x, run_2x = by_load[1.0], by_load[2.0]
    if run_2x["shed"] < 1:
        raise BenchError("service_bench: no shedding under 2x open-loop overload")
    if run_2x["shed"] < run_1x["shed"]:
        raise BenchError(
            f"service_bench: shed count fell with load "
            f"({run_1x['shed']} at 1x, {run_2x['shed']} at 2x)")
    p99_1x = run_1x["latency_ms"]["p99"]
    p99_2x = run_2x["latency_ms"]["p99"]
    if p99_1x > 0.0:
        ratio = p99_2x / p99_1x
        if ratio < 0.5:
            raise BenchError(
                f"service_bench: p99 fell to {ratio:.2f}x under 2x overload "
                f"({p99_1x:.2f}ms -> {p99_2x:.2f}ms) — harness broken")
        if ratio < 1.0:
            print(f"WARNING: service_bench: p99 not monotone in load "
                  f"({p99_1x:.2f}ms at 1x, {p99_2x:.2f}ms at 2x; "
                  f"shared-runner timing, advisory)", file=sys.stderr)

    if need(need(b, "summary", "service_bench"), "gates_met",
            "service_bench summary") is not True:
        raise BenchError("service_bench: the bench's own gates failed")


def check_churn(b):
    """BENCH_churn.json: incremental re-solve sessions under a churn trace.

    Correctness is a hard failure (warm/cold disagreement, a missing
    rational certificate, a nonconverged resolve, malformed schema); the
    >= 5x warm-vs-cold speedup target is a warning only — latency on
    shared CI runners is advisory.
    """
    trace = need(b, "trace", "churn_bench")
    steps = need(trace, "steps", "churn_bench trace")
    if steps < 1:
        raise BenchError("churn_bench: empty trace")
    mutations = (need(trace, "weight_deltas", "churn_bench trace")
                 + need(trace, "add_player", "churn_bench trace")
                 + need(trace, "remove_player", "churn_bench trace"))
    if mutations != steps:
        raise BenchError(
            f"churn_bench: {steps} steps but {mutations} deltas accounted for")
    backends = need(b, "backends", "churn_bench")
    slow = []
    for name in ("dense", "sparse"):
        side = need(backends, name, f"churn_bench backends")
        where = f"churn_bench {name}"
        if side.get("agree") is not True:
            raise BenchError(f"{where}: warm resolve disagrees with cold solve")
        if side.get("converged") is not True:
            raise BenchError(f"{where}: a resolve did not converge")
        for block in ("warm_ms", "cold_ms"):
            ms = need(side, block, where)
            if not (0.0 <= need(ms, "p50", where) <= need(ms, "p99", where)):
                raise BenchError(f"{where}: {block} percentiles out of order: {ms}")
        for key in ("pivots_per_resolve", "cold_pivots_per_solve",
                    "rounds_per_resolve", "warm_starts"):
            if need(side, key, where) < 0:
                raise BenchError(f"{where}: negative {key}")
        reuse = need(side, "cut_reuse_rate", where)
        if not (0.0 <= reuse <= 1.0):
            raise BenchError(f"{where}: cut_reuse_rate {reuse} outside [0, 1]")
        speedup = need(side, "speedup_p50", where)
        if speedup < 5.0:
            slow.append(f"{name} {speedup:.1f}x")
    rational = need(b, "rational", "churn_bench")
    if rational.get("all_certified") is not True:
        raise BenchError("churn_bench: a step lacks its exact-rational certificate")
    if need(rational, "certified_steps", "churn_bench rational") != steps:
        raise BenchError(
            f"churn_bench: certified {rational['certified_steps']} of {steps} steps")
    if need(b, "snd_churn", "churn_bench").get("agree") is not True:
        raise BenchError(
            "churn_bench: SND frontier diverged after cache invalidation")
    if need(need(b, "summary", "churn_bench"), "gates_met",
            "churn_bench summary") is not True:
        raise BenchError("churn_bench: the bench's own gates failed")
    if slow:
        print("check_bench: WARNING: churn_bench warm p50 speedup below the "
              f"5x target ({', '.join(slow)}) — advisory on shared runners",
              file=sys.stderr)


def check_alloc(b):
    """BENCH_alloc.json: steady-state allocation on the solver hot paths.

    Every gate here is hard, smoke mode included: minor-word counts are
    deterministic allocation accounting, not wall clock (see
    WORDS_PER_PIVOT_BUDGET for the documented headroom). Gates: pivot
    rows at the required sizes within the per-pivot budget, a >= 10x
    reduction against the recorded boxed-kernel baseline at n=256,
    separation allocation O(1) per unit of separation work (a round
    prices n players over m edges, so words/round/(n*m) must not grow
    with n), zero arena regrowth once warm, and a measured per-request
    gauge on the service path.
    """
    meta = need(b, "meta", "alloc_bench")
    rows = need(b, "pivot", "alloc_bench")
    if not rows:
        raise BenchError("alloc_bench: empty pivot block")
    sizes = set()
    for row in rows:
        for key in ("n", "m", "pivots", "refactors", "rounds",
                    "words_per_pivot", "words_per_round", "cost"):
            need(row, key, "alloc_bench pivot row")
        n = row["n"]
        sizes.add(n)
        if row["words_per_pivot"] > WORDS_PER_PIVOT_BUDGET:
            raise BenchError(
                f"alloc_bench: {row['words_per_pivot']:.0f} words/pivot at "
                f"n={n} exceeds the {WORDS_PER_PIVOT_BUDGET:.0f}-word hard "
                "budget")
    required = {128, 256} if meta.get("mode") != "full" else {128, 256, 512}
    missing = required - sizes
    if missing:
        raise BenchError(
            f"alloc_bench: pivot block missing required sizes "
            f"{sorted(missing)} for mode {meta.get('mode')!r}")
    summary = need(b, "summary", "alloc_bench")
    baseline = need(summary, "baseline_words_per_pivot", "alloc_bench summary")
    reduction = need(summary, "reduction_at_n256", "alloc_bench summary")
    if reduction < 10.0:
        raise BenchError(
            f"alloc_bench: words/pivot at n=256 only {reduction:.1f}x below "
            f"the {baseline:.0f}-word boxed-kernel baseline (>= 10x required)")
    sep_ratio = need(summary, "sep_words_per_unit_ratio", "alloc_bench summary")
    if sep_ratio > 1.5:
        raise BenchError(
            f"alloc_bench: separation words per player*edge grew {sep_ratio:.2f}x "
            "across sizes — per-round allocation is not O(1) in n")
    arena = need(b, "arena", "alloc_bench")
    for key in ("refactor_grows_delta", "dijkstra_grows_delta"):
        delta = need(arena, key, "alloc_bench arena")
        if delta != 0:
            raise BenchError(
                f"alloc_bench: {key} = {delta} — scratch reallocated after "
                "warm-up (arena reuse broken)")
    service = need(b, "service", "alloc_bench")
    if need(service, "requests", "alloc_bench service") < 1:
        raise BenchError("alloc_bench: no service requests measured")
    if need(service, "words_per_request", "alloc_bench service") <= 0.0:
        raise BenchError("alloc_bench: service.request_words gauge not measured")
    if need(summary, "gates_met", "alloc_bench summary") is not True:
        raise BenchError("alloc_bench: the bench's own gates failed")


CHECKS = {
    "lp_bench": check_lp,
    "snd_bench": check_snd,
    "service_bench": check_service,
    "churn_bench": check_churn,
    "alloc_bench": check_alloc,
}


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in paths:
        try:
            with open(path) as f:
                b = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"check_bench: {path}: unreadable: {e}", file=sys.stderr)
            return 1
        name = b.get("meta", {}).get("bench")
        check = CHECKS.get(name)
        if check is None:
            print(f"check_bench: {path}: unknown bench {name!r} "
                  f"(expected one of {sorted(CHECKS)})", file=sys.stderr)
            return 1
        try:
            check(b)
        except BenchError as e:
            print(f"check_bench: {path}: {e}", file=sys.stderr)
            return 1
        print(f"check_bench: {path}: ok ({name}, mode={b['meta'].get('mode')})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
