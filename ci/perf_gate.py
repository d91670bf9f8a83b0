#!/usr/bin/env python3
"""CI perf-regression gate.

Runs the two perf benches in their smoke configurations, writes the results
to BENCH_pr.json, and compares them against the committed BENCH_baseline.json:

  bench_scalability_users --smoke --json
      Virtual-time metrics from the deterministic simulator (mean/p99 access
      latency per user count, hit rates, failure counts). These are exactly
      reproducible on any machine, so any regression past the tolerance is a
      HARD failure.

  bench_framerate --benchmark_format=json
      Wall-clock render throughput (google-benchmark). Absolute fps depends
      on the runner, so cross-run comparisons only WARN unless --strict.
      The pooled/serial fps ratio on the same run is machine-relative,
      though: on a 4+-core host the BM_NovelViewSynthesisPooled counters
      must show >= --min-speedup over BM_NovelViewSynthesis (hard failure).

  bench_compression --smoke --json
      Codec bytes-on-the-wire and ratios per wire format (stored, lfz1).
      The compressed sizes are deterministic, so any byte or ratio change
      against the baseline is a HARD failure. Wall-clock MB/s warns like
      fps. Two same-run machine-relative checks are always hard: the
      table-driven Huffman decode must be >= --min-decode-speedup over the
      bit-at-a-time reference, and the slicing-by-16 CRC-32 must be
      >= MIN_CRC32_SPEEDUP over its byte-at-a-time reference.

  bench_prefetch --smoke --json
      Client-agent policy engine on scripted cursor walks (virtual time, so
      fully deterministic -> all hard checks). Per row vs baseline: demand
      hit rate must not drop, wasted-prefetch bytes and demand p99 must stay
      within tolerance. Same-run: the predictive scheduler must strictly
      beat the paper's quadrant policy on the smooth-pan and reversal walks,
      and under the thrashing-cache rows the hybrid eviction policy must
      keep demand p99 at or below plain LRU with fewer pollution evictions.

  bench_scenarios --smoke --json
      Adversarial scenario suite (virtual time -> all hard checks). Per row
      vs baseline: mean/p99 within tolerance. Same-run SLO checks: the
      100-client flash crowd with admission control keeps its worst
      per-client p99 within the scenario SLO with no starved client, the
      identical crowd without admission misses that p99 by >= 2x, the
      teleport-under-faults chaos row detects injected corruption and loses
      nothing permanently, the warm site cache beats the cold one, the
      co-sited crowd with the cooperative site cache stages each hot view
      set over the WAN exactly once (restage leaders == distinct keys, with
      strictly fewer WAN bytes and a no-worse p99 than the
      every-agent-restages-alone control, and the coalescing counters
      bit-identical to the baseline), and on
      the PDA-class constrained link continuous LOD streaming holds every
      access inside the deadline (zero misses, nonzero coarse serves, every
      background refinement reaching full resolution) while the
      full-resolution-only control misses deadlines.

With --scale-full the gate instead runs the one bench that does not fit the
smoke budget:

  bench_scalability_users --json        (no --smoke: the 1000-user crowd row)
      The full-scale run the paper's future-work section asks for. All
      virtual-time metrics are deterministic, so the gate demands them
      bit-identical to the committed baseline: failed accesses, the
      worst-off client's delivery count, admission sheds, executed event
      count, and max-min solve counts are exact-match; mean/p99 latencies
      and the p99-vs-1-user degradation factor allow the usual float
      tolerance on parse/print round-trips. Host wall time only WARNS
      against --wall-budget (runner-dependent), but a run that cannot
      finish at all still fails the job via the CI timeout.

Rows: each check walks the rows the run printed and compares each against
its baseline row. A baseline row that the run did not print is a hard
failure in every section, so a bench that stops printing a row cannot pass
by omission.

Counters: the three virtual-time benches (scalability_users, prefetch,
scenarios) print every registry counter of a run in each row's "counters"
object under its registry name ("agent.demand_shed", "site.restage_leaders",
"sim.events_executed"), and BENCH_baseline.json keeps them the same way. The
gate reads them only by that name, through counter_reader. A name missing
from one row is 0 there (the run never registered it); a name the gate reads
that appears in no row of its section is a hard failure, so a misspelled
counter cannot pass a check by reading as 0.

Exit status is non-zero on any hard failure. A PR that intentionally changes
performance updates the baseline in the same commit:

  python3 ci/perf_gate.py --build-dir build --update-baseline
  python3 ci/perf_gate.py --build-dir build --scale-full --update-baseline

(the --scale-full update merges its section into the existing baseline file),
or carries the `perf-override` label, which skips the gate jobs entirely.
"""

import argparse
import json
import os
import subprocess
import sys

HARD_FAILURES = []
WARNINGS = []

# Same-run slicing-by-16 / bytewise CRC-32 ratio (about 7x on a 4-core Xeon).
MIN_CRC32_SPEEDUP = 3.0


def fail(msg):
    HARD_FAILURES.append(msg)
    print(f"FAIL: {msg}")


def warn(msg):
    WARNINGS.append(msg)
    print(f"warn: {msg}")


def counter_reader(section, rows):
    """Returns counter(row, name) for one bench section.

    Benches print every registry counter of a run under its registry name in
    the row's "counters" object, so this is the only way the gate reads a
    counter. A name missing from one row reads as 0: that row's run never
    registered it (co_sited/control builds no SiteCache). A name that
    appears in no row of `rows` (the section as this run produced it) is a
    misspelling or a counter that no longer exists, and would otherwise read
    as 0 and pass every check built on it, so it is a hard failure.
    """
    known = set().union(*(row.get("counters", {}) for row in rows))
    unknown = set()

    def counter(row, name):
        if name not in known and name not in unknown:
            unknown.add(name)
            fail(f"{section}: counter {name} appears in no row "
                 f"(misspelled, or no longer registered)")
        return row.get("counters", {}).get(name, 0)

    return counter


def require_baseline_rows(section, base_keys, pr_keys):
    """Hard-fails on every baseline row that this run did not print."""
    base_keys, pr_keys = set(base_keys), set(pr_keys)
    missing = sorted(base_keys - pr_keys, key=str)
    for key in missing:
        fail(f"{section}: baseline row {key} missing from this run")
    if not missing:
        print(f"ok:   {section}: all {len(base_keys)} baseline rows present "
              f"({len(pr_keys)} in this run)")


def run_json(cmd):
    print(f"+ {' '.join(cmd)}", flush=True)
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    # google-benchmark may prefix context lines before the JSON object.
    return json.loads(out[out.index("{"):])


def collect_scalability(build_dir):
    return run_json([os.path.join(build_dir, "bench", "bench_scalability_users"),
                     "--smoke", "--json"])


def collect_scalability_full(build_dir):
    return run_json([os.path.join(build_dir, "bench", "bench_scalability_users"),
                     "--json"])


def collect_framerate(build_dir):
    raw = run_json([os.path.join(build_dir, "bench", "bench_framerate"),
                    "--benchmark_format=json"])
    rows = []
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        if "fps" in bench:
            rows.append({"name": bench["name"], "fps": bench["fps"]})
    return {"benchmarks": rows}


def collect_compression(build_dir):
    return run_json([os.path.join(build_dir, "bench", "bench_compression"),
                     "--smoke", "--json"])


def collect_prefetch(build_dir):
    return run_json([os.path.join(build_dir, "bench", "bench_prefetch"),
                     "--smoke", "--json"])


def collect_scenarios(build_dir):
    return run_json([os.path.join(build_dir, "bench", "bench_scenarios"),
                     "--smoke", "--json"])


def check_scalability(pr, base, tolerance):
    base_rows = {row["users"]: row for row in base.get("results", [])}
    require_baseline_rows("scalability_users", base_rows,
                          (row["users"] for row in pr.get("results", [])))
    for row in pr.get("results", []):
        users = row["users"]
        tag = f"scalability_users[{users} users]"
        if row.get("failed", 0) > 0:
            fail(f"{tag}: {row['failed']} failed accesses")
        if users not in base_rows:
            warn(f"{tag}: no baseline row; add one with --update-baseline")
            continue
        ref = base_rows[users]
        for key in ("mean_total_s", "p99_worst_s"):
            got, want = row[key], ref[key]
            limit = want * (1.0 + tolerance)
            if got > limit:
                fail(f"{tag}: {key} {got:.4f}s exceeds baseline {want:.4f}s "
                     f"by more than {tolerance:.0%} (virtual time: deterministic)")
            else:
                print(f"ok:   {tag}: {key} {got:.4f}s (baseline {want:.4f}s)")


def check_scalability_full(pr, base, tolerance, wall_budget):
    """Full-scale (1000-user) run: every virtual metric gates, most exactly.

    The simulator is single-threaded virtual time, so event counts, solve
    counts, shed counters, and delivery floors reproduce bit-for-bit on any
    host. Latency percentiles pass through printf/parse round-trips, so they
    get the regular relative tolerance instead of exact equality.
    """
    base_rows = {row["users"]: row for row in base.get("results", [])}
    require_baseline_rows("scale_full", base_rows,
                          (row["users"] for row in pr.get("results", [])))
    counter = counter_reader("scale_full", pr.get("results", []))
    wall_total = 0.0
    for row in pr.get("results", []):
        users = row["users"]
        tag = f"scale_full[{users} users]"
        wall_total += row.get("wall_s", 0.0)
        if row.get("failed", 0) > 0:
            fail(f"{tag}: {row['failed']} failed accesses")
        if row.get("min_delivered", 0) == 0:
            fail(f"{tag}: a client was starved to zero deliveries")
        if users not in base_rows:
            warn(f"{tag}: no baseline row; add one with "
                 "--scale-full --update-baseline")
            continue
        ref = base_rows[users]
        exact_ok = True
        exact = {"accesses": (row.get("accesses"), ref.get("accesses"))}
        for name in ("agent.demand_shed", "sim.events_executed", "net.reallocs",
                     "net.realloc_flows_touched"):
            exact[name] = (counter(row, name), counter(ref, name))
        for key, (got, want) in exact.items():
            if want is not None and got != want:
                fail(f"{tag}: {key} {got} != baseline {want} "
                     f"(virtual time: must be bit-identical)")
                exact_ok = False
        for key in ("mean_total_s", "p99_worst_s", "p99_mean_s", "p99_vs_1user"):
            got, want = row[key], ref[key]
            if got > want * (1.0 + tolerance):
                fail(f"{tag}: {key} {got:.4f} exceeds baseline {want:.4f} "
                     f"by more than {tolerance:.0%} (virtual time: deterministic)")
                exact_ok = False
        if exact_ok:
            print(f"ok:   {tag}: {counter(row, 'sim.events_executed')} events, "
                  f"{counter(row, 'net.reallocs')} solves, "
                  f"p99-vs-1 {row['p99_vs_1user']:.2f}, "
                  f"min delivered {row['min_delivered']}, "
                  f"wall {row.get('wall_s', 0.0):.1f}s")
    if wall_total > wall_budget:
        warn(f"scale_full: total wall time {wall_total:.1f}s over the "
             f"{wall_budget:.0f}s budget (runner-dependent; check for a "
             f"scheduler/reallocator slowdown)")
    else:
        print(f"ok:   scale_full: total wall {wall_total:.1f}s "
              f"within the {wall_budget:.0f}s budget")


def fps_by_name(section):
    return {row["name"]: row["fps"] for row in section.get("benchmarks", [])}


def check_framerate(pr, base, tolerance, strict):
    report = fail if strict else warn
    pr_fps, base_fps = fps_by_name(pr), fps_by_name(base)
    for name, got in sorted(pr_fps.items()):
        if name not in base_fps:
            continue
        want = base_fps[name]
        if got < want * (1.0 - tolerance):
            report(f"framerate[{name}]: {got:.1f} fps vs baseline {want:.1f} fps "
                   f"(wall clock; runner-dependent)")
        else:
            print(f"ok:   framerate[{name}]: {got:.1f} fps (baseline {want:.1f})")


def check_speedup(pr, min_speedup, cores):
    """Pooled vs serial synthesis fps from the same run (machine-relative)."""
    fps = fps_by_name(pr)
    ratios = {}
    for name, value in fps.items():
        if name.startswith("BM_NovelViewSynthesisPooled/"):
            arg = name.rsplit("/", 1)[1]
            serial = fps.get(f"BM_NovelViewSynthesis/{arg}")
            if serial:
                ratios[arg] = value / serial
    if not ratios:
        fail("speedup: pooled/serial synthesis benchmark pair not found")
        return
    best = max(ratios.values())
    detail = ", ".join(f"{k}px: {v:.2f}x" for k, v in sorted(ratios.items()))
    if cores < 4:
        print(f"skip: speedup check needs >= 4 cores, host has {cores} ({detail})")
    elif best < min_speedup:
        fail(f"speedup: best pooled/serial ratio {best:.2f}x < {min_speedup}x ({detail})")
    else:
        print(f"ok:   speedup {best:.2f}x ({detail})")


def check_compression(pr, base, tolerance, strict, min_decode_speedup):
    """Deterministic bytes/ratio vs baseline + same-run relative checks."""
    report = fail if strict else warn
    base_rows = {row["mode"]: row for row in base.get("results", [])}
    pr_rows = {row["mode"]: row for row in pr.get("results", [])}
    require_baseline_rows("compression", base_rows, pr_rows)
    for mode, row in sorted(pr_rows.items()):
        tag = f"compression[{mode}]"
        if mode not in base_rows:
            warn(f"{tag}: no baseline row; add one with --update-baseline")
            continue
        ref = base_rows[mode]
        if row["bytes"] != ref["bytes"]:
            fail(f"{tag}: wire bytes {row['bytes']} != baseline {ref['bytes']} "
                 f"(compressed output is deterministic)")
        elif row["ratio"] < ref["ratio"] * (1.0 - 1e-6):
            fail(f"{tag}: ratio {row['ratio']:.4f} below baseline {ref['ratio']:.4f}")
        else:
            print(f"ok:   {tag}: {row['bytes']} bytes, ratio {row['ratio']:.2f}")
        for key in ("compress_mb_s", "decompress_mb_s"):
            got, want = row[key], ref.get(key)
            if want and got < want * (1.0 - tolerance):
                report(f"{tag}: {key} {got:.1f} vs baseline {want:.1f} "
                       f"(wall clock; runner-dependent)")
        # Copy accounting is deterministic: one metered decode of a stored
        # body copies exactly its payload, LZ bodies copy nothing.
        got = row.get("decode_copied_bytes")
        want = ref.get("decode_copied_bytes")
        if got is not None and want is not None and got != want:
            fail(f"{tag}: decode_copied_bytes {got} != baseline {want} "
                 f"(copy meter is deterministic; an extra pass crept in)")

    decode = pr.get("decode", {})
    speedup = decode.get("speedup", 0.0)
    if speedup < min_decode_speedup:
        fail(f"compression: table decode speedup {speedup:.2f}x < "
             f"{min_decode_speedup}x over bitwise")
    else:
        print(f"ok:   compression: table decode {speedup:.2f}x over bitwise "
              f"({decode.get('table_msym_s', 0):.1f} Msym/s)")

    # LoRS block checksum: machine-relative like the decode speedup; the
    # bench itself throws if the two kernels disagree.
    crc = pr.get("crc32", {})
    speedup = crc.get("speedup", 0.0)
    if speedup < MIN_CRC32_SPEEDUP:
        fail(f"compression[crc32]: slicing-by-16 speedup {speedup:.2f}x < "
             f"{MIN_CRC32_SPEEDUP}x over bytewise")
    else:
        print(f"ok:   compression[crc32]: {crc.get('fast_mb_s', 0):.1f} MB/s, "
              f"{speedup:.2f}x over bytewise")

    # Vectorized unfilter kernels: wall clock, so cross-run deltas only warn;
    # the fast/scalar bit-exactness is asserted inside the bench itself.
    filters = pr.get("filters", {})
    base_filters = base.get("filters", {})
    if filters:
        got, want = filters.get("fast_mb_s", 0.0), base_filters.get("fast_mb_s")
        if want and got < want * (1.0 - tolerance):
            report(f"compression[filters]: fast unfilter {got:.1f} MB/s vs "
                   f"baseline {want:.1f} (wall clock; runner-dependent)")
        else:
            print(f"ok:   compression[filters]: fast {got:.1f} MB/s, "
                  f"{filters.get('speedup', 0.0):.2f}x over scalar")

    # Zero-copy demand path: virtual-time scenario, every field deterministic.
    # Same-run invariants are the contract itself — a cold fetch is allowed
    # exactly one pass over the compressed payload, a warm hit none.
    demand = pr.get("demand", {})
    if demand:
        compressed = demand.get("compressed_bytes", 0)
        cold = demand.get("cold_copied_bytes")
        warm = demand.get("warm_copied_bytes")
        if cold != compressed:
            fail(f"compression[demand]: cold fetch copied {cold} bytes, "
                 f"expected exactly one pass over the {compressed}-byte payload")
        if warm != 0:
            fail(f"compression[demand]: warm cache hit copied {warm} bytes, "
                 f"expected 0 (hit must serve the pooled slab by reference)")
        base_demand = base.get("demand", {})
        for key in ("compressed_bytes", "cold_copied_bytes", "warm_copied_bytes"):
            got, want = demand.get(key), base_demand.get(key)
            if want is not None and got != want:
                fail(f"compression[demand]: {key} {got} != baseline {want} "
                     f"(virtual time: must be bit-identical)")
        if all("compression[demand]" not in f for f in HARD_FAILURES):
            print(f"ok:   compression[demand]: cold {cold} == payload "
                  f"{compressed}, warm {warm} == 0")
    else:
        fail("compression: demand copy section not found")


def check_prefetch(pr, base, tolerance):
    """Deterministic policy metrics vs baseline + same-run policy ordering."""
    base_rows = {row["name"]: row for row in base.get("results", [])}
    pr_rows = {row["name"]: row for row in pr.get("results", [])}
    require_baseline_rows("prefetch", base_rows, pr_rows)
    counter = counter_reader("prefetch", pr.get("results", []))
    for name, row in sorted(pr_rows.items()):
        tag = f"prefetch[{name}]"
        if row.get("failed", 0) > 0:
            fail(f"{tag}: {row['failed']} failed accesses")
        if name not in base_rows:
            warn(f"{tag}: no baseline row; add one with --update-baseline")
            continue
        ref = base_rows[name]
        if row["hit_rate"] < ref["hit_rate"] - 1e-6:
            fail(f"{tag}: hit rate {row['hit_rate']:.4f} below baseline "
                 f"{ref['hit_rate']:.4f} (virtual time: deterministic)")
        if row["wasted_bytes"] > ref["wasted_bytes"] * (1.0 + tolerance):
            fail(f"{tag}: wasted prefetch bytes {row['wasted_bytes']} exceed "
                 f"baseline {ref['wasted_bytes']} by more than {tolerance:.0%}")
        if row["p99_s"] > ref["p99_s"] * (1.0 + tolerance):
            fail(f"{tag}: demand p99 {row['p99_s']:.4f}s exceeds baseline "
                 f"{ref['p99_s']:.4f}s by more than {tolerance:.0%}")
        else:
            print(f"ok:   {tag}: hit {row['hit_rate']:.3f}, "
                  f"p99 {row['p99_s']:.4f}s, wasted {row['wasted_bytes']}B")

    # Same-run orderings: what the policy engine is *for*. All virtual-time.
    for script in ("smooth_pan", "reversal"):
        quad = pr_rows.get(f"{script}/quadrant")
        pred = pr_rows.get(f"{script}/predictive")
        if not quad or not pred:
            fail(f"prefetch[{script}]: quadrant/predictive row pair not found")
            continue
        if pred["hit_rate"] <= quad["hit_rate"]:
            fail(f"prefetch[{script}]: predictive hit rate {pred['hit_rate']:.4f} "
                 f"does not beat quadrant {quad['hit_rate']:.4f}")
        elif pred["mean_s"] > quad["mean_s"]:
            fail(f"prefetch[{script}]: predictive mean {pred['mean_s']:.4f}s "
                 f"slower than quadrant {quad['mean_s']:.4f}s")
        else:
            print(f"ok:   prefetch[{script}]: predictive {pred['hit_rate']:.3f} "
                  f"> quadrant {quad['hit_rate']:.3f} hit rate")

    lru = pr_rows.get("reversal/predictive/lru")
    hybrid = pr_rows.get("reversal/predictive/hybrid")
    polluters = "cache.pollution_evictions"
    if not lru or not hybrid:
        fail("prefetch: tight-cache lru/hybrid row pair not found")
    elif hybrid["p99_s"] > lru["p99_s"]:
        fail(f"prefetch[tight-cache]: hybrid p99 {hybrid['p99_s']:.4f}s above "
             f"lru {lru['p99_s']:.4f}s (demand working set not protected)")
    elif counter(hybrid, polluters) > counter(lru, polluters):
        fail(f"prefetch[tight-cache]: hybrid evicted {counter(hybrid, polluters)} "
             f"polluters vs lru {counter(lru, polluters)}")
    else:
        print(f"ok:   prefetch[tight-cache]: hybrid p99 {hybrid['p99_s']:.4f}s "
              f"<= lru {lru['p99_s']:.4f}s, pollution "
              f"{counter(hybrid, polluters)} vs {counter(lru, polluters)}")


def check_scenarios(pr, base, tolerance):
    """Deterministic SLO harness: per-row baselines + same-run invariants."""
    base_rows = {row["name"]: row for row in base.get("results", [])}
    pr_rows = {row["name"]: row for row in pr.get("results", [])}
    require_baseline_rows("scenarios", base_rows, pr_rows)
    counter = counter_reader("scenarios", pr.get("results", []))
    # Rows with a fault plan are *supposed* to fight for their bytes; every
    # other row must deliver everything.
    faulted = {"teleport_faults"}
    for name, row in sorted(pr_rows.items()):
        tag = f"scenarios[{name}]"
        if name not in faulted and row.get("failed", 0) > 0:
            fail(f"{tag}: {row['failed']} failed accesses on a fault-free row")
        if name not in base_rows:
            warn(f"{tag}: no baseline row; add one with --update-baseline")
            continue
        ref = base_rows[name]
        for key in ("mean_total_s", "p99_worst_s"):
            got, want = row[key], ref[key]
            limit = want * (1.0 + tolerance)
            if got > limit:
                fail(f"{tag}: {key} {got:.4f}s exceeds baseline {want:.4f}s "
                     f"by more than {tolerance:.0%} (virtual time: deterministic)")
            else:
                print(f"ok:   {tag}: {key} {got:.4f}s (baseline {want:.4f}s)")

    # Same-run invariants — the acceptance criteria of the overload work.
    adm = pr_rows.get("flash_crowd/admission")
    ctl = pr_rows.get("flash_crowd/no_admission")
    if not adm or not ctl:
        fail("scenarios: flash_crowd admission/no_admission row pair not found")
    else:
        slo = adm.get("slo_s", 1.0)
        if adm["p99_worst_s"] > slo:
            fail(f"scenarios[flash_crowd]: admission p99 {adm['p99_worst_s']:.3f}s "
                 f"misses the {slo:.1f}s SLO")
        if adm.get("min_delivered", 0) == 0:
            fail("scenarios[flash_crowd]: a client was starved to zero deliveries "
                 "under admission control")
        if adm.get("failed", 0) > 0:
            fail(f"scenarios[flash_crowd]: {adm['failed']} accesses permanently "
                 f"shed under admission control")
        if counter(adm, "agent.demand_shed") == 0:
            fail("scenarios[flash_crowd]: the crowd never tripped admission "
                 "(scenario lost its teeth)")
        if ctl["p99_worst_s"] < 2.0 * adm["p99_worst_s"]:
            fail(f"scenarios[flash_crowd]: control p99 {ctl['p99_worst_s']:.3f}s "
                 f"is not >= 2x admission p99 {adm['p99_worst_s']:.3f}s")
        if not HARD_FAILURES or all("flash_crowd" not in f for f in HARD_FAILURES):
            print(f"ok:   scenarios[flash_crowd]: admission p99 "
                  f"{adm['p99_worst_s']:.3f}s <= {slo:.1f}s SLO, control "
                  f"{ctl['p99_worst_s']:.3f}s ({ctl['p99_worst_s'] / adm['p99_worst_s']:.1f}x), "
                  f"{counter(adm, 'agent.demand_shed')} sheds, "
                  f"min delivered {adm['min_delivered']}")

    chaos = pr_rows.get("teleport_faults")
    if not chaos:
        fail("scenarios: teleport_faults row not found")
    else:
        if chaos.get("failed", 0) > 0:
            fail(f"scenarios[teleport_faults]: {chaos['failed']} accesses lost "
                 f"permanently under the fault plan")
        if counter(chaos, "lors.corruption_detected") == 0:
            fail("scenarios[teleport_faults]: injected corruption was never "
                 "detected (checksum path dark)")
        if chaos.get("min_delivered", 0) == 0:
            fail("scenarios[teleport_faults]: a client was starved to zero")
        if all("teleport_faults" not in f for f in HARD_FAILURES):
            print(f"ok:   scenarios[teleport_faults]: 0 lost, "
                  f"{counter(chaos, 'lors.corruption_detected')} corruptions detected, "
                  f"{counter(chaos, 'lors.failovers')} failovers")

    cold = pr_rows.get("site_cache/cold")
    warm = pr_rows.get("site_cache/warm")
    if not cold or not warm:
        fail("scenarios: site_cache cold/warm row pair not found")
    elif warm["mean_total_s"] > cold["mean_total_s"]:
        fail(f"scenarios[site_cache]: warm mean {warm['mean_total_s']:.4f}s above "
             f"cold {cold['mean_total_s']:.4f}s (prestaging not paying off)")
    else:
        print(f"ok:   scenarios[site_cache]: warm {warm['mean_total_s']:.4f}s <= "
              f"cold {cold['mean_total_s']:.4f}s")

    # Cooperative site cache (PR 10): the co-sited crowd must coalesce its
    # restage stampede to exactly one WAN staging per hot view set, and that
    # must buy strictly fewer WAN bytes and a no-worse tail than the control
    # where every agent restages alone.
    site = pr_rows.get("co_sited/site")
    ctrl = pr_rows.get("co_sited/control")
    if not site or not ctrl:
        fail("scenarios: co_sited site/control row pair not found")
    else:
        site_wan = counter(site, "agent.stage_wan_bytes")
        ctrl_wan = counter(ctrl, "agent.stage_wan_bytes")
        if site_wan >= ctrl_wan:
            fail(f"scenarios[co_sited]: site WAN staging bytes {site_wan} not "
                 f"below control {ctrl_wan} (coalescing bought nothing)")
        if site["p99_worst_s"] > ctrl["p99_worst_s"]:
            fail(f"scenarios[co_sited]: site p99 {site['p99_worst_s']:.3f}s "
                 f"worse than control {ctrl['p99_worst_s']:.3f}s")
        if counter(site, "agent.restage_coalesced") == 0:
            fail("scenarios[co_sited]: no restage was ever coalesced "
                 "(single-flight path dark)")
        if counter(site, "agent.site_adopted") == 0:
            fail("scenarios[co_sited]: no staging target was adopted from the "
                 "site index (sharing path dark)")
        leaders = counter(site, "site.restage_leaders")
        keys = counter(site, "site.restage_keys")
        if leaders == 0 or leaders != keys:
            fail(f"scenarios[co_sited]: {leaders} restage leaders for {keys} "
                 f"distinct view sets — the stampede fix demands exactly one "
                 f"WAN staging per hot view set")
        if counter(ctrl, "agent.restage_coalesced") != 0 or \
                counter(ctrl, "site.restage_leaders") != 0:
            fail("scenarios[co_sited]: the control row touched the site cache "
                 "(feature-off run is not actually off)")
        if all("co_sited" not in f for f in HARD_FAILURES):
            saved = 1.0 - site_wan / ctrl_wan
            print(f"ok:   scenarios[co_sited]: {leaders} stagings for {keys} "
                  f"view sets, WAN {site_wan} vs control "
                  f"{ctrl_wan} ({saved:.0%} saved), p99 "
                  f"{site['p99_worst_s']:.3f}s <= {ctrl['p99_worst_s']:.3f}s")

    # The coalescing counters are pure virtual-time bookkeeping, so they must
    # reproduce bit-for-bit against the baseline on every site-cache row.
    for name in ("site_cache/cold", "site_cache/warm",
                 "co_sited/site", "co_sited/control"):
        row, ref = pr_rows.get(name), base_rows.get(name)
        if not row or not ref:
            continue
        for key in ("agent.restaged", "agent.restage_coalesced",
                    "agent.site_adopted", "agent.stage_wan_bytes",
                    "site.restage_leaders", "site.restage_keys"):
            got, want = counter(row, key), counter(ref, key)
            if got != want:
                fail(f"scenarios[{name}]: {key} {got} != baseline {want} "
                     f"(virtual time: must be bit-identical)")

    # Continuous LOD streaming (PR 7): degrade resolution, never fluidity.
    lod = pr_rows.get("pda_link/lod")
    full = pr_rows.get("pda_link/full")
    if not lod or not full:
        fail("scenarios: pda_link lod/full row pair not found")
    else:
        if lod.get("deadline_misses", 0) > 0:
            fail(f"scenarios[pda_link]: LOD streaming missed the deadline on "
                 f"{lod['deadline_misses']} accesses (fluidity not held)")
        coarse = counter(lod, "agent.lod_coarse_serves")
        refined = counter(lod, "agent.lod_refined")
        refinements = counter(lod, "agent.lod_refinements")
        if coarse == 0:
            fail("scenarios[pda_link]: LOD streaming never served a coarse tier "
                 "(scenario lost its teeth or the selector is dark)")
        if refined == 0:
            fail("scenarios[pda_link]: no background refinement reached full "
                 "resolution (progressive refinement dark)")
        if refined != refinements:
            fail(f"scenarios[pda_link]: {refinements} refinements "
                 f"started but only {refined} completed")
        if full.get("deadline_misses", 0) == 0:
            fail("scenarios[pda_link]: the full-resolution control never missed "
                 "the deadline (link not constrained enough to prove anything)")
        if lod["p99_worst_s"] >= full["p99_worst_s"]:
            fail(f"scenarios[pda_link]: LOD p99 {lod['p99_worst_s']:.3f}s not "
                 f"below the full-only control {full['p99_worst_s']:.3f}s")
        if all("pda_link" not in f for f in HARD_FAILURES):
            print(f"ok:   scenarios[pda_link]: lod 0 misses "
                  f"({coarse} coarse, {refined}/{refinements} refined, "
                  f"p99 {lod['p99_worst_s']:.3f}s) vs control "
                  f"{full['deadline_misses']} misses, p99 {full['p99_worst_s']:.3f}s")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--baseline", default="BENCH_baseline.json")
    parser.add_argument("--out", default="BENCH_pr.json")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed relative regression (default 15%%)")
    parser.add_argument("--min-speedup", type=float, default=1.5)
    parser.add_argument("--min-decode-speedup", type=float, default=2.0,
                        help="required table/bitwise Huffman decode ratio")
    parser.add_argument("--strict", action="store_true",
                        help="wall-clock fps regressions fail instead of warning")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write the measurements to --baseline and exit")
    parser.add_argument("--scale-full", action="store_true",
                        help="gate the full (non-smoke) 1000-user scalability "
                             "run instead of the smoke suite")
    parser.add_argument("--wall-budget", type=float, default=300.0,
                        help="--scale-full wall-clock warn threshold in "
                             "seconds (default 300)")
    args = parser.parse_args()

    cores = os.cpu_count() or 1

    if args.scale_full:
        section = collect_scalability_full(args.build_dir)
        if args.update_baseline:
            # Merge: the full-run section rides in the same baseline file as
            # the smoke sections; do not clobber them.
            try:
                with open(args.baseline) as f:
                    baseline = json.load(f)
            except FileNotFoundError:
                baseline = {}
            baseline["scalability_users_full"] = section
            with open(args.baseline, "w") as f:
                json.dump(baseline, f, indent=2, sort_keys=True)
                f.write("\n")
            print(f"merged scalability_users_full into {args.baseline}")
            return 0
        results = {
            "meta": {"cores": cores, "mode": "scale-full"},
            "scalability_users_full": section,
        }
        with open(args.out, "w") as f:
            json.dump(results, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.out}")
        try:
            with open(args.baseline) as f:
                baseline = json.load(f)
        except FileNotFoundError:
            fail(f"missing {args.baseline}; create it with "
                 "--scale-full --update-baseline")
            return 1
        check_scalability_full(section,
                               baseline.get("scalability_users_full", {}),
                               args.tolerance, args.wall_budget)
        print(f"\nperf gate (scale-full): {len(HARD_FAILURES)} failure(s), "
              f"{len(WARNINGS)} warning(s)")
        return 1 if HARD_FAILURES else 0

    results = {
        "meta": {"cores": cores, "mode": "smoke"},
        "scalability_users": collect_scalability(args.build_dir),
        "framerate": collect_framerate(args.build_dir),
        "compression": collect_compression(args.build_dir),
        "prefetch": collect_prefetch(args.build_dir),
        "scenarios": collect_scenarios(args.build_dir),
    }

    target = args.baseline if args.update_baseline else args.out
    if args.update_baseline:
        # Preserve sections the smoke run does not produce (scale-full).
        try:
            with open(target) as f:
                prior = json.load(f)
        except FileNotFoundError:
            prior = {}
        for key in ("scalability_users_full",):
            if key in prior:
                results[key] = prior[key]
    with open(target, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {target}")
    if args.update_baseline:
        return 0

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except FileNotFoundError:
        fail(f"missing {args.baseline}; create it with --update-baseline")
        return 1

    check_scalability(results["scalability_users"],
                      baseline.get("scalability_users", {}), args.tolerance)
    check_framerate(results["framerate"], baseline.get("framerate", {}),
                    args.tolerance, args.strict)
    check_speedup(results["framerate"], args.min_speedup, cores)
    check_compression(results["compression"], baseline.get("compression", {}),
                      args.tolerance, args.strict, args.min_decode_speedup)
    check_prefetch(results["prefetch"], baseline.get("prefetch", {}),
                   args.tolerance)
    check_scenarios(results["scenarios"], baseline.get("scenarios", {}),
                    args.tolerance)

    print(f"\nperf gate: {len(HARD_FAILURES)} failure(s), {len(WARNINGS)} warning(s)")
    return 1 if HARD_FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
